package harness

import (
	"io"
	"testing"
)

// TestE4IdenticalOverAllTransports is the transport acceptance gate: the
// emulation/executive/simulator equivalence (E4) must hold with the
// executive running in-process AND split across TCP node processes.
func TestE4IdenticalOverAllTransports(t *testing.T) {
	for _, tr := range Transports {
		t.Run(tr, func(t *testing.T) {
			res, err := E4On(io.Discard, 6, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Identical {
				t.Fatalf("execution paths diverge over %s transport", tr)
			}
			if res.Messages == 0 {
				t.Fatalf("%s: coordinator reported zero messages", tr)
			}
			// Hops vs Direct semantics (exec.RunResult godoc): hops are link
			// traversals — accounted from the architecture graph on mem,
			// always zero on net, whose hub relays nothing; direct counts
			// peer-mesh frames and is always zero on mem and on the hub itself.
			switch tr {
			case "mem":
				if res.Hops == 0 {
					t.Error("mem: messages crossed the ring but no link traversal was accounted (Hops == 0)")
				}
				if res.Direct != 0 {
					t.Errorf("mem: Direct must be zero, got %d", res.Direct)
				}
			case "tcp":
				if res.Hops != 0 {
					t.Errorf("tcp: %d hops counted; the hub relays nothing, every frame is one hop", res.Hops)
				}
				if res.Direct != 0 {
					t.Errorf("tcp: coordinator (hub) counted %d direct frames; Direct is sender-side and the hub never uses the mesh", res.Direct)
				}
			}
		})
	}
}

// TestPipelinedIdenticalOverAllTransports: the software-pipelined itermem
// executive (DESIGN.md §7) must reproduce the sequential executive's
// tracking results bit for bit on every transport — in-process goroutines,
// localhost TCP node processes, and unix-domain-socket node processes.
func TestPipelinedIdenticalOverAllTransports(t *testing.T) {
	const iters = 6
	ref, _, err := runExecutiveOn("mem", iters)
	if err != nil {
		t.Fatal(err)
	}
	sp := e4Spec(iters)
	sp.Pipeline = true
	for _, tr := range Transports {
		t.Run(tr, func(t *testing.T) {
			got, _, err := runExecutiveSpec(tr, sp)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsIdentical(ref, got) {
				t.Fatalf("pipelined executive over %s diverges from the sequential reference", tr)
			}
		})
	}
}

// TestE1E5UnaffectedByTransport pins that the latency (E1) and load
// balancing (E5) experiments still pass alongside the transport-split
// executive: E1 models the network in virtual time and E5 in closed form,
// so their numbers are transport-independent by construction — but they
// must keep reproducing the paper's envelope while the tcp machinery is
// linked in.
func TestE1E5UnaffectedByTransport(t *testing.T) {
	e1, err := E1(io.Discard, 40)
	if err != nil {
		t.Fatal(err)
	}
	if e1.TrackingMS <= 0 || e1.TrackingMS >= 40 {
		t.Fatalf("E1 tracking latency %.1f ms outside envelope", e1.TrackingMS)
	}
	if e1.ReinitMS < 80 || e1.ReinitMS > 120 {
		t.Fatalf("E1 reinit latency %.1f ms outside envelope", e1.ReinitMS)
	}
	e5, err := E5(io.Discard, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !e5.DFWinsOnSkewed {
		t.Fatal("E5: dynamic farm no longer beats static split on skewed loads")
	}
}
