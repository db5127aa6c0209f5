package harness

import (
	"fmt"
	"io"
	"time"

	"skipper/internal/distrib"
	"skipper/internal/exec"
	"skipper/internal/track"
)

// Transports lists the executive communication backends the experiments
// can run over: "mem" is the in-process goroutine executive, "tcp" runs
// the same schedule split across a hub and one node per remaining
// processor over localhost sockets, "unix" is the same multi-process
// split over unix-domain sockets, and "shm" layers the shared-memory
// slab-ring upgrade on the unix plane (DESIGN.md §9) — frames travel
// through mmap'd per-connection rings, sockets carry only doorbells.
var Transports = []string{"mem", "tcp", "unix", "shm"}

// e4Spec is the E4 deployment (ring(8), 256x256, 2 vehicles, seed 21).
func e4Spec(iters int) distrib.Spec {
	return distrib.Spec{Job: distrib.Job{
		Topology: "ring", Procs: 8,
		Width: 256, Height: 256,
		Vehicles: 2, Seed: 21, Iters: iters,
	}}
}

// runExecutiveOn executes the E4 tracking deployment on the named
// transport and returns the per-iteration results recorded at the
// processor hosting the display node, alongside the coordinator's run
// result (transport statistics, optional trace).
func runExecutiveOn(transport string, iters int) ([]track.Result, *exec.RunResult, error) {
	return runExecutiveSpec(transport, e4Spec(iters))
}

// runExecutiveSpec is runExecutiveOn with the caller controlling the full
// deployment spec (pipeline mode, determinism, fault-tolerance knobs).
func runExecutiveSpec(transport string, sp distrib.Spec) ([]track.Result, *exec.RunResult, error) {
	switch transport {
	case "mem":
		rec, res, err := distrib.RunInProcess(sp, 2*time.Minute)
		if err != nil {
			return nil, nil, err
		}
		return rec.Results, res, nil
	case "tcp", "unix", "shm":
		// One hub (processor 0) plus one client per remaining processor,
		// each with its own freshly built registry — the same isolation a
		// per-processor OS process has, over real sockets (localhost TCP or
		// a unix-domain socket per the named transport; "shm" additionally
		// upgrades every connection to a shared-memory ring).
		listen, cleanup, err := distrib.HubListenAddr(transport)
		if err != nil {
			return nil, nil, err
		}
		defer cleanup()
		if transport == "shm" {
			sp.DataPlane = "shm"
		}
		errCh := make(chan error, sp.Procs-1)
		spawn := func(addr string, fail func(error)) error {
			for p := 1; p < sp.Procs; p++ {
				go func(p int) {
					err := distrib.RunNode(sp, p, addr, 2*time.Minute)
					if err != nil {
						fail(err)
					}
					errCh <- err
				}(p)
			}
			return nil
		}
		rec, res, err := distrib.RunCoordinator(sp, listen, spawn, 2*time.Minute)
		if err != nil {
			return nil, nil, err
		}
		for i := 1; i < sp.Procs; i++ {
			if nerr := <-errCh; nerr != nil {
				return nil, nil, nerr
			}
		}
		return rec.Results, res, nil
	}
	return nil, nil, fmt.Errorf("harness: unknown transport %q", transport)
}

// E4On is E4 with the parallel-executive leg running over the named
// transport: the emulation/executive/simulator equivalence must hold
// whether the executive's processors share an address space or talk TCP.
func E4On(w io.Writer, iters int, transport string) (*E4Result, error) {
	emu, err := runE4Mode("emulate", iters)
	if err != nil {
		return nil, err
	}
	par, runRes, err := runExecutiveOn(transport, iters)
	if err != nil {
		return nil, err
	}
	simr, err := runE4Mode("simulate", iters)
	if err != nil {
		return nil, err
	}
	same := resultsIdentical(emu, par) && resultsIdentical(emu, simr)
	out := &E4Result{Iterations: iters, Identical: same}
	if runRes != nil {
		out.Messages, out.Hops, out.Direct = runRes.Messages, runRes.Hops, runRes.Direct
	}
	fmt.Fprintf(w, "E4[%s]: emulation vs executive vs simulator over %d iterations: identical = %v (%d msgs, %d hops, %d direct)\n",
		transport, iters, same, out.Messages, out.Hops, out.Direct)
	return out, nil
}

// resultsIdentical compares two tracking traces field by field.
func resultsIdentical(a, b []track.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Tracking != y.Tracking || x.Vehicles != y.Vehicles || len(x.Marks) != len(y.Marks) {
			return false
		}
		for j := range x.Marks {
			if x.Marks[j] != y.Marks[j] {
				return false
			}
		}
	}
	return true
}
