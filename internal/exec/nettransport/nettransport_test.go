package nettransport_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/dsl/parser"
	"skipper/internal/dsl/types"
	"skipper/internal/exec"
	"skipper/internal/exec/nettransport"
	"skipper/internal/exec/transport"
	"skipper/internal/expand"
	"skipper/internal/graph"
	"skipper/internal/syndex"
	"skipper/internal/value"
)

func compile(t *testing.T, src string, reg *value.Registry, a *arch.Arch) *syndex.Schedule {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	res, err := expand.Expand(prog, info, reg)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	s, err := syndex.Map(res.Graph, a, reg, syndex.Structured)
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	return s
}

func baseRegistry() *value.Registry {
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "source", Sig: "int -> int list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			n := a[0].(int)
			out := make(value.List, n)
			for i := range out {
				out[i] = i + 1
			}
			return out
		}})
	r.Register(&value.Func{Name: "square", Sig: "int -> int", Arity: 1,
		Fn: func(a []value.Value) value.Value { x := a[0].(int); return x * x }})
	r.Register(&value.Func{Name: "add", Sig: "int -> int -> int", Arity: 2,
		Fn: func(a []value.Value) value.Value { return a[0].(int) + a[1].(int) }})
	return r
}

const farmSrc = `
extern source : int -> int list;;
extern square : int -> int;;
extern add : int -> int -> int;;
let main = df 4 square add 0 (source 10);;
`

const farmWant = 385 // sum of squares 1..10

// runSplit executes a schedule with processor 0 on a Hub and every other
// processor on its own Client — the same shape as one OS process per
// processor, in-process for test speed but over real localhost sockets.
// Each node builds its own registry, as separate OS processes would.
func runSplit(t *testing.T, src string, a *arch.Arch, iters int, mkReg func() *value.Registry) []value.Value {
	t.Helper()
	s := compile(t, src, mkReg(), a)
	const fp = 0xfeed
	hub, err := nettransport.NewHub("127.0.0.1:0", a, fp, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	var wg sync.WaitGroup
	errs := make([]error, a.N)
	for p := 1; p < a.N; p++ {
		wg.Add(1)
		go func(p arch.ProcID) {
			defer wg.Done()
			reg := mkReg()
			ns := compile(t, src, reg, a)
			cl, err := nettransport.Dial(hub.Addr(), fp, []arch.ProcID{p}, 5*time.Second)
			if err != nil {
				errs[p] = err
				hub.Abort()
				return
			}
			defer cl.Close()
			_, err = exec.NewMachineOn(ns, reg, cl, []arch.ProcID{p}).RunWithTimeout(iters, 20*time.Second)
			errs[p] = err
		}(arch.ProcID(p))
	}
	res, err := exec.NewMachineOn(s, mkReg(), hub, []arch.ProcID{0}).RunWithTimeout(iters, 20*time.Second)
	wg.Wait()
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for p, e := range errs {
		if e != nil {
			t.Fatalf("node %d: %v", p, e)
		}
	}
	return res.Outputs
}

func TestFarmOverTCPMatchesMem(t *testing.T) {
	reg := baseRegistry()
	a := arch.Ring(4)
	s := compile(t, farmSrc, reg, a)
	memRes, err := exec.NewMachine(s, reg).Run(2)
	if err != nil {
		t.Fatal(err)
	}
	tcpOuts := runSplit(t, farmSrc, a, 2, baseRegistry)
	if len(tcpOuts) != len(memRes.Outputs) {
		t.Fatalf("tcp produced %d outputs, mem %d", len(tcpOuts), len(memRes.Outputs))
	}
	for i := range tcpOuts {
		if tcpOuts[i] != memRes.Outputs[i] || tcpOuts[i] != farmWant {
			t.Fatalf("iteration %d: tcp %v, mem %v, want %d", i, tcpOuts[i], memRes.Outputs[i], farmWant)
		}
	}
}

func TestStreamOverTCP(t *testing.T) {
	// Stateful itermem stream: the Mem feedback crosses iterations inside
	// each node process; the frame values cross the wire.
	mkReg := func() *value.Registry {
		r := value.NewRegistry()
		n := 0
		r.Register(&value.Func{Name: "grab", Sig: "unit -> int", Arity: 1,
			Fn: func([]value.Value) value.Value { n++; return n }})
		r.Register(&value.Func{Name: "step", Sig: "int * int -> int * int", Arity: 1,
			Fn: func(a []value.Value) value.Value {
				p := a[0].(value.Tuple)
				sum := p[0].(int) + p[1].(int)
				return value.Tuple{sum, sum}
			}})
		r.Register(&value.Func{Name: "show", Sig: "int -> unit", Arity: 1,
			Fn: func([]value.Value) value.Value { return value.Unit{} }})
		return r
	}
	src := `
extern grab : unit -> int;;
extern step : int * int -> int * int;;
extern show : int -> unit;;
let main = itermem grab step show 0 ();;
`
	outs := runSplit(t, src, arch.Ring(2), 4, mkReg)
	want := []int{1, 3, 6, 10}
	for i, w := range want {
		if outs[i] != w {
			t.Fatalf("outputs = %v, want %v", outs, want)
		}
	}
}

func TestHubRejectsFingerprintMismatch(t *testing.T) {
	a := arch.Ring(2)
	hub, err := nettransport.NewHub("127.0.0.1:0", a, 0x1111, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	_, err = nettransport.Dial(hub.Addr(), 0x2222, []arch.ProcID{1}, time.Second)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched fingerprint accepted: %v", err)
	}
}

func TestHubRejectsDuplicateProcessor(t *testing.T) {
	a := arch.Ring(3)
	hub, err := nettransport.NewHub("127.0.0.1:0", a, 7, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	c1, err := nettransport.Dial(hub.Addr(), 7, []arch.ProcID{1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := nettransport.Dial(hub.Addr(), 7, []arch.ProcID{1}, time.Second); err == nil {
		t.Fatal("duplicate processor claim accepted")
	}
	if _, err := nettransport.Dial(hub.Addr(), 7, []arch.ProcID{0}, time.Second); err == nil {
		t.Fatal("coordinator-hosted processor claim accepted")
	}
}

// TestBufferedFramesReachLateAttacher: a hub Send to a processor that has
// not attached yet waits for the session to be ready instead of parking the
// frame, so it still reaches the late attacher — and an Abort releases a
// Send waiting on an attach that never comes.
func TestBufferedFramesReachLateAttacher(t *testing.T) {
	a := arch.Ring(2)
	hub, err := nettransport.NewHub("127.0.0.1:0", a, 7, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	k := transport.EdgeKey(graph.EdgeID(3))
	sent := make(chan struct{})
	go func() {
		hub.Send(0, 1, k, "early") // before processor 1 attaches: waits
		close(sent)
	}()
	cl, err := nettransport.Dial(hub.Addr(), 7, []arch.ProcID{1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	v, ok := cl.Recv(1, k)
	if !ok || v.(string) != "early" {
		t.Fatalf("early frame lost: %v %v", v, ok)
	}
	<-sent

	lone, err := nettransport.NewHub("127.0.0.1:0", a, 8, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer lone.Close()
	sent2 := make(chan struct{})
	go func() {
		lone.Send(0, 1, k, "never") // processor 1 never attaches
		close(sent2)
	}()
	select {
	case <-sent2:
		t.Fatal("Send to a processor that never attached returned before Abort")
	case <-time.After(50 * time.Millisecond):
	}
	start := time.Now()
	lone.Abort()
	select {
	case <-sent2:
	case <-time.After(time.Second):
		t.Fatal("Abort did not release a Send waiting for the session to attach")
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("Abort took %v to release the waiting Send, want <= 100ms", el)
	}
}

func TestPeerToPeerDirectDataPlane(t *testing.T) {
	a := arch.Ring(3)
	hub, err := nettransport.NewHub("127.0.0.1:0", a, 7, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	c1, err := nettransport.Dial(hub.Addr(), 7, []arch.ProcID{1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := nettransport.Dial(hub.Addr(), 7, []arch.ProcID{2}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := hub.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	k := transport.EdgeKey(graph.EdgeID(9))
	c1.Send(1, 2, k, "direct")
	v, ok := c2.Recv(2, k)
	if !ok || v.(string) != "direct" {
		t.Fatalf("node-to-node frame lost: %v %v", v, ok)
	}
	if got := c1.Stats().Direct; got != 1 {
		t.Fatalf("sender mesh frames = %d, want 1", got)
	}
	if got := hub.Stats().Hops; got != 0 {
		t.Fatalf("hub counted %d hops, want 0 — the hub relays nothing", got)
	}
}

// TestHubSendToUnattachedTimesOut: a hub Send to a processor that never
// attaches is bounded by the mesh-wait timeout and fails the session with a
// diagnostic, instead of hanging or growing a backlog.
func TestHubSendToUnattachedTimesOut(t *testing.T) {
	a := arch.Ring(2)
	hub, err := nettransport.NewHub("127.0.0.1:0", a, 7, []arch.ProcID{0},
		nettransport.WithMeshWaitTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	done := make(chan struct{})
	go func() {
		hub.Send(0, 1, transport.EdgeKey(graph.EdgeID(1)), "stuck")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hub Send hung on a processor that never attaches")
	}
	if err := hub.Err(); err == nil || !strings.Contains(err.Error(), "attached within") {
		t.Fatalf("hub error = %v, want an \"attached within\" diagnostic", err)
	}
}

func TestAbortPropagatesAcrossProcesses(t *testing.T) {
	a := arch.Ring(3)
	hub, err := nettransport.NewHub("127.0.0.1:0", a, 7, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	c1, err := nettransport.Dial(hub.Addr(), 7, []arch.ProcID{1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := nettransport.Dial(hub.Addr(), 7, []arch.ProcID{2}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := hub.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	done := make(chan bool, 2)
	go func() {
		_, ok := c2.Recv(2, transport.EdgeKey(graph.EdgeID(1)))
		done <- ok
	}()
	go func() {
		_, ok := hub.Recv(0, transport.EdgeKey(graph.EdgeID(2)))
		done <- ok
	}()
	// One node aborts; the hub must rebroadcast so every process unblocks.
	c1.Abort()
	for i := 0; i < 2; i++ {
		select {
		case ok := <-done:
			if ok {
				t.Fatal("recv returned ok after cluster abort")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("abort did not propagate within 5s")
		}
	}
}
