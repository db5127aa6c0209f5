package harness

import (
	"fmt"
	"io"
	"slices"
	"time"

	"skipper/internal/distrib"
	"skipper/internal/exec"
	"skipper/internal/serve"
	"skipper/internal/track"
)

// Transports lists the executive communication backends the experiments
// can run over: "mem" is the in-process goroutine executive, "tcp" runs
// the same schedule as a one-job fleet — processor 0 on the control plane's
// hub, one worker per remaining processor — over localhost sockets, "unix"
// is the same split over unix-domain sockets, and "shm" layers the
// shared-memory slab-ring upgrade on the unix plane (DESIGN.md §9) — frames
// travel through mmap'd per-connection rings, sockets carry only doorbells.
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
// processor hosting the display node, alongside that processor's run
// result (message accounting).
func runExecutiveOn(transport string, iters int) ([]track.Result, *exec.RunResult, error) {
	return runExecutiveSpec(transport, e4Spec(iters))
}

// runExecutiveSpec is runExecutiveOn with the caller controlling the full
// deployment spec (pipeline mode, determinism, fault-tolerance knobs). The
// spec runs as a one-job serve (serve.Run) whose workers are goroutines of
// this process, each with its own freshly built registry — the same
// isolation a worker process has — over real sockets.
func runExecutiveSpec(transport string, sp distrib.Spec) ([]track.Result, *exec.RunResult, error) {
	if !slices.Contains(Transports, transport) {
		return nil, nil, fmt.Errorf("harness: unknown transport %q", transport)
	}
	cfg := serve.Config{JobTimeout: 2 * time.Minute, Tuning: sp.Tuning}
	cleanup, err := cfg.OnTransport(transport)
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	var node func(int) distrib.Node
	if transport == "shm" {
		node = func(int) distrib.Node { return distrib.Node{DataPlane: "shm"} }
	}
	results, res, _, err := serve.Run(cfg, sp.Job, serve.InProcessWorkers(sp.Procs, node))
	return results, res, err
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
