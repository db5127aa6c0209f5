package distrib_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"skipper/internal/distrib"
	goexec "skipper/internal/exec"
	"skipper/internal/exec/faulttransport"
	"skipper/internal/obsv"
	"skipper/internal/serve"
	"skipper/internal/syndex"
	"skipper/internal/track"
)

// Every multi-process run is a one-job serve (serve.Run): the tests below
// run the tracking job that way, with in-process goroutine workers over real
// sockets or, in TestDistributedOSProcessesMatchInProcess, skipper-node
// worker processes, and hold it to the plain in-process executive.

// resultsEqual compares two per-iteration tracking traces field by field.
func resultsEqual(a, b []track.Result) (bool, string) {
	if len(a) != len(b) {
		return false, fmt.Sprintf("length %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Frame != y.Frame || x.Tracking != y.Tracking ||
			x.Vehicles != y.Vehicles || len(x.Marks) != len(y.Marks) {
			return false, fmt.Sprintf("iteration %d: %+v vs %+v", i, x, y)
		}
		for j := range x.Marks {
			if x.Marks[j] != y.Marks[j] {
				return false, fmt.Sprintf("iteration %d mark %d: %+v vs %+v", i, j, x.Marks[j], y.Marks[j])
			}
		}
	}
	return true, ""
}

func trackingJob(iters int) distrib.Job {
	return distrib.Job{
		Topology: "ring", Procs: 8,
		Width: 128, Height: 128,
		Vehicles: 2, Seed: 21, Iters: iters,
	}
}

// reference runs job on the plain in-process executive.
func reference(t *testing.T, job distrib.Job) []track.Result {
	t.Helper()
	rec, _, err := distrib.RunInProcess(distrib.Spec{Job: job}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Results
}

// runOneJob runs job as a one-job serve over transport, with one goroutine
// worker per remote processor on the transport's data plane; chaos, when
// non-nil, scripts the faults of the worker hosting each processor.
func runOneJob(t *testing.T, transport string, job distrib.Job, tuning distrib.Tuning,
	chaos map[int]faulttransport.Fault) ([]track.Result, *goexec.RunResult, *obsv.Trace) {
	t.Helper()
	cfg := serve.Config{JobTimeout: time.Minute, Tuning: tuning}
	cleanup, err := cfg.OnTransport(transport)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	node := func(p int) distrib.Node {
		n := distrib.Node{Chaos: chaos[p]}
		if transport != "tcp" {
			n.DataPlane = transport
		}
		return n
	}
	results, res, tr, err := serve.Run(cfg, job, serve.InProcessWorkers(job.Procs, node))
	if err != nil {
		t.Fatal(err)
	}
	return results, res, tr
}

// TestDistributedGoroutineNodesMatchInProcess splits ring(8) across a hub
// and 7 in-process workers (real localhost TCP, shared address space for
// speed) and requires bit-identical tracking results.
func TestDistributedGoroutineNodesMatchInProcess(t *testing.T) {
	job := trackingJob(10)
	got, _, _ := runOneJob(t, "tcp", job, distrib.Tuning{}, nil)
	if ok, diff := resultsEqual(reference(t, job), got); !ok {
		t.Fatalf("tcp run diverged from in-process run: %s", diff)
	}
}

// TestDistributedOSProcessesMatchInProcess is the full acceptance check:
// the ring(8) tracking job runs as 8 OS processes on localhost (this test
// process hosts the control plane and processor 0; 7 spawned skipper-node
// workers host the rest) and must produce bit-identical outputs to the
// in-process backend.
func TestDistributedOSProcessesMatchInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns 7 OS processes")
	}
	nodeBin := filepath.Join(t.TempDir(), "skipper-node")
	build := exec.Command("go", "build", "-o", nodeBin, "skipper/cmd/skipper-node")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building skipper-node: %v", err)
	}

	// The acceptance run happens with tracing armed in every process: the
	// distributed executive must stay bit-identical while recording, and the
	// workers' timelines must merge into one deployment trace.
	job := trackingJob(6)
	job.Trace = true
	cfg := serve.Config{JobTimeout: time.Minute}
	cleanup, err := cfg.OnTransport("tcp")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	var children []*exec.Cmd
	spawn := func(addr string, _ func(error)) error {
		for p := 1; p < job.Procs; p++ {
			cmd := exec.Command(nodeBin, "-fleet", addr, "-name", serve.WorkerName(p),
				"-timeout", "1m", "-flight=")
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return err
			}
			children = append(children, cmd)
		}
		return nil
	}
	got, res, tr, err := serve.Run(cfg, job, spawn)
	for _, c := range children {
		if werr := c.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("node process %v: %w", c.Args[1:5], werr)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != job.Procs-1 {
		t.Fatalf("spawned %d node processes, want %d", len(children), job.Procs-1)
	}
	if ok, diff := resultsEqual(reference(t, job), got); !ok {
		t.Fatalf("OS-process run diverged from in-process run: %s", diff)
	}
	if res.Messages == 0 {
		t.Fatal("processor 0 injected no messages — did the run really distribute?")
	}
	if res.Hops != 0 {
		t.Fatalf("%d hops counted — the hub relays nothing, node↔node traffic travels the peer mesh", res.Hops)
	}
	if len(tr.Procs) != job.Procs {
		t.Fatalf("merged trace covers processors %v, want all %d", tr.Procs, job.Procs)
	}
	if len(tr.Events) == 0 || len(tr.OpSpans()) == 0 {
		t.Fatalf("merged trace is empty (%d events)", len(tr.Events))
	}
}

// TestDistributedChaosWorkerKillMatchesInProcess is the fault-tolerance
// acceptance run: the worker hosting one processor of the ring(8) tracking
// job has its session severed mid-run (Chaos.KillAfterSends: sockets torn,
// no detach — the cluster-visible signature of kill -9) and the surviving 7
// processors must finish every iteration bit-identical to a healthy
// in-process run, with the death and the re-dispatches visible in the run
// result and the job's trace.
func TestDistributedChaosWorkerKillMatchesInProcess(t *testing.T) {
	runChaosWorkerKill(t, "tcp")
}

// TestChaosWorkerKillMatchesInProcessOverShm reruns the kill over the
// shared-memory data plane: a victim dying mid-ring (its doorbell socket
// torn while its rings may hold half-written records) must be contained
// and re-dispatched exactly like a socket death, with bit-identical output.
func TestChaosWorkerKillMatchesInProcessOverShm(t *testing.T) {
	runChaosWorkerKill(t, "shm")
}

func runChaosWorkerKill(t *testing.T, transport string) {
	t.Helper()
	job := trackingJob(8)
	s, _, _, err := job.Compile()
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for p := 1; p < job.Procs; p++ {
		prog := s.Programs[p]
		if len(prog) == 0 {
			continue
		}
		all := true
		for _, op := range prog {
			if op.Kind != syndex.OpWorker {
				all = false
				break
			}
		}
		if all {
			victim = p
			break
		}
	}
	if victim < 0 {
		t.Fatal("tracking schedule maps no worker-only processor onto a node")
	}

	job.Trace = true
	tuning := distrib.Tuning{MaxRetries: 2, Heartbeat: 50 * time.Millisecond}
	got, res, tr := runOneJob(t, transport, job, tuning,
		map[int]faulttransport.Fault{victim: {KillAfterSends: 2}}) // dies delivering its third task reply
	if ok, diff := resultsEqual(reference(t, job), got); !ok {
		t.Fatalf("degraded run diverged from the healthy in-process run: %s", diff)
	}
	if res.Failures < 1 {
		t.Fatalf("Failures = %d, want >= 1", res.Failures)
	}
	if res.Redispatches < 1 {
		t.Fatalf("Redispatches = %d, want >= 1", res.Redispatches)
	}
	var sawDown, sawRedispatch bool
	for _, ev := range tr.Events {
		switch ev.Kind {
		case obsv.EvPeerDown:
			sawDown = sawDown || int(ev.Proc) == victim
		case obsv.EvRedispatch:
			sawRedispatch = true
		}
	}
	if !sawDown || !sawRedispatch {
		t.Fatalf("trace lacks fault events: peer-down(victim)=%v redispatch=%v", sawDown, sawRedispatch)
	}
}

// TestCoordinatorFailsFastOnRejectedNode: a worker that cannot join — here
// a second worker under a name already taken, which the control plane turns
// away — reports its failure through the spawn hook, and the run must end at
// once with that error instead of waiting for the missing worker until the
// job timeout.
func TestCoordinatorFailsFastOnRejectedNode(t *testing.T) {
	cfg := serve.Config{JobTimeout: time.Minute}
	cleanup, err := cfg.OnTransport("tcp")
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	spawn := func(addr string, fail func(error)) error {
		go func() {
			w, err := distrib.JoinFleet(addr, serve.WorkerName(1), 5*time.Second)
			if err != nil {
				fail(err)
				return
			}
			go w.Serve()
			if _, err := distrib.JoinFleet(addr, serve.WorkerName(1), 5*time.Second); err != nil {
				fail(err)
			}
		}()
		return nil
	}
	start := time.Now()
	_, _, _, err = serve.Run(cfg, trackingJob(4), spawn)
	if err == nil || !strings.Contains(err.Error(), "already joined") {
		t.Fatalf("run error = %v, want the worker's join rejection", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("run took %v to fail on a rejected worker, want < 5s", el)
	}
}

// runTraced executes the tracking job with tracing armed on the named
// transport (mem = every processor in process; tcp/unix/shm = a one-job
// serve with goroutine workers over real sockets on the named data plane),
// optionally with the itermem loop software-pipelined at full depth, and
// returns the job's merged trace.
func runTraced(t *testing.T, transport string, iters int, pipeline bool) *obsv.Trace {
	t.Helper()
	job := trackingJob(iters)
	job.Trace = true
	// The pipeline cuts at every farm boundary, the maximum stage count the
	// schedule admits (DESIGN.md §7).
	job.Pipeline = pipeline
	_, _, tr := runOneJob(t, transport, job, distrib.Tuning{}, nil)
	return tr
}

// TestTraceCompleteness is the event-pairing gate across every data plane
// and under full-depth pipelining: in a clean run every recorded send must
// have a matching receive (same message key, transport-wide) and every
// op-start a matching op-end — nothing the executive injected may vanish
// from the trace.
func TestTraceCompleteness(t *testing.T) {
	cases := []struct {
		name      string
		transport string
		pipeline  bool
	}{
		{"mem", "mem", false},
		{"tcp", "tcp", false},
		{"unix", "unix", false},
		{"shm", "shm", false},
		{"mem-pipeline", "mem", true},
		{"shm-pipeline", "shm", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := runTraced(t, tc.transport, 6, tc.pipeline)
			if len(tr.Events) == 0 {
				t.Fatal("trace is empty")
			}
			if tr.Dropped != 0 {
				t.Fatalf("%d events dropped to ring wrap; completeness unverifiable", tr.Dropped)
			}

			sends := map[string]int{}
			recvs := map[string]int{}
			starts := map[string]int{}
			ends := map[string]int{}
			var nAbort int
			for _, ev := range tr.Events {
				l := tr.Label(ev.Label)
				switch ev.Kind {
				case obsv.EvSend:
					sends[l]++
				case obsv.EvRecv:
					recvs[l]++
				case obsv.EvOpStart:
					starts[l]++
				case obsv.EvOpEnd:
					ends[l]++
				case obsv.EvAbort:
					nAbort++
				}
			}
			if nAbort != 0 {
				t.Fatalf("clean run recorded %d abort events", nAbort)
			}
			if len(sends) == 0 || len(starts) == 0 {
				t.Fatalf("trace has %d send keys, %d op labels; instrumentation missing a layer", len(sends), len(starts))
			}
			for l, n := range sends {
				if recvs[l] != n {
					t.Errorf("key %s: %d sends but %d recvs", l, n, recvs[l])
				}
			}
			for l, n := range recvs {
				if sends[l] != n {
					t.Errorf("key %s: %d recvs but %d sends", l, n, sends[l])
				}
			}
			for l, n := range starts {
				if ends[l] != n {
					t.Errorf("op %s: %d starts but %d ends", l, n, ends[l])
				}
			}
			spans := tr.OpSpans()
			var nStarts int
			for _, n := range starts {
				nStarts += n
			}
			if len(spans) != nStarts {
				t.Errorf("paired %d op spans from %d starts", len(spans), nStarts)
			}
			if tc.pipeline {
				var nHand int
				for _, ev := range tr.Events {
					if ev.Kind == obsv.EvStageHand {
						nHand++
					}
				}
				if nHand == 0 {
					t.Error("pipelined run recorded no stage hand-off events")
				}
			}
		})
	}
}

// TestTracedRunsStayIdentical pins that arming the recorder does not
// perturb the computation: a traced run still produces bit-identical
// tracking results.
func TestTracedRunsStayIdentical(t *testing.T) {
	job := trackingJob(6)
	plain := reference(t, job)
	job.Trace = true
	traced, _, _ := runOneJob(t, "mem", job, distrib.Tuning{}, nil)
	if ok, diff := resultsEqual(plain, traced); !ok {
		t.Fatalf("tracing perturbed the computation: %s", diff)
	}
}
