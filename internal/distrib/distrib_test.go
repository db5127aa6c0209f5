package distrib

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"skipper/internal/arch"
	goexec "skipper/internal/exec"
	"skipper/internal/exec/nettransport"
	"skipper/internal/obsv"
	"skipper/internal/syndex"
	"skipper/internal/track"
)

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

func trackingSpec(iters int) Spec {
	return Spec{Job: Job{
		Topology: "ring", Procs: 8,
		Width: 128, Height: 128,
		Vehicles: 2, Seed: 21, Iters: iters,
	}}
}

// TestDistributedGoroutineNodesMatchInProcess splits ring(8) across a hub
// and 7 in-process node clients (real localhost TCP, shared address space
// for speed) and requires bit-identical tracking results.
func TestDistributedGoroutineNodesMatchInProcess(t *testing.T) {
	sp := trackingSpec(10)
	memRec, _, err := RunInProcess(sp, time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, sp.Procs-1)
	spawn := func(addr string, _ func(error)) error {
		for p := 1; p < sp.Procs; p++ {
			go func(p int) {
				errCh <- RunNode(sp, p, addr, time.Minute)
			}(p)
		}
		return nil
	}
	tcpRec, _, err := RunCoordinator(sp, "127.0.0.1:0", spawn, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < sp.Procs; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if ok, diff := resultsEqual(memRec.Results, tcpRec.Results); !ok {
		t.Fatalf("tcp run diverged from in-process run: %s", diff)
	}
}

// TestDistributedOSProcessesMatchInProcess is the full acceptance check:
// the ring(8) tracking schedule runs as 8 OS processes on localhost (this
// test process hosts processor 0 and the hub; 7 spawned skipper-node
// processes host the rest) and must produce bit-identical outputs to the
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

	sp := trackingSpec(6)
	memRec, _, err := RunInProcess(sp, time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	// The acceptance run happens with tracing armed in every process: the
	// distributed executive must stay bit-identical while recording, and the
	// per-process trace files must merge into one deployment trace.
	sp.TraceDir = t.TempDir()
	var children []*exec.Cmd
	spawn := func(addr string, _ func(error)) error {
		for p := 1; p < sp.Procs; p++ {
			cmd := exec.Command(nodeBin,
				"-hub", addr,
				"-proc", fmt.Sprint(p),
				"-procs", fmt.Sprint(sp.Procs),
				"-iters", fmt.Sprint(sp.Iters),
				"-size", fmt.Sprint(sp.Width),
				"-vehicles", fmt.Sprint(sp.Vehicles),
				"-seed", fmt.Sprint(sp.Seed),
				"-topology", sp.Topology,
				"-timeout", "1m",
				"-trace", sp.TraceDir,
			)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return err
			}
			children = append(children, cmd)
		}
		return nil
	}
	tcpRec, res, err := RunCoordinator(sp, "127.0.0.1:0", spawn, time.Minute)
	for _, c := range children {
		if werr := c.Wait(); werr != nil && err == nil {
			err = fmt.Errorf("node process %v: %w", c.Args[1:5], werr)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != sp.Procs-1 {
		t.Fatalf("spawned %d node processes, want %d", len(children), sp.Procs-1)
	}
	if ok, diff := resultsEqual(memRec.Results, tcpRec.Results); !ok {
		t.Fatalf("OS-process run diverged from in-process run: %s", diff)
	}
	if res.Messages == 0 {
		t.Fatal("coordinator injected no messages — did the run really distribute?")
	}
	if res.Hops != 0 {
		t.Fatalf("%d hops counted — the hub relays nothing, node↔node traffic travels the peer mesh", res.Hops)
	}
	tr, err := obsv.LoadDir(sp.TraceDir)
	if err != nil {
		t.Fatalf("merging per-process traces: %v", err)
	}
	if len(tr.Procs) != sp.Procs {
		t.Fatalf("merged trace covers processors %v, want all %d", tr.Procs, sp.Procs)
	}
	if len(tr.Events) == 0 || len(tr.OpSpans()) == 0 {
		t.Fatalf("merged trace is empty (%d events)", len(tr.Events))
	}
}

// TestDistributedChaosWorkerKillMatchesInProcess is the fault-tolerance
// acceptance run: one node of the ring(8) tracking deployment is severed
// mid-run (DieAfterSends: sockets torn, no detach — the cluster-visible
// signature of kill -9) and the surviving 7 processors must finish every
// iteration bit-identical to a healthy in-process run, with the death and
// the re-dispatches visible in the run result and the coordinator trace.
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
	sp := trackingSpec(8)
	memRec, _, err := RunInProcess(sp, time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	s, _, _, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for p := 1; p < sp.Procs; p++ {
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

	sp.MaxRetries = 2
	sp.Heartbeat = 50 * time.Millisecond
	sp.TraceDir = t.TempDir()
	listen := "127.0.0.1:0"
	if transport != "tcp" {
		var cleanup func()
		var lerr error
		listen, cleanup, lerr = HubListenAddr(transport)
		if lerr != nil {
			t.Fatal(lerr)
		}
		defer cleanup()
		sp.DataPlane = transport
	}
	errCh := make(chan error, sp.Procs-1)
	spawn := func(addr string, _ func(error)) error {
		for p := 1; p < sp.Procs; p++ {
			nsp := sp
			nsp.TraceDir = "" // the fault events live on the coordinator's lanes
			if p == victim {
				nsp.DieAfterSends = 2 // dies delivering its third task reply
			}
			go func(p int, nsp Spec) {
				errCh <- RunNode(nsp, p, addr, time.Minute)
			}(p, nsp)
		}
		return nil
	}
	tcpRec, res, err := RunCoordinator(sp, listen, spawn, time.Minute)
	if err != nil {
		t.Fatalf("coordinator did not survive the node kill: %v", err)
	}
	sawKill := false
	for p := 1; p < sp.Procs; p++ {
		nerr := <-errCh
		switch {
		case nerr == nil:
		case errors.Is(nerr, ErrChaosKilled):
			sawKill = true
		default:
			t.Fatalf("surviving node failed: %v", nerr)
		}
	}
	if !sawKill {
		t.Fatal("chaos trigger never fired — the victim outlived the run")
	}
	if ok, diff := resultsEqual(memRec.Results, tcpRec.Results); !ok {
		t.Fatalf("degraded run diverged from the healthy in-process run: %s", diff)
	}
	if res.Failures < 1 {
		t.Fatalf("Failures = %d, want >= 1", res.Failures)
	}
	if res.Redispatches < 1 {
		t.Fatalf("Redispatches = %d, want >= 1", res.Redispatches)
	}
	tr, err := obsv.LoadDir(sp.TraceDir)
	if err != nil {
		t.Fatal(err)
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

// TestCoordinatorFailsFastOnRejectedNode: a node that cannot join — here it
// dials with a mismatched fingerprint and the hub's handshake turns it
// away — reports its failure through the spawn hook, and the coordinator's
// run must end at once with that error instead of waiting out the mesh-wait
// bound or the run's watchdog.
func TestCoordinatorFailsFastOnRejectedNode(t *testing.T) {
	sp := trackingSpec(4)
	spawn := func(addr string, fail func(error)) error {
		go func() {
			if _, err := nettransport.Dial(addr, 0xbad, []arch.ProcID{1}, 5*time.Second); err != nil {
				fail(err)
			}
		}()
		return nil
	}
	start := time.Now()
	_, _, err := RunCoordinator(sp, "127.0.0.1:0", spawn, time.Minute)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("coordinator error = %v, want the node's handshake rejection", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("coordinator took %v to fail on a rejected node, want < 5s", el)
	}
}

// TestNodeRejectsCoordinatorProcessor pins the processor-0 ownership rule.
func TestNodeRejectsCoordinatorProcessor(t *testing.T) {
	sp := trackingSpec(1)
	if err := RunNode(sp, 0, "127.0.0.1:1", time.Second); err == nil {
		t.Fatal("node accepted processor 0")
	}
	if err := RunNode(sp, sp.Procs, "127.0.0.1:1", time.Second); err == nil {
		t.Fatal("node accepted out-of-range processor")
	}
}

// TestSpecConfigureSetsEveryKnob pins the one place a Spec becomes machine
// settings: all four executive knobs land, and the job's own speculation
// threshold overrides the fleet's.
func TestSpecConfigureSetsEveryKnob(t *testing.T) {
	sp := trackingSpec(1)
	sp.Deterministic, sp.Pipeline, sp.PipelineDepth = true, true, 2
	sp.MaxRetries, sp.TaskDeadline, sp.SpeculateAfter = 3, time.Second, 200*time.Millisecond
	var m goexec.Machine
	sp.Configure(&m)
	want := goexec.FaultTolerance{MaxRetries: 3, TaskDeadline: time.Second, SpeculateAfter: 200 * time.Millisecond}
	if !m.DeterministicFarm || !m.Pipeline || m.PipelineDepth != 2 || m.FT != want {
		t.Fatalf("machine = {det %v pipe %v depth %d ft %+v}, want everything the spec sets",
			m.DeterministicFarm, m.Pipeline, m.PipelineDepth, m.FT)
	}
	sp.SpeculateAfterMS = -1
	sp.Configure(&m)
	if m.FT.SpeculateAfter != -time.Millisecond {
		t.Fatalf("SpeculateAfter = %v, want the job's -1ms override", m.FT.SpeculateAfter)
	}
}

// TestFlagsArgsRoundTrip pins the child command line skipper-run builds for
// its skipper-node processes: with every shared flag set away from its
// default, parsing Args() into a fresh flag set yields the same Spec, apart
// from the per-process debug address. It walks whatever FlagSet declares,
// so a flag added there is covered without editing this test.
func TestFlagsArgsRoundTrip(t *testing.T) {
	fs := flag.NewFlagSet("parent", flag.ContinueOnError)
	parent := FlagSet(fs)
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		var v string
		switch fl.Value.(flag.Getter).Get().(type) {
		case string:
			v = fmt.Sprintf("v%d", n)
		case bool:
			v = "true"
		case int, int64:
			v = fmt.Sprint(100 + n)
		case time.Duration:
			v = (time.Duration(n) * time.Second).String()
		default:
			t.Fatalf("flag -%s: type %T not handled by the round-trip test", fl.Name, fl.Value)
		}
		if err := fs.Set(fl.Name, v); err != nil {
			t.Fatal(err)
		}
		if fl.Value.String() == fl.DefValue {
			t.Fatalf("flag -%s: test value %q is its default", fl.Name, v)
		}
	})

	cfs := flag.NewFlagSet("child", flag.ContinueOnError)
	child := FlagSet(cfs)
	if err := cfs.Parse(parent.Args()); err != nil {
		t.Fatalf("child rejects %v: %v", parent.Args(), err)
	}
	want := parent.Spec()
	if want.DebugAddr == "" {
		t.Fatal("test did not set -debug-addr")
	}
	want.DebugAddr = ""
	if got := child.Spec(); got != want {
		t.Fatalf("child spec %+v, want %+v (args %v)", got, want, parent.Args())
	}

	// Untouched flags are not forwarded: the child's defaults are the same.
	if args := FlagSet(flag.NewFlagSet("idle", flag.ContinueOnError)).Args(); len(args) != 0 {
		t.Fatalf("default flags forwarded: %v", args)
	}
}
