package exec

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/faulttransport"
	"skipper/internal/exec/memtransport"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
	"skipper/internal/syndex"
	"skipper/internal/value"
)

// TestMachineReuseAcrossRuns is the regression test for the stale-state
// bug: the outputs map was created once in NewMachine and never cleared,
// so a second Run on the same machine returned the first run's outputs
// mixed with (or instead of) its own.
func TestMachineReuseAcrossRuns(t *testing.T) {
	r := baseRegistry()
	s := compile(t, farmSrc, r, arch.Ring(4), syndex.Structured)
	m := NewMachine(s, r)
	for run := 0; run < 3; run++ {
		res, err := m.Run(2)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if len(res.Outputs) != 2 {
			t.Fatalf("run %d: %d outputs, want 2 (stale state from a previous run?)",
				run, len(res.Outputs))
		}
		for i, v := range res.Outputs {
			if v != farmWant {
				t.Fatalf("run %d iteration %d: output %v, want %d", run, i, v, farmWant)
			}
		}
		// Message accounting must also restart from zero each run.
		if run > 0 && res.Messages > 3*int64(res.Hops+100) {
			t.Fatalf("run %d: messages %d look cumulative", run, res.Messages)
		}
	}
}

// TestOutputsKeepIterationSlots pins the Outputs indexing contract:
// Outputs always has one slot per iteration, and an iteration whose output
// never reached this machine leaves a nil hole instead of shifting later
// outputs down. A machine hosting only processors without the Output node
// must report all-nil outputs of full length, not a short slice.
func TestOutputsKeepIterationSlots(t *testing.T) {
	r := baseRegistry()
	a := arch.Ring(4)
	s := compile(t, farmSrc, r, a, syndex.Structured)

	outProc := arch.ProcID(-1)
	for _, n := range s.Graph.Nodes {
		if n.Kind == graph.KindOutput {
			outProc = s.Assign[n.ID]
		}
	}
	if outProc < 0 {
		t.Fatal("no output node in schedule")
	}
	var withOut, without []arch.ProcID
	for i := 0; i < a.N; i++ {
		if arch.ProcID(i) == outProc {
			withOut = append(withOut, arch.ProcID(i))
		} else {
			without = append(without, arch.ProcID(i))
		}
	}

	// Split the executive across two machines sharing one transport: the
	// same deployment shape as one-OS-process-per-processor, minus TCP.
	tr := memtransport.New(a)
	defer tr.Close()
	const iters = 3
	type out struct {
		res *RunResult
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := NewMachineOn(s, r, tr, without).Run(iters)
		ch <- out{res, err}
	}()
	res, err := NewMachineOn(s, r, tr, withOut).Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	other := <-ch
	if other.err != nil {
		t.Fatal(other.err)
	}

	if len(res.Outputs) != iters {
		t.Fatalf("output-hosting machine: %d output slots, want %d", len(res.Outputs), iters)
	}
	for i, v := range res.Outputs {
		if v != farmWant {
			t.Fatalf("iteration %d: output %v, want %d", i, v, farmWant)
		}
	}
	if len(other.res.Outputs) != iters {
		t.Fatalf("outputless machine: %d output slots, want %d (holes must be kept)",
			len(other.res.Outputs), iters)
	}
	for i, v := range other.res.Outputs {
		if v != nil {
			t.Fatalf("outputless machine iteration %d: output %v, want nil hole", i, v)
		}
	}
}

// TestSharedTransportFarmFrames sanity-checks that the farm protocol's
// task/reply/sentinel frames flow between machines over a shared transport
// exactly as they do inside one machine (run with -race).
func TestSharedTransportFarmFrames(t *testing.T) {
	tr := memtransport.New(arch.Ring(2))
	defer tr.Close()
	k := transport.TaskKey(graph.NodeID(5), 0)
	tr.Send(0, 1, k, transport.Task{Idx: 2, V: 9})
	tr.Send(0, 1, k, transport.Sentinel{})
	v, ok := tr.Recv(1, k)
	if !ok {
		t.Fatal("recv failed")
	}
	if tk := v.(transport.Task); tk.Idx != 2 || tk.V != 9 {
		t.Fatalf("task mangled: %+v", tk)
	}
	v, ok = tr.Recv(1, k)
	if !ok {
		t.Fatal("recv failed")
	}
	if _, isSentinel := v.(transport.Sentinel); !isSentinel {
		t.Fatalf("expected sentinel, got %#v", v)
	}
}

// TestRunGoroutinesBoundedAndReclaimed pins the executive's process model: a
// run holds one goroutine per hosted processor, pipeline stage and farm
// worker — and nothing else: the in-process transport runs on its callers —
// however many frames it is asked for, and gives them all back when it
// returns. The ceiling is exact, so eight forwarding goroutines coming back
// to the transport fail it, as spawning every iteration's farm workers up
// front did (7 500 goroutines parked at frame 10 of this 2 000-frame run).
func TestRunGoroutinesBoundedAndReclaimed(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		a := arch.Ring(8)
		var frames int64
		var midRun atomic.Int64
		r := pipeRegistry(&frames, nil)
		grab, _ := r.Lookup("grab")
		count := grab.Fn
		grab.Fn = func(args []value.Value) value.Value {
			v := count(args)
			if v.(int) == 10 {
				midRun.Store(int64(runtime.NumGoroutine()))
			}
			return v
		}
		s := compile(t, pipeSrc, r, a, syndex.Structured)
		m := NewMachine(s, r)
		m.DeterministicFarm, m.Pipeline = true, pipeline
		procs := 0 // one goroutine per processor and further pipeline stage, one per worker
		for p, prog := range s.Programs {
			procs++
			if pipeline {
				procs += len(m.pipelineCuts(arch.ProcID(p)))
			}
			for _, op := range prog {
				if op.Kind == syndex.OpWorker {
					procs++
				}
			}
		}
		baseline := runtime.NumGoroutine()
		if _, err := m.RunWithTimeout(2000, 60*time.Second); err != nil {
			t.Fatal(err)
		}
		if limit := int64(baseline + procs); midRun.Load() == 0 || midRun.Load() > limit {
			t.Errorf("pipeline=%v: %d goroutines at frame 10, want at most %d (0 = never sampled)",
				pipeline, midRun.Load(), limit)
		}
		if now := settledGoroutines(baseline); now > baseline {
			t.Errorf("pipeline=%v: %d goroutines after the run, %d before it", pipeline, now, baseline)
		}
	}
}

// settledGoroutines reports the goroutine count once it is back at baseline,
// or after two seconds: goroutines unwind after the WaitGroup they
// signalled, so the stragglers get a moment before it is called a leak.
func settledGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestFarmMessagesPerRun pins the farm protocol's message count: every
// message carries a payload except the one sentinel that releases each worker
// after the run's last frame. A df of k tasks over w workers for n frames is
// k tasks + k replies per frame and w sentinels per run (farmSrc maps every
// other node beside the master, so nothing else crosses a processor).
func TestFarmMessagesPerRun(t *testing.T) {
	const k, w = 10, 4 // farmSrc: df 4 ... (source 10)
	a := arch.Ring(8)
	s := compile(t, farmSrc, baseRegistry(), a, syndex.Structured)
	for _, n := range []int{1, 7} {
		want := int64(2*k*n + w)
		res, err := NewMachine(s, baseRegistry()).Run(n)
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages != want {
			t.Errorf("mem, %d frames: %d messages, want 2*%d*%d + %d = %d", n, res.Messages, k, n, w, want)
		}
		ft := faulttransport.New(memtransport.New(a), faulttransport.Config{})
		res, err = NewMachineOn(s, baseRegistry(), ft, allProcs(a)).Run(n)
		ft.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages != want {
			t.Errorf("faulttransport, %d frames: %d messages, want %d", n, res.Messages, want)
		}
		for i, out := range res.Outputs {
			if out != farmWant {
				t.Errorf("%d frames: output %d = %v, want %d", n, i, out, farmWant)
			}
		}
	}
}

// TestAbortedRunReleasesWorkers: a run that dies on frame 1 of 100 never
// reaches the frame whose master sends the sentinels, so its workers must
// come home through their closed mailboxes instead.
func TestAbortedRunReleasesWorkers(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		var frames int64
		var m *Machine
		r := pipeRegistry(&frames, nil)
		grab, _ := r.Lookup("grab")
		count := grab.Fn
		grab.Fn = func(args []value.Value) value.Value {
			v := count(args)
			if v.(int) == 2 { // frame 1 (grab counts from 1)
				m.Cancel()
			}
			return v
		}
		s := compile(t, pipeSrc, r, arch.Ring(8), syndex.Structured)
		m = NewMachine(s, r)
		m.DeterministicFarm, m.Pipeline = true, pipeline
		baseline := runtime.NumGoroutine()
		if _, err := m.RunWithTimeout(100, 60*time.Second); !errors.Is(err, ErrCancelled) {
			t.Fatalf("pipeline=%v: run returned %v, want ErrCancelled", pipeline, err)
		}
		if frames >= 100 {
			t.Fatalf("pipeline=%v: the run was not cut short (%d frames grabbed)", pipeline, frames)
		}
		if now := settledGoroutines(baseline); now > baseline {
			t.Errorf("pipeline=%v: %d goroutines after the aborted run, %d before it", pipeline, now, baseline)
		}
	}
}
