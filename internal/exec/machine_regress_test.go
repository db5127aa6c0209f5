package exec

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"skipper/internal/arch"
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
// worker (plus the in-process transport's routers) however many frames it
// is asked for, and gives them all back when it returns. Spawning every
// iteration's farm workers up front parked 7 500 goroutines at frame
// 10 of this 2 000-frame run.
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
		stages, workers := 1, 0
		for p, prog := range s.Programs {
			if pipeline {
				stages = max(stages, len(m.pipelineCuts(arch.ProcID(p)))+1)
			}
			for _, op := range prog {
				if op.Kind == syndex.OpWorker {
					workers++
				}
			}
		}
		baseline := runtime.NumGoroutine()
		if _, err := m.RunWithTimeout(2000, 60*time.Second); err != nil {
			t.Fatal(err)
		}
		if limit := int64(8*(stages+workers) + 32); midRun.Load() == 0 || midRun.Load() >= limit {
			t.Errorf("pipeline=%v: %d goroutines at frame 10, want below %d (0 = never sampled)",
				pipeline, midRun.Load(), limit)
		}
		// Goroutines unwind after the WaitGroup they signalled; give the
		// stragglers a moment before calling it a leak.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if now := runtime.NumGoroutine(); now > baseline {
			t.Errorf("pipeline=%v: %d goroutines after the run, %d before it", pipeline, now, baseline)
		}
	}
}
