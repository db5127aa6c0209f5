package exec

import (
	"sync/atomic"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/faulttransport"
	"skipper/internal/exec/memtransport"
	"skipper/internal/syndex"
	"skipper/internal/value"
)

// pipeSrc is the pipelined-itermem test program: the tracking application's
// shape in miniature. grab is state-independent (the front end), the farm
// and the state update are the back end, and the accumulator is
// deliberately non-commutative so any fold-order deviation between the
// sequential and pipelined executives shows up in the outputs.
const pipeSrc = `
extern grab : unit -> int;;
extern mkwins : int -> int -> int list;;
extern work : int -> int;;
extern fold : int -> int -> int;;
extern post : int -> int * int;;
extern show : int -> unit;;
let loop (s, x) = post (fold s (df 4 work fold 0 (mkwins s x)));;
let main = itermem grab loop show 1 ();;
`

// pipeRegistry builds pipeSrc's registry around a stateful frame counter.
func pipeRegistry(frames *int64, shown *[]value.Value) *value.Registry {
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "grab", Sig: "unit -> int", Arity: 1,
		Fn: func([]value.Value) value.Value {
			return int(atomic.AddInt64(frames, 1))
		}})
	r.Register(&value.Func{Name: "mkwins", Sig: "int -> int -> int list", Arity: 2,
		Fn: func(a []value.Value) value.Value {
			s, x := a[0].(int), a[1].(int)
			out := make(value.List, 6)
			for i := range out {
				out[i] = s + x*(i+1)
			}
			return out
		}})
	r.Register(&value.Func{Name: "work", Sig: "int -> int", Arity: 1,
		Fn: func(a []value.Value) value.Value { x := a[0].(int); return x*x + 1 }})
	r.Register(&value.Func{Name: "fold", Sig: "int -> int -> int", Arity: 2,
		Fn: func(a []value.Value) value.Value {
			// Non-commutative on purpose: order mistakes change the result.
			return a[0].(int)*31 + a[1].(int)
		}})
	r.Register(&value.Func{Name: "post", Sig: "int -> int * int", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			m := a[0].(int)
			return value.Tuple{m % 1_000_003, m}
		}})
	r.Register(&value.Func{Name: "show", Sig: "int -> unit", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			if shown != nil {
				*shown = append(*shown, a[0])
			}
			return value.Unit{}
		}})
	return r
}

// runPipeSrc executes src for iters frames with the pipeline on or off
// and returns the stream of outputs.
func runPipeSrc(t *testing.T, src string, a *arch.Arch, iters int, pipeline bool) []value.Value {
	t.Helper()
	var frames int64
	r := pipeRegistry(&frames, nil)
	s := compile(t, src, r, a, syndex.Structured)
	m := NewMachine(s, r)
	m.DeterministicFarm = true
	m.Pipeline = pipeline
	res, err := m.Run(iters)
	if err != nil {
		t.Fatalf("pipeline=%v: %v", pipeline, err)
	}
	return res.Outputs
}

// TestPipelinedItermemMatchesSequential is the tentpole equivalence: the
// software-pipelined executive must produce bit-identical output streams
// to the sequential interpreter — same values, same iteration slots — on
// single- and multi-processor mappings, across enough frames to reach the
// pipelined steady state.
func TestPipelinedItermemMatchesSequential(t *testing.T) {
	for _, a := range []*arch.Arch{arch.Ring(1), arch.Ring(2), arch.Ring(4), arch.Star(5)} {
		const iters = 12
		seq := runPipeSrc(t, pipeSrc, a, iters, false)
		pip := runPipeSrc(t, pipeSrc, a, iters, true)
		if len(seq) != len(pip) {
			t.Fatalf("%s: %d sequential outputs vs %d pipelined", a.Name, len(seq), len(pip))
		}
		for i := range seq {
			if !value.Equal(seq[i], pip[i]) {
				t.Fatalf("%s: iteration %d: sequential %v vs pipelined %v",
					a.Name, i, seq[i], pip[i])
			}
		}
	}
}

// TestPipelineCutStructure pins the split-point rules: the program hosting
// the farm splits with a non-empty state-independent front end and the
// worker spawns riding in the back end; a farm-free itermem program (no
// master op) must not split at all.
func TestPipelineCutStructure(t *testing.T) {
	var frames int64
	r := pipeRegistry(&frames, nil)
	s := compile(t, pipeSrc, r, arch.Ring(4), syndex.Structured)
	m := NewMachine(s, r)
	sawCut := false
	for p := range s.Programs {
		cuts := m.pipelineCuts(arch.ProcID(p))
		if len(cuts) == 0 {
			continue
		}
		sawCut = true
		prog := s.Programs[p]
		for _, op := range prog[:cuts[0]] {
			switch op.Kind {
			case syndex.OpWorker, syndex.OpMaster, syndex.OpMemWrite:
				t.Fatalf("proc %d: op kind %v leaked into the front end", p, op.Kind)
			}
		}
		for i, cut := range cuts {
			if i > 0 && cut <= cuts[i-1] {
				t.Fatalf("proc %d: cuts %v not strictly increasing", p, cuts)
			}
			if k := prog[cut].Kind; k != syndex.OpWorker && k != syndex.OpMaster {
				t.Fatalf("proc %d: stage %d starts with %v, want a farm", p, i+1, k)
			}
		}
		// MEM ops past the first cut must all sit in the final stage.
		last := cuts[len(cuts)-1]
		for i := cuts[0]; i < last; i++ {
			op := prog[i]
			if op.Kind == syndex.OpMemWrite {
				t.Fatalf("proc %d: MEM write at op %d stranded in a middle stage (cuts %v)", p, i, cuts)
			}
		}
	}
	if !sawCut {
		t.Fatal("no processor split: the equivalence tests would be vacuous")
	}

	// streamSrc has no farm, so no processor may pipeline.
	var f2 int64
	r2 := streamRegistry(&f2, nil)
	s2 := compile(t, streamSrc, r2, arch.Ring(2), syndex.Structured)
	m2 := NewMachine(s2, r2)
	for p := range s2.Programs {
		if cuts := m2.pipelineCuts(arch.ProcID(p)); len(cuts) != 0 {
			t.Fatalf("farm-free program split at proc %d cuts %v", p, cuts)
		}
	}
}

// deepPipeSrc chains three farms inside the itermem loop — the shape that
// makes pipeline depth > 2 matter: with one cut per master, frame k+2's
// grab, frame k+1's first farm and frame k's later farms all overlap.
const deepPipeSrc = `
extern grab : unit -> int;;
extern mkwins : int -> int -> int list;;
extern work : int -> int;;
extern fold : int -> int -> int;;
extern post : int -> int * int;;
extern show : int -> unit;;
let loop (s, x) = post (fold s (df 2 work fold 0 (mkwins (df 2 work fold 0 (mkwins (df 2 work fold 0 (mkwins s x)) x)) x)));;
let main = itermem grab loop show 1 ();;
`

// matchesSequential runs src pipelined and sequentially on rings of one,
// two and four processors and fails on the first differing output.
func matchesSequential(t *testing.T, src string) {
	t.Helper()
	for _, a := range []*arch.Arch{arch.Ring(1), arch.Ring(2), arch.Ring(4)} {
		const iters = 10
		seq := runPipeSrc(t, src, a, iters, false)
		got := runPipeSrc(t, src, a, iters, true)
		for i := range seq {
			if !value.Equal(seq[i], got[i]) {
				t.Fatalf("%s: iteration %d: pipelined %v, sequential %v", a.Name, i, got[i], seq[i])
			}
		}
	}
}

// TestDeepPipelineMatchesSequential: on a three-master program the
// executive must cut at every master boundary (at least one processor gets
// three or more stages), and the output stream must be bit-identical to
// the sequential interpreter.
func TestDeepPipelineMatchesSequential(t *testing.T) {
	var frames int64
	r := pipeRegistry(&frames, nil)
	s := compile(t, deepPipeSrc, r, arch.Ring(4), syndex.Structured)
	m := NewMachine(s, r)
	maxStages := 0
	for p := range s.Programs {
		if n := len(m.pipelineCuts(arch.ProcID(p))) + 1; n > maxStages {
			maxStages = n
		}
	}
	if maxStages < 3 {
		t.Fatalf("deepest processor pipelines at %d stages, want >= 3", maxStages)
	}
	matchesSequential(t, deepPipeSrc)
}

// latePipeSrc consumes the delay state only in the final fold: the linear
// schedule still places the MEM read at the top of the program, so the
// pipelined executive sinks it to the last stage. The outputs must stay
// bit-identical to the sequential interpreter — the sunk read has to see
// exactly the previous frame's write, never an older or newer one.
const latePipeSrc = `
extern grab : unit -> int;;
extern mkwins : int -> int -> int list;;
extern work : int -> int;;
extern fold : int -> int -> int;;
extern post : int -> int * int;;
extern show : int -> unit;;
let loop (s, x) = post (fold s (df 2 work fold 0 (mkwins (df 2 work fold 0 (mkwins (df 2 work fold 0 (mkwins x x)) x)) x)));;
let main = itermem grab loop show 1 ();;
`

// TestSunkMemReadMatchesSequential pins the read-sinking path: a program
// whose state feeds only the final fold must still produce bit-identical
// output streams at every pipeline depth, and the fold must be chaining
// frame k-1's result into frame k (not a stale or initial value), which the
// non-commutative fold makes visible immediately.
func TestSunkMemReadMatchesSequential(t *testing.T) {
	matchesSequential(t, latePipeSrc)
}

// TestPipelinedShowOrderPreserved: the display function runs in the back
// end, strictly one frame at a time, so the shown stream must stay in
// frame order even though front ends run ahead.
func TestPipelinedShowOrderPreserved(t *testing.T) {
	var frames int64
	var shown []value.Value
	r := pipeRegistry(&frames, &shown)
	s := compile(t, pipeSrc, r, arch.Ring(2), syndex.Structured)
	m := NewMachine(s, r)
	m.DeterministicFarm = true
	m.Pipeline = true
	res, err := m.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(shown) != 8 {
		t.Fatalf("display called %d times, want 8", len(shown))
	}
	for i, v := range shown {
		if !value.Equal(v, res.Outputs[i]) {
			t.Fatalf("display order diverged at %d: shown %v vs output %v", i, v, res.Outputs[i])
		}
	}
}

// TestPipelinedFarmSurvivesWorkerKill: the pipelined back end runs the
// fault-tolerant master protocol unchanged, so a worker death mid-stream
// must still be contained and re-dispatched with bit-identical outputs.
func TestPipelinedFarmSurvivesWorkerKill(t *testing.T) {
	a := arch.Ring(8)
	var frames int64
	r := pipeRegistry(&frames, nil)
	s := compile(t, pipeSrc, r, a, syndex.Structured)
	victims := workerOnlyProcs(s)
	if len(victims) == 0 {
		t.Fatal("schedule has no worker-only processor to kill")
	}
	ft := faulttransport.New(memtransport.New(a), faulttransport.Config{
		Faults: map[arch.ProcID]faulttransport.Fault{
			victims[0]: {KillAfterSends: 1},
		},
	})
	defer ft.Close()
	m := NewMachineOn(s, r, ft, allProcs(a))
	m.DeterministicFarm = true
	m.Pipeline = true
	m.FT = FaultTolerance{MaxRetries: 3}
	const iters = 6
	res, err := m.Run(iters)
	if err != nil {
		t.Fatalf("pipelined run did not survive the worker kill: %v", err)
	}
	want := runPipeSrc(t, pipeSrc, a, iters, false)
	for i := range want {
		if !value.Equal(res.Outputs[i], want[i]) {
			t.Fatalf("iteration %d: degraded pipelined output %v, want %v", i, res.Outputs[i], want[i])
		}
	}
	if res.Failures < 1 {
		t.Fatalf("Failures = %d, want >= 1", res.Failures)
	}
}

// before runs f ahead of every call of the registered function name.
func before(t testing.TB, r *value.Registry, name string, f func()) {
	t.Helper()
	fn, ok := r.Lookup(name)
	if !ok {
		t.Fatalf("registry has no %q", name)
	}
	inner := fn.Fn
	fn.Fn = func(a []value.Value) value.Value {
		f()
		return inner(a)
	}
}

// TestPipelineSpeedup holds the gains pipelining exists for, live, on a
// ring(2) whose grab and farm workers block: the pipelined executive against
// the sequential one, on pipeSrc (frame k's farm runs inside frame k+1's
// grab wait: the period falls from grab + farm towards the longer of the
// two) and on latePipeSrc, whose three chained farms take no state, so
// consecutive frames occupy consecutive farms (deepPipeSrc feeds the state
// to its first farm and cannot overlap them). Each must shorten the frame
// period by at least 1.3x.
func TestPipelineSpeedup(t *testing.T) {
	const frames = 40
	for _, c := range []struct {
		name, src  string
		base, fast func(m *Machine)
	}{
		{"pipelined vs sequential", pipeSrc,
			func(m *Machine) {},
			func(m *Machine) { m.Pipeline = true }},
		{"chained farms pipelined vs sequential", latePipeSrc,
			func(m *Machine) {},
			func(m *Machine) { m.Pipeline = true }},
	} {
		period := func(configure func(m *Machine)) time.Duration {
			var n int64
			r := pipeRegistry(&n, nil)
			// Waits, not spins: a camera exposure, an offload latency. Overlapping
			// them is a gain even on one CPU.
			before(t, r, "grab", func() { time.Sleep(2 * time.Millisecond) })
			before(t, r, "work", func() { time.Sleep(time.Millisecond) })
			m := NewMachine(compile(t, c.src, r, arch.Ring(2), syndex.Structured), r)
			m.DeterministicFarm = true
			configure(m)
			t0 := time.Now()
			if _, err := m.Run(frames); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return time.Since(t0) / frames
		}
		base, fast := period(c.base), period(c.fast)
		t.Logf("%s: frame period %v -> %v (%.2fx)", c.name, base, fast, float64(base)/float64(fast))
		if float64(fast) > float64(base)/1.3 {
			t.Errorf("%s: frame period %v -> %v, want >= 1.3x shorter", c.name, base, fast)
		}
	}
}
