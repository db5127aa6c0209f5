package exec

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/dsl/eval"
	"skipper/internal/dsl/parser"
	"skipper/internal/dsl/types"
	"skipper/internal/exec/memtransport"
	"skipper/internal/exec/transport"
	"skipper/internal/expand"
	"skipper/internal/graph"
	"skipper/internal/syndex"
	"skipper/internal/value"
)

// compile compiles a source against a registry and maps it on an arch.
func compile(t testing.TB, src string, reg *value.Registry, a *arch.Arch, strat syndex.Strategy) *syndex.Schedule {
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
	s, err := syndex.Map(res.Graph, a, reg, strat)
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

// sum of squares 1..10 = 385.
const farmWant = 385

func TestFarmOnVariousTopologies(t *testing.T) {
	for _, a := range []*arch.Arch{
		arch.Ring(1), arch.Ring(2), arch.Ring(4), arch.Ring(8),
		arch.Chain(3), arch.Star(5), arch.Full(4), arch.Grid(2, 2),
		arch.Hypercube(3), arch.Torus(3, 2),
	} {
		s := compile(t, farmSrc, baseRegistry(), a, syndex.Structured)
		res, err := NewMachine(s, baseRegistry()).Run(1)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if len(res.Outputs) != 1 || res.Outputs[0] != farmWant {
			t.Fatalf("%s: outputs = %v", a.Name, res.Outputs)
		}
	}
}

func TestFarmListSchedStrategy(t *testing.T) {
	s := compile(t, farmSrc, baseRegistry(), arch.Ring(4), syndex.ListSched)
	res, err := NewMachine(s, baseRegistry()).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != farmWant {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

func TestFarmMoreWorkersThanTasks(t *testing.T) {
	src := strings.Replace(farmSrc, "(source 10)", "(source 2)", 1)
	s := compile(t, src, baseRegistry(), arch.Ring(8), syndex.Structured)
	res, err := NewMachine(s, baseRegistry()).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 5 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

func TestFarmEmptyInput(t *testing.T) {
	src := strings.Replace(farmSrc, "(source 10)", "(source 0)", 1)
	s := compile(t, src, baseRegistry(), arch.Ring(4), syndex.Structured)
	res, err := NewMachine(s, baseRegistry()).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 0 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

func scmTestRegistry() *value.Registry {
	r := baseRegistry()
	r.Register(&value.Func{Name: "chunk4", Sig: "int list -> int list list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			xs := a[0].(value.List)
			out := make(value.List, 4)
			for i := 0; i < 4; i++ {
				lo, hi := i*len(xs)/4, (i+1)*len(xs)/4
				out[i] = value.List(append(value.List{}, xs[lo:hi]...))
			}
			return out
		}})
	r.Register(&value.Func{Name: "suml", Sig: "int list -> int", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			s := 0
			for _, v := range a[0].(value.List) {
				s += v.(int)
			}
			return s
		}})
	return r
}

const scmSrc = `
extern source : int -> int list;;
extern chunk4 : int list -> int list list;;
extern suml : int list -> int;;
let main = scm 4 chunk4 suml suml (source 16);;
`

func TestSCMExecutive(t *testing.T) {
	// sum 1..16 = 136 (sum of per-chunk sums).
	for _, a := range []*arch.Arch{arch.Ring(1), arch.Ring(4), arch.Ring(6)} {
		s := compile(t, scmSrc, scmTestRegistry(), a, syndex.Structured)
		res, err := NewMachine(s, scmTestRegistry()).Run(1)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if res.Outputs[0] != 136 {
			t.Fatalf("%s: outputs = %v", a.Name, res.Outputs)
		}
	}
}

func TestSCMSplitArityMismatch(t *testing.T) {
	r := scmTestRegistry()
	r.Register(&value.Func{Name: "badchunk", Sig: "int list -> int list list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			return value.List{a[0]} // 1 part for 4 compute processes
		}})
	src := strings.Replace(scmSrc, "chunk4 suml", "badchunk suml", 1)
	src = strings.Replace(src, "extern chunk4", "extern badchunk", 1)
	s := compile(t, src, r, arch.Ring(4), syndex.Structured)
	_, err := NewMachine(s, r).Run(1)
	if err == nil || !strings.Contains(err.Error(), "sub-domains") {
		t.Fatalf("err = %v", err)
	}
}

func tfRegistry() *value.Registry {
	r := baseRegistry()
	// Recursively split (lo, hi); emit hi-lo when small.
	r.Register(&value.Func{Name: "splitrange", Sig: "int * int -> int list * (int * int) list",
		Arity: 1,
		Fn: func(a []value.Value) value.Value {
			pr := a[0].(value.Tuple)
			lo, hi := pr[0].(int), pr[1].(int)
			if hi-lo <= 3 {
				s := 0
				for i := lo; i < hi; i++ {
					s += i
				}
				return value.Tuple{value.List{s}, value.List{}}
			}
			mid := (lo + hi) / 2
			return value.Tuple{value.List{}, value.List{
				value.Tuple{lo, mid}, value.Tuple{mid, hi},
			}}
		}})
	r.Register(&value.Func{Name: "ranges", Sig: "int -> (int * int) list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			return value.List{value.Tuple{0, a[0].(int)}}
		}})
	return r
}

const tfSrc = `
extern splitrange : int * int -> int list * (int * int) list;;
extern add : int -> int -> int;;
extern ranges : int -> (int * int) list;;
let main = tf 3 splitrange add 0 (ranges 100);;
`

func TestTFExecutive(t *testing.T) {
	for _, a := range []*arch.Arch{arch.Ring(1), arch.Ring(4)} {
		s := compile(t, tfSrc, tfRegistry(), a, syndex.Structured)
		res, err := NewMachine(s, tfRegistry()).Run(1)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if res.Outputs[0] != 4950 {
			t.Fatalf("%s: outputs = %v", a.Name, res.Outputs)
		}
	}
}

// streamRegistry drives an itermem loop with a stateful frame counter.
func streamRegistry(frames *int64, outs *[]value.Value) *value.Registry {
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "grab", Sig: "unit -> int", Arity: 1,
		Fn: func([]value.Value) value.Value {
			return int(atomic.AddInt64(frames, 1))
		}})
	r.Register(&value.Func{Name: "step", Sig: "int * int -> int * int", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			pr := a[0].(value.Tuple)
			z, b := pr[0].(int), pr[1].(int)
			return value.Tuple{z + b, z + b}
		}})
	r.Register(&value.Func{Name: "show", Sig: "int -> unit", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			*outs = append(*outs, a[0])
			return value.Unit{}
		}})
	return r
}

const streamSrc = `
extern grab : unit -> int;;
extern step : int * int -> int * int;;
extern show : int -> unit;;
let main = itermem grab step show 0 ();;
`

func TestStreamItermemThreadsState(t *testing.T) {
	var frames int64
	var shown []value.Value
	r := streamRegistry(&frames, &shown)
	s := compile(t, streamSrc, r, arch.Ring(2), syndex.Structured)
	res, err := NewMachine(s, r).Run(4)
	if err != nil {
		t.Fatal(err)
	}
	// Inputs 1,2,3,4 -> cumulative sums 1,3,6,10.
	want := []int{1, 3, 6, 10}
	if len(res.Outputs) != 4 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
	for i, w := range want {
		if res.Outputs[i] != w {
			t.Fatalf("outputs = %v, want %v", res.Outputs, want)
		}
	}
	if len(shown) != 4 {
		t.Fatalf("display function called %d times", len(shown))
	}
}

func TestStreamMatchesEmulator(t *testing.T) {
	// The same program through the sequential emulator (declarative
	// semantics) and the distributed executive must agree — experiment E4.
	var f1 int64
	var o1 []value.Value
	r1 := streamRegistry(&f1, &o1)
	prog, err := parser.Parse(streamSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := types.Check(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := eval.New(r1, eval.Options{MaxIters: 6}).Run(prog); err != nil {
		t.Fatal(err)
	}

	var f2 int64
	var o2 []value.Value
	r2 := streamRegistry(&f2, &o2)
	s := compile(t, streamSrc, r2, arch.Ring(3), syndex.Structured)
	res, err := NewMachine(s, r2).Run(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(o1) != len(res.Outputs) {
		t.Fatalf("emulator %d outputs vs executive %d", len(o1), len(res.Outputs))
	}
	for i := range o1 {
		if !value.Equal(o1[i], res.Outputs[i]) {
			t.Fatalf("iteration %d: emulator %v vs executive %v",
				i, o1[i], res.Outputs[i])
		}
	}
}

func TestMachineReportsNodeErrors(t *testing.T) {
	r := baseRegistry()
	r.Register(&value.Func{Name: "boom", Sig: "int -> int", Arity: 1,
		Fn: func(a []value.Value) value.Value { return a[0] }})
	src := `
extern source : int -> int list;;
extern boom : int -> int;;
extern add : int -> int -> int;;
let main = df 2 boom add 0 (source 3);;
`
	s := compile(t, src, r, arch.Ring(2), syndex.Structured)
	// Sabotage: run with a registry missing `boom`.
	r2 := baseRegistry()
	_, err := NewMachine(s, r2).Run(1)
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v", err)
	}
}

func TestEvalNodeUnpack(t *testing.T) {
	n := &graph.Node{Kind: graph.KindUnpack, Name: "u", In: 1, Out: 2}
	outs, err := EvalNode(n, value.NewRegistry(), []value.Value{value.Tuple{1, 2}})
	if err != nil || outs[0] != 1 || outs[1] != 2 {
		t.Fatalf("outs = %v, err = %v", outs, err)
	}
	if _, err := EvalNode(n, value.NewRegistry(), []value.Value{42}); err == nil {
		t.Fatal("unpack of non-tuple should fail")
	}
}

func TestEvalNodePack(t *testing.T) {
	n := &graph.Node{Kind: graph.KindPack, Name: "p", In: 2, Out: 1}
	outs, err := EvalNode(n, value.NewRegistry(), []value.Value{1, true})
	if err != nil {
		t.Fatal(err)
	}
	tp := outs[0].(value.Tuple)
	if tp[0] != 1 || tp[1] != true {
		t.Fatalf("pack = %v", outs)
	}
}

func TestCostOfNodeDefaults(t *testing.T) {
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "f", Arity: 1,
		Fn:   func([]value.Value) value.Value { return 0 },
		Cost: func([]value.Value) int64 { return 12345 }})
	fn := &graph.Node{Kind: graph.KindFunc, Fn: "f"}
	if got := CostOfNode(fn, r, nil); got != 12345 {
		t.Fatalf("cost = %d", got)
	}
	cn := &graph.Node{Kind: graph.KindConst}
	if got := CostOfNode(cn, r, nil); got != 200 {
		t.Fatalf("const cost = %d", got)
	}
	ghost := &graph.Node{Kind: graph.KindFunc, Fn: "ghost"}
	if got := CostOfNode(ghost, r, nil); got != value.DefaultCost {
		t.Fatalf("ghost cost = %d", got)
	}
}

func TestMessageAccounting(t *testing.T) {
	s := compile(t, farmSrc, baseRegistry(), arch.Ring(4), syndex.Structured)
	res, err := NewMachine(s, baseRegistry()).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	// 10 tasks + 10 replies + 4 sentinels at minimum.
	if res.Messages < 24 {
		t.Fatalf("messages = %d, want >= 24", res.Messages)
	}
	if res.Hops < res.Messages-4 { // co-located worker traffic has 0 hops
		t.Logf("hops %d vs messages %d (fine on small rings)", res.Hops, res.Messages)
	}
	// A single-processor run routes nothing.
	s1 := compile(t, farmSrc, baseRegistry(), arch.Ring(1), syndex.Structured)
	res1, err := NewMachine(s1, baseRegistry()).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Hops != 0 {
		t.Fatalf("1-proc run should have 0 hops, got %d", res1.Hops)
	}
}

func TestRunWithTimeoutCompletesNormally(t *testing.T) {
	s := compile(t, farmSrc, baseRegistry(), arch.Ring(4), syndex.Structured)
	res, err := NewMachine(s, baseRegistry()).RunWithTimeout(1, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != farmWant {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

func TestRunWithTimeoutAbortsStalledExecutive(t *testing.T) {
	// Hand-craft a schedule whose single processor waits for a message
	// nobody sends: the watchdog must abort it.
	g := graph.New()
	src := g.AddNode(&graph.Node{Kind: graph.KindFunc, Name: "never", Fn: "never", Out: 1})
	dst := g.AddNode(&graph.Node{Kind: graph.KindOutput, Name: "out", In: 1})
	e := g.Connect(src.ID, 0, dst.ID, 0, "int")
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "never", Arity: 0,
		Fn: func([]value.Value) value.Value { return 0 }})
	sched := &syndex.Schedule{
		Graph:  g,
		Arch:   arch.Ring(2),
		Assign: []arch.ProcID{0, 1},
		Topo:   []graph.NodeID{src.ID, dst.ID},
		Programs: [][]syndex.Op{
			{}, // processor 0 never sends
			{
				{Kind: syndex.OpRecv, Node: dst.ID, Edge: e.ID, Peer: 0},
				{Kind: syndex.OpExec, Node: dst.ID},
			},
		},
	}
	start := time.Now()
	_, err := NewMachine(sched, r).RunWithTimeout(1, 100*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "did not complete") {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("watchdog too slow")
	}
}

func TestDeterministicFarmMatchesSequentialFoldOrder(t *testing.T) {
	// Non-commutative accumulator: string concatenation. Only the
	// deterministic mode is guaranteed to match the emulator's fold order.
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "letters", Sig: "unit -> string list", Arity: 1,
		Fn: func([]value.Value) value.Value {
			return value.List{"a", "b", "c", "d", "e", "f", "g", "h"}
		}})
	r.Register(&value.Func{Name: "upper", Sig: "string -> string", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			s := a[0].(string)
			return strings.ToUpper(s)
		}})
	r.Register(&value.Func{Name: "cat", Sig: "string -> string -> string", Arity: 2,
		Fn: func(a []value.Value) value.Value {
			return a[0].(string) + a[1].(string)
		}})
	src := `
extern letters : unit -> string list;;
extern upper : string -> string;;
extern cat : string -> string -> string;;
let main = df 4 upper cat "" (letters ());;
`
	s := compile(t, src, r, arch.Ring(4), syndex.Structured)
	for trial := 0; trial < 10; trial++ {
		m := NewMachine(s, r)
		m.DeterministicFarm = true
		res, err := m.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outputs[0] != "ABCDEFGH" {
			t.Fatalf("trial %d: %v", trial, res.Outputs[0])
		}
	}
}

func TestDeterministicFarmKeepsCommutativeResults(t *testing.T) {
	s := compile(t, farmSrc, baseRegistry(), arch.Ring(4), syndex.Structured)
	m := NewMachine(s, baseRegistry())
	m.DeterministicFarm = true
	res, err := m.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != farmWant {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

func TestDeterministicModeDoesNotBreakTF(t *testing.T) {
	s := compile(t, tfSrc, tfRegistry(), arch.Ring(4), syndex.Structured)
	m := NewMachine(s, tfRegistry())
	m.DeterministicFarm = true
	res, err := m.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs[0] != 4950 {
		t.Fatalf("outputs = %v", res.Outputs)
	}
}

func TestStreamManyIterationsStress(t *testing.T) {
	// A long stream over a farm exercises the unbounded-queue design and
	// cross-iteration mailbox FIFO ordering (run-ahead of fast processors).
	var frames int64
	var outs []value.Value
	r := streamRegistry(&frames, &outs)
	r.Register(&value.Func{Name: "sq", Sig: "int -> int", Arity: 1,
		Fn: func(a []value.Value) value.Value { x := a[0].(int); return x * x }})
	r.Register(&value.Func{Name: "plus", Sig: "int -> int -> int", Arity: 2,
		Fn: func(a []value.Value) value.Value { return a[0].(int) + a[1].(int) }})
	r.Register(&value.Func{Name: "tolist", Sig: "int -> int list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			n := a[0].(int)
			return value.List{n, n + 1, n + 2}
		}})
	r.Register(&value.Func{Name: "wrap", Sig: "int * int -> int * int", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			pr := a[0].(value.Tuple)
			return value.Tuple{pr[0].(int) + pr[1].(int), pr[0].(int) + pr[1].(int)}
		}})
	src := `
extern grab : unit -> int;;
extern tolist : int -> int list;;
extern sq : int -> int;;
extern plus : int -> int -> int;;
extern wrap : int * int -> int * int;;
extern show : int -> unit;;
let loop (z, b) =
  let s = df 3 sq plus 0 (tolist b) in
  wrap (z, s);;
let main = itermem grab loop show 0 ();;
`
	s := compile(t, src, r, arch.Ring(4), syndex.Structured)
	const iters = 400
	res, err := NewMachine(s, r).RunWithTimeout(iters, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != iters {
		t.Fatalf("outputs = %d", len(res.Outputs))
	}
	// Verify against the closed form: input frame i is i+1; farm computes
	// (i+1)^2 + (i+2)^2 + (i+3)^2; z accumulates.
	z := 0
	for i := 0; i < iters; i++ {
		n := i + 1
		z += n*n + (n+1)*(n+1) + (n+2)*(n+2)
		if res.Outputs[i] != z {
			t.Fatalf("iteration %d: %v != %d", i, res.Outputs[i], z)
		}
	}
}

// TestTFWorkerHandsBackSpare drives one tf worker by hand: it runs the
// tasks its function spawns itself, depth-first, and hands back exactly the
// first Spare of them — none when Spare is 0, when the whole subtree comes
// back as results in one reply.
func TestTFWorkerHandsBackSpare(t *testing.T) {
	a := arch.Ring(4)
	s := compile(t, tfSrc, tfRegistry(), a, syndex.Structured)
	p := workerOnlyProcs(s)[0]
	var worker *graph.Node
	for _, n := range s.Graph.Nodes {
		if n.Kind == graph.KindWorker && s.Assign[n.ID] == p {
			worker = n
		}
	}
	var master graph.NodeID
	for _, e := range s.Graph.InEdges(worker.ID) {
		master = e.From
	}
	tr := memtransport.New(a)
	defer tr.Close()
	done := make(chan error, 1)
	go func() {
		_, err := NewMachineOn(s, tfRegistry(), tr, []arch.ProcID{p}).RunWithTimeout(1, 10*time.Second)
		done <- err
	}()
	sum := func(l value.List) int {
		n := 0
		for _, v := range l {
			n += v.(int)
		}
		return n
	}
	for _, tc := range []struct {
		spare   int32
		results int // sum of the results in the reply
		back    value.List
	}{
		{0, 4950, value.List{}},
		{1, 3725, value.List{value.Tuple{0, 50}}}, // (50,100) runs here, (0,50) goes back
		{2, 0, value.List{value.Tuple{0, 50}, value.Tuple{50, 100}}},
		{5, 0, value.List{value.Tuple{0, 50}, value.Tuple{50, 100}}},
		{-1, 4950, value.List{}}, // a malformed Spare counts as none
	} {
		tr.Send(0, p, transport.TaskKey(master, worker.Index),
			transport.Task{Idx: 7, Gen: 3, Spare: tc.spare, V: value.Tuple{0, 100}})
		v, ok := tr.Recv(0, transport.ReplyKey(master))
		if !ok {
			t.Fatal("no reply")
		}
		rep := v.(transport.Reply)
		ys, more, ok := tfPair(rep.V)
		if !ok || rep.Task != 7 || rep.Gen != 3 || int(rep.Widx) != worker.Index {
			t.Fatalf("spare %d: reply %+v", tc.spare, rep)
		}
		if sum(ys) != tc.results || !value.Equal(more, tc.back) {
			t.Errorf("spare %d: results sum to %d and %v go back, want %d and %v",
				tc.spare, sum(ys), more, tc.results, tc.back)
		}
	}
	tr.Send(0, p, transport.TaskKey(master, worker.Index), transport.Sentinel{})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
