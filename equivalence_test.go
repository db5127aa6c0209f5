package skipper

// Cross-path property tests: the sequential emulator, the compile-time
// constant folder, the goroutine executive and the timing simulator must
// agree on program meaning. These are the repository-wide versions of the
// paper's central correctness claim (sequential emulation predicts parallel
// behaviour).

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"skipper/internal/dsl/eval"
	"skipper/internal/dsl/parser"
	"skipper/internal/dsl/types"
	"skipper/internal/expand"
	"skipper/internal/sim"
	"skipper/internal/value"
)

// genArith builds a random constant integer expression of bounded depth.
func genArith(rng *rand.Rand, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		return fmt.Sprintf("%d", rng.Intn(19)-9)
	}
	ops := []string{"+", "-", "*"}
	op := ops[rng.Intn(len(ops))]
	return fmt.Sprintf("(%s %s %s)", genArith(rng, depth-1), op, genArith(rng, depth-1))
}

// TestConstFoldingMatchesEmulator: for random closed arithmetic programs,
// the expander's compile-time folding computes the same integer as the
// runtime emulator.
func TestConstFoldingMatchesEmulator(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := "let main = " + genArith(rng, 4) + ";;"
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		info, err := types.Check(prog)
		if err != nil {
			t.Fatalf("check %q: %v", src, err)
		}
		reg := value.NewRegistry()
		res, err := expand.Expand(prog, info, reg)
		if err != nil {
			t.Fatalf("expand %q: %v", src, err)
		}
		if !res.ConstFolded {
			t.Fatalf("%q did not fold", src)
		}
		out, err := eval.New(reg, eval.Options{}).Run(prog)
		if err != nil {
			t.Fatalf("eval %q: %v", src, err)
		}
		return value.Equal(res.MainConst, out["main"])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// farmFixture builds a df program over a random workload with a canonical
// (sorted-multiset) accumulator so results are order-independent.
func farmFixture(seed int64, workers int) (string, *Registry, []int) {
	rng := rand.New(rand.NewSource(seed))
	n := rng.Intn(30)
	xs := make([]int, n)
	for i := range xs {
		xs[i] = rng.Intn(200) - 100
	}
	reg := NewRegistry()
	reg.Register(&Func{Name: "workload", Sig: "unit -> int list", Arity: 1,
		Fn: func([]Value) Value {
			out := make(List, len(xs))
			for i, x := range xs {
				out[i] = x
			}
			return out
		}})
	reg.Register(&Func{Name: "triple", Sig: "int -> int", Arity: 1,
		Fn: func(a []Value) Value { return 3 * a[0].(int) }})
	reg.Register(&Func{Name: "plus", Sig: "int -> int -> int", Arity: 2,
		Fn: func(a []Value) Value { return a[0].(int) + a[1].(int) }})
	src := fmt.Sprintf(`
extern workload : unit -> int list;;
extern triple : int -> int;;
extern plus : int -> int -> int;;
let main = df %d triple plus 0 (workload ());;
`, workers)
	return src, reg, xs
}

// TestFarmAllPathsAgreeOnRandomWorkloads: emulator, executive and simulator
// agree with the directly computed reference on random farm inputs.
func TestFarmAllPathsAgreeOnRandomWorkloads(t *testing.T) {
	f := func(seed int64, w uint8) bool {
		workers := int(w%6) + 1
		src, reg, xs := farmFixture(seed, workers)
		want := 0
		for _, x := range xs {
			want += 3 * x
		}

		prog, err := Compile(src, reg)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		// Emulator.
		out, err := eval.New(reg, eval.Options{}).Run(prog.AST)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		if out["main"] != want {
			t.Fatalf("emulator: got %v want %d", out["main"], want)
		}
		// Executive on a random topology.
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		archs := []*Arch{Ring(1), Ring(3), Chain(4), Star(5), Full(3)}
		a := archs[rng.Intn(len(archs))]
		dep, err := prog.MapOnto(a, Structured)
		if err != nil {
			t.Fatalf("map: %v", err)
		}
		outs, err := dep.Run(1)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if outs[0] != want {
			t.Fatalf("executive on %s: got %v want %d", a.Name, outs[0], want)
		}
		// Simulator.
		sres, err := dep.Simulate(sim.Options{Iters: 1})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		return sres.Outputs[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestListSchedAgreesWithStructured: the two distribution strategies give
// the same functional results (only timing may differ).
func TestListSchedAgreesWithStructured(t *testing.T) {
	src, reg, xs := farmFixture(99, 4)
	want := 0
	for _, x := range xs {
		want += 3 * x
	}
	for _, strat := range []Strategy{Structured, ListSched} {
		prog, err := Compile(src, reg)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := prog.MapOnto(Ring(4), strat)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := dep.Run(1)
		if err != nil {
			t.Fatal(err)
		}
		if outs[0] != want {
			t.Fatalf("%v: got %v want %d", strat, outs[0], want)
		}
	}
}

// TestSCMSplitArityRejectedByBothPaths: an scm split that returns other
// than its degree's number of parts is an error with the same message in
// the sequential emulator and on the executive, so a specification that
// emulates cleanly cannot fail every deployment on it.
func TestSCMSplitArityRejectedByBothPaths(t *testing.T) {
	const src = `
extern halves : int -> int list;;
extern inc : int -> int;;
extern total : int list -> int;;
let main = scm 3 halves inc total 10;;
`
	reg := NewRegistry()
	reg.Register(&Func{Name: "halves", Sig: "int -> int list", Arity: 1,
		Fn: func(a []Value) Value { return List{a[0], a[0]} }}) // 2 parts for 3 compute processes
	reg.Register(&Func{Name: "inc", Sig: "int -> int", Arity: 1,
		Fn: func(a []Value) Value { return a[0].(int) + 1 }})
	reg.Register(&Func{Name: "total", Sig: "int list -> int", Arity: 1,
		Fn: func(a []Value) Value {
			s := 0
			for _, v := range a[0].(List) {
				s += v.(int)
			}
			return s
		}})
	prog, err := Compile(src, reg)
	if err != nil {
		t.Fatal(err)
	}
	const want = "scm split produced 2 sub-domains for 3 compute processes"
	if err := prog.Emulate(1); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("emulator: err = %v, want %q", err, want)
	}
	dep, err := prog.MapOnto(Ring(3), Structured)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Run(1); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("executive: err = %v, want %q", err, want)
	}
}
