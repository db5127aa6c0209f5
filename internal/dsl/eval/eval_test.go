package eval

import (
	"strings"
	"testing"

	"skipper/internal/dsl/ast"
	"skipper/internal/dsl/parser"
	"skipper/internal/dsl/types"
	"skipper/internal/value"
)

// run parses, type-checks and emulates src, returning top-level bindings.
func run(t *testing.T, reg *value.Registry, opts Options, src string) map[string]value.Value {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := types.Check(prog); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	out, err := New(reg, opts).Run(prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

func TestLiteralBindings(t *testing.T) {
	out := run(t, value.NewRegistry(), Options{}, `
let a = 41 + 1;;
let b = (1, true);;
let c = [1; 2; 3];;
let d = "str";;
`)
	if out["a"] != 42 {
		t.Fatalf("a = %v", out["a"])
	}
	if tp := out["b"].(value.Tuple); tp[0] != 1 || tp[1] != true {
		t.Fatalf("b = %v", out["b"])
	}
	if l := out["c"].(value.List); len(l) != 3 || l[2] != 3 {
		t.Fatalf("c = %v", out["c"])
	}
	if out["d"] != "str" {
		t.Fatalf("d = %v", out["d"])
	}
}

func TestArithmetic(t *testing.T) {
	out := run(t, value.NewRegistry(), Options{}, `
let a = 2 * 3 + 10 / 2 - 1;;
let b = -4;;
`)
	if out["a"] != 10 {
		t.Fatalf("a = %v", out["a"])
	}
	if out["b"] != -4 {
		t.Fatalf("b = %v", out["b"])
	}
}

func TestDivisionByZero(t *testing.T) {
	prog, _ := parser.Parse("let a = 1 / 0;;")
	_, err := New(value.NewRegistry(), Options{}).Run(prog)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestComparisons(t *testing.T) {
	out := run(t, value.NewRegistry(), Options{}, `
let a = 1 < 2;;
let b = 2 <= 1;;
let c = (1, 2) = (1, 2);;
let d = [1] <> [2];;
let e = "a" < "b";;
`)
	for n, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true, "e": true} {
		if out[n] != want {
			t.Errorf("%s = %v, want %v", n, out[n], want)
		}
	}
}

func TestClosuresAndCurrying(t *testing.T) {
	out := run(t, value.NewRegistry(), Options{}, `
let add x y = x + y;;
let inc = add 1;;
let a = inc 41;;
`)
	if out["a"] != 42 {
		t.Fatalf("a = %v", out["a"])
	}
}

func TestLexicalScope(t *testing.T) {
	out := run(t, value.NewRegistry(), Options{}, `
let x = 10;;
let f y = x + y;;
let x = 999;;
let a = f 1;;
`)
	// f captured the first x.
	if out["a"] != 11 {
		t.Fatalf("a = %v", out["a"])
	}
}

func TestLetInAndTuplePattern(t *testing.T) {
	out := run(t, value.NewRegistry(), Options{}, `
let a = let (x, y) = (3, 4) in x * y;;
let b = let f n = n + 1 in f 41;;
`)
	if out["a"] != 12 || out["b"] != 42 {
		t.Fatalf("a=%v b=%v", out["a"], out["b"])
	}
}

func TestIfEvaluatesOneBranch(t *testing.T) {
	// The untaken branch would divide by zero.
	out := run(t, value.NewRegistry(), Options{}, `
let a = if true then 1 else 1 / 0;;
`)
	if out["a"] != 1 {
		t.Fatalf("a = %v", out["a"])
	}
}

func TestMapFold(t *testing.T) {
	out := run(t, value.NewRegistry(), Options{}, `
let xs = [1; 2; 3; 4];;
let doubled = map (fun x -> 2 * x) xs;;
let total = fold_left (fun a b -> a + b) 0 doubled;;
`)
	if out["total"] != 20 {
		t.Fatalf("total = %v", out["total"])
	}
}

func TestSCMDeclarative(t *testing.T) {
	reg := value.NewRegistry()
	reg.Register(&value.Func{
		Name: "split3", Sig: "int -> int list", Arity: 1,
		Fn: func(args []value.Value) value.Value {
			n := args[0].(int)
			return value.List{n, n + 1, n + 2}
		},
	})
	out := run(t, reg, Options{}, `
extern split3 : int -> int list;;
let r = scm 3 split3 (fun x -> x * x) (fold_left (fun a b -> a + b) 0) 10;;
`)
	if out["r"] != 100+121+144 {
		t.Fatalf("r = %v", out["r"])
	}
}

func TestDFDeclarative(t *testing.T) {
	out := run(t, value.NewRegistry(), Options{}, `
let r = df 8 (fun x -> x + 1) (fun a b -> a + b) 0 [10; 20; 30];;
`)
	if out["r"] != 63 {
		t.Fatalf("r = %v", out["r"])
	}
}

func TestTFDeclarative(t *testing.T) {
	// Split ranges (lo, hi) until small, then emit hi - lo.
	out := run(t, value.NewRegistry(), Options{}, `
let work r =
  let (lo, hi) = r in
  if hi - lo <= 2 then ([hi - lo], [])
  else ([], [(lo, lo + (hi - lo) / 2); (lo + (hi - lo) / 2, hi)]);;
let r = tf 4 work (fun a b -> a + b) 0 [(0, 10)];;
`)
	if out["r"] != 10 {
		t.Fatalf("r = %v", out["r"])
	}
}

func TestItermemThreadsMemory(t *testing.T) {
	reg := value.NewRegistry()
	var outputs []value.Value
	frame := 0
	reg.Register(&value.Func{
		Name: "next", Sig: "unit -> int", Arity: 1,
		Fn: func([]value.Value) value.Value { frame++; return frame },
	})
	reg.Register(&value.Func{
		Name: "emit", Sig: "int -> unit", Arity: 1,
		Fn: func(args []value.Value) value.Value {
			outputs = append(outputs, args[0])
			return value.Unit{}
		},
	})
	run(t, reg, Options{MaxIters: 4}, `
extern next : unit -> int;;
extern emit : int -> unit;;
let loop (z, b) = (z + b, z + b);;
let main = itermem next loop emit 0 ();;
`)
	// inputs 1,2,3,4; cumulative sums 1,3,6,10.
	want := []int{1, 3, 6, 10}
	if len(outputs) != 4 {
		t.Fatalf("outputs = %v", outputs)
	}
	for i, w := range want {
		if outputs[i] != w {
			t.Fatalf("outputs = %v", outputs)
		}
	}
}

func TestItermemTraceCallback(t *testing.T) {
	reg := value.NewRegistry()
	reg.Register(&value.Func{Name: "id", Sig: "int -> int", Arity: 1,
		Fn: func(a []value.Value) value.Value { return a[0] }})
	reg.Register(&value.Func{Name: "sink", Sig: "int -> unit", Arity: 1,
		Fn: func([]value.Value) value.Value { return value.Unit{} }})
	traced := 0
	run(t, reg, Options{MaxIters: 3, Trace: func(int, value.Value) { traced++ }}, `
extern id : int -> int;;
extern sink : int -> unit;;
let main = itermem id (fun p -> let (z, b) = p in (z, b)) sink 0 7;;
`)
	if traced != 3 {
		t.Fatalf("traced %d iterations", traced)
	}
}

func TestExternConstantAndPartialApplication(t *testing.T) {
	reg := value.NewRegistry()
	reg.Register(&value.Func{Name: "zero", Sig: "int", Arity: 0,
		Fn: func([]value.Value) value.Value { return 0 }})
	reg.Register(&value.Func{Name: "add3", Sig: "int -> int -> int -> int", Arity: 3,
		Fn: func(a []value.Value) value.Value {
			return a[0].(int) + a[1].(int) + a[2].(int)
		}})
	out := run(t, reg, Options{}, `
extern zero : int;;
extern add3 : int -> int -> int -> int;;
let f = add3 1 2;;
let a = f 39 + zero;;
`)
	if out["a"] != 42 {
		t.Fatalf("a = %v", out["a"])
	}
}

func TestMissingExternRegistration(t *testing.T) {
	prog, _ := parser.Parse("extern ghost : int -> int;;")
	_, err := New(value.NewRegistry(), Options{}).Run(prog)
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnboundIdentifierAtRuntime(t *testing.T) {
	// Bypass the type checker to exercise the interpreter's own guard.
	prog := &ast.Program{Decls: []ast.Decl{
		&ast.DLet{Name: "a", Rhs: &ast.Ident{Name: "ghost"}},
	}}
	_, err := New(value.NewRegistry(), Options{}).Run(prog)
	if err == nil || !strings.Contains(err.Error(), "unbound identifier") {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyNonFunction(t *testing.T) {
	prog := &ast.Program{Decls: []ast.Decl{
		&ast.DLet{Name: "a", Rhs: &ast.App{
			Fn:  &ast.IntLit{Value: 3},
			Arg: &ast.IntLit{Value: 4},
		}},
	}}
	_, err := New(value.NewRegistry(), Options{}).Run(prog)
	if err == nil || !strings.Contains(err.Error(), "non-function") {
		t.Fatalf("err = %v", err)
	}
}

func TestEvalExpr(t *testing.T) {
	prog, err := parser.Parse("let twice x = 2 * x;;")
	if err != nil {
		t.Fatal(err)
	}
	em := New(value.NewRegistry(), Options{})
	v, err := em.EvalExpr(prog, &ast.App{
		Fn:  &ast.Ident{Name: "twice"},
		Arg: &ast.IntLit{Value: 21},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("v = %v", v)
	}
}

func TestShowValues(t *testing.T) {
	if got := value.Show(value.Tuple{1, value.List{true, false}, value.Unit{}}); got != "(1, [true; false], ())" {
		t.Fatalf("Show = %q", got)
	}
}

func TestCompareAllTypesAndErrors(t *testing.T) {
	out := run(t, value.NewRegistry(), Options{}, `
let a = 2.5 < 3.0;;
let b = 3.0 >= 3.0;;
let c = "abc" > "abd";;
let d = 1 <= 1;;
`)
	if out["a"] != true || out["b"] != true || out["c"] != false || out["d"] != true {
		t.Fatalf("out = %v", out)
	}
	// Mixed comparisons are runtime errors (bypassing the typechecker).
	em := New(value.NewRegistry(), Options{})
	mixed := &ast.Program{Decls: []ast.Decl{
		&ast.DLet{Name: "x", Rhs: &ast.BinOp{Op: "<",
			L: &ast.IntLit{Value: 1}, R: &ast.FloatLit{Value: 2.0}}},
	}}
	if _, err := em.Run(mixed); err == nil {
		t.Fatal("int<float comparison should fail at runtime")
	}
	unordered := &ast.Program{Decls: []ast.Decl{
		&ast.DLet{Name: "x", Rhs: &ast.BinOp{Op: ">",
			L: &ast.BoolLit{Value: true}, R: &ast.BoolLit{Value: false}}},
	}}
	if _, err := em.Run(unordered); err == nil {
		t.Fatal("bool ordering should fail at runtime")
	}
	floatMixed := &ast.Program{Decls: []ast.Decl{
		&ast.DLet{Name: "x", Rhs: &ast.BinOp{Op: "<=",
			L: &ast.FloatLit{Value: 1.0}, R: &ast.IntLit{Value: 2}}},
	}}
	if _, err := em.Run(floatMixed); err == nil {
		t.Fatal("float<=int should fail at runtime")
	}
	strMixed := &ast.Program{Decls: []ast.Decl{
		&ast.DLet{Name: "x", Rhs: &ast.BinOp{Op: ">=",
			L: &ast.StringLit{Value: "a"}, R: &ast.IntLit{Value: 2}}},
	}}
	if _, err := em.Run(strMixed); err == nil {
		t.Fatal("string>=int should fail at runtime")
	}
}

func TestEvalExprWithExternsAndErrors(t *testing.T) {
	reg := value.NewRegistry()
	reg.Register(&value.Func{Name: "ten", Sig: "int", Arity: 0,
		Fn: func([]value.Value) value.Value { return 10 }})
	reg.Register(&value.Func{Name: "inc", Sig: "int -> int", Arity: 1,
		Fn: func(a []value.Value) value.Value { return a[0].(int) + 1 }})
	prog, err := parser.Parse("extern ten : int;;\nextern inc : int -> int;;\nlet base = inc ten;;")
	if err != nil {
		t.Fatal(err)
	}
	em := New(reg, Options{})
	v, err := em.EvalExpr(prog, &ast.App{Fn: &ast.Ident{Name: "inc"}, Arg: &ast.Ident{Name: "base"}})
	if err != nil {
		t.Fatal(err)
	}
	if v != 12 {
		t.Fatalf("v = %v", v)
	}
	// Missing registration propagates through EvalExpr too.
	prog2, _ := parser.Parse("extern ghost : int;;")
	if _, err := em.EvalExpr(prog2, &ast.IntLit{Value: 1}); err == nil {
		t.Fatal("missing extern should fail")
	}
	// A failing declaration aborts EvalExpr.
	prog3, _ := parser.Parse("let boom = 1 / 0;;")
	if _, err := em.EvalExpr(prog3, &ast.IntLit{Value: 1}); err == nil {
		t.Fatal("failing decl should abort")
	}
}

func TestBindPatternMismatches(t *testing.T) {
	// Tuple pattern against a non-tuple (bypassing types).
	em := New(value.NewRegistry(), Options{})
	prog := &ast.Program{Decls: []ast.Decl{
		&ast.DLet{Name: "x", Rhs: &ast.Let{
			Pat: &ast.PTuple{Elems: []ast.Pattern{
				&ast.PVar{Name: "a"}, &ast.PVar{Name: "b"},
			}},
			Rhs:  &ast.IntLit{Value: 3},
			Body: &ast.IntLit{Value: 0},
		}},
	}}
	if _, err := em.Run(prog); err == nil {
		t.Fatal("tuple pattern against int should fail")
	}
	// Unit pattern binds nothing and succeeds.
	out := run(t, value.NewRegistry(), Options{}, "let f () = 9;;\nlet a = f ();;")
	if out["a"] != 9 {
		t.Fatalf("a = %v", out["a"])
	}
}

func TestStringersOnFunctionValues(t *testing.T) {
	reg := value.NewRegistry()
	reg.Register(&value.Func{Name: "two", Sig: "int -> int -> int", Arity: 2,
		Fn: func(a []value.Value) value.Value { return 0 }})
	out := run(t, reg, Options{}, `
extern two : int -> int -> int;;
let part = two 1;;
let lam = fun x -> x;;
`)
	if value.Show(out["part"]) != "<extern two>" {
		t.Fatalf("partial extern shows as %q", value.Show(out["part"]))
	}
	if value.Show(out["lam"]) != "<fun>" {
		t.Fatalf("lambda shows as %q", value.Show(out["lam"]))
	}
	out2 := run(t, value.NewRegistry(), Options{}, "let d = df;;")
	if value.Show(out2["d"]) != "<df>" {
		t.Fatalf("builtin shows as %q", value.Show(out2["d"]))
	}
}
