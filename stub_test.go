package skipper

import (
	"strings"
	"testing"

	"skipper/internal/track"
)

func TestStubRegistryCompilesPaperSpec(t *testing.T) {
	src := `
type img;; type state;; type window;; type mark;;
extern read_img : int * int -> img;;
extern init_state : unit -> state;;
extern get_windows : int -> state -> img -> window list;;
extern detect_mark : window -> mark;;
extern accum_marks : mark list -> mark -> mark list;;
extern predict : mark list -> state * mark list;;
extern display_marks : mark list -> unit;;
extern empty_list : mark list;;
let nproc = 8;;
let s0 = init_state ();;
let loop (state, im) =
  let ws = get_windows nproc state im in
  let marks = df nproc detect_mark accum_marks empty_list ws in
  predict marks;;
let main = itermem read_img loop display_marks s0 (512, 512);;
`
	reg, err := StubRegistry(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(src, reg)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Stream {
		t.Fatal("stream flag lost")
	}
	// Mapping and macro-code also work with stubs.
	dep, err := prog.MapOnto(Ring(8), Structured)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dep.MacroCode(), "worker_(") {
		t.Fatal("macro-code incomplete")
	}
}

func TestStubRegistryArities(t *testing.T) {
	src := `
extern a : int;;
extern b : int -> int;;
extern c : int -> int -> bool -> int;;
extern d : (int -> int) -> int;;
let main = b (c 1 2 true);;
`
	reg, err := StubRegistry(src)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int{"a": 0, "b": 1, "c": 3, "d": 1} {
		f, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if f.Arity != want {
			t.Fatalf("%s arity = %d, want %d", name, f.Arity, want)
		}
	}
	if _, err := Compile(src, reg); err != nil {
		t.Fatal(err)
	}
}

func TestStubRegistrySyntaxErrorPropagates(t *testing.T) {
	if _, err := StubRegistry("extern broken"); err == nil {
		t.Fatal("expected error")
	}
}

// dupExtern declares the same extern twice.
const dupExtern = "extern f : int -> int;;\nextern f : int -> int;;\nlet main = f 1;;\n"

func TestDuplicateExternIsADiagnostic(t *testing.T) {
	const want = "2:1: extern f is declared twice"
	if _, err := StubRegistry(dupExtern); err == nil || err.Error() != want {
		t.Fatalf("StubRegistry: err = %v, want %q", err, want)
	}
	// The chain refuses it too, whatever registry the caller brings.
	reg := NewRegistry()
	reg.Register(&Func{Name: "f", Sig: "int -> int", Arity: 1,
		Fn: func(a []Value) Value { return a[0] }})
	if _, err := Compile(dupExtern, reg); err == nil || err.Error() != want {
		t.Fatalf("Compile: err = %v, want %q", err, want)
	}
}

func TestParseArch(t *testing.T) {
	cases := map[string]struct {
		name string
		n    int
	}{
		"ring:8":      {"ring(8)", 8},
		"chain:3":     {"chain(3)", 3},
		"star:5":      {"star(5)", 5},
		"full:4":      {"full(4)", 4},
		"hypercube:3": {"hypercube(3)", 8},
		"grid:3x4":    {"grid(3x4)", 12},
		"torus:2x2":   {"torus(2x2)", 4},
	}
	for in, want := range cases {
		a, err := ParseArch(in)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if a.Name != want.name || a.N != want.n {
			t.Fatalf("%s: got %s/%d", in, a.Name, a.N)
		}
	}
	for _, bad := range []string{
		"ring", "ring:0", "ring:x", "grid:3", "grid:0x4", "blob:3",
		"torus:axb", "hypercube:99",
	} {
		if _, err := ParseArch(bad); err == nil {
			t.Fatalf("%q should be rejected", bad)
		}
	}
}

func TestRegistrySignatureConsistency(t *testing.T) {
	src := `
type img;;
extern load : int -> img;;
let main = load 1;;
`
	// Matching signature: fine (alpha-renaming tolerated).
	good := NewRegistry()
	good.Register(&Func{Name: "load", Sig: "int -> img", Arity: 1,
		Fn: func([]Value) Value { return "I" }})
	if _, err := Compile(src, good); err != nil {
		t.Fatal(err)
	}

	// Arity mismatch.
	badArity := NewRegistry()
	badArity.Register(&Func{Name: "load", Sig: "int -> img", Arity: 2,
		Fn: func([]Value) Value { return "I" }})
	if _, err := Compile(src, badArity); err == nil ||
		!strings.Contains(err.Error(), "registered with arity 2") {
		t.Fatalf("err = %v", err)
	}

	// Signature mismatch.
	badSig := NewRegistry()
	badSig.Register(&Func{Name: "load", Sig: "bool -> img", Arity: 1,
		Fn: func([]Value) Value { return "I" }})
	if _, err := Compile(src, badSig); err == nil ||
		!strings.Contains(err.Error(), "declared as int -> img but registered as bool -> img") {
		t.Fatalf("err = %v", err)
	}

	// Unparseable registered signature.
	badParse := NewRegistry()
	badParse.Register(&Func{Name: "load", Sig: "int ->", Arity: 1,
		Fn: func([]Value) Value { return "I" }})
	if _, err := Compile(src, badParse); err == nil ||
		!strings.Contains(err.Error(), "does not parse") {
		t.Fatalf("err = %v", err)
	}

	// Empty signature: only arity is checked.
	noSig := NewRegistry()
	noSig.Register(&Func{Name: "load", Arity: 1,
		Fn: func([]Value) Value { return "I" }})
	if _, err := Compile(src, noSig); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrySignatureAlphaEquivalence(t *testing.T) {
	src := `
extern pick : 'x -> 'y -> 'x;;
let main = pick 1 2;;
`
	reg := NewRegistry()
	reg.Register(&Func{Name: "pick", Sig: "'a -> 'b -> 'a", Arity: 2,
		Fn: func(a []Value) Value { return a[0] }})
	if _, err := Compile(src, reg); err != nil {
		t.Fatalf("alpha-equivalent signatures rejected: %v", err)
	}
	// But structurally different variable patterns are rejected.
	reg2 := NewRegistry()
	reg2.Register(&Func{Name: "pick", Sig: "'a -> 'b -> 'b", Arity: 2,
		Fn: func(a []Value) Value { return a[1] }})
	if _, err := Compile(src, reg2); err == nil {
		t.Fatal("non-equivalent signatures accepted")
	}
}

// FuzzCompile drives arbitrary source the way skipperc does: stub registry,
// compile, map onto ring(3). Any input may be rejected; none may panic.
func FuzzCompile(f *testing.F) {
	f.Add(track.ProgramSource(3, 64, 64))
	f.Add("type img;; type w;;\nextern src : img;;\nextern split : img -> w list;;\nextern comp : w -> int;;\nextern merge : int list -> int;;\nlet main = scm 4 split comp merge src;;\n")
	f.Add("type w;;\nextern whole : w list;;\nextern step : w -> w list * w list;;\nextern count : int -> w -> int;;\nlet main = tf 3 step count 0 whole;;\n")
	f.Add("let main = 1 + 2;;\n")
	f.Fuzz(func(t *testing.T, src string) {
		// Skeleton degrees are bounded by arch.MaxProcs, but syndex.Map is
		// quadratic in the graph's size: the mapped graphs stay small.
		reg, err := StubRegistry(src)
		if err != nil {
			return
		}
		prog, err := Compile(src, reg)
		if err != nil || len(prog.Graph.Nodes) > 1000 {
			return
		}
		prog.MapOnto(Ring(3), Structured)
	})
}
