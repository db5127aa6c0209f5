// Package value defines the dynamic value model shared by the sequential
// emulator, the distributed executive and the timing simulator, together
// with the registry of user sequential functions. Registered functions are
// the Go counterpart of the paper's "application-specific sequential
// functions written in C": each carries its DSL type signature, its
// implementation, and the cost/size models used by the timing simulator.
package value

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a dynamic SKiPPER value. The concrete representations are:
//
//	int, float64, bool, string — the base types
//	Unit                        — the unit value ()
//	Tuple                       — tuples
//	List                        — lists
//	anything else               — an opaque value of an abstract type
type Value = any

// Unit is the unit value ().
type Unit struct{}

// Tuple is a tuple value.
type Tuple []Value

// List is a list value.
type List []Value

// Show renders a value for debugging and program output.
func Show(v Value) string {
	switch v := v.(type) {
	case nil:
		return "<nil>"
	case int:
		return fmt.Sprintf("%d", v)
	case float64:
		return fmt.Sprintf("%g", v)
	case bool:
		return fmt.Sprintf("%t", v)
	case string:
		return fmt.Sprintf("%q", v)
	case Unit:
		return "()"
	case Tuple:
		parts := make([]string, len(v))
		for i, e := range v {
			parts[i] = Show(e)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	case List:
		parts := make([]string, len(v))
		for i, e := range v {
			parts[i] = Show(e)
		}
		return "[" + strings.Join(parts, "; ") + "]"
	default:
		if str, ok := v.(fmt.Stringer); ok {
			return str.String()
		}
		return fmt.Sprintf("<%T>", v)
	}
}

// Sizer lets opaque values report their transfer size in bytes.
type Sizer interface {
	Bytes() int
}

// SizeOf estimates the number of bytes needed to transmit v between
// processors, used by the communication cost model. Opaque values may
// implement Sizer; otherwise a fixed default is charged.
func SizeOf(v Value) int {
	const header = 4
	switch v := v.(type) {
	case nil:
		return header
	case int:
		return 4
	case float64:
		return 8
	case bool:
		return 1
	case string:
		return header + len(v)
	case Unit:
		return 1
	case Tuple:
		n := header
		for _, e := range v {
			n += SizeOf(e)
		}
		return n
	case List:
		n := header
		for _, e := range v {
			n += SizeOf(e)
		}
		return n
	case Sizer:
		return v.Bytes()
	default:
		return 64
	}
}

// Func is a registered user sequential function (or constant, when Arity
// is 0).
type Func struct {
	// Name is the extern name the DSL program refers to.
	Name string
	// Sig is the function's DSL type signature, e.g.
	// "int -> state -> img -> window list".
	Sig string
	// Arity is the number of curried arguments.
	Arity int
	// Fn is the implementation. It receives exactly Arity arguments. It must
	// not retain an argument, or any view of one, past its return except
	// through its result: the executive recycles the buffers of a value a
	// transport decoded once nothing the schedule holds refers to it.
	Fn func(args []Value) Value
	// Cost estimates the execution time of a call in processor cycles on
	// the modelled target, given the actual arguments. Nil means DefaultCost.
	Cost func(args []Value) int64
	// EstCost is the static (data-independent) cycle estimate used by the
	// mapper/scheduler before any data exists. Zero means DefaultCost.
	EstCost int64
	// EstBytes is the static estimate of the result's transfer size in
	// bytes, used for static communication scheduling. Zero means 64.
	EstBytes int
	// Pure marks a side-effect-free function the compiler may fold at
	// expansion time when all arguments are compile-time constants.
	// Functions are impure by default (a C function reading a camera must
	// never run at compile time).
	Pure bool
}

// EstCostOf returns the static cost estimate.
func (f *Func) EstCostOf() int64 {
	if f.EstCost > 0 {
		return f.EstCost
	}
	return DefaultCost
}

// EstBytesOf returns the static result size estimate.
func (f *Func) EstBytesOf() int {
	if f.EstBytes > 0 {
		return f.EstBytes
	}
	return 64
}

// DefaultCost is charged by the simulator for functions without a cost
// model: a fixed small overhead.
const DefaultCost = 1000

// CostOf evaluates the function's cost model on args.
func (f *Func) CostOf(args []Value) int64 {
	if f.Cost != nil {
		return f.Cost(args)
	}
	return DefaultCost
}

// Registry holds the user functions available to a program.
type Registry struct {
	funcs map[string]*Func
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{funcs: map[string]*Func{}}
}

// Register adds f; it panics on duplicate or malformed registrations, which
// are programming errors in the host application.
func (r *Registry) Register(f *Func) {
	if f.Name == "" {
		panic("value: Register with empty name")
	}
	if f.Arity < 0 {
		panic("value: negative arity for " + f.Name)
	}
	if f.Fn == nil {
		panic("value: nil implementation for " + f.Name)
	}
	if _, dup := r.funcs[f.Name]; dup {
		panic("value: duplicate registration of " + f.Name)
	}
	r.funcs[f.Name] = f
}

// Lookup returns the function registered under name.
func (r *Registry) Lookup(name string) (*Func, bool) {
	f, ok := r.funcs[name]
	return f, ok
}

// Names returns all registered names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.funcs))
	for n := range r.funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ExternDecls renders `extern` declarations for every registered function,
// ready to prepend to a DSL source (so applications keep signatures in one
// place, the registry).
func (r *Registry) ExternDecls() string {
	var b strings.Builder
	for _, n := range r.Names() {
		f := r.funcs[n]
		if f.Sig == "" {
			continue
		}
		fmt.Fprintf(&b, "extern %s : %s;;\n", f.Name, f.Sig)
	}
	return b.String()
}

// Equal compares two values structurally. Opaque values are compared with
// Go ==  when possible; incomparable opaque values are never equal.
func Equal(a, b Value) bool {
	switch av := a.(type) {
	case Tuple:
		bv, ok := b.(Tuple)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !Equal(av[i], bv[i]) {
				return false
			}
		}
		return true
	case List:
		bv, ok := b.(List)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !Equal(av[i], bv[i]) {
				return false
			}
		}
		return true
	default:
		return safeEqual(a, b)
	}
}

// safeEqual applies Go == and treats incomparable dynamic types (which make
// == panic) as unequal.
func safeEqual(a, b Value) (eq bool) {
	defer func() {
		if recover() != nil {
			eq = false
		}
	}()
	return a == b
}
