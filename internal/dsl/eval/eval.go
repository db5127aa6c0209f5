// Package eval is the sequential emulator of SKiPPER (the right-hand path
// of paper Fig. 2): it interprets a type-checked specification directly
// against the skeletons' declarative definitions, calling the registered Go
// user functions. "This gives the programmer the opportunity to sequentially
// emulate a parallel program on traditional stock hardware before trying it
// out on a dedicated parallel target" (paper §2).
package eval

import (
	"fmt"

	"skipper/internal/dsl/ast"
	"skipper/internal/dsl/token"
	"skipper/internal/value"
)

// Error is a runtime error raised during emulation.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: runtime error: %s", e.Pos, e.Msg) }

// Options tunes the emulation.
type Options struct {
	// MaxIters bounds itermem iterations (the paper's loop is infinite, fed
	// by a camera; emulation needs a horizon). Zero means 1.
	MaxIters int
	// Trace, when non-nil, receives one line per itermem iteration.
	Trace func(iter int, out value.Value)
}

// MaxCallDepth bounds the interpreter's call depth so runaway recursion in
// a specification surfaces as a runtime error instead of crashing the host.
const MaxCallDepth = 10_000

// Emulator interprets programs.
type Emulator struct {
	reg   *value.Registry
	opts  Options
	depth int
}

// New returns an emulator over the given registry of user functions.
func New(reg *value.Registry, opts Options) *Emulator {
	if opts.MaxIters <= 0 {
		opts.MaxIters = 1
	}
	return &Emulator{reg: reg, opts: opts}
}

// env is a lexically scoped value environment.
type env struct {
	parent *env
	vars   map[string]value.Value
}

func newEnv(parent *env) *env { return &env{parent: parent, vars: map[string]value.Value{}} }

func (e *env) lookup(name string) (value.Value, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// closure is a user lambda with its captured environment.
type closure struct {
	params []ast.Pattern
	body   ast.Expr
	env    *env
	ev     *Emulator
}

func (*closure) String() string { return "<fun>" }

// extern is a registered function, partially applied.
type extern struct {
	fn   *value.Func
	args []value.Value
}

func (e *extern) String() string { return "<extern " + e.fn.Name + ">" }

// builtin is a skeleton or higher-order builtin, partially applied.
type builtin struct {
	name  string
	arity int
	args  []value.Value
}

func (b *builtin) String() string { return "<" + b.name + ">" }

// Run evaluates every top-level binding in order and returns the final
// value environment (name -> value). Evaluating `main` drives itermem
// programs for Options.MaxIters iterations.
func (ev *Emulator) Run(prog *ast.Program) (map[string]value.Value, error) {
	genv := newEnv(nil)
	results := map[string]value.Value{}
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.DType:
			// Abstract types have no runtime content.
		case *ast.DExtern:
			f, ok := ev.reg.Lookup(d.Name)
			if !ok {
				return nil, &Error{Pos: d.Pos, Msg: "extern " + d.Name + " not registered"}
			}
			if f.Arity == 0 {
				genv.vars[d.Name] = f.Fn(nil)
			} else {
				genv.vars[d.Name] = &extern{fn: f}
			}
		case *ast.DLet:
			// Each top-level let opens a new scope, so closures made
			// earlier keep seeing the binding they captured even when a
			// later let shadows the name (Caml toplevel semantics). For
			// recursive bindings the rhs is evaluated inside the new frame
			// so the closure can resolve its own name.
			frame := genv
			if d.Rec && d.Name != "_" {
				frame = newEnv(genv)
			}
			v, err := ev.eval(frame, d.Rhs)
			if err != nil {
				return nil, err
			}
			if d.Name != "_" {
				if frame != genv {
					frame.vars[d.Name] = v
					genv = frame
				} else {
					genv = newEnv(genv)
					genv.vars[d.Name] = v
				}
				results[d.Name] = v
			}
		}
	}
	return results, nil
}

// EvalExpr evaluates a single expression in the context of a program's
// global bindings (used by tests and the REPL-style tooling).
func (ev *Emulator) EvalExpr(prog *ast.Program, e ast.Expr) (value.Value, error) {
	genv := newEnv(nil)
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.DExtern:
			f, ok := ev.reg.Lookup(d.Name)
			if !ok {
				return nil, &Error{Pos: d.Pos, Msg: "extern " + d.Name + " not registered"}
			}
			if f.Arity == 0 {
				genv.vars[d.Name] = f.Fn(nil)
			} else {
				genv.vars[d.Name] = &extern{fn: f}
			}
		case *ast.DLet:
			v, err := ev.eval(genv, d.Rhs)
			if err != nil {
				return nil, err
			}
			if d.Name != "_" {
				genv = newEnv(genv)
				genv.vars[d.Name] = v
			}
		}
	}
	return ev.eval(genv, e)
}

var builtinArity = map[string]int{
	"map":       2,
	"fold_left": 3,
	"scm":       5,
	"df":        5,
	"tf":        5,
	"itermem":   5,
}

func (ev *Emulator) eval(en *env, e ast.Expr) (value.Value, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return e.Value, nil
	case *ast.FloatLit:
		return e.Value, nil
	case *ast.BoolLit:
		return e.Value, nil
	case *ast.StringLit:
		return e.Value, nil
	case *ast.UnitLit:
		return value.Unit{}, nil

	case *ast.Ident:
		if v, ok := en.lookup(e.Name); ok {
			return v, nil
		}
		if arity, ok := builtinArity[e.Name]; ok {
			return &builtin{name: e.Name, arity: arity}, nil
		}
		return nil, &Error{Pos: e.NamePos, Msg: "unbound identifier " + e.Name}

	case *ast.Tuple:
		out := make(value.Tuple, len(e.Elems))
		for i, el := range e.Elems {
			v, err := ev.eval(en, el)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil

	case *ast.ListLit:
		out := make(value.List, len(e.Elems))
		for i, el := range e.Elems {
			v, err := ev.eval(en, el)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil

	case *ast.Lambda:
		return &closure{params: e.Params, body: e.Body, env: en, ev: ev}, nil

	case *ast.Let:
		if e.Rec {
			// Recursive binding: evaluate the rhs in a frame where the
			// name resolves to the (eventually bound) closure. Closures
			// capture the frame by reference, so the knot ties itself.
			pv, ok := e.Pat.(*ast.PVar)
			if !ok {
				return nil, &Error{Pos: e.LetPos, Msg: "let rec requires a simple name"}
			}
			frame := newEnv(en)
			rhs, err := ev.eval(frame, e.Rhs)
			if err != nil {
				return nil, err
			}
			frame.vars[pv.Name] = rhs
			return ev.eval(frame, e.Body)
		}
		rhs, err := ev.eval(en, e.Rhs)
		if err != nil {
			return nil, err
		}
		inner := newEnv(en)
		if err := bindPattern(inner, e.Pat, rhs, e.LetPos); err != nil {
			return nil, err
		}
		return ev.eval(inner, e.Body)

	case *ast.If:
		c, err := ev.eval(en, e.Cond)
		if err != nil {
			return nil, err
		}
		b, ok := c.(bool)
		if !ok {
			return nil, &Error{Pos: e.Cond.Pos(), Msg: "if condition is not a bool"}
		}
		if b {
			return ev.eval(en, e.Then)
		}
		return ev.eval(en, e.Else)

	case *ast.BinOp:
		l, err := ev.eval(en, e.L)
		if err != nil {
			return nil, err
		}
		r, err := ev.eval(en, e.R)
		if err != nil {
			return nil, err
		}
		return ev.binop(e, l, r)

	case *ast.App:
		fn, err := ev.eval(en, e.Fn)
		if err != nil {
			return nil, err
		}
		arg, err := ev.eval(en, e.Arg)
		if err != nil {
			return nil, err
		}
		return ev.apply(fn, arg, e.Pos())
	}
	return nil, fmt.Errorf("eval: unknown expression %T", e)
}

func (ev *Emulator) binop(e *ast.BinOp, l, r value.Value) (value.Value, error) {
	switch e.Op {
	case "+.", "-.", "*.", "/.":
		lf, lok := l.(float64)
		rf, rok := r.(float64)
		if !lok || !rok {
			return nil, &Error{Pos: e.Pos(), Msg: "float arithmetic on non-float"}
		}
		switch e.Op {
		case "+.":
			return lf + rf, nil
		case "-.":
			return lf - rf, nil
		case "*.":
			return lf * rf, nil
		default:
			return lf / rf, nil
		}
	case "+", "-", "*", "/":
		li, lok := l.(int)
		ri, rok := r.(int)
		if !lok || !rok {
			return nil, &Error{Pos: e.Pos(), Msg: "arithmetic on non-int"}
		}
		switch e.Op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		default:
			if ri == 0 {
				return nil, &Error{Pos: e.Pos(), Msg: "division by zero"}
			}
			return li / ri, nil
		}
	case "=":
		return value.Equal(l, r), nil
	case "<>":
		return !value.Equal(l, r), nil
	case "<", ">", "<=", ">=":
		cmp, err := compare(l, r)
		if err != nil {
			return nil, &Error{Pos: e.Pos(), Msg: err.Error()}
		}
		switch e.Op {
		case "<":
			return cmp < 0, nil
		case ">":
			return cmp > 0, nil
		case "<=":
			return cmp <= 0, nil
		default:
			return cmp >= 0, nil
		}
	}
	return nil, &Error{Pos: e.Pos(), Msg: "unknown operator " + e.Op}
}

func compare(l, r value.Value) (int, error) {
	switch lv := l.(type) {
	case int:
		rv, ok := r.(int)
		if !ok {
			return 0, fmt.Errorf("comparison of int with %T", r)
		}
		switch {
		case lv < rv:
			return -1, nil
		case lv > rv:
			return 1, nil
		}
		return 0, nil
	case float64:
		rv, ok := r.(float64)
		if !ok {
			return 0, fmt.Errorf("comparison of float with %T", r)
		}
		switch {
		case lv < rv:
			return -1, nil
		case lv > rv:
			return 1, nil
		}
		return 0, nil
	case string:
		rv, ok := r.(string)
		if !ok {
			return 0, fmt.Errorf("comparison of string with %T", r)
		}
		switch {
		case lv < rv:
			return -1, nil
		case lv > rv:
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("values of type %T are not ordered", l)
}

// apply applies a function value to one argument (curried application).
func (ev *Emulator) apply(fn, arg value.Value, pos token.Pos) (value.Value, error) {
	switch fn := fn.(type) {
	case *closure:
		ev.depth++
		defer func() { ev.depth-- }()
		if ev.depth > MaxCallDepth {
			return nil, &Error{Pos: pos,
				Msg: "call depth exceeded (runaway recursion in the specification?)"}
		}
		inner := newEnv(fn.env)
		if err := bindPattern(inner, fn.params[0], arg, pos); err != nil {
			return nil, err
		}
		if len(fn.params) == 1 {
			return ev.eval(inner, fn.body)
		}
		return &closure{params: fn.params[1:], body: fn.body, env: inner, ev: ev}, nil

	case *extern:
		args := append(append([]value.Value{}, fn.args...), arg)
		if len(args) == fn.fn.Arity {
			return fn.fn.Fn(args), nil
		}
		return &extern{fn: fn.fn, args: args}, nil

	case *builtin:
		args := append(append([]value.Value{}, fn.args...), arg)
		if len(args) == fn.arity {
			return ev.applyBuiltin(fn.name, args, pos)
		}
		return &builtin{name: fn.name, arity: fn.arity, args: args}, nil
	}
	return nil, &Error{Pos: pos, Msg: fmt.Sprintf("cannot apply non-function value %s", value.Show(fn))}
}

// applyBuiltin executes a fully applied builtin using the declarative
// skeleton semantics of paper §2.
func (ev *Emulator) applyBuiltin(name string, args []value.Value, pos token.Pos) (value.Value, error) {
	call := func(f value.Value, xs ...value.Value) (value.Value, error) {
		cur := f
		for _, x := range xs {
			v, err := ev.apply(cur, x, pos)
			if err != nil {
				return nil, err
			}
			cur = v
		}
		return cur, nil
	}
	asList := func(v value.Value, what string) (value.List, error) {
		l, ok := v.(value.List)
		if !ok {
			return nil, &Error{Pos: pos, Msg: what + " is not a list"}
		}
		return l, nil
	}

	switch name {
	case "map": // map f xs
		xs, err := asList(args[1], "map argument")
		if err != nil {
			return nil, err
		}
		out := make(value.List, len(xs))
		for i, x := range xs {
			v, err := call(args[0], x)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil

	case "fold_left": // fold_left f z xs
		xs, err := asList(args[2], "fold_left argument")
		if err != nil {
			return nil, err
		}
		accv := args[1]
		for _, x := range xs {
			v, err := call(args[0], accv, x)
			if err != nil {
				return nil, err
			}
			accv = v
		}
		return accv, nil

	case "scm": // scm n split comp merge x
		parts, err := call(args[1], args[4])
		if err != nil {
			return nil, err
		}
		lst, err := asList(parts, "scm split result")
		if err != nil {
			return nil, err
		}
		// The executive runs exactly n compute processes (internal/exec,
		// KindSplit), so a split of another length fails every deployment.
		if n, _ := args[0].(int); len(lst) != n {
			return nil, &Error{Pos: pos, Msg: fmt.Sprintf("scm split produced %d sub-domains for %d compute processes", len(lst), n)}
		}
		results := make(value.List, len(lst))
		for i, p := range lst {
			v, err := call(args[2], p)
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return call(args[3], results)

	case "df": // df n comp acc z xs = fold_left acc z (map comp xs)
		xs, err := asList(args[4], "df input")
		if err != nil {
			return nil, err
		}
		accv := args[3]
		for _, x := range xs {
			y, err := call(args[1], x)
			if err != nil {
				return nil, err
			}
			accv, err = call(args[2], accv, y)
			if err != nil {
				return nil, err
			}
		}
		return accv, nil

	case "tf": // tf n work acc z xs — FIFO task queue
		xs, err := asList(args[4], "tf input")
		if err != nil {
			return nil, err
		}
		queue := append(value.List{}, xs...)
		accv := args[3]
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			res, err := call(args[1], x)
			if err != nil {
				return nil, err
			}
			pair, ok := res.(value.Tuple)
			if !ok || len(pair) != 2 {
				return nil, &Error{Pos: pos, Msg: "tf worker must return (results, new-tasks)"}
			}
			ys, err := asList(pair[0], "tf results")
			if err != nil {
				return nil, err
			}
			more, err := asList(pair[1], "tf new tasks")
			if err != nil {
				return nil, err
			}
			for _, y := range ys {
				accv, err = call(args[2], accv, y)
				if err != nil {
					return nil, err
				}
			}
			queue = append(queue, more...)
		}
		return accv, nil

	case "itermem": // itermem inp loop out z x
		z := args[3]
		for i := 0; i < ev.opts.MaxIters; i++ {
			b, err := call(args[0], args[4])
			if err != nil {
				return nil, err
			}
			res, err := call(args[1], value.Tuple{z, b})
			if err != nil {
				return nil, err
			}
			pair, ok := res.(value.Tuple)
			if !ok || len(pair) != 2 {
				return nil, &Error{Pos: pos, Msg: "itermem loop must return (state, output)"}
			}
			z = pair[0]
			if _, err := call(args[2], pair[1]); err != nil {
				return nil, err
			}
			if ev.opts.Trace != nil {
				ev.opts.Trace(i, pair[1])
			}
		}
		return value.Unit{}, nil
	}
	return nil, &Error{Pos: pos, Msg: "unknown builtin " + name}
}

// bindPattern destructures v against p, extending en.
func bindPattern(en *env, p ast.Pattern, v value.Value, pos token.Pos) error {
	switch p := p.(type) {
	case *ast.PVar:
		en.vars[p.Name] = v
		return nil
	case *ast.PWild:
		return nil
	case *ast.PUnit:
		return nil
	case *ast.PTuple:
		tv, ok := v.(value.Tuple)
		if !ok || len(tv) != len(p.Elems) {
			return &Error{Pos: pos, Msg: "tuple pattern mismatch against " + value.Show(v)}
		}
		for i, sub := range p.Elems {
			if err := bindPattern(en, sub, tv[i], pos); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown pattern %T", p)
}
