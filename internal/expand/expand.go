// Package expand implements the skeleton expansion stage of the SKiPPER
// compiler: "the resulting annotated abstract syntax tree is then expanded
// into a (target-independent) parallel process network by instantiating each
// skeleton PNT" (paper §3).
//
// Expansion is a partial evaluation of the specification: compile-time
// values (integers such as nproc, tuples of constants, the initial memory
// value) are folded, sequential function applications become Func nodes,
// and each fully applied skeleton is replaced by its process network
// template — Master/Worker for df and tf (Fig. 1), Split/Comp/Merge for
// scm, Input/Loop/Output/MEM for itermem (Fig. 4).
//
// The paper's restriction that scm/df/tf "can [not] be freely nested"
// is enforced here: their functional parameters must be plain sequential
// (extern) functions, and a skeleton appearing where a sequential function
// is expected is a compile-time error.
package expand

import (
	"fmt"

	"skipper/internal/arch"
	"skipper/internal/dsl/ast"
	"skipper/internal/dsl/token"
	"skipper/internal/dsl/types"
	"skipper/internal/graph"
	"skipper/internal/value"
)

// Error is an expansion error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: expansion error: %s", e.Pos, e.Msg) }

// Result is an expanded program.
type Result struct {
	Graph *graph.Graph
	// Stream is true when the program's main is an itermem application:
	// the graph then processes a continuous stream of inputs through the
	// MEM feedback loop. Otherwise the graph is a one-shot DAG whose
	// Output node delivers the value of main.
	Stream bool
	// Output is the node delivering program output (the itermem Output
	// process, or the synthetic collector of a one-shot program). It is
	// invalid (-1) for programs whose main is a compile-time constant.
	Output graph.NodeID
	// MainConst holds main's value when it was entirely folded at
	// compile time (no graph needed).
	MainConst value.Value
	// ConstFolded indicates MainConst is meaningful.
	ConstFolded bool
}

// Expand compiles a type-checked program into a process graph. The registry
// provides arities and compile-time constants for extern functions.
func Expand(prog *ast.Program, info *types.Info, reg *value.Registry) (*Result, error) {
	x := &expander{
		g:     graph.New(),
		info:  info,
		reg:   reg,
		names: map[string]int{},
	}
	return x.run(prog)
}

// --- symbolic values ---------------------------------------------------------

type sval interface{ sv() }

// sConst is a compile-time constant.
type sConst struct{ v value.Value }

// sWire is a runtime value produced at a node output port.
type sWire struct {
	node graph.NodeID
	port int
	typ  string
}

// sClosure is an unapplied user lambda.
type sClosure struct {
	params []ast.Pattern
	body   ast.Expr
	env    *senv
}

// sExtern is a (possibly partially applied) registered function.
type sExtern struct {
	fn   *value.Func
	args []sval
}

// sSkel is a (possibly partially applied) skeleton.
type sSkel struct {
	name  string
	arity int
	args  []sval
	pos   token.Pos
}

// sTuple is a tuple of symbolic values.
type sTuple []sval

func (sConst) sv()    {}
func (sWire) sv()     {}
func (*sClosure) sv() {}
func (*sExtern) sv()  {}
func (*sSkel) sv()    {}
func (sTuple) sv()    {}

type senv struct {
	parent *senv
	vars   map[string]sval
}

func newSenv(parent *senv) *senv { return &senv{parent: parent, vars: map[string]sval{}} }

func (e *senv) lookup(name string) (sval, bool) {
	for s := e; s != nil; s = s.parent {
		if v, ok := s.vars[name]; ok {
			return v, true
		}
	}
	return nil, false
}

// --- expander ----------------------------------------------------------------

type expander struct {
	g      *graph.Graph
	info   *types.Info
	reg    *value.Registry
	names  map[string]int
	stream bool
	output graph.NodeID
	inSkel bool // true while expanding skeleton functional arguments
	depth  int  // closure inlining depth (guards against recursion)
}

var skelArity = map[string]int{"scm": 5, "df": 5, "tf": 5, "itermem": 5}

func (x *expander) run(prog *ast.Program) (*Result, error) {
	env := newSenv(nil)
	x.output = -1
	var mainVal sval
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.DType:
			// no runtime content
		case *ast.DExtern:
			f, ok := x.reg.Lookup(d.Name)
			if !ok {
				return nil, &Error{Pos: d.Pos, Msg: "extern " + d.Name + " not registered"}
			}
			if f.Arity == 0 {
				env.vars[d.Name] = sConst{v: f.Fn(nil)}
			} else {
				env.vars[d.Name] = &sExtern{fn: f}
			}
		case *ast.DLet:
			frame := env
			if d.Rec && d.Name != "_" {
				frame = newSenv(env)
			}
			v, err := x.eval(frame, d.Rhs)
			if err != nil {
				return nil, err
			}
			if d.Name != "_" {
				if frame != env {
					frame.vars[d.Name] = v
					env = frame
				} else {
					env = newSenv(env)
					env.vars[d.Name] = v
				}
			}
			if d.Name == "main" {
				mainVal = v
			}
		}
	}
	res := &Result{Graph: x.g, Stream: x.stream, Output: x.output}
	if mainVal == nil {
		return nil, fmt.Errorf("expand: program has no main binding")
	}
	switch mv := mainVal.(type) {
	case sConst:
		if !x.stream {
			res.MainConst = mv.v
			res.ConstFolded = true
			return res, nil
		}
		// Stream programs: itermem already built Input/Output/Mem.
	case sWire:
		// One-shot dataflow program: collect main's value at an Output node.
		out := x.addNode(&graph.Node{Kind: graph.KindOutput, Name: x.unique("result"), In: 1})
		x.g.Connect(mv.node, mv.port, out.ID, 0, mv.typ)
		x.output = out.ID
		res.Output = out.ID
	case sTuple:
		w, err := x.materialize(mv, token.Pos{})
		if err != nil {
			return nil, err
		}
		out := x.addNode(&graph.Node{Kind: graph.KindOutput, Name: x.unique("result"), In: 1})
		x.g.Connect(w.node, w.port, out.ID, 0, w.typ)
		x.output = out.ID
		res.Output = out.ID
	default:
		return nil, fmt.Errorf("expand: main must be a dataflow value or itermem application, got %T", mainVal)
	}
	res.Stream = x.stream
	if err := x.g.Validate(); err != nil {
		return nil, fmt.Errorf("expand: produced invalid graph: %w", err)
	}
	return res, nil
}

func (x *expander) unique(base string) string {
	n := x.names[base]
	x.names[base] = n + 1
	if n == 0 {
		return base
	}
	return fmt.Sprintf("%s#%d", base, n)
}

func (x *expander) addNode(n *graph.Node) *graph.Node { return x.g.AddNode(n) }

// externResultType renders the final result type of an extern's signature
// for edge labelling.
func (x *expander) externResultType(name string) string {
	sch, ok := x.info.Externs[name]
	if !ok {
		return ""
	}
	t := types.Prune(sch.Body)
	for {
		a, ok := t.(*types.Arrow)
		if !ok {
			return types.TypeString(t)
		}
		t = types.Prune(a.To)
	}
}

// externArgType renders the i-th argument type of an extern's signature.
func (x *expander) externArgType(name string, i int) string {
	sch, ok := x.info.Externs[name]
	if !ok {
		return ""
	}
	t := types.Prune(sch.Body)
	for k := 0; ; k++ {
		a, ok := t.(*types.Arrow)
		if !ok {
			return ""
		}
		if k == i {
			return types.TypeString(a.From)
		}
		t = types.Prune(a.To)
	}
}

// --- evaluation ---------------------------------------------------------------

func (x *expander) eval(env *senv, e ast.Expr) (sval, error) {
	switch e := e.(type) {
	case *ast.IntLit:
		return sConst{v: e.Value}, nil
	case *ast.FloatLit:
		return sConst{v: e.Value}, nil
	case *ast.BoolLit:
		return sConst{v: e.Value}, nil
	case *ast.StringLit:
		return sConst{v: e.Value}, nil
	case *ast.UnitLit:
		return sConst{v: value.Unit{}}, nil

	case *ast.Ident:
		if v, ok := env.lookup(e.Name); ok {
			return v, nil
		}
		if a, ok := skelArity[e.Name]; ok {
			return &sSkel{name: e.Name, arity: a, pos: e.NamePos}, nil
		}
		if e.Name == "map" || e.Name == "fold_left" {
			return nil, &Error{Pos: e.NamePos,
				Msg: e.Name + " is only available inside sequential emulation; use a skeleton for parallel structure"}
		}
		return nil, &Error{Pos: e.NamePos, Msg: "unbound identifier " + e.Name}

	case *ast.Tuple:
		out := make(sTuple, len(e.Elems))
		for i, el := range e.Elems {
			v, err := x.eval(env, el)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		// Fold tuples of constants.
		if vs, ok := allConst(out); ok {
			return sConst{v: value.Tuple(vs)}, nil
		}
		return out, nil

	case *ast.ListLit:
		vals := make([]value.Value, 0, len(e.Elems))
		for _, el := range e.Elems {
			v, err := x.eval(env, el)
			if err != nil {
				return nil, err
			}
			c, ok := v.(sConst)
			if !ok {
				return nil, &Error{Pos: el.Pos(),
					Msg: "list literals in specifications must be compile-time constants"}
			}
			vals = append(vals, c.v)
		}
		return sConst{v: value.List(vals)}, nil

	case *ast.Lambda:
		return &sClosure{params: e.Params, body: e.Body, env: env}, nil

	case *ast.Let:
		if e.Rec {
			pv, ok := e.Pat.(*ast.PVar)
			if !ok {
				return nil, &Error{Pos: e.LetPos, Msg: "let rec requires a simple name"}
			}
			frame := newSenv(env)
			rhs, err := x.eval(frame, e.Rhs)
			if err != nil {
				return nil, err
			}
			frame.vars[pv.Name] = rhs
			return x.eval(frame, e.Body)
		}
		rhs, err := x.eval(env, e.Rhs)
		if err != nil {
			return nil, err
		}
		inner := newSenv(env)
		if err := x.bindPattern(inner, e.Pat, rhs, e.LetPos); err != nil {
			return nil, err
		}
		return x.eval(inner, e.Body)

	case *ast.If:
		c, err := x.eval(env, e.Cond)
		if err != nil {
			return nil, err
		}
		cc, ok := c.(sConst)
		if !ok {
			return nil, &Error{Pos: e.Cond.Pos(),
				Msg: "data-dependent control flow must be inside sequential functions (condition is not compile-time)"}
		}
		b, ok := cc.v.(bool)
		if !ok {
			return nil, &Error{Pos: e.Cond.Pos(), Msg: "if condition is not a bool"}
		}
		if b {
			return x.eval(env, e.Then)
		}
		return x.eval(env, e.Else)

	case *ast.BinOp:
		l, err := x.eval(env, e.L)
		if err != nil {
			return nil, err
		}
		r, err := x.eval(env, e.R)
		if err != nil {
			return nil, err
		}
		lc, lok := l.(sConst)
		rc, rok := r.(sConst)
		if !lok || !rok {
			return nil, &Error{Pos: e.Pos(),
				Msg: "operators in specifications apply to compile-time values only; move runtime arithmetic into a sequential function"}
		}
		return foldBinOp(e, lc, rc)

	case *ast.App:
		fn, err := x.eval(env, e.Fn)
		if err != nil {
			return nil, err
		}
		arg, err := x.eval(env, e.Arg)
		if err != nil {
			return nil, err
		}
		return x.apply(fn, arg, e.Pos())
	}
	return nil, fmt.Errorf("expand: unknown expression %T", e)
}

func allConst(vs []sval) ([]value.Value, bool) {
	out := make([]value.Value, len(vs))
	for i, v := range vs {
		c, ok := v.(sConst)
		if !ok {
			return nil, false
		}
		out[i] = c.v
	}
	return out, true
}

func foldBinOp(e *ast.BinOp, l, r sConst) (sval, error) {
	li, lok := l.v.(int)
	ri, rok := r.v.(int)
	switch e.Op {
	case "+.", "-.", "*.", "/.":
		lf, lfok := l.v.(float64)
		rf, rfok := r.v.(float64)
		if !lfok || !rfok {
			return nil, &Error{Pos: e.Pos(), Msg: "float arithmetic on non-float constants"}
		}
		switch e.Op {
		case "+.":
			return sConst{v: lf + rf}, nil
		case "-.":
			return sConst{v: lf - rf}, nil
		case "*.":
			return sConst{v: lf * rf}, nil
		default:
			return sConst{v: lf / rf}, nil
		}
	case "+", "-", "*", "/":
		if !lok || !rok {
			return nil, &Error{Pos: e.Pos(), Msg: "arithmetic on non-int constants"}
		}
		switch e.Op {
		case "+":
			return sConst{v: li + ri}, nil
		case "-":
			return sConst{v: li - ri}, nil
		case "*":
			return sConst{v: li * ri}, nil
		default:
			if ri == 0 {
				return nil, &Error{Pos: e.Pos(), Msg: "division by zero in specification"}
			}
			return sConst{v: li / ri}, nil
		}
	case "=":
		return sConst{v: value.Equal(l.v, r.v)}, nil
	case "<>":
		return sConst{v: !value.Equal(l.v, r.v)}, nil
	case "<", ">", "<=", ">=":
		if !lok || !rok {
			return nil, &Error{Pos: e.Pos(), Msg: "ordering of non-int constants in specification"}
		}
		switch e.Op {
		case "<":
			return sConst{v: li < ri}, nil
		case ">":
			return sConst{v: li > ri}, nil
		case "<=":
			return sConst{v: li <= ri}, nil
		default:
			return sConst{v: li >= ri}, nil
		}
	}
	return nil, &Error{Pos: e.Pos(), Msg: "unknown operator " + e.Op}
}

func (x *expander) bindPattern(env *senv, p ast.Pattern, v sval, pos token.Pos) error {
	switch p := p.(type) {
	case *ast.PVar:
		env.vars[p.Name] = v
		return nil
	case *ast.PWild, *ast.PUnit:
		return nil
	case *ast.PTuple:
		switch tv := v.(type) {
		case sTuple:
			if len(tv) != len(p.Elems) {
				return &Error{Pos: pos, Msg: "tuple pattern arity mismatch"}
			}
			for i, sub := range p.Elems {
				if err := x.bindPattern(env, sub, tv[i], pos); err != nil {
					return err
				}
			}
			return nil
		case sConst:
			cv, ok := tv.v.(value.Tuple)
			if !ok || len(cv) != len(p.Elems) {
				return &Error{Pos: pos, Msg: "tuple pattern against non-tuple constant"}
			}
			for i, sub := range p.Elems {
				if err := x.bindPattern(env, sub, sConst{v: cv[i]}, pos); err != nil {
					return err
				}
			}
			return nil
		case sWire:
			// Destructuring a runtime tuple: insert an Unpack node.
			un := x.addNode(&graph.Node{
				Kind: graph.KindUnpack, Name: x.unique("unpack"),
				In: 1, Out: len(p.Elems),
			})
			x.g.Connect(tv.node, tv.port, un.ID, 0, tv.typ)
			for i, sub := range p.Elems {
				if err := x.bindPattern(env, sub, sWire{node: un.ID, port: i}, pos); err != nil {
					return err
				}
			}
			return nil
		}
		return &Error{Pos: pos, Msg: "tuple pattern against non-tuple value"}
	}
	return fmt.Errorf("expand: unknown pattern %T", p)
}

// materialize turns a symbolic value into a wire, inserting Const and Pack
// nodes as needed.
func (x *expander) materialize(v sval, pos token.Pos) (sWire, error) {
	switch v := v.(type) {
	case sWire:
		return v, nil
	case sConst:
		n := x.addNode(&graph.Node{
			Kind: graph.KindConst, Name: x.unique("const"),
			Const: v.v, Out: 1,
		})
		return sWire{node: n.ID, port: 0}, nil
	case sTuple:
		wires := make([]sWire, len(v))
		for i, el := range v {
			w, err := x.materialize(el, pos)
			if err != nil {
				return sWire{}, err
			}
			wires[i] = w
		}
		pk := x.addNode(&graph.Node{
			Kind: graph.KindPack, Name: x.unique("pack"),
			In: len(v), Out: 1,
		})
		for i, w := range wires {
			x.g.Connect(w.node, w.port, pk.ID, i, w.typ)
		}
		return sWire{node: pk.ID, port: 0}, nil
	case *sSkel:
		return sWire{}, &Error{Pos: pos,
			Msg: "skeleton " + v.name + " used as a data value (skeletons cannot be nested or passed around)"}
	case *sClosure:
		return sWire{}, &Error{Pos: pos,
			Msg: "function value used as data; only sequential function results flow on edges"}
	case *sExtern:
		return sWire{}, &Error{Pos: pos,
			Msg: "partially applied sequential function " + v.fn.Name + " used as data"}
	}
	return sWire{}, &Error{Pos: pos, Msg: "unmaterializable value"}
}

// apply performs one curried application step.
func (x *expander) apply(fn, arg sval, pos token.Pos) (sval, error) {
	switch fn := fn.(type) {
	case *sClosure:
		x.depth++
		defer func() { x.depth-- }()
		if x.depth > 256 {
			return nil, &Error{Pos: pos,
				Msg: "function inlining too deep: recursion is only available in sequential emulation; move recursive algorithms into sequential functions or use the tf skeleton"}
		}
		inner := newSenv(fn.env)
		if err := x.bindPattern(inner, fn.params[0], arg, pos); err != nil {
			return nil, err
		}
		if len(fn.params) == 1 {
			return x.eval(inner, fn.body)
		}
		return &sClosure{params: fn.params[1:], body: fn.body, env: inner}, nil

	case *sExtern:
		args := append(append([]sval{}, fn.args...), arg)
		if len(args) < fn.fn.Arity {
			return &sExtern{fn: fn.fn, args: args}, nil
		}
		return x.emitFunc(fn.fn, args, pos)

	case *sSkel:
		args := append(append([]sval{}, fn.args...), arg)
		if len(args) < fn.arity {
			return &sSkel{name: fn.name, arity: fn.arity, args: args, pos: fn.pos}, nil
		}
		return x.expandSkeleton(fn.name, args, pos)

	case sConst, sWire, sTuple:
		return nil, &Error{Pos: pos, Msg: "cannot apply a non-function value"}
	}
	return nil, &Error{Pos: pos, Msg: fmt.Sprintf("cannot apply %T", fn)}
}

// emitFunc creates a Func node for a fully applied sequential function.
// Calls to Pure functions whose arguments are all compile-time constants are
// folded at expansion time (constant propagation); impure functions always
// become Func nodes, because running arbitrary user code at compile time
// would be wrong (SKiPPER's C functions only run on the target).
func (x *expander) emitFunc(f *value.Func, args []sval, pos token.Pos) (sval, error) {
	if vs, ok := allConst(args); ok && f.Pure {
		return sConst{v: f.Fn(vs)}, nil
	}
	n := x.addNode(&graph.Node{
		Kind: graph.KindFunc, Name: x.unique(f.Name), Fn: f.Name,
		In: len(args), Out: 1,
	})
	for i, a := range args {
		w, err := x.materialize(a, pos)
		if err != nil {
			return nil, err
		}
		typ := w.typ
		if typ == "" {
			typ = x.externArgType(f.Name, i)
		}
		x.g.Connect(w.node, w.port, n.ID, i, typ)
	}
	return sWire{node: n.ID, port: 0, typ: x.externResultType(f.Name)}, nil
}

// constInt extracts a compile-time integer (e.g. the worker count).
func constInt(v sval, what string, pos token.Pos) (int, error) {
	c, ok := v.(sConst)
	if !ok {
		return 0, &Error{Pos: pos, Msg: what + " must be a compile-time integer"}
	}
	i, ok := c.v.(int)
	if !ok {
		return 0, &Error{Pos: pos, Msg: what + " must be an int"}
	}
	return i, nil
}

// seqFn extracts a plain sequential function argument for a skeleton slot,
// rejecting closures (which could hide nested skeletons — the paper's
// no-nesting restriction) and partial applications.
func (x *expander) seqFn(v sval, slot string, pos token.Pos) (*value.Func, error) {
	switch v := v.(type) {
	case *sExtern:
		if len(v.args) != 0 {
			return nil, &Error{Pos: pos,
				Msg: slot + " must be an unapplied sequential function (got partial application of " + v.fn.Name + ")"}
		}
		return v.fn, nil
	case *sSkel:
		return nil, &Error{Pos: pos,
			Msg: "skeletons cannot be nested: " + v.name + " cannot be the " + slot + " of another skeleton"}
	case *sClosure:
		return nil, &Error{Pos: pos,
			Msg: slot + " must be a named sequential function, not a lambda (SKiPPER skeletons take C functions as parameters)"}
	}
	return nil, &Error{Pos: pos, Msg: slot + " is not a function"}
}

// expandSkeleton instantiates a process network template.
func (x *expander) expandSkeleton(name string, args []sval, pos token.Pos) (sval, error) {
	switch name {
	case "df", "tf":
		return x.expandFarm(name, args, pos)
	case "scm":
		return x.expandSCM(args, pos)
	case "itermem":
		return x.expandIterMem(args, pos)
	}
	return nil, &Error{Pos: pos, Msg: "unknown skeleton " + name}
}

// expandFarm builds the df/tf PNT of Fig. 1: Master + n Workers. Master
// ports: in 0 = xs, in 1 = z, in 2+i = reply from worker i; out 0 = result,
// out 1+i = dispatch to worker i.
func (x *expander) expandFarm(name string, args []sval, pos token.Pos) (sval, error) {
	n, err := constInt(args[0], name+" worker count", pos)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, &Error{Pos: pos, Msg: name + " requires at least one worker"}
	}
	if n > arch.MaxProcs {
		return nil, &Error{Pos: pos, Msg: fmt.Sprintf("%s worker count %d is above the bound of %d", name, n, arch.MaxProcs)}
	}
	comp, err := x.seqFn(args[1], name+" compute function", pos)
	if err != nil {
		return nil, err
	}
	acc, err := x.seqFn(args[2], name+" accumulating function", pos)
	if err != nil {
		return nil, err
	}
	zw, err := x.materialize(args[3], pos)
	if err != nil {
		return nil, err
	}
	xsw, err := x.materialize(args[4], pos)
	if err != nil {
		return nil, err
	}
	sk := x.g.NewSkelID()
	master := x.addNode(&graph.Node{
		Kind: graph.KindMaster, Name: x.unique("Master<" + acc.Name + ">"),
		AccFn: acc.Name, Workers: n, TaskFarm: name == "tf",
		In: 2 + n, Out: 1 + n, SkelID: sk,
	})
	x.g.Connect(xsw.node, xsw.port, master.ID, 0, xsw.typ)
	x.g.Connect(zw.node, zw.port, master.ID, 1, zw.typ)
	inTyp := x.externArgType(comp.Name, 0)
	outTyp := x.externResultType(comp.Name)
	for i := 0; i < n; i++ {
		w := x.addNode(&graph.Node{
			Kind: graph.KindWorker, Name: x.unique("Worker<" + comp.Name + ">"),
			Fn: comp.Name, In: 1, Out: 1, SkelID: sk, Index: i,
		})
		x.g.Connect(master.ID, 1+i, w.ID, 0, inTyp)
		x.g.ConnectIntra(w.ID, 0, master.ID, 2+i, outTyp)
	}
	resTyp := x.externResultType(acc.Name)
	return sWire{node: master.ID, port: 0, typ: resTyp}, nil
}

// expandSCM builds the scm PNT: Split -> n×comp -> Merge, positional order.
func (x *expander) expandSCM(args []sval, pos token.Pos) (sval, error) {
	n, err := constInt(args[0], "scm degree", pos)
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, &Error{Pos: pos, Msg: "scm requires at least one compute process"}
	}
	if n > arch.MaxProcs {
		return nil, &Error{Pos: pos, Msg: fmt.Sprintf("scm degree %d is above the bound of %d", n, arch.MaxProcs)}
	}
	split, err := x.seqFn(args[1], "scm split function", pos)
	if err != nil {
		return nil, err
	}
	comp, err := x.seqFn(args[2], "scm compute function", pos)
	if err != nil {
		return nil, err
	}
	merge, err := x.seqFn(args[3], "scm merge function", pos)
	if err != nil {
		return nil, err
	}
	xw, err := x.materialize(args[4], pos)
	if err != nil {
		return nil, err
	}
	sk := x.g.NewSkelID()
	sp := x.addNode(&graph.Node{
		Kind: graph.KindSplit, Name: x.unique("Split<" + split.Name + ">"),
		Fn: split.Name, Workers: n, In: 1, Out: n, SkelID: sk,
	})
	x.g.Connect(xw.node, xw.port, sp.ID, 0, xw.typ)
	mg := x.addNode(&graph.Node{
		Kind: graph.KindMerge, Name: x.unique("Merge<" + merge.Name + ">"),
		Fn: merge.Name, Workers: n, In: n, Out: 1, SkelID: sk,
	})
	compIn := x.externArgType(comp.Name, 0)
	compOut := x.externResultType(comp.Name)
	for i := 0; i < n; i++ {
		c := x.addNode(&graph.Node{
			Kind: graph.KindFunc, Name: x.unique(comp.Name), Fn: comp.Name,
			In: 1, Out: 1, SkelID: sk, Index: i,
		})
		x.g.Connect(sp.ID, i, c.ID, 0, compIn)
		x.g.Connect(c.ID, 0, mg.ID, i, compOut)
	}
	return sWire{node: mg.ID, port: 0, typ: x.externResultType(merge.Name)}, nil
}

// expandIterMem builds the Fig. 4 PNT: Input -> loop subgraph -> Output,
// with the MEM node feeding iteration i's state to iteration i+1.
func (x *expander) expandIterMem(args []sval, pos token.Pos) (sval, error) {
	if x.stream {
		return nil, &Error{Pos: pos, Msg: "only one itermem per specification is supported"}
	}
	if x.inSkel {
		return nil, &Error{Pos: pos, Msg: "itermem cannot appear inside another skeleton"}
	}
	inpFn, err := x.seqFn(args[0], "itermem input function", pos)
	if err != nil {
		return nil, err
	}
	outFn, err := x.seqFn(args[2], "itermem output function", pos)
	if err != nil {
		return nil, err
	}
	zw, err := x.materialize(args[3], pos)
	if err != nil {
		return nil, err
	}
	xw, err := x.materialize(args[4], pos)
	if err != nil {
		return nil, err
	}
	x.stream = true

	in := x.addNode(&graph.Node{
		Kind: graph.KindInput, Name: x.unique("In<" + inpFn.Name + ">"),
		Fn: inpFn.Name, In: 1, Out: 1,
	})
	x.g.Connect(xw.node, xw.port, in.ID, 0, xw.typ)

	mem := x.addNode(&graph.Node{
		Kind: graph.KindMem, Name: x.unique("MEM"), In: 2, Out: 1,
	})
	x.g.Connect(zw.node, zw.port, mem.ID, 0, zw.typ) // initial value

	// Inline the loop body: apply it to (MEM out, Input out).
	loopArg := sTuple{
		sWire{node: mem.ID, port: 0, typ: zw.typ},
		sWire{node: in.ID, port: 0, typ: x.externResultType(inpFn.Name)},
	}
	loopRes, err := x.apply(args[1], loopArg, pos)
	if err != nil {
		return nil, err
	}

	// The loop must deliver (state', output).
	var zWire, yWire sWire
	switch lr := loopRes.(type) {
	case sTuple:
		if len(lr) != 2 {
			return nil, &Error{Pos: pos, Msg: "itermem loop must return a pair (state, output)"}
		}
		zWire, err = x.materialize(lr[0], pos)
		if err != nil {
			return nil, err
		}
		yWire, err = x.materialize(lr[1], pos)
		if err != nil {
			return nil, err
		}
	case sWire:
		// A single wire carrying the pair: unpack it.
		un := x.addNode(&graph.Node{
			Kind: graph.KindUnpack, Name: x.unique("unpack"), In: 1, Out: 2,
		})
		x.g.Connect(lr.node, lr.port, un.ID, 0, lr.typ)
		zWire = sWire{node: un.ID, port: 0}
		yWire = sWire{node: un.ID, port: 1}
	default:
		return nil, &Error{Pos: pos, Msg: "itermem loop result is not a dataflow value"}
	}
	x.g.ConnectBack(zWire.node, zWire.port, mem.ID, 1, zWire.typ)

	out := x.addNode(&graph.Node{
		Kind: graph.KindOutput, Name: x.unique("Out<" + outFn.Name + ">"),
		Fn: outFn.Name, In: 1,
	})
	x.g.Connect(yWire.node, yWire.port, out.ID, 0, yWire.typ)
	x.output = out.ID
	return sConst{v: value.Unit{}}, nil
}
