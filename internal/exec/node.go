// Package exec implements SKiPPER's distributed executive: the kernel
// primitives ("thread creation, communication and synchronisation and
// sequentialisation of user supplied computation functions and of
// inter-processor communications", paper §3) and a goroutine-based backend
// in which each processor of the architecture graph is a goroutine and a
// message is delivered straight into its destination's mailbox; the
// store-and-forward routing of the paper's executive (the M->W / W->M
// auxiliary processes of Fig. 1) is accounted as hops here and modelled,
// with its cost, by internal/sim.
package exec

import (
	"fmt"

	"skipper/internal/graph"
	"skipper/internal/value"
)

// NodeError reports a failure while executing one process node.
type NodeError struct {
	Node string
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf("exec: node %s: %v", e.Node, e.Err) }
func (e *NodeError) Unwrap() error { return e.Err }

// EvalNode computes the output port values of a static node from its input
// port values. It covers every node kind except Master, Worker (dynamic
// protocol) and Mem (stateful); those are handled by their dedicated
// executive operations. The same semantics is shared by the goroutine
// backend and the timing simulator, which is what makes their functional
// results identical by construction.
func EvalNode(n *graph.Node, reg *value.Registry, inputs []value.Value) ([]value.Value, error) {
	f, err := nodeFunc(n, reg)
	if err != nil {
		return nil, err
	}
	outs := make([]value.Value, max(n.Out, 1))
	if err := applyNode(n, f, inputs, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// nodeFunc resolves the sequential function a static node runs; nil for the
// kinds that need none (constants, tuple plumbing, a display-less Output).
// The executive calls it once per run at lowering, EvalNode on every call.
func nodeFunc(n *graph.Node, reg *value.Registry) (*value.Func, error) {
	switch n.Kind {
	case graph.KindConst, graph.KindPack, graph.KindUnpack:
		return nil, nil
	case graph.KindOutput:
		if n.Fn == "" {
			return nil, nil
		}
	}
	f, ok := reg.Lookup(n.Fn)
	if !ok {
		return nil, &NodeError{Node: n.Name, Err: fmt.Errorf("function %q not registered", n.Fn)}
	}
	return f, nil
}

// applyNode runs node n's function f (from nodeFunc) on inputs and stores
// the results in outs, which holds max(n.Out, 1) values.
func applyNode(n *graph.Node, f *value.Func, inputs, outs []value.Value) error {
	switch n.Kind {
	case graph.KindConst:
		outs[0] = n.Const

	case graph.KindFunc, graph.KindInput:
		if len(inputs) != f.Arity {
			return &NodeError{Node: n.Name,
				Err: fmt.Errorf("arity mismatch: %d inputs for %q/%d", len(inputs), n.Fn, f.Arity)}
		}
		outs[0] = f.Fn(inputs)

	case graph.KindOutput:
		// Output nodes deliver their input to the host; when a display
		// function is attached it runs first.
		if f != nil {
			f.Fn(inputs)
		}

	case graph.KindSplit:
		parts, ok := f.Fn(inputs).(value.List)
		if !ok {
			return &NodeError{Node: n.Name, Err: fmt.Errorf("split did not return a list")}
		}
		if len(parts) != n.Out {
			return &NodeError{Node: n.Name,
				Err: fmt.Errorf("scm split produced %d sub-domains for %d compute processes", len(parts), n.Out)}
		}
		copy(outs, parts)

	case graph.KindMerge:
		outs[0] = f.Fn([]value.Value{value.List(inputs)})

	case graph.KindPack:
		outs[0] = value.Tuple(append([]value.Value{}, inputs...))

	case graph.KindUnpack:
		t, ok := inputs[0].(value.Tuple)
		if !ok {
			return &NodeError{Node: n.Name, Err: fmt.Errorf("unpack of non-tuple %s", value.Show(inputs[0]))}
		}
		if len(t) < n.Out {
			return &NodeError{Node: n.Name, Err: fmt.Errorf("unpack of %d-tuple into %d ports", len(t), n.Out)}
		}
		copy(outs, t[:n.Out])

	default:
		return &NodeError{Node: n.Name, Err: fmt.Errorf("EvalNode cannot run a %s node", n.Kind)}
	}
	return nil
}

// CostOfNode estimates the cycles consumed by running a static node on the
// given inputs (used by the timing simulator).
func CostOfNode(n *graph.Node, reg *value.Registry, inputs []value.Value) int64 {
	switch n.Kind {
	case graph.KindConst, graph.KindPack, graph.KindUnpack, graph.KindMem:
		return 200
	case graph.KindFunc, graph.KindInput, graph.KindSplit, graph.KindMerge, graph.KindOutput:
		if n.Fn == "" {
			return 200
		}
		if f, ok := reg.Lookup(n.Fn); ok {
			return f.CostOf(inputs)
		}
		return value.DefaultCost
	}
	return value.DefaultCost
}
