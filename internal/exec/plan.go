package exec

import (
	"fmt"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
	"skipper/internal/syndex"
	"skipper/internal/value"
)

// planOp is one op of a processor's program with every operand resolved at
// lowering: values live in dense per-frame slots, and functions, mailbox
// endpoints, transport keys and trace labels are looked up once per run —
// the Go form of the paper's per-processor macro-code with the kernel
// primitives inlined.
type planOp struct {
	kind  syndex.OpKind
	node  *graph.Node
	fn    *value.Func        // exec: the node's sequential function, if it runs one
	in    []int              // slots read, in input-port order
	out   int                // first slot written
	nout  int                // exec: number of slots written
	mem   *memCell           // the delay state a Mem read or write touches
	peer  arch.ProcID        // send: destination processor
	key   transport.Key      // send: destination mailbox
	rx    transport.Receiver // recv: the edge's mailbox endpoint
	farm  *farm              // master: the farm record
	label uint32             // interned trace label
}

// memCell is one Mem node's delay state, shared by its read and write ops.
// Until the first write a read yields the node's init input.
type memCell struct {
	v   value.Value
	set bool
}

// procPlan is one hosted processor's lowered program. ops is index-aligned
// with the syndex program (worker spawns stay as placeholders no stage
// executes), so pipelineCuts' indices address it directly.
type procPlan struct {
	p       arch.ProcID
	ops     []planOp
	nslots  int           // size of a frame's value array
	workers []*workerPlan // farm workers hosted here

	// stages[j] lists, in execution order, the ops pipeline stage j runs on
	// each frame; an unpipelined processor has the one stage. The MEM baton
	// is taken just before op stages[takeStage][takeAt] (takeStage < 0: the
	// processor is unpipelined or touches no MEM state).
	stages            [][]int
	takeStage, takeAt int
}

// lower compiles processor p's syndex program into its plan. It checks
// statically what the interpreter used to check on every op of every frame:
// each operand is produced or received earlier in program order, and every
// function the program names is registered.
func (m *Machine) lower(p arch.ProcID, iters int) (*procPlan, error) {
	g := m.sched.Graph
	prog := m.sched.Programs[p]
	pl := &procPlan{p: p, ops: make([]planOp, len(prog)), takeStage: -1}

	slot := map[graph.EdgeID]int{}       // where each edge's value sits once produced or received here
	cells := map[graph.NodeID]*memCell{} // delay state per local Mem node, made by its read op
	// inputs resolves n's forward (or, for a MEM write, back) input edges in
	// port order; intra-skeleton protocol edges carry no static value.
	inputs := func(n *graph.Node, back bool, need int) ([]int, error) {
		var in []int
		for _, e := range g.InEdges(n.ID) {
			if e.Intra || e.Back != back {
				continue
			}
			s, ok := slot[e.ID]
			if !ok {
				return nil, fmt.Errorf("exec: edge %d consumed at %s before it is produced or received", e.ID, n.Name)
			}
			in = append(in, s)
		}
		if len(in) < need {
			return nil, fmt.Errorf("exec: %s has %d of the %d inputs it needs", n.Name, len(in), need)
		}
		return in, nil
	}
	// produce gives n's results max(n.Out, 1) consecutive slots and points
	// its outgoing edges at them.
	produce := func(o *planOp, n *graph.Node) {
		o.out, o.nout = pl.nslots, max(n.Out, 1)
		pl.nslots += o.nout
		for _, e := range g.OutEdges(n.ID) {
			if e.FromPort < o.nout {
				slot[e.ID] = o.out + e.FromPort
			}
		}
	}

	for i, op := range prog {
		n := g.Node(op.Node)
		o := &pl.ops[i]
		*o = planOp{kind: op.Kind, node: n}
		if m.Trace != nil {
			o.label = m.Trace.Intern(m.sched.OpLabel(op))
		}
		var err error
		switch op.Kind {
		case syndex.OpRecv:
			o.rx, o.out = m.t.Receiver(p, transport.EdgeKey(op.Edge)), pl.nslots
			slot[op.Edge] = o.out
			pl.nslots++
		case syndex.OpSend:
			s, ok := slot[op.Edge]
			if !ok {
				err = fmt.Errorf("exec: send of unproduced edge %d", op.Edge)
			}
			o.in, o.peer, o.key = []int{s}, op.Peer, transport.EdgeKey(op.Edge)
		case syndex.OpExec:
			if n.Kind == graph.KindMem {
				o.in, err = inputs(n, false, 1) // the init input
				o.mem = &memCell{}
				cells[n.ID] = o.mem
			} else if o.fn, err = nodeFunc(n, m.reg); err == nil {
				o.in, err = inputs(n, false, 0)
			}
			if n.Kind == graph.KindOutput && m.outputs == nil {
				// Only a machine that hosts the Output node records outputs.
				m.outputs = make([]value.Value, iters)
			}
			produce(o, n)
		case syndex.OpMemWrite:
			o.in, err = inputs(n, true, 1) // the feedback edge
			if o.mem = cells[n.ID]; o.mem == nil && err == nil {
				err = fmt.Errorf("exec: %s is written on a processor that never reads it", n.Name)
			}
		case syndex.OpWorker:
			err = m.lowerWorker(pl, n, o.label)
		case syndex.OpMaster:
			if o.in, err = inputs(n, false, 2); err == nil {
				o.farm, err = m.lowerFarm(p, n, iters)
			}
			produce(o, n)
		default:
			err = fmt.Errorf("exec: unknown op kind %v", op.Kind)
		}
		if err != nil {
			return nil, err
		}
	}
	var cuts []int
	if m.Pipeline {
		cuts = m.pipelineCuts(p)
	}
	pl.cutStages(cuts)
	return pl, nil
}

// pipelineCuts returns the ascending cut indices splitting processor p's
// program into pipeline stages prog[:c1), prog[c1:c2), ..., prog[ck:], or
// nil when the program does not pipeline. A cut falls just before each farm
// master (its worker spawns ride with their master, so task streams of
// consecutive frames never interleave), giving one stage per farm plus the
// front end — the deepest cut the op program admits.
//
// Validity conditions: the front end must be non-empty — otherwise there is
// nothing to overlap — and must contain no MEM write (state updates belong
// to the frame that computed them) and no stray worker spawn or master of
// another farm. MEM accesses at or beyond the first cut must all land in
// the final stage: the MEM ownership baton is taken by the front end and
// returned by the final stage, so a MEM touch in a middle stage would race
// a neighbouring frame. Cuts that would strand one there are dropped
// (merging those farms into the final stage) rather than giving up on
// pipelining entirely.
func (m *Machine) pipelineCuts(p arch.ProcID) []int {
	prog := m.sched.Programs[p]
	g := m.sched.Graph
	var cuts []int
	for i, op := range prog {
		if op.Kind != syndex.OpMaster {
			continue
		}
		c := i
		for c > 0 && prog[c-1].Kind == syndex.OpWorker {
			c--
		}
		cuts = append(cuts, c)
	}
	if len(cuts) == 0 || cuts[0] == 0 {
		return nil
	}
	for _, op := range prog[:cuts[0]] {
		switch op.Kind {
		case syndex.OpMemWrite, syndex.OpWorker, syndex.OpMaster:
			return nil
		}
	}
	// First MEM access at or beyond the first cut bounds every later cut.
	memBound := len(prog)
	for i := cuts[0]; i < len(prog); i++ {
		op := prog[i]
		if op.Kind == syndex.OpMemWrite ||
			(op.Kind == syndex.OpExec && g.Node(op.Node).Kind == graph.KindMem) {
			memBound = i
			break
		}
	}
	kept := cuts[:1]
	for _, c := range cuts[1:] {
		if c <= memBound {
			kept = append(kept, c)
		}
	}
	cuts = kept
	if d := m.PipelineDepth; d >= 2 && len(cuts) > d-1 {
		cuts = cuts[:d-1]
	}
	return cuts
}

// cutStages lays the plan's ops out as pipeline stages over the boundaries
// from pipelineCuts; with no cuts the whole program is the one stage, in
// program order.
//
// The loop-carried dependency of a pipelined itermem is the delay state:
// frame k+1's MEM read must observe frame k's MEM write, which the MEM baton
// enforces from the frame's first MEM-touching op to the end of its final
// stage. The linear schedule places the MEM read at the top of the program
// (it is a topological source), which would pin the take — the cross-frame
// serialization point — to the front end even when the state's first
// consumer is the final merge; each front-end read is therefore sunk to the
// stage of its earliest consumer. It is a pure copy of the delay state into
// the frame, so delaying it past stages that never look at the state is
// safe. Front-end ops that are transitively state-independent are hoisted
// ahead of everything else in their stage (grab k+1 overlaps farm k).
// Transport ops are never reordered, so their relative order — the basis of
// the schedule's deadlock-freedom — is preserved exactly.
func (pl *procPlan) cutStages(cuts []int) {
	stages := len(cuts) + 1
	pl.stages = make([][]int, stages)
	stageOf := make([]int, len(pl.ops))
	for i := range pl.ops {
		j := 0
		for j < len(cuts) && i >= cuts[j] {
			j++
		}
		stageOf[i] = j
		if pl.ops[i].kind != syndex.OpWorker {
			pl.stages[j] = append(pl.stages[j], i)
		}
	}
	if stages == 1 {
		return
	}
	// firstConsumer is the earliest stage holding an op that reads slot s;
	// an unconsumed state serializes nothing and sinks all the way.
	firstConsumer := func(s int) int {
		first := stages - 1
		for i := range pl.ops {
			for _, in := range pl.ops[i].in {
				if in == s && stageOf[i] < first {
					first = stageOf[i]
				}
			}
		}
		return first
	}
	// Sink the front end's MEM reads (program order kept within a stage),
	// then split what remains into the hoisted state-independent ops — pure
	// local computation all of whose inputs are hoisted too — and the rest.
	sunk := make([][]int, stages)
	hoisted := make([]bool, pl.nslots)
	var first, rest []int
	for _, i := range pl.stages[0] {
		o := &pl.ops[i]
		if o.kind == syndex.OpExec && o.mem != nil {
			if s := firstConsumer(o.out); s > 0 {
				sunk[s] = append(sunk[s], i)
				continue
			}
		}
		free := o.kind == syndex.OpExec && o.mem == nil
		for _, s := range o.in {
			free = free && hoisted[s]
		}
		if !free {
			rest = append(rest, i)
			continue
		}
		for s := o.out; s < o.out+o.nout; s++ {
			hoisted[s] = true
		}
		first = append(first, i)
	}
	pl.stages[0] = append(first, rest...)
	for j := 1; j < stages; j++ {
		pl.stages[j] = append(sunk[j], pl.stages[j]...)
	}
	for j := 0; j < stages && pl.takeStage < 0; j++ {
		for k, i := range pl.stages[j] {
			if pl.ops[i].mem != nil {
				pl.takeStage, pl.takeAt = j, k
				break
			}
		}
	}
}
