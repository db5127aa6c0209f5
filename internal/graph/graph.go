// Package graph defines SKiPPER's process graph intermediate representation:
// "a process graph in which nodes correspond to sequential functions and/or
// skeleton control processes and edges to communications" (paper abstract).
// The graph is produced by skeleton expansion (package expand), consumed by
// the mapper/scheduler (package syndex), and rendered to DOT for the
// figures.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"skipper/internal/value"
)

// NodeKind classifies process nodes.
type NodeKind int

// Node kinds. Func nodes run user sequential functions; the others are the
// skeleton control processes instantiated from process network templates.
const (
	KindFunc   NodeKind = iota // user sequential function
	KindConst                  // compile-time constant source
	KindSplit                  // scm: split control process
	KindMerge                  // scm: ordered merge control process
	KindMaster                 // df/tf: master (dispatch + accumulate)
	KindWorker                 // df/tf: worker applying the compute function
	KindInput                  // itermem: stream input process
	KindOutput                 // itermem: stream output process
	KindMem                    // itermem: inter-iteration memory (delay)
	KindPack                   // tuple construction
	KindUnpack                 // tuple projection
)

var kindNames = map[NodeKind]string{
	KindFunc: "func", KindConst: "const", KindSplit: "split",
	KindMerge: "merge", KindMaster: "master", KindWorker: "worker",
	KindInput: "input", KindOutput: "output", KindMem: "mem",
	KindPack: "pack", KindUnpack: "unpack",
}

func (k NodeKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("NodeKind(%d)", int(k))
}

// NodeID identifies a node within its graph.
type NodeID int

// Node is one process of the network.
type Node struct {
	ID   NodeID
	Kind NodeKind
	// Name is the display label, unique per graph (e.g. "detect_mark#2").
	Name string
	// Fn is the registered sequential function executed by Func, Worker,
	// Split (the split function), Merge (the merge function), Input and
	// Output nodes.
	Fn string
	// AccFn is the accumulating function of a Master node.
	AccFn string
	// Workers is the degree of parallelism recorded on Master/Split/Merge
	// control nodes.
	Workers int
	// TaskFarm marks a Master whose workers feed back new tasks (tf).
	TaskFarm bool
	// Const holds the value of a Const node.
	Const value.Value
	// In/Out are the port counts (fixed at construction).
	In, Out int
	// SkelID groups the nodes expanded from one skeleton instance
	// (-1 for plain function nodes).
	SkelID int
	// Index is the worker index within its skeleton instance.
	Index int
}

// EdgeID identifies an edge within its graph.
type EdgeID int

// Edge is a typed point-to-point communication.
type Edge struct {
	ID       EdgeID
	From     NodeID
	FromPort int
	To       NodeID
	ToPort   int
	// Type is the display type of the transported data (from inference).
	Type string
	// Back marks the itermem memory feedback edge, excluded from the
	// acyclicity requirement: it carries data to the *next* iteration.
	Back bool
	// Intra marks an intra-skeleton protocol edge (e.g. the worker->master
	// reply of the df/tf farm). These edges close request/reply cycles that
	// are deadlock-free by construction of the PNT, so they are excluded
	// from the global acyclicity requirement.
	Intra bool
}

// Graph is a process network.
type Graph struct {
	Nodes []*Node
	Edges []*Edge
	// NextSkel numbers skeleton instances.
	NextSkel int

	// in[n] and out[n] are node n's in- and out-edges sorted by port, built
	// by Validate or by the first InEdges/OutEdges after an AddNode or
	// Connect (edges are only ever appended); indexed is the node and edge
	// count they cover.
	in, out [][]*Edge
	indexed [2]int
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// AddNode appends a node, assigning its ID. In and Out must be set by the
// caller (via the n.In/n.Out fields) before validation.
func (g *Graph) AddNode(n *Node) *Node {
	n.ID = NodeID(len(g.Nodes))
	if n.SkelID == 0 {
		n.SkelID = -1
	}
	g.Nodes = append(g.Nodes, n)
	return n
}

// NewSkelID allocates a skeleton instance identifier (>= 1).
func (g *Graph) NewSkelID() int {
	g.NextSkel++
	return g.NextSkel
}

// Connect adds an edge from (from,fromPort) to (to,toPort).
func (g *Graph) Connect(from NodeID, fromPort int, to NodeID, toPort int, typ string) *Edge {
	e := &Edge{
		ID:   EdgeID(len(g.Edges)),
		From: from, FromPort: fromPort,
		To: to, ToPort: toPort,
		Type: typ,
	}
	g.Edges = append(g.Edges, e)
	return e
}

// ConnectBack adds a memory feedback edge (itermem).
func (g *Graph) ConnectBack(from NodeID, fromPort int, to NodeID, toPort int, typ string) *Edge {
	e := g.Connect(from, fromPort, to, toPort, typ)
	e.Back = true
	return e
}

// ConnectIntra adds an intra-skeleton protocol edge (e.g. a farm worker's
// reply to its master).
func (g *Graph) ConnectIntra(from NodeID, fromPort int, to NodeID, toPort int, typ string) *Edge {
	e := g.Connect(from, fromPort, to, toPort, typ)
	e.Intra = true
	return e
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node { return g.Nodes[id] }

// InEdges returns the edges arriving at n, ordered by target port. The
// slice is shared: callers must not modify it.
func (g *Graph) InEdges(n NodeID) []*Edge { return g.edges(n, true) }

// OutEdges returns the edges leaving n, ordered by source port. The slice is
// shared: callers must not modify it.
func (g *Graph) OutEdges(n NodeID) []*Edge { return g.edges(n, false) }

// edges returns n's in-edges (in) or out-edges from the index, rebuilding it
// first on a graph changed since it was last indexed.
func (g *Graph) edges(n NodeID, in bool) []*Edge {
	if !g.fresh() {
		g.index()
	}
	if in {
		return g.in[n]
	}
	return g.out[n]
}

// fresh reports whether the index covers the graph as it is.
func (g *Graph) fresh() bool { return g.indexed == [2]int{len(g.Nodes), len(g.Edges)} }

// sortByPort orders one node's edges, listed in edge order, by their port
// at that node.
func sortByPort(es []*Edge, in bool) {
	if in {
		sort.Slice(es, func(i, j int) bool { return es[i].ToPort < es[j].ToPort })
	} else {
		sort.Slice(es, func(i, j int) bool { return es[i].FromPort < es[j].FromPort })
	}
}

// index builds in and out: each node's edges carved out of one backing
// array per side, in edge order, then sorted by port.
func (g *Graph) index() {
	side := func(end func(*Edge) NodeID, in bool) [][]*Edge {
		start := make([]int, len(g.Nodes)+1)
		for _, e := range g.Edges {
			start[end(e)+1]++
		}
		for n := range g.Nodes {
			start[n+1] += start[n]
		}
		all := make([]*Edge, len(g.Edges))
		next := slices.Clone(start[:len(g.Nodes)])
		for _, e := range g.Edges {
			all[next[end(e)]] = e
			next[end(e)]++
		}
		per := make([][]*Edge, len(g.Nodes))
		for n := range per {
			per[n] = all[start[n]:start[n+1]:start[n+1]]
			sortByPort(per[n], in)
		}
		return per
	}
	g.in = side(func(e *Edge) NodeID { return e.To }, true)
	g.out = side(func(e *Edge) NodeID { return e.From }, false)
	g.indexed = [2]int{len(g.Nodes), len(g.Edges)}
}

// Validate checks structural invariants:
//   - every input port of every node has exactly one incoming edge;
//   - edge endpoints reference existing nodes and in-range ports;
//   - back edges originate or terminate only at Mem nodes;
//   - the graph minus back edges is acyclic (deadlock freedom of the
//     static schedule relies on this).
//
// A valid graph gets its adjacency index, which InEdges and OutEdges read;
// validating it again (syndex.Map does) only reads it.
func (g *Graph) Validate() error {
	seen := map[[2]int]bool{} // (node, port) -> has incoming edge
	for _, e := range g.Edges {
		if int(e.From) < 0 || int(e.From) >= len(g.Nodes) ||
			int(e.To) < 0 || int(e.To) >= len(g.Nodes) {
			return fmt.Errorf("graph: edge %d references missing node", e.ID)
		}
		from, to := g.Node(e.From), g.Node(e.To)
		if e.FromPort < 0 || e.FromPort >= from.Out {
			return fmt.Errorf("graph: edge %d leaves invalid port %d of %s",
				e.ID, e.FromPort, from.Name)
		}
		if e.ToPort < 0 || e.ToPort >= to.In {
			return fmt.Errorf("graph: edge %d enters invalid port %d of %s",
				e.ID, e.ToPort, to.Name)
		}
		key := [2]int{int(e.To), e.ToPort}
		if seen[key] {
			return fmt.Errorf("graph: port %d of %s has multiple producers", e.ToPort, to.Name)
		}
		seen[key] = true
		if e.Back && from.Kind != KindMem && to.Kind != KindMem {
			return fmt.Errorf("graph: back edge %d not adjacent to a mem node", e.ID)
		}
		if e.Intra && (from.SkelID < 1 || from.SkelID != to.SkelID) {
			return fmt.Errorf("graph: intra edge %d does not stay within one skeleton instance", e.ID)
		}
	}
	for _, n := range g.Nodes {
		for p := 0; p < n.In; p++ {
			if !seen[[2]int{int(n.ID), p}] {
				return fmt.Errorf("graph: input port %d of %s is unconnected", p, n.Name)
			}
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	if !g.fresh() {
		g.index()
	}
	return nil
}

// TopoSort returns a topological order of the nodes ignoring back edges, or
// an error if the forward graph has a cycle (which would deadlock the
// executive).
func (g *Graph) TopoSort() ([]NodeID, error) {
	indeg := make([]int, len(g.Nodes))
	succ := make([][]NodeID, len(g.Nodes))
	for _, e := range g.Edges {
		if e.Back || e.Intra {
			continue
		}
		indeg[e.To]++
		succ[e.From] = append(succ[e.From], e.To)
	}
	var queue []NodeID
	for i := range g.Nodes {
		if indeg[i] == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	var order []NodeID
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, s := range succ[n] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("graph: cycle through non-mem nodes (potential deadlock)")
	}
	return order, nil
}

// Stats summarizes a graph for reports.
type Stats struct {
	Nodes, Edges  int
	FuncNodes     int
	ControlNodes  int
	SkeletonCount int
	BackEdges     int
	WorkerNodes   int
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: len(g.Nodes), Edges: len(g.Edges), SkeletonCount: g.NextSkel}
	for _, n := range g.Nodes {
		switch n.Kind {
		case KindFunc, KindConst:
			s.FuncNodes++
		case KindWorker:
			s.WorkerNodes++
			s.ControlNodes++
		default:
			s.ControlNodes++
		}
	}
	for _, e := range g.Edges {
		if e.Back {
			s.BackEdges++
		}
	}
	return s
}

// DOT renders the graph in Graphviz format (the shape language of the
// paper's Fig. 1/2/4: ellipses for processes, labels on edges for types).
func (g *Graph) DOT(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n", title)
	b.WriteString("  rankdir=TB;\n  node [fontname=\"Helvetica\"];\n")
	for _, n := range g.Nodes {
		shape, style := "ellipse", ""
		switch n.Kind {
		case KindConst:
			shape = "plaintext"
		case KindMem:
			shape, style = "box", ` style=filled fillcolor="#dddddd"`
		case KindMaster, KindSplit, KindMerge:
			style = ` style=filled fillcolor="#cfe2f3"`
		case KindWorker:
			style = ` style=filled fillcolor="#d9ead3"`
		case KindInput, KindOutput:
			shape = "house"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s%s];\n", n.ID, n.Name, shape, style)
	}
	for _, e := range g.Edges {
		attrs := fmt.Sprintf("label=%q", e.Type)
		if e.Back {
			attrs += " style=dashed constraint=false"
		}
		if e.Intra {
			attrs += " constraint=false"
		}
		fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", e.From, e.To, attrs)
	}
	b.WriteString("}\n")
	return b.String()
}
