// Package sim is the timing model of the Transvision platform: a
// discrete-event simulation of the distributed executive running on the
// architecture graph (T9000 Transputers on configurable topologies, 25 Hz
// video input). It executes the *same* operations as the goroutine backend
// — actually calling the registered user functions, so data-dependent
// behaviour such as uneven window workloads is captured — while advancing
// virtual clocks for processors and links.
//
// This is the "optional real-time performance measurement" of the SynDEx
// executive (paper §3) extended into a full platform model, substituting
// for the Transputer hardware of the paper's evaluation.
package sim

import (
	"fmt"
	"math"
	"strings"

	"skipper/internal/arch"
	"skipper/internal/exec"
	"skipper/internal/graph"
	"skipper/internal/syndex"
	"skipper/internal/value"
)

// Kernel overhead constants, in processor cycles. They model the Transputer
// executive primitives: posting a message to a link, accepting a delivery,
// and spawning a worker thread.
const (
	SendOverheadCycles  = 400
	RecvOverheadCycles  = 400
	SpawnOverheadCycles = 600
)

// VideoPeriod is the frame period of the 25 Hz camera (seconds).
const VideoPeriod = 1.0 / 25.0

// Options configures a simulation run.
type Options struct {
	// Iters is the number of stream iterations (1 for one-shot graphs).
	Iters int
	// FramePeriod paces the Input node like a camera: frame k becomes
	// available at time k*FramePeriod and the input process blocks for the
	// next unconsumed frame. Zero disables pacing.
	FramePeriod float64
	// Trace records per-processor activity spans (Result.Spans), the
	// executive's "optional real-time performance measurement".
	Trace bool
}

// Span is one recorded activity interval on a processor.
type Span struct {
	Proc       arch.ProcID
	Start, End float64
	Label      string
}

// IterStats records per-iteration timing.
type IterStats struct {
	// Start is when the input process began acquiring this iteration's
	// frame; End is when the output process delivered the result.
	Start, End float64
	// Latency = End - Start.
	Latency float64
	// Frame is the index of the video frame consumed (-1 without pacing).
	Frame int
}

// Result is the outcome of a simulation.
type Result struct {
	// Outputs collects the Output node's value per iteration.
	Outputs []value.Value
	// Iters holds per-iteration timing.
	Iters []IterStats
	// Total is the virtual time at which the last iteration completed.
	Total float64
	// FramesConsumed and FramesSkipped summarize input pacing: skipped
	// frames are those the pipeline was too slow to process ("one image
	// out of 3", paper §4).
	FramesConsumed, FramesSkipped int
	// Busy is the per-processor busy time (for utilization reports).
	Busy []float64
	// Spans holds the activity chronogram when Options.Trace was set.
	Spans []Span
}

// MeanLatency averages the per-iteration latency, excluding the first
// warmup iterations.
func (r *Result) MeanLatency(warmup int) float64 {
	if warmup >= len(r.Iters) {
		warmup = 0
	}
	sum, n := 0.0, 0
	for _, it := range r.Iters[warmup:] {
		sum += it.Latency
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MaxLatency returns the worst iteration latency after warmup.
func (r *Result) MaxLatency(warmup int) float64 {
	if warmup >= len(r.Iters) {
		warmup = 0
	}
	m := 0.0
	for _, it := range r.Iters[warmup:] {
		if it.Latency > m {
			m = it.Latency
		}
	}
	return m
}

// simulator carries the virtual-time state.
type simulator struct {
	s   *syndex.Schedule
	reg *value.Registry
	a   *arch.Arch

	procClock []float64
	linkFree  map[arch.LinkID]float64
	busy      []float64

	// Per-iteration value/timing tables.
	outs    map[graph.NodeID][]value.Value
	ready   map[graph.EdgeID]float64 // value availability at the consumer
	memVal  map[graph.NodeID]value.Value
	memTime map[graph.NodeID]float64

	lastFrame int
	skipped   int
	inStart   float64

	trace bool
	spans []Span
}

// Run simulates the schedule.
func Run(s *syndex.Schedule, reg *value.Registry, opts Options) (*Result, error) {
	if opts.Iters < 1 {
		opts.Iters = 1
	}
	sm := &simulator{
		s: s, reg: reg, a: s.Arch,
		procClock: make([]float64, s.Arch.N),
		linkFree:  map[arch.LinkID]float64{},
		busy:      make([]float64, s.Arch.N),
		memVal:    map[graph.NodeID]value.Value{},
		memTime:   map[graph.NodeID]float64{},
		lastFrame: -1,
		trace:     opts.Trace,
	}
	res := &Result{}
	for iter := 0; iter < opts.Iters; iter++ {
		st, err := sm.iteration(opts, iter)
		if err != nil {
			return nil, err
		}
		res.Iters = append(res.Iters, st.stats)
		if st.hasOutput {
			res.Outputs = append(res.Outputs, st.output)
		}
	}
	for _, c := range sm.procClock {
		if c > res.Total {
			res.Total = c
		}
	}
	res.Busy = sm.busy
	res.FramesConsumed = len(res.Iters)
	res.FramesSkipped = sm.skipped
	res.Spans = sm.spans
	return res, nil
}

type iterResult struct {
	stats     IterStats
	output    value.Value
	hasOutput bool
}

// spend advances a processor's clock by the given cycles starting no
// earlier than at; it returns the finish time.
func (sm *simulator) spend(p arch.ProcID, at float64, cycles int64) float64 {
	start := math.Max(sm.procClock[p], at)
	d := sm.a.CycleSeconds(cycles)
	sm.procClock[p] = start + d
	sm.busy[p] += d
	return sm.procClock[p]
}

// record appends a labelled activity span when tracing is on.
func (sm *simulator) record(p arch.ProcID, start, end float64, label string) {
	if sm.trace && end > start {
		sm.spans = append(sm.spans, Span{Proc: p, Start: start, End: end, Label: label})
	}
}

// spendLabelled is spend plus chronogram recording.
func (sm *simulator) spendLabelled(p arch.ProcID, at float64, cycles int64, label string) float64 {
	start := math.Max(sm.procClock[p], at)
	end := sm.spend(p, at, cycles)
	sm.record(p, start, end, label)
	return end
}

// transfer ships bytes from src to dst starting at t, modelling per-link
// serialization (store-and-forward); it returns the arrival time.
func (sm *simulator) transfer(src, dst arch.ProcID, bytes int, t float64) float64 {
	if src == dst {
		return t
	}
	route := sm.a.Route(src, dst)
	for i := 0; i+1 < len(route); i++ {
		l := arch.LinkID{From: route[i], To: route[i+1]}
		start := math.Max(t, sm.linkFree[l])
		end := start + sm.a.TransferSeconds(bytes)
		sm.linkFree[l] = end
		t = end
	}
	return t
}

// iteration simulates one pass over the topological order.
func (sm *simulator) iteration(opts Options, iter int) (*iterResult, error) {
	g := sm.s.Graph
	sm.outs = map[graph.NodeID][]value.Value{}
	sm.ready = map[graph.EdgeID]float64{}
	sm.inStart = -1
	ir := &iterResult{stats: IterStats{Frame: -1}}

	for _, id := range sm.s.Topo {
		n := g.Node(id)
		if n.Kind == graph.KindWorker {
			// Workers are simulated inside their master's protocol; the
			// spawn overhead is charged to the worker's processor.
			sm.spend(sm.s.Assign[id], sm.procClock[sm.s.Assign[id]], SpawnOverheadCycles)
			continue
		}
		if err := sm.simNode(n, opts, iter, ir); err != nil {
			return nil, err
		}
	}
	// Memory writes close the iteration.
	for _, n := range g.Nodes {
		if n.Kind != graph.KindMem {
			continue
		}
		for _, e := range g.InEdges(n.ID) {
			if !e.Back {
				continue
			}
			v, t, err := sm.edgeValue(e)
			if err != nil {
				return nil, err
			}
			sm.memVal[n.ID] = v
			sm.memTime[n.ID] = t
		}
	}
	return ir, nil
}

// edgeValue returns the value travelling on e and the time it is available
// at the consumer's processor.
func (sm *simulator) edgeValue(e *graph.Edge) (value.Value, float64, error) {
	outs, ok := sm.outs[e.From]
	if !ok || e.FromPort >= len(outs) {
		return nil, 0, fmt.Errorf("sim: edge %d read before its producer ran", e.ID)
	}
	return outs[e.FromPort], sm.ready[e.ID], nil
}

// inputsOf gathers values and the earliest start time for a node.
func (sm *simulator) inputsOf(n *graph.Node) ([]value.Value, float64, error) {
	var inputs []value.Value
	at := 0.0
	for _, e := range sm.s.Graph.InEdges(n.ID) {
		if e.Back || e.Intra {
			continue
		}
		v, t, err := sm.edgeValue(e)
		if err != nil {
			return nil, 0, err
		}
		inputs = append(inputs, v)
		if t > at {
			at = t
		}
	}
	return inputs, at, nil
}

// propagate records a node's outputs and schedules the transfers on its
// forward out-edges.
func (sm *simulator) propagate(n *graph.Node, outs []value.Value, finish float64) {
	sm.outs[n.ID] = outs
	p := sm.s.Assign[n.ID]
	for _, e := range sm.s.Graph.OutEdges(n.ID) {
		if e.Intra {
			continue
		}
		dst := sm.s.Assign[e.To]
		if sm.s.Graph.Node(e.To).Kind == graph.KindWorker {
			continue // farm protocol handles its own transfers
		}
		var v value.Value
		if e.FromPort < len(outs) {
			v = outs[e.FromPort]
		}
		t := finish
		if dst != p {
			t = sm.spend(p, finish, SendOverheadCycles)
			t = sm.transfer(p, dst, value.SizeOf(v), t)
			// Receive overhead is charged when the consumer starts; model
			// it as part of arrival.
			t += sm.a.CycleSeconds(RecvOverheadCycles)
		}
		sm.ready[e.ID] = t
	}
}

func (sm *simulator) simNode(n *graph.Node, opts Options, iter int, ir *iterResult) error {
	p := sm.s.Assign[n.ID]
	switch n.Kind {
	case graph.KindMem:
		inputs, at, err := sm.inputsOf(n)
		if err != nil {
			return err
		}
		v, ok := sm.memVal[n.ID]
		t := at
		if !ok {
			v = inputs[0]
		} else if sm.memTime[n.ID] > t {
			t = sm.memTime[n.ID]
		}
		finish := sm.spend(p, t, 200)
		sm.propagate(n, []value.Value{v}, finish)
		return nil

	case graph.KindMaster:
		return sm.simMaster(n, p)

	case graph.KindInput:
		inputs, at, err := sm.inputsOf(n)
		if err != nil {
			return err
		}
		start := math.Max(sm.procClock[p], at)
		frame := -1
		if opts.FramePeriod > 0 {
			// Frame k is available at k*period; take the newest available
			// frame not yet consumed, waiting for the next one if needed.
			avail := int(math.Floor(start / opts.FramePeriod))
			frame = avail
			if frame <= sm.lastFrame {
				frame = sm.lastFrame + 1
			}
			sm.skipped += frame - sm.lastFrame - 1
			sm.lastFrame = frame
			fr := float64(frame) * opts.FramePeriod
			if fr > start {
				start = fr
			}
		}
		ir.stats.Start = start
		ir.stats.Frame = frame
		outs, err := exec.EvalNode(n, sm.reg, inputs)
		if err != nil {
			return err
		}
		finish := sm.spendLabelled(p, start, exec.CostOfNode(n, sm.reg, inputs), n.Name)
		sm.propagate(n, outs, finish)
		return nil

	case graph.KindOutput:
		inputs, at, err := sm.inputsOf(n)
		if err != nil {
			return err
		}
		if _, err := exec.EvalNode(n, sm.reg, inputs); err != nil {
			return err
		}
		finish := sm.spendLabelled(p, at, exec.CostOfNode(n, sm.reg, inputs), n.Name)
		ir.stats.End = finish
		ir.stats.Latency = finish - ir.stats.Start
		ir.output = inputs[0]
		ir.hasOutput = true
		return nil

	default:
		inputs, at, err := sm.inputsOf(n)
		if err != nil {
			return err
		}
		outs, err := exec.EvalNode(n, sm.reg, inputs)
		if err != nil {
			return err
		}
		finish := sm.spendLabelled(p, at, exec.CostOfNode(n, sm.reg, inputs), n.Name)
		sm.propagate(n, outs, finish)
		return nil
	}
}

// simMaster simulates the dynamic farm protocol in virtual time: the master
// dispatches demand-driven, workers compute with their data-dependent cost
// models, replies are accumulated in arrival order.
func (sm *simulator) simMaster(n *graph.Node, p arch.ProcID) error {
	g := sm.s.Graph
	inputs, at, err := sm.inputsOf(n)
	if err != nil {
		return err
	}
	xs, ok := inputs[0].(value.List)
	if !ok {
		return fmt.Errorf("sim: farm input of %s is not a list", n.Name)
	}
	acc := inputs[1]
	accFn, ok := sm.reg.Lookup(n.AccFn)
	if !ok {
		return fmt.Errorf("sim: accumulate function %q not registered", n.AccFn)
	}
	// Worker table.
	type workerInfo struct {
		proc arch.ProcID
		comp *value.Func
	}
	workers := make([]workerInfo, n.Workers)
	for _, e := range g.OutEdges(n.ID) {
		w := g.Node(e.To)
		if w.Kind != graph.KindWorker {
			continue
		}
		comp, ok := sm.reg.Lookup(w.Fn)
		if !ok {
			return fmt.Errorf("sim: worker function %q not registered", w.Fn)
		}
		workers[w.Index] = workerInfo{proc: sm.s.Assign[e.To], comp: comp}
	}

	mClock := math.Max(sm.procClock[p], at)

	type pendingReply struct {
		arrival float64
		widx    int
		v       value.Value
	}
	var replies []pendingReply
	pushReply := func(r pendingReply) {
		replies = append(replies, r)
	}
	popEarliest := func() pendingReply {
		best := 0
		for i := 1; i < len(replies); i++ {
			if replies[i].arrival < replies[best].arrival {
				best = i
			}
		}
		r := replies[best]
		replies = append(replies[:best], replies[best+1:]...)
		return r
	}

	dispatch := func(widx int, t value.Value) {
		w := workers[widx]
		mClock = sm.spendAt(p, mClock, SendOverheadCycles)
		arr := sm.transfer(p, w.proc, value.SizeOf(t), mClock)
		start := math.Max(arr, sm.procClock[w.proc])
		cost := w.comp.CostOf([]value.Value{t})
		y := w.comp.Fn([]value.Value{t})
		end := sm.spendProcAt(w.proc, start, cost)
		sm.record(w.proc, start, end, w.comp.Name)
		back := sm.transfer(w.proc, p, value.SizeOf(y), end)
		pushReply(pendingReply{arrival: back, widx: widx, v: y})
	}

	pending := append(value.List{}, xs...)
	outstanding := 0
	idle := []int{}
	for w := 0; w < n.Workers; w++ {
		if len(pending) > 0 {
			dispatch(w, pending[0])
			pending = pending[1:]
			outstanding++
		} else {
			idle = append(idle, w)
		}
	}
	for outstanding > 0 {
		rep := popEarliest()
		outstanding--
		mClock = math.Max(mClock, rep.arrival)
		mClock = sm.spendAt(p, mClock, RecvOverheadCycles)
		if n.TaskFarm {
			pair, ok := rep.v.(value.Tuple)
			if !ok || len(pair) != 2 {
				return fmt.Errorf("sim: tf worker must return (results, new-tasks)")
			}
			ys := pair[0].(value.List)
			more := pair[1].(value.List)
			for _, y := range ys {
				mClock = sm.spendAt(p, mClock, accFn.CostOf([]value.Value{acc, y}))
				acc = accFn.Fn([]value.Value{acc, y})
			}
			pending = append(pending, more...)
		} else {
			mClock = sm.spendAt(p, mClock, accFn.CostOf([]value.Value{acc, rep.v}))
			acc = accFn.Fn([]value.Value{acc, rep.v})
		}
		if len(pending) > 0 {
			dispatch(rep.widx, pending[0])
			pending = pending[1:]
			outstanding++
		} else {
			idle = append(idle, rep.widx)
		}
		for len(pending) > 0 && len(idle) > 0 {
			w := idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			dispatch(w, pending[0])
			pending = pending[1:]
			outstanding++
		}
	}
	// Sentinels (small messages) terminate the iteration's worker threads.
	// Per iteration on purpose: this models the paper's Transvision
	// executive, whose workers are respawned every frame; internal/exec
	// releases its per-run workers once, after the last frame.
	for w := 0; w < n.Workers; w++ {
		mClock = sm.spendAt(p, mClock, SendOverheadCycles/4)
		sm.transfer(p, workers[w].proc, 4, mClock)
	}
	sm.procClock[p] = math.Max(sm.procClock[p], mClock)
	sm.propagate(n, []value.Value{acc}, mClock)
	return nil
}

// spendAt charges cycles to processor p starting at time t (not before its
// clock) and returns the finish time, also advancing the clock.
func (sm *simulator) spendAt(p arch.ProcID, t float64, cycles int64) float64 {
	return sm.spend(p, t, cycles)
}

// spendProcAt charges cycles on p starting exactly at start (the caller has
// already serialized against the proc clock).
func (sm *simulator) spendProcAt(p arch.ProcID, start float64, cycles int64) float64 {
	d := sm.a.CycleSeconds(cycles)
	end := start + d
	if end > sm.procClock[p] {
		sm.procClock[p] = end
	}
	sm.busy[p] += d
	return end
}

// Utilization returns per-processor busy fraction over the run.
func (r *Result) Utilization() []float64 {
	out := make([]float64, len(r.Busy))
	if r.Total <= 0 {
		return out
	}
	for i, b := range r.Busy {
		out[i] = b / r.Total
	}
	return out
}

// Chronogram renders the recorded activity spans as an ASCII Gantt chart
// (one row per processor, width columns spanning [0, Total]). Requires a
// run with Options.Trace.
func (r *Result) Chronogram(width int) string {
	if width < 10 {
		width = 10
	}
	if r.Total <= 0 || len(r.Spans) == 0 {
		return "(no trace recorded)\n"
	}
	rows := make([][]byte, len(r.Busy))
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for _, sp := range r.Spans {
		c0 := int(sp.Start / r.Total * float64(width))
		c1 := int(sp.End / r.Total * float64(width))
		if c1 >= width {
			c1 = width - 1
		}
		glyph := byte('#')
		if len(sp.Label) > 0 {
			glyph = sp.Label[0]
		}
		for c := c0; c <= c1; c++ {
			rows[sp.Proc][c] = glyph
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "chronogram 0 .. %.1f ms\n", r.Total*1000)
	for p, row := range rows {
		fmt.Fprintf(&b, "P%-2d |%s|\n", p, string(row))
	}
	return b.String()
}
