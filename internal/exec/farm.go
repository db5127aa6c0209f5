package exec

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
	"skipper/internal/obsv"
	"skipper/internal/value"
)

// workerPlan is one hosted farm-worker node. A worker is a process that
// lives as long as the run (paper §3), not a goroutine per iteration: it
// serves every iteration's task stream off one hoisted mailbox endpoint.
type workerPlan struct {
	widx         int
	comp         *value.Func
	masterProc   arch.ProcID
	tasks        transport.Receiver
	replyKey     transport.Key
	spawn, label uint32 // trace labels: the spawn op, the compute function
	tf           bool
	stack        value.List // a tf worker's depth-first stack, reused across tasks
	// release: tasks and replies cross a copying link, so a task argument is
	// this worker's alone and dead once its reply is sent — a view of it in
	// the result was copied onto the wire by then.
	release bool
}

// lowerWorker adds worker node w, whose spawn op carries the given trace
// label, to the processes pl's processor hosts.
func (m *Machine) lowerWorker(pl *procPlan, w *graph.Node, spawn uint32) error {
	g := m.sched.Graph
	master := graph.NodeID(-1)
	for _, e := range g.InEdges(w.ID) {
		if g.Node(e.From).Kind == graph.KindMaster {
			master = e.From
		}
	}
	if master < 0 {
		return fmt.Errorf("exec: worker %s has no master", w.Name)
	}
	comp, ok := m.reg.Lookup(w.Fn)
	if !ok {
		return fmt.Errorf("exec: worker function %q not registered", w.Fn)
	}
	mp := m.sched.Assign[master]
	pl.workers = append(pl.workers, &workerPlan{
		widx: w.Index, comp: comp, masterProc: mp, tf: g.Node(master).TaskFarm,
		release:  m.copies(mp, pl.p) && m.copies(pl.p, mp),
		tasks:    m.t.Receiver(pl.p, transport.TaskKey(master, w.Index)),
		replyKey: transport.ReplyKey(master),
		spawn:    spawn,
		// Compute spans are labelled by function name — the label the
		// simulator gives its predicted worker spans, so measured and
		// predicted chronograms line up block for block.
		label: m.Trace.Intern(comp.Name),
	})
	return nil
}

// runWorker is the worker process: it answers tasks until the master's one
// sentinel, sent after the run's last frame, or until its mailbox is closed
// (abort) or killed (its processor was declared dead).
func (m *Machine) runWorker(p arch.ProcID, w *workerPlan) {
	trace := m.Trace // nil-safe: an untraced run records nothing
	trace.Record(int32(p), obsv.EvOpStart, w.spawn, -1, 0)
	trace.Record(int32(p), obsv.EvOpEnd, w.spawn, -1, 0)
	for {
		tv, ok := w.tasks.Recv()
		if !ok {
			return
		}
		switch tk := tv.(type) {
		case transport.Sentinel:
			return
		case transport.Task:
			m.t.Send(p, w.masterProc, w.replyKey,
				transport.Reply{Widx: int32(w.widx), Task: tk.Idx, Gen: tk.Gen, V: m.answer(p, w, tk)})
			if w.release {
				value.Release(tk.V)
			}
		default:
			m.fail(fmt.Errorf("exec: worker received non-task payload"))
			return
		}
	}
}

// answer runs task tk. A df worker's answer is its function's result. A tf
// worker runs the tasks its function spawns on the spot, depth-first (the
// last spawned first), and hands back only the first tk.Spare of them, for
// the master to feed its idle workers; its answer is (every result of the
// calls it made, the tasks handed back). A call whose result is not a pair
// of lists ends the walk, and that result is the answer the master rejects.
func (m *Machine) answer(p arch.ProcID, w *workerPlan, tk transport.Task) value.Value {
	y := w.call(m.Trace, p, tk.Idx, tk.V)
	if !w.tf {
		return y
	}
	ys, more, ok := tfPair(y)
	spare := max(int(tk.Spare), 0)
	if !ok || len(more) <= spare {
		return y
	}
	results := slices.Clone(ys)
	back := more[:spare:spare]
	stack := append(w.stack, more[spare:]...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		y := w.call(m.Trace, p, tk.Idx, x)
		if ys, more, ok = tfPair(y); !ok {
			return y
		}
		results = append(results, ys...)
		stack = append(stack, more...)
	}
	clear(stack[:cap(stack)])
	w.stack = stack
	return value.Tuple{results, back}
}

// call runs the worker function on x inside a trace span tagged with task idx.
func (w *workerPlan) call(trace *obsv.Recorder, p arch.ProcID, idx int, x value.Value) value.Value {
	trace.Record(int32(p), obsv.EvOpStart, w.label, -1, int64(idx))
	y := w.comp.Fn([]value.Value{x})
	trace.Record(int32(p), obsv.EvOpEnd, w.label, -1, int64(idx))
	return y
}

// tfPair splits a tf function's result into its results and its new tasks.
func tfPair(y value.Value) (ys, more value.List, ok bool) {
	pair, _ := y.(value.Tuple)
	if len(pair) != 2 {
		return nil, nil, false
	}
	ys, ok1 := pair[0].(value.List)
	more, ok2 := pair[1].(value.List)
	return ys, more, ok1 && ok2
}

// farmTask is one farm task's dispatch and recovery state.
type farmTask struct {
	val   value.Value // the task, retained for re-dispatch; once done, the result a deterministic df fold awaits
	tries int         // dispatch count (1 = first attempt; speculation uncounted)
	done  bool        // a valid reply was folded
	owned bool        // val is a tf task the master decoded and never shared: released once done
	specW int         // worker index of the active speculative duplicate, -1 none
}

// farm is one master op's record, built at lowering: the static wiring plus
// the bookkeeping of the invocation in progress, which is reset — never
// reallocated — per frame. One master op serves one frame at a time (a
// pipeline stage hands frames on in order), so the record needs no lock.
type farm struct {
	m          *Machine
	p          arch.ProcID // the master's processor
	node       *graph.Node
	accFn      *value.Func
	workerProc []arch.ProcID // indexed by worker index
	copying    []bool        // tasks to worker w and its replies cross copying links
	replyKey   transport.Key
	replies    transport.Receiver
	// Armed thresholds; both zero unless fault tolerance is on, and while
	// they are the master never reads the clock.
	deadline, specAfter time.Duration
	// takesFrame: lowering let this df master take tasks derived from the
	// itermem input's frame (escapes); the invocation's verdicts below then
	// decide whether the frame may be handed back (pins).
	takesFrame bool

	framesLeft int         // invocations until the run's last frame releases the workers
	active     atomic.Bool // a master invocation is in progress (read by handlePeerDown)
	gen        int32       // this invocation's generation tag
	tasks      []farmTask
	queue      []int // task indices awaiting dispatch, consumed from qhead
	qhead      int
	remaining  int // tasks not yet folded
	alive      []bool
	aliveCount int
	inflight   []int       // task index each worker holds, or noTask / owedTask
	dispatched []time.Time // when inflight[w] was handed out
	suspected  []bool      // deadline verdicts issued, for false-suspicion accounting
	fillNext   int         // where the next dispatch scan starts
	refFolded  bool        // a reply that came by reference was folded
}

// Values of farm.inflight other than a task index.
const (
	noTask   = -1 // the worker is idle
	owedTask = -2 // the worker still owes the reply to an earlier frame's task
)

func (m *Machine) lowerFarm(p arch.ProcID, n *graph.Node, iters int) (*farm, error) {
	accFn, ok := m.reg.Lookup(n.AccFn)
	if !ok {
		return nil, fmt.Errorf("exec: accumulate function %q not registered", n.AccFn)
	}
	f := &farm{
		m: m, p: p, node: n, accFn: accFn,
		workerProc: make([]arch.ProcID, n.Workers),
		copying:    make([]bool, n.Workers),
		replyKey:   transport.ReplyKey(n.ID),
		replies:    m.t.Receiver(p, transport.ReplyKey(n.ID)),
		framesLeft: iters,
		alive:      make([]bool, n.Workers),
		inflight:   make([]int, n.Workers),
		dispatched: make([]time.Time, n.Workers),
		suspected:  make([]bool, n.Workers),
	}
	for _, e := range m.sched.Graph.OutEdges(n.ID) {
		if w := m.sched.Graph.Node(e.To); w.Kind == graph.KindWorker {
			wp := m.sched.Assign[w.ID]
			f.workerProc[w.Index] = wp
			f.copying[w.Index] = m.copies(p, wp) && m.copies(wp, p)
		}
	}
	for w := range f.inflight {
		f.inflight[w] = noTask
	}
	if m.ft != nil {
		f.deadline, f.specAfter = m.FT.TaskDeadline, m.FT.speculateAfter()
		m.ft.farms = append(m.ft.farms, f)
	}
	return f, nil
}

// send hands task idx to worker w and moves the rotating scan past it.
func (f *farm) send(w, idx int) {
	f.inflight[w] = idx
	f.fillNext = (w + 1) % len(f.alive)
	if f.deadline > 0 || f.specAfter > 0 {
		f.dispatched[w] = time.Now()
	}
	t := &f.tasks[idx]
	tk := transport.Task{Idx: idx, Gen: f.gen, V: t.val}
	if f.node.TaskFarm {
		tk.Spare = f.spare()
		t.owned = t.owned && f.copying[w]
	}
	f.m.t.Send(f.p, f.workerProc[w], transport.TaskKey(f.node.ID, w), tk)
}

// spare is how many of the tasks a tf task spawns its worker should hand
// back: the live workers that would sit idle otherwise, after the tasks
// already queued have claimed theirs.
func (f *farm) spare() int32 {
	idle := 0
	for w, held := range f.inflight {
		if f.alive[w] && held == noTask {
			idle++
		}
	}
	return int32(max(idle-(len(f.queue)-f.qhead), 0))
}

// duplicated reports whether a worker other than w also holds task idx.
func (f *farm) duplicated(w, idx int) bool {
	for w2, held := range f.inflight {
		if w2 != w && held == idx {
			return true
		}
	}
	return false
}

// idleWorker picks the idle live worker the next dispatch goes to, -1 if the
// pool is saturated: one on the master's own processor if there is one — a
// task handed to it crosses no link — else the first at or after the
// rotating scan start.
func (f *farm) idleWorker() int {
	for w, p := range f.workerProc {
		if p == f.p && f.alive[w] && f.inflight[w] == noTask {
			return w
		}
	}
	for k := range f.alive {
		w := (f.fillNext + k) % len(f.alive)
		if f.alive[w] && f.inflight[w] == noTask {
			return w
		}
	}
	return -1
}

// fill hands queued tasks to idle live workers — the farm's one dispatch
// policy. The scan start rotates round-robin over the worker array, so
// queue refills spread across the pool instead of piling onto low indices;
// a lone replier is the only idle worker, so a saturated farm stays purely
// demand-driven.
func (f *farm) fill() {
	for f.qhead < len(f.queue) {
		w := f.idleWorker()
		if w < 0 {
			return
		}
		idx := f.queue[f.qhead]
		f.qhead++
		f.tasks[idx].tries++
		f.send(w, idx)
	}
}

// requeue returns a dead worker's in-flight task to the queue (retry budget
// permitting) and records the re-dispatch.
func (f *farm) requeue(w int) error {
	m, idx := f.m, f.inflight[w]
	f.inflight[w] = noTask
	if idx < 0 || f.tasks[idx].done {
		return nil
	}
	if f.tasks[idx].specW == w {
		// The speculative copy died; the original still carries the task.
		f.tasks[idx].specW = -1
	}
	if f.duplicated(w, idx) {
		// A live duplicate still runs the task: nothing to re-enqueue and
		// no retry charged — speculation already covers this loss.
		return nil
	}
	if f.tasks[idx].tries > m.FT.MaxRetries {
		m.Trace.Record(int32(f.p), obsv.EvDegrade, 0, -1, int64(idx))
		return fmt.Errorf("exec: farm %s task %d lost its worker %d times (max-retries %d exhausted)",
			f.node.Name, idx, f.tasks[idx].tries, m.FT.MaxRetries)
	}
	m.ftRedispatches.Add(1)
	m.Trace.Record(int32(f.p), obsv.EvRedispatch, 0, -1, int64(idx))
	f.queue = append(f.queue, idx)
	return nil
}

// markDead contains the deaths of the given processors inside the farm.
func (f *farm) markDead(procs []arch.ProcID) error {
	for w, p := range f.workerProc {
		for _, dead := range procs {
			if f.alive[w] && p == dead {
				f.alive[w] = false
				f.aliveCount--
				if err := f.requeue(w); err != nil {
					return err
				}
			}
		}
	}
	return f.checkAlive()
}

func (f *farm) checkAlive() error {
	if f.aliveCount == 0 && f.remaining > 0 {
		return fmt.Errorf("exec: every worker of farm %s is dead with %d tasks unfinished", f.node.Name, f.remaining)
	}
	return nil
}

// tick reacts to a watchdog DeadlineTick. A worker past the hard deadline is
// suspected dead, through the path a transport-detected death takes: the
// transport stops routing to it (and, on the hub, tells every node), and
// handlePeerDown classifies, records and wakes the masters — this one
// re-dispatches when its own ProcsDown arrives. A straggler past the
// speculation threshold on a worker still considered live has its task
// duplicated onto an idle worker — at most one active copy beyond the
// original, placed with the same rotating scan fill uses. Unlike a dispatch
// that charges no retry (the original worker is slow, not suspected), and
// the generation/done checks discard whichever reply loses the race. A
// worker that owes an earlier frame's reply is held to the deadline too;
// its task is no longer this frame's to duplicate.
func (f *farm) tick() {
	m, now := f.m, time.Now()
	for w, idx := range f.inflight {
		if !f.alive[w] || idx == noTask {
			continue
		}
		waited := now.Sub(f.dispatched[w])
		if f.deadline > 0 && waited > f.deadline {
			f.suspected[w] = true
			if pd, ok := m.t.(transport.PeerDowner); ok {
				pd.MarkPeerDown(f.workerProc[w])
			}
			m.handlePeerDown([]arch.ProcID{f.workerProc[w]})
		}
		if idx == owedTask || f.specAfter <= 0 || waited < f.specAfter || f.tasks[idx].done ||
			f.tasks[idx].specW >= 0 || f.duplicated(w, idx) {
			continue
		}
		if tgt := f.idleWorker(); tgt >= 0 {
			f.tasks[idx].specW = tgt
			m.ftSpeculations.Add(1)
			m.Trace.Record(int32(f.p), obsv.EvSpeculate, 0, int32(f.workerProc[tgt]), int64(idx))
			f.send(tgt, idx)
		}
	}
}

// watch starts the invocation's watchdog when a deadline or speculation
// threshold is armed: a timer that self-sends DeadlineTicks into the reply
// stream, so the master checks overruns without a second blocking point;
// ticking at a quarter of the tightest armed threshold bounds detection
// latency to 1.25 thresholds. The returned stop — called when the dispatch
// loop exits and again (idempotently) when the master returns — excludes
// further sends under the timer's lock, so no tick can land after the master
// returns for the next iteration's master to consume.
func (f *farm) watch() (stop func()) {
	threshold := f.deadline
	if f.specAfter > 0 && (threshold <= 0 || f.specAfter < threshold) {
		threshold = f.specAfter
	}
	if threshold <= 0 {
		return func() {}
	}
	tick := max(threshold/4, 1)
	var mu sync.Mutex
	var t *time.Timer
	mu.Lock()
	t = time.AfterFunc(tick, func() {
		mu.Lock()
		defer mu.Unlock()
		if t != nil {
			f.m.t.Send(f.p, f.p, f.replyKey, transport.DeadlineTick{})
			t.Reset(tick)
		}
	})
	mu.Unlock()
	return func() {
		mu.Lock()
		defer mu.Unlock()
		if t != nil {
			t.Stop()
			t = nil
		}
	}
}

// runMaster executes the farm protocol for one frame: demand-driven dispatch
// of the input list xs to the worker pool, accumulation of results from acc
// (arrival order, or input order in deterministic df mode), task feedback
// for tf, and — after the run's last frame only — the sentinels that
// release the workers. With fault
// tolerance armed (m.ft != nil) it also reacts to the ProcsDown and
// DeadlineTick control values interleaved into its reply stream:
// in-flight tasks of dead workers are re-enqueued onto the surviving pool,
// bounded by FaultTolerance.MaxRetries per task, and stragglers are
// speculatively duplicated (DESIGN.md §11).
func (m *Machine) runMaster(f *farm, xs, acc value.Value) (value.Value, error) {
	n := f.node
	list, ok := xs.(value.List)
	if !ok {
		return nil, fmt.Errorf("exec: farm input of %s is not a list", n.Name)
	}
	// gen tags this invocation: reply keys are shared across iterations, and
	// a deadline-suspected worker that was merely slow can deliver its reply
	// arbitrarily late — without the generation check it would be folded
	// into a later iteration's accumulator.
	f.gen = m.farmGen.Add(1)
	// Go active before reading the dead set: a death landing between the two
	// is then delivered as ProcsDown rather than lost.
	f.active.Store(true)
	defer f.active.Store(false)
	ft := m.ft
	f.tasks, f.queue, f.qhead = f.tasks[:0], f.queue[:0], 0
	for i, x := range list {
		f.tasks = append(f.tasks, farmTask{val: x, specW: -1})
		f.queue = append(f.queue, i)
	}
	f.remaining, f.refFolded = len(list), false
	deterministic := m.DeterministicFarm && !n.TaskFarm
	f.aliveCount, f.fillNext = 0, 0
	for w, p := range f.workerProc {
		f.alive[w] = ft == nil || !ft.dead[p].Load()
		if f.alive[w] {
			f.aliveCount++
		}
		if f.inflight[w] != noTask {
			// A straggler whose duplicate won an earlier frame has not answered
			// yet: it stays busy until that reply arrives, or each frame would
			// hand it one more task and Run would wait out the whole backlog.
			f.inflight[w] = owedTask
		}
		f.suspected[w] = false
	}
	if err := f.checkAlive(); err != nil {
		return nil, err // degenerate: started with zero live workers
	}
	stopTicks := f.watch()
	defer stopTicks()
	f.fill()

	for f.remaining > 0 {
		rv, ok := f.replies.Recv()
		if !ok {
			return nil, fmt.Errorf("exec: master receive aborted")
		}
		switch rep := rv.(type) {
		case transport.ProcsDown:
			if err := f.markDead(rep.Procs); err != nil {
				return nil, err
			}
			f.fill()

		case transport.DeadlineTick:
			f.tick()

		case transport.Reply:
			w := int(rep.Widx)
			known := w >= 0 && w < n.Workers
			if rep.Gen != f.gen {
				// A previous invocation's straggler: discarded, but it is the
				// reply its worker owed, so the worker is free again.
				if known && f.inflight[w] == owedTask {
					f.inflight[w] = noTask
					f.fill()
				}
				continue
			}
			if known {
				if f.inflight[w] == rep.Task {
					f.inflight[w] = noTask
				}
				if f.suspected[w] {
					// The deadline verdict was wrong: the worker was slow,
					// not dead. It stays marked down (the transport already
					// tore its routes) but the operator learns the deadline
					// is too tight.
					f.suspected[w] = false
					m.ftFalseSuspicions.Add(1)
				}
			}
			if rep.Task < 0 || rep.Task >= len(f.tasks) {
				return nil, fmt.Errorf("exec: master %s received reply for unknown task %d", n.Name, rep.Task)
			}
			if t := &f.tasks[rep.Task]; !t.done {
				if t.specW >= 0 && w == t.specW {
					m.ftSpecWins.Add(1)
					m.Trace.Record(int32(f.p), obsv.EvSpecWin, 0, int32(f.workerProc[t.specW]), int64(rep.Task))
				}
				// Folded: any speculation race is settled, the value released
				// (to the arena too, if it is a copy no worker shares).
				if t.owned {
					value.Release(t.val)
				}
				*t = farmTask{done: true, tries: t.tries, specW: -1}
				f.remaining--
				f.refFolded = f.refFolded || !known || !f.copying[w]
				switch {
				case n.TaskFarm:
					ys, more, ok := tfPair(rep.V)
					if !ok {
						return nil, fmt.Errorf("exec: tf worker must return (results, new-tasks)")
					}
					for _, y := range ys {
						acc = f.accFn.Fn([]value.Value{acc, y})
					}
					// A decoded reply is the master's alone: its results are
					// dead once folded into an accumulator that cannot hold a
					// view of one, and its new tasks once their own replies
					// are folded, unless a co-hosted worker is handed one.
					copied := known && f.copying[w]
					if copied && plain(acc) {
						value.Release(ys)
					}
					for _, x := range more {
						f.queue = append(f.queue, len(f.tasks))
						f.tasks = append(f.tasks, farmTask{val: x, owned: copied, specW: -1})
						f.remaining++
					}
				case deterministic:
					t.val = rep.V
				default:
					acc = f.accFn.Fn([]value.Value{acc, rep.V})
				}
			}
			f.fill()
			if err := f.checkAlive(); err != nil {
				return nil, err
			}

		default:
			return nil, fmt.Errorf("exec: master %s received non-reply", n.Name)
		}
	}
	// Every task is folded: silence the watchdog before the post-loop work
	// (sentinels, deterministic fold) so no tick lands under the shared
	// reply key for the next iteration's master to consume.
	stopTicks()
	if f.framesLeft--; f.framesLeft == 0 {
		// The run's last frame releases the workers: one sentinel each, dead
		// ones included — the transport drops frames to the dead, and a
		// falsely-suspected survivor's task stream was already killed with
		// its mailbox. A run that aborts earlier releases them by closing
		// their mailboxes instead.
		for w, p := range f.workerProc {
			m.t.Send(f.p, p, transport.TaskKey(n.ID, w), transport.Sentinel{})
		}
	}
	if deterministic {
		for i := range f.tasks {
			acc = f.accFn.Fn([]value.Value{acc, f.tasks[i].val})
			f.tasks[i].val = nil
		}
	}
	return acc, nil
}

// pins reports whether the invocation that just returned acc, having taken
// tasks derived from the frame (takesFrame), leaves something that may still
// read the frame: a by-reference worker that still holds a task — a
// speculation's loser, a straggler owing an earlier frame's reply, one
// declared dead that may still be running — or a reply that came by
// reference, a value that may be a view of its task, folded into an
// accumulator that may hold a view. Only the master touches inflight and
// alive, so they still hold what its loop left.
func (f *farm) pins(acc value.Value) bool {
	for w, task := range f.inflight {
		if !f.copying[w] && (task != noTask || !f.alive[w]) {
			return true
		}
	}
	return f.refFolded && !plain(acc)
}

// plain reports whether v is plain data — ints, floats, bools, strings, unit,
// values of an extension type declared NoView, and tuples or lists of those
// — which holds no view of another value.
func plain(v value.Value) bool {
	switch v := v.(type) {
	case int, float64, bool, string, value.Unit:
		return true
	case value.Tuple:
		return !slices.ContainsFunc(v, func(e value.Value) bool { return !plain(e) })
	case value.List:
		return !slices.ContainsFunc(v, func(e value.Value) bool { return !plain(e) })
	}
	return value.ViewFree(v)
}
