package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/memtransport"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
	"skipper/internal/obsv"
	"skipper/internal/syndex"
	"skipper/internal/value"
)

// RunResult is the outcome of executing a schedule.
type RunResult struct {
	// Outputs holds the value delivered to the Output node at each
	// iteration: Outputs[i] is iteration i's output, and always has length
	// iters. An iteration whose output was never delivered — or whose
	// Output node lives on a processor this machine does not host — leaves
	// a nil hole at its slot rather than silently shifting later outputs
	// down. For Output nodes with a display function, the function has
	// also been called.
	Outputs []value.Value
	// Messages is the number of payloads this machine's processors
	// injected into the network: static communications, a task and a reply
	// per farm task, and one sentinel per farm worker per run.
	Messages int64
	// Hops counts the link traversals those messages cost. On the mem
	// backend it is accounted, not performed: each message is charged the
	// links its route crosses on the architecture graph (one between
	// adjacent processors, more otherwise, none to itself) and delivered
	// directly. On the net backend it is always zero: the hub relays
	// nothing, and every cross-process frame travels one hop — over the
	// peer mesh or a control connection.
	Hops int64
	// Direct counts frames this machine's processors shipped point-to-point
	// over the net backend's peer mesh between node processes. Always zero
	// on the mem backend (every in-process delivery is already direct) and
	// on the hub itself, whose control connections are one hop too.
	Direct int64
	// Trace is the run's event-trace snapshot when the machine was given a
	// recorder (Machine.Trace), nil otherwise. It covers the processors
	// this machine hosts; distributed runs merge one trace per process via
	// obsv.Merge.
	Trace *obsv.Trace
	// Failures counts processors this machine declared dead during the run
	// (transport-detected deaths plus task-deadline suspicions). Zero
	// unless Machine.FT enabled fault tolerance.
	Failures int64
	// Redispatches counts farm tasks re-enqueued onto surviving workers
	// after their original worker died. A run that lost a worker but
	// completed has Failures > 0, and Redispatches > 0 if that worker held
	// a task at death.
	Redispatches int64
	// Speculations counts speculative duplicate dispatches: tasks that sat
	// unanswered past FaultTolerance.SpeculateAfter and were duplicated
	// onto an idle worker without suspecting the original dead.
	Speculations int64
	// SpeculationWins counts speculations whose duplicate's reply arrived
	// before the original's — the duplication bought latency. A speculation
	// the original still won costs one redundant task execution and nothing
	// else.
	SpeculationWins int64
	// FalseSuspicions counts deadline-suspected workers whose same-
	// generation reply arrived after the death verdict: the worker was slow,
	// not dead. It stays marked down for the run, but a nonzero count tells
	// the operator TaskDeadline is too tight (or SpeculateAfter should
	// absorb the stragglers first).
	FalseSuspicions int64
}

// Machine executes a static schedule: each hosted processor interprets its
// compiled op program, communicating through a transport.Transport. The
// default (NewMachine) hosts every processor of the architecture over an
// in-process transport — the operational realization of the process graph
// on goroutines. NewMachineOn hosts a subset over a caller-supplied
// transport, which is how one OS process runs its share of a distributed
// deployment.
type Machine struct {
	sched *syndex.Schedule
	reg   *value.Registry

	// DeterministicFarm makes df masters accumulate results in input-list
	// order instead of arrival order. The paper requires the accumulating
	// function to be commutative and associative precisely because arrival
	// order is unpredictable; this mode lifts that requirement (at the cost
	// of buffering all results), making the executive bit-identical to the
	// sequential emulation even for non-commutative accumulators. tf farms
	// are unaffected (their task order is itself dynamic).
	DeterministicFarm bool

	// Trace, when set before Run, records op start/end events (and, via
	// the transport's TraceSink, send/recv/mailbox events) into the given
	// recorder; the run's snapshot lands in RunResult.Trace. Nil — the
	// default — costs one branch per op and nothing else.
	Trace *obsv.Recorder
	// StageLatency, when set, receives each pipeline stage's busy time per
	// frame in seconds on every processor that pipelines — the
	// measured per-stage period a latency/throughput re-mapper consumes.
	// It is independent of Trace (which records the same hand-offs as
	// EvStageHand events).
	StageLatency func(stage int, seconds float64)

	// FT, when enabled (MaxRetries > 0) and the transport supports failure
	// notification, makes farm-worker death survivable: in-flight tasks are
	// re-dispatched to surviving workers and the run completes on the
	// shrunken cluster. Disabled (the default), any peer death aborts the
	// cluster.
	FT FaultTolerance

	// Pipeline software-pipelines the itermem outer loop (DESIGN.md §7):
	// a processor's program is cut at every farm-master boundary into a
	// chain of stages — front end (frame grab, preprocessing), one stage
	// per farm, trailing merge/display — and consecutive frames occupy
	// consecutive stages concurrently: frame k+1's grab overlaps frame k's
	// first farm, which overlaps frame k-1's second farm, and so on. The
	// loop-carried MEM state stays single-buffered — a capacity-1 token
	// serializes frame k+1's MEM read after frame k's MEM write — so
	// outputs are bit-identical to the unpipelined executive. A processor
	// whose program does not satisfy the pipelineCuts conditions runs as a
	// single stage, as does everything when the flag is off (the default).
	Pipeline bool

	t     transport.Transport
	ownT  bool          // machine creates/destroys the transport per run
	local []arch.ProcID // processors this machine hosts

	ft      *ftState     // per-run fault-tolerance state; nil when FT is off
	farmGen atomic.Int32 // master invocation generations, for stale-reply rejection

	ftFailures        atomic.Int64 // cumulative across runs, for metrics
	ftRedispatches    atomic.Int64
	ftSpeculations    atomic.Int64
	ftSpecWins        atomic.Int64
	ftFalseSuspicions atomic.Int64

	outputs []value.Value // outputs[i]: iteration i's output; allocated per run, by lowering, where the Output node is hosted

	errMu  sync.Mutex
	err    error
	failed chan struct{} // closed when err is first set; replaced every run
}

// NewMachine prepares an executive hosting every processor of the
// schedule's architecture over a fresh in-process transport per run.
func NewMachine(sched *syndex.Schedule, reg *value.Registry) *Machine {
	local := make([]arch.ProcID, sched.Arch.N)
	for i := range local {
		local[i] = arch.ProcID(i)
	}
	return &Machine{sched: sched, reg: reg, ownT: true, local: local, failed: make(chan struct{})}
}

// NewMachineOn prepares an executive hosting only the given processors,
// communicating over t. The caller owns t's lifecycle: the machine aborts
// it on failure but never closes it after a successful run, so several
// machines (or OS processes, via the net backend) can share one transport.
func NewMachineOn(sched *syndex.Schedule, reg *value.Registry, t transport.Transport, local []arch.ProcID) *Machine {
	return &Machine{sched: sched, reg: reg, t: t, local: local, failed: make(chan struct{})}
}

// Run executes iters iterations of the distributed program (1 for one-shot
// graphs) and returns the collected outputs.
func (m *Machine) Run(iters int) (*RunResult, error) {
	return m.RunWithTimeout(iters, 0)
}

// RunWithTimeout is Run with a watchdog: if the executive has not completed
// within d, every blocked communication is aborted and a timeout error is
// returned. A zero duration disables the watchdog. The watchdog can only
// interrupt communication waits — a user sequential function that never
// returns cannot be cancelled.
func (m *Machine) RunWithTimeout(iters int, d time.Duration) (*RunResult, error) {
	iters = max(iters, 1)
	// Per-run state: a machine is reusable, so the previous run's outputs
	// and error must not leak into this one.
	m.outputs = nil
	m.errMu.Lock()
	m.err, m.failed = nil, make(chan struct{})
	m.errMu.Unlock()

	if m.ownT {
		m.t = memtransport.New(m.sched.Arch)
	}
	if ts, ok := m.t.(transport.TraceSink); ok && m.Trace != nil {
		ts.SetTrace(m.Trace)
	}
	// Fault tolerance needs a transport that can attribute a failure to one
	// process; without one (or with FT off) any peer death stays fatal.
	m.ft = nil
	notifier, canNotify := m.t.(transport.FailureNotifier)
	if m.FT.MaxRetries > 0 && canNotify {
		m.ft = &ftState{dead: make([]atomic.Bool, m.sched.Arch.N)}
	}
	ftBefore := m.ftCounts()
	statsBefore := m.t.Stats()

	// Lower every hosted processor's program once, then start the run's
	// processes: one per hosted farm worker, one per processor.
	plans := make([]*procPlan, 0, len(m.local))
	for _, p := range m.local {
		pl, err := m.lower(p, iters)
		if err != nil {
			m.fail(err) // also unblocks the peers this machine will never serve
			plans = nil
			break
		}
		plans = append(plans, pl)
	}
	if m.ft != nil {
		// Registering the handler is what switches the transport from
		// abort-the-cluster to contain-and-notify. After lowering, so the
		// handler finds every farm record in place.
		notifier.OnPeerDown(m.handlePeerDown)
	}
	var wg sync.WaitGroup
	for _, pl := range plans {
		wg.Add(1 + len(pl.workers))
		for _, w := range pl.workers {
			go func() {
				defer wg.Done()
				m.runWorker(pl.p, w)
			}()
		}
		go func() {
			defer wg.Done()
			m.interpret(pl, iters)
		}()
	}
	// Watchdog: abort all communication waits if the deadline passes. It
	// reaches the machine through a pointer cleared once the run is over: the
	// runtime may hold a stopped timer, callback included, until it next
	// cleans its timer heap, and the machine holds the registry (with its
	// scene) and the schedule.
	var watchdog *time.Timer
	var watched atomic.Pointer[Machine]
	if d > 0 {
		watched.Store(m)
		watchdog = time.AfterFunc(d, func() {
			if m := watched.Load(); m != nil {
				m.fail(fmt.Errorf("exec: executive did not complete within %v (communication stalled)", d))
			}
		})
	}
	wg.Wait()
	if watchdog != nil {
		watchdog.Stop()
		watched.Store(nil)
	}
	stats := m.t.Stats()
	terr := m.t.Err()
	if m.ownT {
		m.t.Close()
	}
	// A transport failure (routing, connection, codec) is the root cause of
	// any "receive aborted" the processors observed — report it first.
	if terr != nil {
		return nil, terr
	}
	m.errMu.Lock()
	err := m.err
	m.errMu.Unlock()
	if err != nil {
		return nil, err
	}
	if m.outputs == nil {
		m.outputs = make([]value.Value, iters) // the Output node lives elsewhere: all holes
	}
	// The FT counters are cumulative (the /metrics sources, bumped at event
	// time so a mid-run scrape sees them); the result reports this run's share.
	res := m.ftCounts()
	res.Failures -= ftBefore.Failures
	res.Redispatches -= ftBefore.Redispatches
	res.Speculations -= ftBefore.Speculations
	res.SpeculationWins -= ftBefore.SpeculationWins
	res.FalseSuspicions -= ftBefore.FalseSuspicions
	res.Outputs = m.outputs
	res.Messages = stats.Messages - statsBefore.Messages
	res.Hops = stats.Hops - statsBefore.Hops
	res.Direct = stats.Direct - statsBefore.Direct
	if m.Trace != nil {
		res.Trace = m.Trace.Snapshot()
		res.Trace.Procs = make([]int, len(m.local))
		for i, p := range m.local {
			res.Trace.Procs[i] = int(p)
		}
	}
	return res, nil
}

// ErrCancelled is the error a run returns after Cancel. Callers that kill
// jobs on purpose (a scheduler honoring DELETE /jobs) match on it with
// errors.Is to tell deliberate cancellation from genuine failure — only the
// latter warrants a re-queue.
var ErrCancelled = errors.New("exec: run cancelled")

// Cancel aborts the in-flight run: every blocked communication unblocks and
// the run returns ErrCancelled. Like the watchdog, it cannot interrupt a
// user sequential function that never returns. Cancel is for machines built
// with NewMachineOn, whose transport is fixed at construction; on an
// own-transport machine a Cancel racing run start may find no transport yet
// and only record the error.
func (m *Machine) Cancel() {
	if m.fail(ErrCancelled) {
		m.Trace.Record(-1, obsv.EvCancel, 0, -1, 0)
	}
}

// fail records the run's first error and unblocks everything: the failed
// channel every op loop polls, and every communication wait. It reports
// whether err was the first.
func (m *Machine) fail(err error) bool {
	m.errMu.Lock()
	first := m.err == nil
	if first {
		m.err = err
		close(m.failed)
	}
	t := m.t
	m.errMu.Unlock()
	if first && t != nil {
		t.Abort()
	}
	return first
}

// ftCounts reads the cumulative fault-tolerance counters into a result.
func (m *Machine) ftCounts() *RunResult {
	return &RunResult{Failures: m.ftFailures.Load(), Redispatches: m.ftRedispatches.Load(),
		Speculations: m.ftSpeculations.Load(), SpeculationWins: m.ftSpecWins.Load(),
		FalseSuspicions: m.ftFalseSuspicions.Load()}
}

// FTFailures reports the processors declared dead across every run of this
// machine; FTRedispatches the farm tasks re-enqueued after worker deaths.
// Cumulative (unlike the per-run RunResult fields), for metrics endpoints.
func (m *Machine) FTFailures() int64 { return m.ftFailures.Load() }

// FTRedispatches reports tasks re-dispatched across every run; see FTFailures.
func (m *Machine) FTRedispatches() int64 { return m.ftRedispatches.Load() }

// FTSpeculations reports speculative duplicate dispatches across every run;
// see FTFailures.
func (m *Machine) FTSpeculations() int64 { return m.ftSpeculations.Load() }

// FTSpeculationWins reports speculations whose duplicate beat the original
// reply across every run; see FTFailures.
func (m *Machine) FTSpeculationWins() int64 { return m.ftSpecWins.Load() }

// FTFalseSuspicions reports deadline suspicions later contradicted by the
// suspected worker's own reply, across every run; see FTFailures.
func (m *Machine) FTFalseSuspicions() int64 { return m.ftFalseSuspicions.Load() }

// pipeFrame is one in-flight iteration handed from stage to stage down the
// pipeline. Ownership of vals transfers with each send. The pin verdict
// rides with the frame, not on a farm record: on a pipelined processor the
// next frame reuses the record while this one finishes its final stage.
type pipeFrame struct {
	vals []value.Value // the frame's value slots, indexed by the plan
	iter int
	pin  bool // a farm that took the frame's tasks left something that may read it
}

// interpret runs a processor's lowered program for iters frames — the
// executive's one interpreter. The calling goroutine is the front end: it
// runs stage 0 (for an unpipelined processor, the whole program) frame
// after frame. Each further stage from cutStages is a goroutine running its
// slice for an earlier frame, down to the final stage — last farm, merge,
// display, MEM writes. Frames ride a baton chain of capacity-1 hand
// channels, so each stage holds exactly one frame and frames leave every
// stage in order.
//
// A capacity-1 token channel, seeded with one token, is the MEM baton: it is
// taken just before a frame's first MEM-touching op and returned by the
// final stage after the frame completes (pipelineCuts guarantees all MEM
// writes are the final stage's own ops). All MEM-state accesses are ordered
// through the token and hand channels, so the interleaving is deterministic
// and outputs are bit-identical at every depth.
func (m *Machine) interpret(pl *procPlan, iters int) {
	stages := len(pl.stages)
	hands := make([]chan pipeFrame, stages) // hands[j]: stage j-1 → stage j
	var memTok chan struct{}
	if pl.takeStage >= 0 {
		memTok = make(chan struct{}, 1)
		memTok <- struct{}{} // frame 0 reads the initial state
	}
	var bwg sync.WaitGroup
	for j := 1; j < stages; j++ {
		hands[j] = make(chan pipeFrame, 1)
	}
	for j := 1; j < stages; j++ {
		bwg.Add(1)
		go func() {
			defer bwg.Done()
			if j+1 < stages {
				defer close(hands[j+1])
			}
			for f := range hands[j] {
				if !m.runStage(pl, j, &f, memTok) {
					return // upstream notices through m.failed
				}
				if j == stages-1 {
					// The frame is done, MEM writes included: its baton goes
					// to the next frame's take.
					if memTok != nil {
						memTok <- struct{}{}
					}
					continue
				}
				select {
				case hands[j+1] <- f:
				case <-m.failed:
					return
				}
			}
		}()
	}
	// An unpipelined processor reuses one slot array, cleared between frames
	// so a finished frame's values (images, windows) are garbage at once.
	// Pipelined frames overlap, so each gets its own.
	f := pipeFrame{vals: make([]value.Value, pl.nslots)}
	for ; f.iter < iters && m.runStage(pl, 0, &f, memTok); f.iter++ {
		if stages == 1 {
			clear(f.vals)
			f.pin = false
			continue
		}
		select {
		case hands[1] <- f:
			f.vals, f.pin = make([]value.Value, pl.nslots), false
		case <-m.failed:
			f.iter = iters // stop producing
		}
	}
	if stages > 1 {
		close(hands[1])
		bwg.Wait()
	}
}

// runStage executes stage j's ops on frame f — the executive's one op loop.
// Each op is bracketed with start/end trace events when tracing is armed
// (the end is recorded even for a failing op, so traces of aborted runs stay
// pairable). On a pipelined processor the
// frame leaving the stage is recorded too: the hand-off event and the
// stage's busy time — the measured per-stage period. It reports false when
// the run is failing.
func (m *Machine) runStage(pl *procPlan, j int, f *pipeFrame, memTok chan struct{}) bool {
	trace, stageLat := m.Trace, m.StageLatency
	pipelined := len(pl.stages) > 1
	var s0 time.Time
	if pipelined && stageLat != nil {
		s0 = time.Now()
	}
	for k, i := range pl.stages[j] {
		select {
		case <-m.failed:
			return false
		default:
		}
		if j == pl.takeStage && k == pl.takeAt {
			// The final stage returned the token itself at the end of the
			// previous frame, so there this never blocks — but it still
			// orders the MEM state.
			select {
			case <-memTok:
			case <-m.failed:
				return false
			}
		}
		op := &pl.ops[i]
		if trace != nil {
			trace.Record(int32(pl.p), obsv.EvOpStart, op.label, -1, int64(f.iter))
		}
		err := m.step(pl, op, f)
		if trace != nil {
			trace.Record(int32(pl.p), obsv.EvOpEnd, op.label, -1, int64(f.iter))
		}
		if err != nil {
			m.fail(err)
			return false
		}
	}
	if j == len(pl.stages)-1 {
		// The frame is done: received values that die with it go back to
		// the arena, and so does its grabbed frame unless lowering or one of
		// its farms found something that may still read it.
		for _, s := range pl.release {
			value.Release(f.vals[s])
		}
		if pl.frame >= 0 && !f.pin && fromArena(f.vals[pl.frame]) {
			value.Release(f.vals[pl.frame])
		}
	}
	if pipelined {
		trace.Record(int32(pl.p), obsv.EvStageHand, 0, int32(j), int64(f.iter))
		if stageLat != nil {
			stageLat(j, time.Since(s0).Seconds())
		}
	}
	return true
}

// fromArena reports whether v is an image the vision arena handed out
// (vision.Image.FromArena): only such a frame is worth handing back.
func fromArena(v value.Value) bool {
	im, ok := v.(interface{ FromArena() bool })
	return ok && im.FromArena()
}

// step executes one lowered op on frame f.
func (m *Machine) step(pl *procPlan, op *planOp, f *pipeFrame) error {
	vals := f.vals
	switch op.kind {
	case syndex.OpRecv:
		v, ok := op.rx.Recv()
		if !ok {
			return fmt.Errorf("exec: receive aborted")
		}
		vals[op.out] = v

	case syndex.OpSend:
		m.t.Send(pl.p, op.peer, op.key, vals[op.in[0]])

	case syndex.OpExec:
		if op.mem != nil {
			// Read: the init input until the first write, then the stored
			// feedback value.
			vals[op.out] = vals[op.in[0]]
			if op.mem.set {
				vals[op.out] = op.mem.v
			}
			return nil
		}
		// A fresh argument slice per call: user functions may retain it
		// (a merge function receives it as the list itself).
		inputs := make([]value.Value, len(op.in))
		for k, s := range op.in {
			inputs[k] = vals[s]
		}
		if err := applyNode(op.node, op.fn, inputs, vals[op.out:op.out+op.nout]); err != nil {
			return err
		}
		if op.node.Kind == graph.KindOutput {
			m.outputs[f.iter] = inputs[0]
		}

	case syndex.OpMemWrite:
		op.mem.v, op.mem.set = vals[op.in[0]], true

	case syndex.OpMaster:
		acc, err := m.runMaster(op.farm, vals[op.in[0]], vals[op.in[1]])
		vals[op.out] = acc
		// Only a frame the arena owns is worth the verdict's walk.
		if op.farm.takesFrame && !f.pin && fromArena(vals[pl.frame]) {
			f.pin = op.farm.pins(acc)
		}
		return err
	}
	return nil
}
