package exec

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/faulttransport"
	"skipper/internal/exec/memtransport"
	"skipper/internal/exec/transport"
	"skipper/internal/syndex"
	"skipper/internal/value"
)

// workerOnlyProcs lists the processors whose program consists solely of
// farm-worker ops — the ones whose death fault tolerance can survive.
func workerOnlyProcs(s *syndex.Schedule) []arch.ProcID {
	var out []arch.ProcID
	for p, prog := range s.Programs {
		if len(prog) == 0 {
			continue
		}
		all := true
		for _, op := range prog {
			if op.Kind != syndex.OpWorker {
				all = false
				break
			}
		}
		if all {
			out = append(out, arch.ProcID(p))
		}
	}
	return out
}

func allProcs(a *arch.Arch) []arch.ProcID {
	ps := make([]arch.ProcID, a.N)
	for i := range ps {
		ps[i] = arch.ProcID(i)
	}
	return ps
}

// killSecondReply scripts a certain mid-farm death: victims[0] dies
// delivering its second reply, and every other worker-only processor's
// replies are slow. Demand-driven dispatch alone does not promise any worker
// a second task — a victim slow to wake can be handed one, never perform its
// second send, and survive the run — so the others are held back: the
// victim's first reply is the first to arrive while tasks are still queued,
// it is dispatched another, and the kill strands that one.
func killSecondReply(victims []arch.ProcID) map[arch.ProcID]faulttransport.Fault {
	faults := map[arch.ProcID]faulttransport.Fault{victims[0]: {KillAfterSends: 1}}
	for _, p := range victims[1:] {
		faults[p] = faulttransport.Fault{SlowEveryNth: 1, SlowFor: 25 * time.Millisecond}
	}
	return faults
}

// TestFarmSurvivesWorkerKill is the core fault-tolerance regression: one
// farm worker's process dies mid-run (scripted kill after its first reply)
// and the run must still complete, bit-identical to a healthy run, with
// the loss visible in RunResult. Three iterations exercise the degraded
// steady state after the death, plus the generation guard against the dead
// worker's stragglers.
func TestFarmSurvivesWorkerKill(t *testing.T) {
	a := arch.Ring(8)
	s := compile(t, farmSrc, baseRegistry(), a, syndex.Structured)
	victims := workerOnlyProcs(s)
	if len(victims) == 0 {
		t.Fatal("schedule has no worker-only processor to kill")
	}
	// The victim answers one task, then dies delivering its second reply.
	ft := faulttransport.New(memtransport.New(a), faulttransport.Config{Faults: killSecondReply(victims)})
	defer ft.Close()
	m := NewMachineOn(s, baseRegistry(), ft, allProcs(a))
	m.FT = FaultTolerance{MaxRetries: 2}
	res, err := m.Run(3)
	if err != nil {
		t.Fatalf("run did not survive the worker kill: %v", err)
	}
	for i, out := range res.Outputs {
		if out != farmWant {
			t.Fatalf("iteration %d output = %v, want %d (must be bit-identical to a healthy run)", i, out, farmWant)
		}
	}
	if res.Failures < 1 {
		t.Fatalf("Failures = %d, want >= 1", res.Failures)
	}
	if res.Redispatches < 1 {
		t.Fatalf("Redispatches = %d, want >= 1", res.Redispatches)
	}
	if m.FTFailures() != res.Failures || m.FTRedispatches() != res.Redispatches {
		t.Fatalf("cumulative counters (%d, %d) disagree with run result (%d, %d)",
			m.FTFailures(), m.FTRedispatches(), res.Failures, res.Redispatches)
	}
}

// TestFarmDeadlineRedispatch covers the failure no transport can see: a
// worker that hangs (here: every reply silently dropped) instead of
// crashing. The task deadline must declare it dead and re-dispatch.
func TestFarmDeadlineRedispatch(t *testing.T) {
	a := arch.Ring(8)
	s := compile(t, farmSrc, baseRegistry(), a, syndex.Structured)
	victims := workerOnlyProcs(s)
	if len(victims) == 0 {
		t.Fatal("schedule has no worker-only processor")
	}
	ft := faulttransport.New(memtransport.New(a), faulttransport.Config{
		Faults: map[arch.ProcID]faulttransport.Fault{
			victims[0]: {DropEveryNth: 1}, // the worker "hangs": all replies vanish
		},
	})
	defer ft.Close()
	m := NewMachineOn(s, baseRegistry(), ft, allProcs(a))
	// SpeculateAfter < 0 pins the pure deadline path: with the default
	// (TaskDeadline/2) a speculative duplicate would rescue the task before
	// the hard deadline ever fires and no redispatch would be recorded.
	m.FT = FaultTolerance{MaxRetries: 2, TaskDeadline: 150 * time.Millisecond, SpeculateAfter: -1}
	res, err := m.Run(1)
	if err != nil {
		t.Fatalf("run did not survive the hung worker: %v", err)
	}
	if res.Outputs[0] != farmWant {
		t.Fatalf("output = %v, want %d", res.Outputs[0], farmWant)
	}
	if res.Redispatches < 1 {
		t.Fatalf("Redispatches = %d, want >= 1 (deadline should have re-dispatched)", res.Redispatches)
	}
}

// TestFarmDegradesWhenRetriesExhausted: when workers die faster than the
// retry budget allows, the run must fail with a diagnostic rather than
// hang or return a wrong result.
func TestFarmDegradesWhenRetriesExhausted(t *testing.T) {
	a := arch.Ring(8)
	s := compile(t, farmSrc, baseRegistry(), a, syndex.Structured)
	faults := map[arch.ProcID]faulttransport.Fault{}
	for _, p := range workerOnlyProcs(s) {
		faults[p] = faulttransport.Fault{KillAfterSends: 1} // every worker dies on its 2nd reply
	}
	ft := faulttransport.New(memtransport.New(a), faulttransport.Config{Faults: faults})
	defer ft.Close()
	m := NewMachineOn(s, baseRegistry(), ft, allProcs(a))
	m.FT = FaultTolerance{MaxRetries: 1}
	if _, err := m.RunWithTimeout(1, 10*time.Second); err == nil {
		t.Fatal("run succeeded although every worker died with tasks unfinished")
	}
}

// TestNonWorkerDeathIsFatal pins the recovery boundary: only processors
// hosting nothing but farm workers are expendable. The death of a
// processor with any other op must abort the run even with FT enabled.
func TestNonWorkerDeathIsFatal(t *testing.T) {
	a := arch.Ring(8)
	s := compile(t, farmSrc, baseRegistry(), a, syndex.Structured)
	// Proc 0 hosts the source/master/output chain — never just workers.
	ft := faulttransport.New(memtransport.New(a), faulttransport.Config{
		Faults: map[arch.ProcID]faulttransport.Fault{
			0: {KillAfterSends: 1},
		},
	})
	defer ft.Close()
	m := NewMachineOn(s, baseRegistry(), ft, allProcs(a))
	m.FT = FaultTolerance{MaxRetries: 2}
	_, err := m.RunWithTimeout(1, 10*time.Second)
	if err == nil {
		t.Fatal("run succeeded although a non-worker processor died")
	}
	if !strings.Contains(err.Error(), "cannot recover") {
		t.Fatalf("error = %v, want the cannot-recover diagnostic", err)
	}
}

// chaosWrap forwards the whole transport surface method by method. Test
// wrappers embed it and override what they need. It deliberately does NOT
// embed the transport.Transport interface: the executive arms fault
// tolerance only when the transport type-asserts as a FailureNotifier, and
// interface embedding would not promote OnPeerDown/MarkPeerDown — FT would
// silently stay off and the tests would pass vacuously.
type chaosWrap struct {
	inner transport.Transport
}

func (c *chaosWrap) Send(src, dst arch.ProcID, key transport.Key, v value.Value) {
	c.inner.Send(src, dst, key, v)
}
func (c *chaosWrap) Recv(p arch.ProcID, key transport.Key) (value.Value, bool) {
	return c.inner.Recv(p, key)
}
func (c *chaosWrap) Receiver(p arch.ProcID, key transport.Key) transport.Receiver {
	return c.inner.Receiver(p, key)
}
func (c *chaosWrap) Abort()                 { c.inner.Abort() }
func (c *chaosWrap) Close() error           { return c.inner.Close() }
func (c *chaosWrap) Err() error             { return c.inner.Err() }
func (c *chaosWrap) Stats() transport.Stats { return c.inner.Stats() }
func (c *chaosWrap) OnPeerDown(fn transport.PeerDown) {
	if n, ok := c.inner.(transport.FailureNotifier); ok {
		n.OnPeerDown(fn)
	}
}
func (c *chaosWrap) MarkPeerDown(p arch.ProcID) {
	if pd, ok := c.inner.(transport.PeerDowner); ok {
		pd.MarkPeerDown(p)
	}
}

// TestFarmSpeculationRescuesStraggler is the speculation acceptance run on
// the mem backend: one worker is scripted 10x slower than the straggler
// threshold, so its task must be duplicated onto an idle worker, the
// duplicate's reply must win, and the slow worker must keep its good
// standing — no death, no redispatch, no retry charged. The straggler's
// late same-generation reply then races in and must be discarded by the
// done check, leaving the fold bit-identical to a healthy run.
func TestFarmSpeculationRescuesStraggler(t *testing.T) {
	a := arch.Ring(8)
	s := compile(t, farmSrc, baseRegistry(), a, syndex.Structured)
	victims := workerOnlyProcs(s)
	if len(victims) == 0 {
		t.Fatal("schedule has no worker-only processor")
	}
	ft := faulttransport.New(memtransport.New(a), faulttransport.Config{
		Faults: map[arch.ProcID]faulttransport.Fault{
			victims[0]: {SlowEveryNth: 1, SlowFor: 400 * time.Millisecond},
		},
	})
	defer ft.Close()
	m := NewMachineOn(s, baseRegistry(), ft, allProcs(a))
	m.FT = FaultTolerance{MaxRetries: 2, SpeculateAfter: 40 * time.Millisecond}
	res, err := m.RunWithTimeout(1, 10*time.Second)
	if err != nil {
		t.Fatalf("run did not survive the straggler: %v", err)
	}
	if res.Outputs[0] != farmWant {
		t.Fatalf("output = %v, want %d (must be bit-identical: no double-fold of the duplicated task)", res.Outputs[0], farmWant)
	}
	if res.Speculations != 1 || res.SpeculationWins != 1 {
		t.Fatalf("Speculations = %d, SpeculationWins = %d, want exactly 1 and 1", res.Speculations, res.SpeculationWins)
	}
	if res.Failures != 0 || res.Redispatches != 0 {
		t.Fatalf("Failures = %d, Redispatches = %d, want 0 and 0 (a straggler is slow, not dead)", res.Failures, res.Redispatches)
	}
	if res.FalseSuspicions != 0 {
		t.Fatalf("FalseSuspicions = %d, want 0 (no deadline armed, no verdicts issued)", res.FalseSuspicions)
	}
	if m.FTSpeculations() != res.Speculations || m.FTSpeculationWins() != res.SpeculationWins {
		t.Fatalf("cumulative counters (%d, %d) disagree with run result (%d, %d)",
			m.FTSpeculations(), m.FTSpeculationWins(), res.Speculations, res.SpeculationWins)
	}
}

// BenchmarkStragglerFarm runs the same farm with one worker's every reply
// scripted 10 ms late, speculation off and on at a 1 ms threshold, fault
// tolerance armed alike in both arms (MaxRetries 1, no deadline) so the
// delta is speculation alone. ns/frame is the period at which frames
// complete, from one call of source to the next: off, each fold gates on the
// straggler; on, the master duplicates the stalled task onto an idle worker
// and folds the duplicate's reply, so the period falls to the threshold plus
// a watchdog tick. ns/op is Run's wall time per frame and follows ns/frame:
// a straggler that still owes a reply gets no new task, so Run waits for one
// late reply at the end, not for a backlog of one task per frame
// (TestSpeculationShortensRun asserts it).
func BenchmarkStragglerFarm(b *testing.B) {
	for _, mode := range []struct {
		name  string
		after time.Duration
	}{{"off", -1}, {"on", time.Millisecond}} {
		b.Run(mode.name, func(b *testing.B) {
			r := baseRegistry()
			var first, last time.Time
			before(b, r, "source", func() {
				if last = time.Now(); first.IsZero() {
					first = last
				}
			})
			m, ft := stragglerMachine(b, r, mode.after)
			defer ft.Close()
			b.ResetTimer()
			res, err := m.Run(b.N)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if b.N > 1 {
				b.ReportMetric(float64(last.Sub(first))/float64(b.N-1), "ns/frame")
			}
			for i, out := range res.Outputs {
				if out != farmWant {
					b.Fatalf("iteration %d output = %v, want %d (the healthy fold)", i, out, farmWant)
				}
			}
			switch on := mode.after > 0; {
			case on && res.Speculations < 1:
				b.Fatalf("Speculations = %d over %d iterations, want at least one", res.Speculations, b.N)
			case !on && res.Speculations != 0:
				b.Fatalf("Speculations = %d with speculation disabled, want 0", res.Speculations)
			}
		})
	}
}

// stragglerMachine builds the straggler scenario over registry r: farmSrc on
// ring(8) with one worker's every reply scripted 10 ms late, fault tolerance
// armed (MaxRetries 1, no deadline) and speculation after `after` (negative:
// off). Close the returned transport after the run.
func stragglerMachine(tb testing.TB, r *value.Registry, after time.Duration) (*Machine, *faulttransport.Transport) {
	a := arch.Ring(8)
	s := compile(tb, farmSrc, r, a, syndex.Structured)
	ft := faulttransport.New(memtransport.New(a), faulttransport.Config{
		Faults: map[arch.ProcID]faulttransport.Fault{
			workerOnlyProcs(s)[0]: {SlowEveryNth: 1, SlowFor: 10 * time.Millisecond},
		},
	})
	m := NewMachineOn(s, r, ft, allProcs(a))
	m.FT = FaultTolerance{MaxRetries: 1, SpeculateAfter: after}
	return m, ft
}

// TestSpeculationShortensRun is BenchmarkStragglerFarm's ns/op as an
// assertion: with one worker's every reply 10 ms late, Run with speculation
// must take at most a third of Run without. Speculation only pays if the
// straggler, while it still owes a reply, is handed nothing new — else each
// frame queues it one more task and Run waits out the whole backlog.
func TestSpeculationShortensRun(t *testing.T) {
	run := func(after time.Duration) time.Duration {
		m, ft := stragglerMachine(t, baseRegistry(), after)
		defer ft.Close()
		start := time.Now()
		res, err := m.RunWithTimeout(20, 30*time.Second)
		el := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		for i, out := range res.Outputs {
			if out != farmWant {
				t.Fatalf("iteration %d output = %v, want %d", i, out, farmWant)
			}
		}
		return el
	}
	off, on := run(-1), run(time.Millisecond)
	if 3*on > off {
		t.Fatalf("Run took %v with speculation, %v without: want at most a third", on, off)
	}
}

// heldFrame is a send captured in flight by lateReplyTransport.
type heldFrame struct {
	src, dst arch.ProcID
	key      transport.Key
	v        value.Value
}

// lateReplyTransport holds the victim's first reply until the executive
// condemns the victim, then delivers it immediately before the mark lands —
// the deterministic realization of "the suspected worker was merely slow
// and its reply arrived after the verdict".
type lateReplyTransport struct {
	*chaosWrap
	victim arch.ProcID

	mu    sync.Mutex
	held  *heldFrame
	fired bool
}

func (l *lateReplyTransport) Send(src, dst arch.ProcID, key transport.Key, v value.Value) {
	if src == l.victim {
		if _, isReply := v.(transport.Reply); isReply {
			l.mu.Lock()
			if !l.fired {
				l.fired = true
				l.held = &heldFrame{src: src, dst: dst, key: key, v: v}
				l.mu.Unlock()
				return
			}
			l.mu.Unlock()
		}
	}
	l.chaosWrap.Send(src, dst, key, v)
}

func (l *lateReplyTransport) MarkPeerDown(p arch.ProcID) {
	if p == l.victim {
		l.mu.Lock()
		h := l.held
		l.held = nil
		l.mu.Unlock()
		if h != nil {
			// The verdict races the reply and the reply squeaks in first.
			// Injected as a master-local send (src = dst): re-injecting at the
			// victim would race the verdict's own ProcsDown through the ring's
			// store-and-forward hops, while this models the reply already
			// sitting in the master's mailbox when the verdict lands.
			l.chaosWrap.Send(h.dst, h.dst, h.key, h.v)
		}
	}
	l.chaosWrap.MarkPeerDown(p)
}

// TestFalseSuspicionCounted pins the accounting for a wrong deadline
// verdict: a worker whose same-generation reply arrives after it was
// condemned must be counted as a false suspicion (the operator's signal
// that TaskDeadline is too tight), its reply must still fold exactly once,
// and no redispatch may be charged for a task that in fact completed.
func TestFalseSuspicionCounted(t *testing.T) {
	a := arch.Ring(8)
	s := compile(t, farmSrc, baseRegistry(), a, syndex.Structured)
	victims := workerOnlyProcs(s)
	if len(victims) == 0 {
		t.Fatal("schedule has no worker-only processor")
	}
	inner := memtransport.New(a)
	defer inner.Close()
	lt := &lateReplyTransport{chaosWrap: &chaosWrap{inner: inner}, victim: victims[0]}
	m := NewMachineOn(s, baseRegistry(), lt, allProcs(a))
	// SpeculateAfter < 0 isolates the deadline path under test.
	m.FT = FaultTolerance{MaxRetries: 2, TaskDeadline: 80 * time.Millisecond, SpeculateAfter: -1}
	res, err := m.RunWithTimeout(1, 10*time.Second)
	if err != nil {
		t.Fatalf("run did not survive the false suspicion: %v", err)
	}
	if res.Outputs[0] != farmWant {
		t.Fatalf("output = %v, want %d (the late reply must fold exactly once)", res.Outputs[0], farmWant)
	}
	if res.FalseSuspicions != 1 {
		t.Fatalf("FalseSuspicions = %d, want 1", res.FalseSuspicions)
	}
	if res.Failures != 1 {
		t.Fatalf("Failures = %d, want 1 (the verdict itself still stands)", res.Failures)
	}
	if res.Redispatches != 0 {
		t.Fatalf("Redispatches = %d, want 0 (the task completed; nothing to re-enqueue)", res.Redispatches)
	}
	if m.FTFalseSuspicions() != res.FalseSuspicions {
		t.Fatalf("cumulative counter %d disagrees with run result %d", m.FTFalseSuspicions(), res.FalseSuspicions)
	}
}

// tickCountTransport counts the watchdog's DeadlineTick self-sends.
type tickCountTransport struct {
	*chaosWrap
	ticks atomic.Int64
}

func (c *tickCountTransport) Send(src, dst arch.ProcID, key transport.Key, v value.Value) {
	if _, ok := v.(transport.DeadlineTick); ok {
		c.ticks.Add(1)
	}
	c.chaosWrap.Send(src, dst, key, v)
}

// slowFoldRegistry is baseRegistry with the accumulate function slowed
// down, stretching the master's post-loop deterministic fold — the window
// in which the old watchdog kept ticking (and could even tick after the
// master returned) although nothing was in flight.
func slowFoldRegistry(d time.Duration) *value.Registry {
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "source", Sig: "int -> int list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			n := a[0].(int)
			out := make(value.List, n)
			for i := range out {
				out[i] = i + 1
			}
			return out
		}})
	r.Register(&value.Func{Name: "square", Sig: "int -> int", Arity: 1,
		Fn: func(a []value.Value) value.Value { x := a[0].(int); return x * x }})
	r.Register(&value.Func{Name: "add", Sig: "int -> int -> int", Arity: 2,
		Fn: func(a []value.Value) value.Value {
			time.Sleep(d)
			return a[0].(int) + a[1].(int)
		}})
	return r
}

// TestWatchdogQuiescesWhenIdle is the watchdog regression test: with every
// reply in and the master folding (deterministic mode folds after the
// dispatch loop), the watchdog must stop self-sending DeadlineTicks — and
// none may land after the master returns, where the next iteration's
// master would consume them off the shared reply key. The old watchdog
// ticked unconditionally until its goroutine noticed the stop channel.
func TestWatchdogQuiescesWhenIdle(t *testing.T) {
	a := arch.Ring(8)
	reg := slowFoldRegistry(6 * time.Millisecond)
	s := compile(t, farmSrc, reg, a, syndex.Structured)
	inner := memtransport.New(a)
	defer inner.Close()
	ct := &tickCountTransport{chaosWrap: &chaosWrap{inner: inner}}
	m := NewMachineOn(s, reg, ct, allProcs(a))
	m.DeterministicFarm = true
	m.FT = FaultTolerance{MaxRetries: 2, TaskDeadline: 40 * time.Millisecond, SpeculateAfter: -1}
	res, err := m.RunWithTimeout(2, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if out != farmWant {
			t.Fatalf("iteration %d output = %v, want %d", i, out, farmWant)
		}
	}
	if m.ft == nil {
		t.Fatal("fault tolerance never armed; the watchdog was not under test")
	}
	// Each iteration's tasks complete in microseconds, then the master folds
	// for ~60ms with a 10ms tick interval: the old code sent ~6 idle ticks
	// per iteration, the fixed one sends none (a couple are tolerated for
	// scheduler jitter between dispatch and the replies landing).
	during := ct.ticks.Load()
	if during > 2 {
		t.Fatalf("watchdog sent %d DeadlineTicks while nothing was in flight, want <= 2", during)
	}
	// And strictly none after the run: the master has returned, so any late
	// tick would sit under the shared reply key for a future master.
	time.Sleep(150 * time.Millisecond)
	if after := ct.ticks.Load(); after != during {
		t.Fatalf("watchdog sent %d DeadlineTicks after the run returned", after-during)
	}
}

// taskCountTransport counts farm Task dispatches per destination processor.
type taskCountTransport struct {
	*chaosWrap
	mu    sync.Mutex
	tasks map[arch.ProcID]int
}

func (c *taskCountTransport) Send(src, dst arch.ProcID, key transport.Key, v value.Value) {
	if _, ok := v.(transport.Task); ok {
		c.mu.Lock()
		if c.tasks == nil {
			c.tasks = map[arch.ProcID]int{}
		}
		c.tasks[dst]++
		c.mu.Unlock()
	}
	c.chaosWrap.Send(src, dst, key, v)
}

// chainRegistry drives a tf farm whose frontier never exceeds one task:
// each task spawns exactly one child until the chain bottoms out. With only
// one task in the system at a time, every dispatch is a queue refill — the
// pattern that exposed fill()'s scan-from-0 bias.
func chainRegistry() *value.Registry {
	r := baseRegistry()
	r.Register(&value.Func{Name: "chainstep", Sig: "int -> int list * int list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			k := a[0].(int)
			if k == 0 {
				return value.Tuple{value.List{1}, value.List{}}
			}
			return value.Tuple{value.List{}, value.List{k - 1}}
		}})
	r.Register(&value.Func{Name: "rootof", Sig: "int -> int list", Arity: 1,
		Fn: func(a []value.Value) value.Value { return value.List{a[0].(int)} }})
	return r
}

const chainSrc = `
extern chainstep : int -> int list * int list;;
extern add : int -> int -> int;;
extern rootof : int -> int list;;
let main = tf 4 chainstep add 0 (rootof 16);;
`

// TestFillRotatesAcrossWorkers pins the fill() distribution fix: queue
// refills must rotate round-robin over the live pool instead of always
// rescanning from worker 0. A 17-task chain with exactly one task in the
// system at a time lands every dispatch on the scan's first candidate — a
// scan that restarted at 0 would put all 17 on one worker; the rotation
// spreads them. fill() is the farm's one dispatch policy, so the rotation is
// pinned with the fault-tolerance state armed and without it.
func TestFillRotatesAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name string
		ft   FaultTolerance
	}{
		{"ft-off", FaultTolerance{}},
		{"ft-armed", FaultTolerance{MaxRetries: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := arch.Ring(8)
			reg := chainRegistry()
			s := compile(t, chainSrc, reg, a, syndex.Structured)
			workers := workerOnlyProcs(s)
			if len(workers) < 2 {
				t.Fatalf("schedule maps %d worker-only processors, need >= 2 to observe the distribution", len(workers))
			}
			inner := memtransport.New(a)
			defer inner.Close()
			ct := &taskCountTransport{chaosWrap: &chaosWrap{inner: inner}}
			m := NewMachineOn(s, reg, ct, allProcs(a))
			m.FT = tc.ft
			res, err := m.RunWithTimeout(1, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if res.Outputs[0] != 1 {
				t.Fatalf("output = %v, want 1", res.Outputs[0])
			}
			if armed := m.ft != nil; armed != (tc.ft.MaxRetries > 0) {
				t.Fatalf("fault-tolerance state armed = %v with MaxRetries %d", armed, tc.ft.MaxRetries)
			}
			ct.mu.Lock()
			defer ct.mu.Unlock()
			for _, p := range workers {
				if ct.tasks[p] < 2 {
					t.Fatalf("worker processor %d received %d of 17 chained tasks (distribution %v): refills are not rotating",
						p, ct.tasks[p], ct.tasks)
				}
			}
		})
	}
}

// TestWorkerKillWithoutFTFails pins the default: with fault tolerance off
// no peer-down handler is registered, so a worker death is not silently
// recovered — the run fails (by watchdog here; by transport abort on the
// TCP backend).
func TestWorkerKillWithoutFTFails(t *testing.T) {
	a := arch.Ring(8)
	s := compile(t, farmSrc, baseRegistry(), a, syndex.Structured)
	ft := faulttransport.New(memtransport.New(a), faulttransport.Config{Faults: killSecondReply(workerOnlyProcs(s))})
	defer ft.Close()
	m := NewMachineOn(s, baseRegistry(), ft, allProcs(a))
	if _, err := m.RunWithTimeout(1, 1500*time.Millisecond); err == nil {
		t.Fatal("run succeeded without FT although a worker died mid-farm")
	}
}
