// Package obsv is the observability layer of the executive: a lock-light
// event recorder the Machine and both transports write into, trace export
// (Chrome trace_event JSON, measured chronogram SVG), Prometheus-style
// metrics and the debug HTTP endpoints.
//
// The recorder is built for the executive's hot path: one ring buffer per
// processor, fixed-size event structs, a single atomic add to reserve a
// slot, timestamps from the monotonic clock and interned string labels —
// no allocation per event. A nil *Recorder is valid everywhere and every
// recording call on it compiles down to one branch, so instrumented code
// pays nothing when tracing is off.
//
// The package deliberately depends only on the standard library: it sits
// below transport, exec, sim and distrib, all of which feed it.
package obsv

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind enumerates the recorded event types.
type EventKind uint8

const (
	// EvOpStart/EvOpEnd bracket one executive operation (or one farm-worker
	// task computation); Arg carries the iteration (or task index).
	EvOpStart EventKind = iota + 1
	EvOpEnd
	// EvSend/EvRecv are transport-level message injection and delivery;
	// Arg carries the payload size in bytes, Peer the destination (send)
	// processor.
	EvSend
	EvRecv
	// EvEnqueue is a mailbox delivery; Arg carries the queue depth after
	// the append.
	EvEnqueue
	// EvPark/EvWake bracket a blocking mailbox receive.
	EvPark
	EvWake
	// EvAbort marks a transport failure-driven abort.
	EvAbort
	// EvPeerDown marks the detected death of a remote process: Proc is the
	// processor declared dead, recorded by each surviving process when its
	// transport surfaces the failure.
	EvPeerDown
	// EvRedispatch marks a farm master re-enqueueing a task whose worker
	// died or whose deadline fired; Proc is the master's processor, Arg the
	// task index.
	EvRedispatch
	// EvDegrade marks a farm task exhausting its retry budget: the run is
	// about to fail rather than re-dispatch again. Arg is the task index.
	EvDegrade
	// EvCancel marks a caller-initiated abort of the executive (DELETE on a
	// serve job, Machine.Cancel).
	EvCancel
	// EvRequeue marks the serve scheduler re-running a job from scratch
	// after a worker death; Arg is the attempt number being retired.
	EvRequeue
	// EvStageHand marks a pipelined itermem stage finishing its op block for
	// one frame and handing the baton on; Peer is the stage index, Arg the
	// iteration, and the event's TS minus the previous stage's hand-off
	// yields the per-stage frame latency.
	EvStageHand
	// EvSpeculate marks a farm master duplicating a slow task onto an idle
	// worker (DESIGN.md §11): the original worker is not suspected dead, the
	// first valid same-generation reply will win. Proc is the master's
	// processor, Peer the processor the duplicate was placed on, Arg the
	// task index. Appended after the fault range EvAbort..EvRequeue —
	// speculation is proactive straggler mitigation, not a failure signal,
	// so it must not trigger flight-recorder dumps.
	EvSpeculate
	// EvSpecWin marks a speculative duplicate's reply arriving before the
	// original's — the duplication paid off. Proc is the master's processor,
	// Peer the winning worker's processor, Arg the task index.
	EvSpecWin
)

var kindNames = [...]string{
	EvOpStart: "op-start", EvOpEnd: "op-end",
	EvSend: "send", EvRecv: "recv",
	EvEnqueue: "enqueue", EvPark: "park", EvWake: "wake",
	EvAbort:    "abort",
	EvPeerDown: "peer-down", EvRedispatch: "redispatch",
	EvDegrade: "degrade", EvCancel: "cancel", EvRequeue: "requeue",
	EvStageHand: "stage-hand",
	EvSpeculate: "speculate", EvSpecWin: "spec-win",
}

// IsFault reports whether k is one of the failure-signal kinds that the
// flight recorder treats as a dump trigger. The fault kinds occupy a
// contiguous range so the recorder's hot path pays two compares.
func (k EventKind) IsFault() bool { return k >= EvAbort && k <= EvRequeue }

func (k EventKind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one fixed-size trace record. TS is nanoseconds since the
// recorder's epoch on the local monotonic clock; Label indexes the
// recorder's interned label table; Peer is the counterpart processor of a
// communication (-1 when not applicable); Arg is kind-specific (bytes,
// queue depth, iteration).
type Event struct {
	TS    int64     `json:"ts"`
	Arg   int64     `json:"a"`
	Label uint32    `json:"l"`
	Proc  int32     `json:"p"`
	Peer  int32     `json:"q"`
	Kind  EventKind `json:"k"`
}

// procRing is one processor's event ring. The write index is reserved with
// a single atomic add, so several goroutines running on behalf of the same
// processor (its op loop, its farm workers, a sender delivering into its
// mailbox) can record concurrently without excluding each other; when the
// ring wraps the oldest events are overwritten and counted as dropped.
type procRing struct {
	n    atomic.Uint64
	mask uint64
	ev   []Event
}

// DefaultRingSize is the per-processor event capacity (power of two).
const DefaultRingSize = 1 << 16

// Recorder collects events for the processors of one OS process.
type Recorder struct {
	epoch     time.Time
	epochUnix int64
	rings     []procRing
	faultHook atomic.Pointer[func(EventKind)]

	// ringMu is a turnstile between live recording and ring copies:
	// Record holds the read side (shared, an uncontended atomic in the
	// common case), Snapshot the write side. Without it a flight dump or
	// live job-trace snapshot racing the hot path could copy a
	// half-stored event.
	ringMu sync.RWMutex

	mu       sync.Mutex
	labels   []string
	labelIdx map[string]uint32
}

// NewRecorder builds a recorder for procs processors with the given
// per-processor ring capacity (rounded up to a power of two; <= 0 uses
// DefaultRingSize).
func NewRecorder(procs, capacity int) *Recorder {
	if procs < 1 {
		procs = 1
	}
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	now := time.Now()
	r := &Recorder{
		epoch:     now,
		epochUnix: now.UnixNano(),
		rings:     make([]procRing, procs),
		labels:    []string{""},
		labelIdx:  map[string]uint32{"": 0},
	}
	for i := range r.rings {
		r.rings[i].ev = make([]Event, size)
		r.rings[i].mask = uint64(size - 1)
	}
	return r
}

// Intern returns the stable id of label, registering it on first use. Safe
// for concurrent use; a nil recorder returns 0. Not for per-event hot
// paths — intern once and reuse the id (see transport.KeyLabels).
func (r *Recorder) Intern(label string) uint32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.labelIdx[label]; ok {
		return id
	}
	id := uint32(len(r.labels))
	r.labels = append(r.labels, label)
	r.labelIdx[label] = id
	return id
}

// Record appends one event to proc's ring and returns its timestamp
// (nanoseconds since the recorder epoch). The hot path: one monotonic
// clock read, the shared side of the snapshot turnstile, one atomic add,
// one struct store — no allocation, and the only blocking is against an
// in-flight Snapshot. A nil recorder records nothing and returns 0.
func (r *Recorder) Record(proc int32, kind EventKind, label uint32, peer int32, arg int64) int64 {
	if r == nil {
		return 0
	}
	ts := int64(time.Since(r.epoch))
	ring := &r.rings[0]
	if proc >= 0 && int(proc) < len(r.rings) {
		ring = &r.rings[proc]
	}
	r.ringMu.RLock()
	i := ring.n.Add(1) - 1
	ring.ev[i&ring.mask] = Event{TS: ts, Kind: kind, Proc: proc, Peer: peer, Label: label, Arg: arg}
	r.ringMu.RUnlock()
	if kind.IsFault() {
		if hook := r.faultHook.Load(); hook != nil {
			(*hook)(kind)
		}
	}
	return ts
}

// SetFaultHook installs fn to be called (on the recording goroutine)
// whenever a fault-kind event lands in the ring. The flight recorder uses
// it to trigger an asynchronous auto-dump; fn must therefore be cheap and
// non-blocking. A nil recorder ignores the call; fn == nil clears the hook.
func (r *Recorder) SetFaultHook(fn func(EventKind)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.faultHook.Store(nil)
		return
	}
	r.faultHook.Store(&fn)
}

// Now returns nanoseconds since the recorder epoch (0 for a nil recorder),
// for callers that need a timestamp consistent with recorded events.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Dropped reports how many events were overwritten by ring wrap-around.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	var d int64
	for i := range r.rings {
		n := r.rings[i].n.Load()
		if c := uint64(len(r.rings[i].ev)); n > c {
			d += int64(n - c)
		}
	}
	return d
}

// Snapshot copies the recorded events into a Trace, globally sorted by
// timestamp. Safe on a live recorder — the flight recorder and serve's
// mid-run job traces depend on that — though events recorded while the
// copy holds the turnstile land after it and are simply not included.
func (r *Recorder) Snapshot() *Trace {
	if r == nil {
		return nil
	}
	tr := &Trace{
		Schema:        TraceSchema,
		NProcs:        len(r.rings),
		EpochUnixNano: r.epochUnix,
		Dropped:       r.Dropped(),
	}
	r.mu.Lock()
	tr.Labels = append([]string(nil), r.labels...)
	r.mu.Unlock()
	r.ringMu.Lock()
	for i := range r.rings {
		ring := &r.rings[i]
		n := ring.n.Load()
		c := uint64(len(ring.ev))
		if n <= c {
			tr.Events = append(tr.Events, ring.ev[:n]...)
			continue
		}
		// Wrapped: oldest surviving event first.
		start := n & ring.mask
		tr.Events = append(tr.Events, ring.ev[start:]...)
		tr.Events = append(tr.Events, ring.ev[:start]...)
	}
	r.ringMu.Unlock()
	sort.SliceStable(tr.Events, func(a, b int) bool { return tr.Events[a].TS < tr.Events[b].TS })
	return tr
}
