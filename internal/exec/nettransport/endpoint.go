package nettransport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/obsv"
	"skipper/internal/value"
)

// endpoint is the hosted-processor half every process of a deployment runs,
// shared by Client (a node process) and Session (the processors the hub
// process hosts): the mailboxes, delivery off the wire, the local Send fast
// path with its encode and EvSend accounting, the wait for routes, the dead
// set, the failure handler, the first-error record, tracing and counters.
// What differs — where a remote frame goes, which control frames a
// connection may carry and what its end of stream means — stays with the
// owner.
type endpoint struct {
	localSet map[arch.ProcID]bool
	boxes    map[arch.ProcID]*transport.Mailbox
	abort    func() // the owner's Abort, run by failf

	// ready is closed once remote Sends may proceed — the client has the
	// hub's peers map, every processor of the session has attached — and
	// done once the endpoint halts; a remote Send waits for the first, for
	// at most meshWait, and gives up on the second.
	ready    chan struct{}
	done     chan struct{}
	meshWait time.Duration

	// pdFn, when registered via OnPeerDown, switches peer-death handling
	// from abort-the-cluster to contain-and-notify.
	pdMu sync.Mutex
	pdFn transport.PeerDown

	deadMu  sync.Mutex
	dead    map[arch.ProcID]bool
	anyDead atomic.Bool // fast path: skip the dead-map lookup while nobody died

	errMu sync.Mutex
	err   error

	closing   atomic.Bool
	aborted   atomic.Bool
	abortOnce sync.Once

	messages  atomic.Int64
	direct    atomic.Int64
	bytesSent atomic.Int64
	bytesRecv atomic.Int64

	// rec, when set before the run's traffic starts (WithTrace, SetTrace),
	// receives send/recv/abort events; mailbox events are wired through the
	// boxes. Atomic because read loops are alive from Dial/OpenSession on,
	// before the machine gets the chance to arm tracing.
	rec atomic.Pointer[obsv.Recorder]
	kl  transport.KeyLabels
}

func (e *endpoint) init(local []arch.ProcID, meshWait time.Duration, abort func()) {
	e.localSet = map[arch.ProcID]bool{}
	e.boxes = map[arch.ProcID]*transport.Mailbox{}
	for _, p := range local {
		e.localSet[p] = true
		e.boxes[p] = transport.NewMailbox()
	}
	e.abort = abort
	e.ready = make(chan struct{})
	e.done = make(chan struct{})
	e.meshWait = meshWait
	e.dead = map[arch.ProcID]bool{}
}

// errStopRead tells a read loop to exit: the frame it just dispatched was
// an abort, or dispatching it failed the endpoint. Sentinel, not an error to
// report — whoever returns it has already recorded the cause.
var errStopRead = errors.New("nettransport: stop reading")

// readFrames is the backend's one frame-read loop, run on every connection a
// process reads: the client's control connection, its inbound peer
// connections and each node connection on the hub. A data frame for a
// processor hosted here stream-decodes straight off the connection (pixel
// slabs land in their arena image without an intermediate frame buffer);
// anything else is read into an arena buffer and, a batch one sub-frame at a
// time, delivered or handed to dispatch — control frames and data for
// processors not hosted here, which only the owner knows how to treat.
// from, on the hub, is the node connection's liveness record: every frame
// bumps its clock, and once all its processors are declared dead its data
// frames are dropped as stale. The loop returns the error that ended it:
// io.EOF for a clean close between frames, errStopRead when dispatch asked.
func (e *endpoint) readFrames(br *bufio.Reader, from *connState, dispatch func(dst uint32, key transport.Key, payload []byte) error) error {
	frame := func(dst uint32, key transport.Key, payload []byte) error {
		switch {
		case dst < batchDst && e.stale(from): // the control range starts at batchDst
			return nil
		case e.localSet[arch.ProcID(dst)]:
			return e.deliver(arch.ProcID(dst), key, len(payload), nil, payload)
		}
		return dispatch(dst, key, payload)
	}
	for {
		n, dst, key, err := readFrameHeader(br)
		if err != nil {
			return err
		}
		if from != nil {
			from.lastHeard.Store(time.Now().UnixNano())
		}
		if e.localSet[arch.ProcID(dst)] && !e.stale(from) {
			if err := e.deliver(arch.ProcID(dst), key, n-frameHeader, br, nil); err != nil {
				return err
			}
			continue
		}
		fb, payload, err := readPayload(br, n-frameHeader)
		if err != nil {
			return err
		}
		if dst == batchDst {
			err = forEachBatched(payload, frame)
		} else {
			err = frame(dst, key, payload)
		}
		putBuf(fb)
		if err != nil {
			return err
		}
	}
}

// readPayload reads a frame's n payload bytes into an arena buffer; the
// caller putBufs it once the payload is consumed. A frame that takes this
// path (a control frame, a batch) is legitimately at most a batch long, so
// the buffer starts at that size and beyond it grows only as bytes arrive:
// a corrupt or hostile length passes the maxFrame check without making the
// reader allocate it up front.
func readPayload(br *bufio.Reader, n int) (*frameBuf, []byte, error) {
	fb := getBuf(min(n, batchMaxBytes))
	for len(fb.b) < n {
		if len(fb.b) == cap(fb.b) {
			fb.b = slices.Grow(fb.b, min(n, 2*cap(fb.b))-len(fb.b))
		}
		k, err := io.ReadFull(br, fb.b[len(fb.b):min(n, cap(fb.b))])
		fb.b = fb.b[:len(fb.b)+k]
		if err != nil {
			putBuf(fb)
			return nil, nil, fmt.Errorf("nettransport: truncated frame body: %w", err)
		}
	}
	return fb, fb.b, nil
}

// deliver decodes one data frame of n payload bytes into hosted processor
// p's mailbox: straight off the connection when br is set, else from the
// in-memory payload (a batched sub-frame). An error from br leaves it
// mid-frame; the caller must stop reading the connection.
func (e *endpoint) deliver(p arch.ProcID, key transport.Key, n int, br *bufio.Reader, payload []byte) error {
	var v value.Value
	var err error
	if br != nil {
		v, err = value.DecodeStream(br, n)
	} else {
		v, err = value.Decode(payload)
	}
	if err != nil {
		return fmt.Errorf("nettransport: decoding frame for processor %d key %v: %v", p, key, err)
	}
	e.bytesRecv.Add(int64(n))
	if rec := e.rec.Load(); rec != nil {
		rec.Record(int32(p), obsv.EvRecv, e.kl.Of(key), -1, int64(n))
	}
	e.boxes[p].Deliver(key, v)
	return nil
}

// sendLocal is the head of Send on both endpoints. Traffic from or to a
// processor declared dead is dropped uncounted, like loss in flight, and a
// destination hosted here gets the payload by reference, skipping the codec
// exactly as the mem backend does. It reports whether the message was dealt
// with; if not, the owner routes it.
func (e *endpoint) sendLocal(src, dst arch.ProcID, key transport.Key, payload value.Value) bool {
	if e.anyDead.Load() && (e.isDead(src) || e.isDead(dst)) {
		return true
	}
	e.messages.Add(1)
	if !e.localSet[dst] {
		return false
	}
	n := int64(value.SizeOf(payload))
	e.bytesSent.Add(n)
	e.bytesRecv.Add(n)
	if rec := e.rec.Load(); rec != nil {
		id := e.kl.Of(key)
		rec.Record(int32(src), obsv.EvSend, id, int32(dst), n)
		rec.Record(int32(dst), obsv.EvRecv, id, -1, n)
	}
	e.boxes[dst].Deliver(key, payload)
	return true
}

// encode flattens a remote message into a frame and accounts it as sent
// (EvSend carries the wire size). false means encoding failed the endpoint.
func (e *endpoint) encode(src, dst arch.ProcID, key transport.Key, payload value.Value) (outFrame, bool) {
	f, err := encodeMessage(dst, key, payload)
	if err != nil {
		e.failf("nettransport: encoding %v for processor %d: %v", key, dst, err)
		return outFrame{}, false
	}
	wireBytes := int64(len(f.head.b) - 4 - frameHeader + len(f.tail))
	e.bytesSent.Add(wireBytes)
	if rec := e.rec.Load(); rec != nil {
		rec.Record(int32(src), obsv.EvSend, e.kl.Of(key), int32(dst), wireBytes)
	}
	return f, true
}

// wait blocks until the endpoint is ready, it halts, or d elapses, and
// reports whether it is ready.
func (e *endpoint) wait(d time.Duration) bool {
	select {
	case <-e.ready:
		return true
	default:
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-e.ready:
		return true
	case <-e.done:
	case <-t.C:
	}
	return false
}

// awaitRoutes is the wait a remote Send makes before its frame can be
// routed. It is bounded by the mesh-wait timeout (WithMeshWaitTimeout):
// routes only exist once the whole deployment has attached, so an unbounded
// wait would turn one node process that never starts into a silent
// cluster-wide hang. Past the bound the endpoint fails with the diagnostic
// late (a format taking the timeout); false means the Send must give up.
func (e *endpoint) awaitRoutes(late string) bool {
	if e.wait(e.meshWait) {
		return true
	}
	if !e.aborted.Load() {
		e.failf(late, e.meshWait)
	}
	return false
}

// halt runs once per endpoint, from whichever of Abort, Sever or Close gets
// there first: it flags the endpoint aborted, wakes every Send waiting for
// routes, runs notify (the owner's best-effort abort broadcast, if any) and
// releases the mailboxes — draining what they hold, or with kill dropping it.
// aborted is set before notify so a broadcast that fails inline cannot
// re-enter Abort through a write-error handler.
func (e *endpoint) halt(notify func(), kill bool) {
	e.abortOnce.Do(func() {
		e.aborted.Store(true)
		close(e.done)
		if notify != nil {
			notify()
		}
		for _, b := range e.boxes {
			if kill {
				b.Kill()
			} else {
				b.Close()
			}
		}
	})
}

func (e *endpoint) failf(format string, args ...any) {
	e.errMu.Lock()
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
	e.errMu.Unlock()
	if rec := e.rec.Load(); rec != nil {
		rec.Record(-1, obsv.EvAbort, 0, -1, 0)
	}
	e.abort()
}

// OnPeerDown registers the executive's failure handler, switching peer
// death from abort-the-cluster to contain-and-notify. Register before the
// run's traffic starts.
func (e *endpoint) OnPeerDown(fn transport.PeerDown) {
	e.pdMu.Lock()
	e.pdFn = fn
	e.pdMu.Unlock()
}

// handler returns the registered failure handler, nil if none.
func (e *endpoint) handler() transport.PeerDown {
	e.pdMu.Lock()
	defer e.pdMu.Unlock()
	return e.pdFn
}

// peersDown records procs as dead — a processor hosted here gets its
// mailbox killed so its blocked ops unwind at once — and, with notify, hands
// the ones not already known dead to the failure handler. It returns those.
func (e *endpoint) peersDown(procs []arch.ProcID, notify bool) []arch.ProcID {
	e.deadMu.Lock()
	var fresh []arch.ProcID
	for _, p := range procs {
		if !e.dead[p] {
			e.dead[p] = true
			fresh = append(fresh, p)
		}
	}
	e.deadMu.Unlock()
	if len(fresh) == 0 {
		return nil
	}
	e.anyDead.Store(true)
	for _, p := range fresh {
		if box, ok := e.boxes[p]; ok {
			box.Kill()
		}
	}
	if fn := e.handler(); notify && fn != nil {
		fn(fresh)
	}
	return fresh
}

// isDead reports whether p has been declared dead.
func (e *endpoint) isDead(p arch.ProcID) bool {
	if !e.anyDead.Load() {
		return false
	}
	e.deadMu.Lock()
	defer e.deadMu.Unlock()
	return e.dead[p]
}

// stale reports whether every processor behind the hub-side connection from
// has been declared dead: a deadline-suspected node may still be running,
// and anything it sends after the verdict is dropped. Always false off the
// hub (from == nil).
func (e *endpoint) stale(from *connState) bool {
	if from == nil || !e.anyDead.Load() {
		return false
	}
	e.deadMu.Lock()
	defer e.deadMu.Unlock()
	for _, p := range from.procs {
		if !e.dead[p] {
			return false
		}
	}
	return len(from.procs) > 0
}

// SetTrace arms event recording on r: send/recv with byte sizes here,
// enqueue/park/wake through the mailboxes. Call before traffic starts.
func (e *endpoint) SetTrace(r *obsv.Recorder) {
	e.kl.Reset(r)
	e.rec.Store(r)
	for p, b := range e.boxes {
		b.SetTrace(r, int32(p), &e.kl)
	}
}

// QueueDepth reports the total delivered-but-unconsumed values across the
// hosted processors' mailboxes (a point-in-time gauge for metrics).
func (e *endpoint) QueueDepth() int {
	n := 0
	for _, b := range e.boxes {
		n += b.Depth()
	}
	return n
}

// Recv blocks on a hosted processor's mailbox.
func (e *endpoint) Recv(p arch.ProcID, key transport.Key) (value.Value, bool) {
	return e.boxes[p].Recv(key)
}

// Receiver returns the mailbox slot for (p, key).
func (e *endpoint) Receiver(p arch.ProcID, key transport.Key) transport.Receiver {
	return e.boxes[p].Slot(key)
}

// Err reports the first failure, or nil.
func (e *endpoint) Err() error {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	return e.err
}

// Stats reports messages injected by hosted processors, how many frames
// went point to point over the peer mesh (a client's; the hub's frames ride
// the control connections, already one hop) and payload volume; safe to
// call concurrently with traffic. Hops is always zero: nothing relays.
func (e *endpoint) Stats() transport.Stats {
	return transport.Stats{
		Messages:  e.messages.Load(),
		Direct:    e.direct.Load(),
		BytesSent: e.bytesSent.Load(),
		BytesRecv: e.bytesRecv.Load(),
	}
}
