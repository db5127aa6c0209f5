// Package nettransport is the multi-process communication backend of the
// executive: each OS process hosts a subset of the architecture's
// processors and exchanges length-prefixed binary frames over TCP. The
// topology splits into two planes (DESIGN.md §9):
//
//   - control plane: the coordinator process runs a FleetHub that listens
//     and, per deployment, a Session that validates handshakes (schedule
//     fingerprint, processor claims), brokers the peer address map,
//     broadcasts cluster-wide aborts and deaths, and hosts the
//     coordinator's own processors;
//   - data plane: once every processor is attached the hub distributes
//     the address map of every node's peer listener and node↔node frames
//     travel one TCP hop, point to point. The hub routes nothing: frames
//     to and from hub-hosted processors ride the control connection, which
//     is already a single hop, and a remote Send waits until the deployment
//     has attached instead of parking frames.
//
// Node (Client) and hub (Session) host their processors through the same
// endpoint, and every connection is read by one loop. Readers always drain
// into unbounded mailboxes, so the network never backpressures into a
// deadlock (the same argument that makes the paper's store-and-forward
// executive deadlock-free). The hot path is
// allocation-free: frame buffers come from a shared sync.Pool arena,
// payload encoding is presized via value.EncodeSize, raw pixel slabs are
// shipped by reference through vectored writes (value.EncodeTrailing), and
// each connection coalesces queued frames into a single writev.
package nettransport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
	"skipper/internal/obsv"
	"skipper/internal/value"
)

// Process-wide batching telemetry, exported to /metrics via BatchStats: how
// often the writer coalesced a multi-frame backlog into one drain, and how
// many sub-frames those drains carried. Unconditional (two atomic adds per
// coalesced drain, nothing per lone frame), so the series exists whether or
// not a recorder is armed.
var (
	batchFlushes   atomic.Int64
	batchSubFrames atomic.Int64
)

// BatchStats reports the cumulative coalesced-drain count and the total
// sub-frames those drains carried, across every connection of the process.
func BatchStats() (flushes, subFrames int64) {
	return batchFlushes.Load(), batchSubFrames.Load()
}

const (
	// magic opens every handshake: "SKiP".
	magic = 0x534b6950
	// wireVersion is bumped on any incompatible change to the frame format
	// or to a protocol the frames carry.
	// Version 2: peer-to-peer data plane (hello carries a data-listener
	// address, peers/detach control frames).
	// Version 3: the hello reply's accept branch carries the hub's wall
	// clock, so each node can estimate its clock offset for trace alignment.
	// Version 4: fault tolerance — heartbeat and peer-down control frames,
	// and farm Task/Reply payloads carry a dispatch generation.
	// Version 5: frame batching (batchDst frames whose payload is a run of
	// complete frames) and unix-scheme data-plane addresses in the hello.
	// Version 6: shared-memory upgrade — the hello and peer hello carry an
	// optional shm ring-segment request, the hello reply acknowledges it,
	// and an upgraded connection moves its frame stream into the mmap'd
	// slab ring while the socket degrades to a doorbell (DESIGN.md §9).
	// Version 7: same frames, new farm protocol — a master sends its
	// workers one Sentinel per run, not one per frame. A version-6 worker
	// would wait for sentinels that never come, so the handshake refuses it.
	wireVersion = 7
	// abortDst is a control frame that propagates Abort across processes.
	abortDst = 0xffffffff
	// peersDst is a hub→node control frame carrying the address map of
	// every node's peer data listener.
	peersDst = 0xfffffffe
	// detachDst is a node→hub control frame announcing a clean shutdown.
	// A connection that hits EOF without a preceding detach is a node
	// death: the hub aborts the cluster, or — when a peer-down handler is
	// registered — contains the failure and notifies the executive.
	detachDst = 0xfffffffd
	// heartbeatDst is a node→hub control frame proving liveness. A hub
	// running with a heartbeat interval declares a connection dead when no
	// frame (heartbeat or data) has arrived for several intervals, catching
	// silent deaths TCP would take minutes to surface.
	heartbeatDst = 0xfffffffc
	// peerDownDst is a hub→node control frame listing processors whose
	// process died; surviving nodes mark them dead and notify the executive.
	peerDownDst = 0xfffffffb
	// batchDst marks a batch frame: its payload is a concatenation of
	// complete frames (each with its own length prefix and routing header),
	// coalesced by the writer so a burst of small frames costs the receiver
	// one length-prefixed read instead of one per frame. Batches never nest.
	batchDst = 0xfffffffa
	// maxFrame bounds a declared frame length before allocation: a corrupt
	// or hostile peer cannot make us allocate more than this per frame.
	maxFrame = 256 << 20
	// batchFragMax is the largest individual frame the writer will fold into
	// a batch: big frames (pixel slabs) already amortize their syscall and
	// would only delay the batch's first byte.
	batchFragMax = 16 << 10
	// batchMaxBytes caps a batch frame's total payload, bounding the
	// receive-side arena buffer a burst can demand.
	batchMaxBytes = 1 << 20
	// frameHeader is dst + key (kind, edge, farm, widx) in bytes.
	frameHeader = 4 + 1 + 4 + 4 + 4
	// maxPooled caps the buffers the frame arena retains: anything larger
	// (a degenerate giant frame) is left for the GC rather than pinned.
	maxPooled = 4 << 20
	// readBufSize is each connection reader's bufio buffer. Frame headers
	// and scalar frames are absorbed in one fill; pixel slabs — larger than
	// the buffer — bypass it once it drains and are read straight into their
	// destination (value.DecodeStream), so only a slab's first buffered
	// bytes are ever copied twice on the read side.
	readBufSize = 8 << 10
	// flushTimeout bounds how long a teardown waits for a connection's
	// queued frames to drain before closing it anyway.
	flushTimeout = 5 * time.Second
)

// defaultMeshWaitTimeout bounds how long a remote Send waits for the
// deployment to attach — a node for the hub's peers frame, the hub for its
// session's last node. A node process that never starts would otherwise
// hang every sender silently; past the deadline the cluster fails with a
// diagnostic instead. Per endpoint (WithMeshWaitTimeout), not a package
// var: tests tuning it must not race other endpoints.
const defaultMeshWaitTimeout = 30 * time.Second

// frameBuf is one arena buffer. The pool stores *frameBuf rather than
// []byte so Put never heap-allocates a slice header.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// getBuf returns an arena buffer with zero length and at least n capacity.
func getBuf(n int) *frameBuf {
	fb := framePool.Get().(*frameBuf)
	if cap(fb.b) < n {
		fb.b = make([]byte, 0, n)
	}
	fb.b = fb.b[:0]
	return fb
}

// putBuf recycles an arena buffer. nil and oversized buffers are dropped.
func putBuf(fb *frameBuf) {
	if fb == nil || cap(fb.b) > maxPooled {
		return
	}
	framePool.Put(fb)
}

// outFrame is one frame queued for writing: head holds the length prefix,
// routing header and leading payload bytes (owned by the arena, returned
// after the write); tail optionally references a trailing raw slab — a
// pixel plane borrowed from the payload value — that is shipped by a
// vectored write without ever being copied.
type outFrame struct {
	head *frameBuf
	tail []byte
}

// capture folds the borrowed tail into the owned head buffer. Called
// before a frame is parked in a writer queue, so the transport never
// holds a reference into caller memory past Send: a sender may recycle a
// payload's buffers as soon as Send returns. The head was presized for the
// full frame (value.EncodeSize), so this append does not allocate.
func (f *outFrame) capture() {
	if len(f.tail) > 0 {
		f.head.b = append(f.head.b, f.tail...)
		f.tail = nil
	}
}

var zeroKey [frameHeader - 4]byte

// appendHeader appends the routing header (dst + key) to buf. The 4-byte
// length prefix must already be reserved by the caller.
func appendHeader(buf []byte, dst uint32, key transport.Key) []byte {
	buf = binary.BigEndian.AppendUint32(buf, dst)
	buf = append(buf, key.Kind)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(key.Edge)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(key.Farm)))
	return binary.BigEndian.AppendUint32(buf, uint32(int32(key.Widx)))
}

// encodeMessage builds the frame for (dst, key, v): an arena head buffer
// presized from value.EncodeSize plus, for payloads with a raw-slab fast
// path, a borrowed tail. In the steady state (reused arena buffer, sized
// codec) this performs zero heap allocations.
func encodeMessage(dst arch.ProcID, key transport.Key, v value.Value) (outFrame, error) {
	hint := 4 + frameHeader + 64
	if n := value.EncodeSize(v); n >= 0 {
		hint = 4 + frameHeader + n
	}
	fb := getBuf(hint)
	buf := append(fb.b, 0, 0, 0, 0) // length prefix, backpatched below
	buf = appendHeader(buf, uint32(dst), key)
	head, tail, err := value.EncodeTrailing(buf, v)
	if err != nil {
		fb.b = buf
		putBuf(fb)
		return outFrame{}, err
	}
	n := len(head) - 4 + len(tail)
	if n > maxFrame {
		fb.b = head
		putBuf(fb)
		return outFrame{}, fmt.Errorf("nettransport: frame length %d exceeds limit", n)
	}
	binary.BigEndian.PutUint32(head, uint32(n))
	fb.b = head
	return outFrame{head: fb, tail: tail}, nil
}

// controlFrame builds a zero-key control frame (abort, detach, peers map).
func controlFrame(dst uint32, payload []byte) outFrame {
	fb := getBuf(4 + frameHeader + len(payload))
	buf := binary.BigEndian.AppendUint32(fb.b, uint32(frameHeader+len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, dst)
	buf = append(buf, zeroKey[:]...)
	fb.b = append(buf, payload...)
	return outFrame{head: fb}
}

// readFrameHeader reads one frame's length prefix and routing header,
// leaving the payload (n - frameHeader bytes) unread on br. The split lets
// the read loop choose per frame between reading the payload into an arena
// buffer (readPayload — control frames, batches) and stream-decoding it
// straight into its final value (value.DecodeStream, the zero-copy path for
// pixel slabs bound for a local mailbox). io.EOF is returned verbatim on a
// clean close between frames.
func readFrameHeader(br *bufio.Reader) (n int, dst uint32, key transport.Key, err error) {
	var hdr [4 + frameHeader]byte
	if _, err = io.ReadFull(br, hdr[:4]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("nettransport: truncated frame length")
		}
		return
	}
	ln := binary.BigEndian.Uint32(hdr[:4])
	if ln < frameHeader || ln > maxFrame {
		err = fmt.Errorf("nettransport: frame length %d out of range", ln)
		return
	}
	if _, err = io.ReadFull(br, hdr[4:]); err != nil {
		err = fmt.Errorf("nettransport: truncated frame body: %w", err)
		return
	}
	n = int(ln)
	dst = binary.BigEndian.Uint32(hdr[4:])
	key = transport.Key{
		Kind: hdr[8],
		Edge: graph.EdgeID(int32(binary.BigEndian.Uint32(hdr[9:]))),
		Farm: graph.NodeID(int32(binary.BigEndian.Uint32(hdr[13:]))),
		Widx: int(int32(binary.BigEndian.Uint32(hdr[17:]))),
	}
	return
}

// wire is what a wconn writes to: a net.Conn, or an shm-upgraded
// connection whose Write lands frames in the mapped slab ring instead of
// the kernel. Everything the write side of the backend needs — streaming
// writes, a bounded teardown flush, a close that unblocks a stuck writer —
// is in this surface; net.Buffers.WriteTo discovers writev on real
// sockets through its own dynamic check, so the narrowing costs nothing.
type wire interface {
	io.Writer
	Close() error
	SetWriteDeadline(t time.Time) error
}

// writeBuffers is the wconn's vectored write: on an shm connection the
// gathered buffers land in the slab with one consumer wakeup at the end
// (an interim wake per buffer would cost a scheduler handoff per message);
// on a socket, net.Buffers discovers writev through its own dynamic check.
// Advances the elements of bufs either way — callers reset it after.
func writeBuffers(c wire, bufs net.Buffers) error {
	if sc, ok := c.(*shmConn); ok {
		return sc.writev(bufs)
	}
	_, err := bufs.WriteTo(c)
	return err
}

// wconn owns all writes on one connection. Senders enqueue frames and never
// block on the socket; a dedicated writer drains the whole queue into a
// single vectored write (net.Buffers → writev), so bursts of frames —
// a master scattering tasks, a peer-down broadcast — coalesce into one syscall
// and raw payload tails are written straight from the payload value's
// memory. Head buffers return to the arena after the write.
type wconn struct {
	c     wire
	onErr func(error) // invoked once, from the writer, on a write failure

	// noBatch disables batch-frame wrapping: on a shared-memory ring there
	// is no syscall for a batch to amortize — every frame is a memcpy into
	// the slab either way — so the wrap would spend a header and a
	// capture-copy per burst to save nothing. Queued frames still drain in
	// one writer pass; they just go out back-to-back instead of nested.
	noBatch bool

	// rec, when non-nil, points at the owning Client/Session's recorder
	// slot: the writer loop loads it per drain to record batch-flush and
	// shm-ring telemetry events. A pointer to the atomic slot (not a copy)
	// so connections built before SetTrace see the arming.
	rec *atomic.Pointer[obsv.Recorder]
	// lastRings is the doorbell-ring count already reported as EvDoorbell
	// events, so each drain records only the delta. Writer-loop only.
	lastRings int64

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []outFrame
	writing bool  // a write (inline or batch) is on the wire
	closed  bool  // flushClose called: drain queue, then exit
	err     error // first write error; queued and future frames are dropped

	done chan struct{} // writer exited
}

func newWConn(c wire, onErr func(error), rec *atomic.Pointer[obsv.Recorder]) *wconn {
	_, shm := c.(*shmConn)
	w := &wconn{c: c, onErr: onErr, noBatch: shm, rec: rec, done: make(chan struct{})}
	w.cond = sync.NewCond(&w.mu)
	go w.writeLoop()
	return w
}

// recorder resolves the armed recorder, if any. Never called on the inline
// send fast path — only from the writer loop's batch drains.
func (w *wconn) recorder() *obsv.Recorder {
	if w.rec == nil {
		return nil
	}
	return w.rec.Load()
}

// send ships one frame. When the connection is idle (nothing queued, no
// write in flight) the frame goes straight to the socket from the calling
// goroutine — the latency fast path, saving a writer wakeup per frame.
// Otherwise it is enqueued and the writer coalesces the backlog into one
// vectored write once the wire frees up. After a write error or flushClose
// the frame is dropped and its head returned to the arena (the connection
// is dead or detaching; frame loss past that point is equivalent to loss
// in flight).
func (w *wconn) send(f outFrame) error {
	w.mu.Lock()
	if w.err != nil || w.closed {
		err := w.err
		w.mu.Unlock()
		putBuf(f.head)
		if err == nil {
			err = net.ErrClosed
		}
		return err
	}
	if !w.writing && len(w.queue) == 0 {
		w.writing = true
		w.mu.Unlock()
		var err error
		if len(f.tail) > 0 {
			if sc, ok := w.c.(*shmConn); ok {
				// Two-buffer fast path: no net.Buffers slice to heap-box.
				err = sc.writev2(f.head.b, f.tail)
			} else {
				bufs := net.Buffers{f.head.b, f.tail}
				_, err = bufs.WriteTo(w.c)
			}
		} else {
			_, err = w.c.Write(f.head.b)
		}
		putBuf(f.head)
		w.mu.Lock()
		w.writing = false
		w.mu.Unlock()
		w.cond.Signal() // backlog may have built up, or flushClose may be waiting
		if err != nil {
			w.fail(err)
		}
		return err
	}
	f.capture()
	w.queue = append(w.queue, f)
	w.mu.Unlock()
	w.cond.Signal()
	return nil
}

// enqueue parks one frame on the writer queue and never touches the socket
// from the calling goroutine. send's inline fast path can block on the wire
// and, on failure, invokes onErr synchronously — so enqueue is the way to
// ship a frame that a stalled or dying connection must not hold up (a
// heartbeat; a peer-down broadcast, which includes the dead node's own
// connection). Any write error surfaces later, from the writer goroutine.
// Frames enqueued after a failure or flushClose are dropped, exactly as in
// send.
func (w *wconn) enqueue(f outFrame) {
	w.mu.Lock()
	if w.err != nil || w.closed {
		w.mu.Unlock()
		putBuf(f.head)
		return
	}
	f.capture()
	w.queue = append(w.queue, f)
	w.mu.Unlock()
	w.cond.Signal()
}

func (w *wconn) writeLoop() {
	defer close(w.done)
	var batch []outFrame
	var bufs net.Buffers
	for {
		w.mu.Lock()
		// Proceed when a batch is writable (frames queued, wire free) or it
		// is time to exit (failed, or closed with everything drained).
		for {
			canWrite := len(w.queue) > 0 && !w.writing
			exit := w.err != nil || (w.closed && len(w.queue) == 0 && !w.writing)
			if canWrite || exit {
				break
			}
			w.cond.Wait()
		}
		if w.err != nil || (w.closed && len(w.queue) == 0 && !w.writing) {
			w.mu.Unlock()
			return
		}
		batch, w.queue = w.queue, batch[:0]
		w.writing = true
		w.mu.Unlock()

		// A run of small frames is wrapped into one length-delimited batch
		// frame: the receiver then pays one prefixed read for the whole
		// burst instead of one per frame. Lone and oversized frames go out
		// bare (the inline fast path in send never sees a batch either).
		bufs = bufs[:0]
		var hdr *frameBuf
		if n := batchableBytes(batch); n > 0 && !w.noBatch {
			hdr = getBuf(4 + frameHeader)
			b := binary.BigEndian.AppendUint32(hdr.b, uint32(frameHeader+n))
			b = binary.BigEndian.AppendUint32(b, batchDst)
			hdr.b = append(b, zeroKey[:]...)
			bufs = append(bufs, hdr.b)
		}
		for _, f := range batch {
			bufs = append(bufs, f.head.b)
			if len(f.tail) > 0 {
				bufs = append(bufs, f.tail)
			}
		}
		nsub := len(batch)
		err := writeBuffers(w.c, bufs)
		putBuf(hdr)
		for i, f := range batch {
			putBuf(f.head)
			batch[i] = outFrame{}
		}
		if err == nil && nsub >= 2 {
			// A coalesced drain — wrapped in a batch frame on sockets, written
			// back-to-back on shm — is the event the batching telemetry counts.
			batchFlushes.Add(1)
			batchSubFrames.Add(int64(nsub))
			if r := w.recorder(); r != nil {
				r.Record(-1, obsv.EvBatchFlush, 0, -1, int64(nsub))
			}
		}
		if err == nil {
			if sc, ok := w.c.(*shmConn); ok {
				if r := w.recorder(); r != nil {
					r.Record(-1, obsv.EvRingOcc, 0, -1, sc.outOccupancy())
					if rings := sc.bellRings.Load(); rings > w.lastRings {
						r.Record(-1, obsv.EvDoorbell, 0, -1, rings)
						w.lastRings = rings
					}
				}
			}
		}
		w.mu.Lock()
		w.writing = false
		w.mu.Unlock()
		if err != nil {
			w.fail(err)
			return
		}
	}
}

// batchableBytes reports the total wire bytes of batch if it should be
// wrapped in a batch frame — at least two frames, none above batchFragMax,
// batchMaxBytes in total — and 0 otherwise.
func batchableBytes(batch []outFrame) int {
	if len(batch) < 2 {
		return 0
	}
	total := 0
	for _, f := range batch {
		n := len(f.head.b) + len(f.tail)
		if n > batchFragMax {
			return 0
		}
		total += n
	}
	if total > batchMaxBytes {
		return 0
	}
	return total
}

// forEachBatched walks the complete frames packed into a batch frame's
// payload, invoking fn with each sub-frame's destination, key and payload.
// Sub-frame payloads alias the batch buffer: consumers must decode or copy
// before returning, never retain. Nested batches and truncated sub-frames
// are framing errors.
func forEachBatched(payload []byte, fn func(dst uint32, key transport.Key, payload []byte) error) error {
	for len(payload) > 0 {
		if len(payload) < 4 {
			return fmt.Errorf("nettransport: truncated batch sub-frame length")
		}
		n := binary.BigEndian.Uint32(payload)
		if n < frameHeader || uint64(n) > uint64(len(payload)-4) {
			return fmt.Errorf("nettransport: batch sub-frame length %d out of range", n)
		}
		raw := payload[4 : 4+n]
		dst := binary.BigEndian.Uint32(raw)
		if dst == batchDst {
			return fmt.Errorf("nettransport: nested batch frame")
		}
		key := transport.Key{
			Kind: raw[4],
			Edge: graph.EdgeID(int32(binary.BigEndian.Uint32(raw[5:]))),
			Farm: graph.NodeID(int32(binary.BigEndian.Uint32(raw[9:]))),
			Widx: int(int32(binary.BigEndian.Uint32(raw[13:]))),
		}
		if err := fn(dst, key, raw[frameHeader:]); err != nil {
			return err
		}
		payload = payload[4+n:]
	}
	return nil
}

// fail records the first write error, drops the queue and notifies onErr
// (once: a concurrent inline and batch write can both error).
func (w *wconn) fail(err error) {
	w.mu.Lock()
	first := w.err == nil
	if first {
		w.err = err
	}
	dropped := w.queue
	w.queue = nil
	w.mu.Unlock()
	w.cond.Broadcast()
	for _, f := range dropped {
		putBuf(f.head)
	}
	if first && w.onErr != nil {
		w.onErr(err)
	}
}

// flushClose drains the queue (bounded by flushTimeout via a write
// deadline), stops the writer and closes the connection. Idempotent.
func (w *wconn) flushClose() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
	w.c.SetWriteDeadline(time.Now().Add(flushTimeout))
	select {
	case <-w.done:
	case <-time.After(flushTimeout):
	}
	w.c.Close()
}
