// Package nettransport is the multi-process communication backend of the
// executive: each OS process hosts a subset of the architecture's
// processors and exchanges length-prefixed binary frames over TCP. The
// topology splits into two planes (DESIGN.md §9):
//
//   - control plane: the coordinator process runs a FleetHub that listens,
//     takes fleet members' joins (Member) and, per deployment, runs a
//     Session that validates handshakes (schedule fingerprint, processor
//     claims), brokers the peer address map, broadcasts cluster-wide
//     aborts and deaths, and hosts the coordinator's own processors;
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
// executive deadlock-free). A send is what it is in the paper's executive:
// one blocking write, made by the sender itself — each connection is a lock
// held across one frame's vectored write. The hot path is allocation-free:
// frame buffers come from a shared sync.Pool arena, payload encoding is
// presized via value.EncodeSize, and raw pixel slabs are shipped by
// reference through that vectored write (value.EncodeTrailing).
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
	"skipper/internal/value"
)

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
	// Version 8: batch frames are gone. A version-7 node could still send
	// one, which this reader would take for data addressed to processor
	// 0xfffffffa.
	// Version 9: fleet membership rides the hub. A join hello (a kind byte
	// now follows the version) opens a member connection, which carries
	// member frames and a closing detach frame.
	// Version 10: task and reply headers are 16 bytes — a task carries
	// Spare, how many of the tasks a tf worker spawns it hands back (the
	// rest it runs itself), and the generation is 4 bytes.
	wireVersion = 10
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
	// The lowest control destination a node or session connection reads:
	// everything below it is a processor.
	peerDownDst = 0xfffffffb
	// memberDst is a member frame: one control-plane message between a hub
	// and a fleet member, in either direction. Member connections carry
	// only member frames and a closing detach frame, never a processor's.
	memberDst = 0xfffffffa
	// maxFrame bounds a declared frame length before allocation: a corrupt
	// or hostile peer cannot make us allocate more than this per frame.
	maxFrame = 256 << 20
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
	// flushTimeout bounds how long a teardown waits for the frames already
	// handed to a connection to drain before closing it anyway.
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

// outFrame is one frame to write: head holds the length prefix,
// routing header and leading payload bytes (owned by the arena, returned
// after the write); tail optionally references a trailing raw slab — a
// pixel plane borrowed from the payload value — that is shipped by a
// vectored write without ever being copied.
type outFrame struct {
	head *frameBuf
	tail []byte
}

// capture folds the borrowed tail into the owned head buffer. Called
// before enqueue hands a frame to a goroutine that outlives the call, so
// the transport never holds a reference into caller memory past Send: a
// sender may recycle a payload's buffers as soon as Send returns. The head
// was presized for the full frame (value.EncodeSize), so this append does
// not allocate.
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
// buffer (readPayload — control frames) and stream-decoding it straight
// into its final value (value.DecodeStream, the zero-copy path for pixel
// slabs bound for a local mailbox). The header is read in place (Peek, then
// Discard), so no per-frame buffer escapes. io.EOF is returned verbatim on
// a clean close between frames.
func readFrameHeader(br *bufio.Reader) (n int, dst uint32, key transport.Key, err error) {
	hdr, err := br.Peek(4 + frameHeader)
	if len(hdr) < 4 {
		if err == io.EOF && len(hdr) > 0 {
			err = fmt.Errorf("nettransport: truncated frame length")
		}
		return
	}
	ln := binary.BigEndian.Uint32(hdr)
	if ln < frameHeader || ln > maxFrame {
		err = fmt.Errorf("nettransport: frame length %d out of range", ln)
		return
	}
	if err != nil {
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
	br.Discard(4 + frameHeader)
	return
}

// wire is what a wconn writes to: a net.Conn, or an shm-upgraded
// connection whose writes land frames in the mapped slab ring instead of
// the kernel. Everything the write side of the backend needs — streaming
// writes, a bounded teardown flush, a close that unblocks a stuck writer —
// is in this surface; net.Buffers.WriteTo discovers writev on real
// sockets through its own dynamic check, so the narrowing costs nothing.
type wire interface {
	io.Writer
	Close() error
	SetWriteDeadline(t time.Time) error
}

// writeBuffers is the one vectored write every frame goes through: on an
// shm connection the gathered buffers land in the slab with one consumer
// wakeup at the end (a wake per buffer would cost a scheduler handoff per
// message); on a socket, net.Buffers discovers writev through its own
// dynamic check. Advances bufs either way.
func writeBuffers(c wire, bufs *net.Buffers) error {
	if sc, ok := c.(*shmConn); ok {
		return sc.writev(*bufs)
	}
	_, err := bufs.WriteTo(c)
	return err
}

// wconn is one connection's write side: a lock held across one frame's
// vectored write, made on the sending goroutine. Frames never interleave,
// each sender's frames keep their order, and a raw payload tail is written
// straight from the payload value's memory; the head returns to the arena
// after the write. The scratch the write gathers into lives here, so no
// frame allocates on any plane.
type wconn struct {
	c     wire
	onErr func(error) // invoked once, on the goroutine whose write failed

	wmu  sync.Mutex  // held across one frame's write; guards bufs, vec, err
	bufs net.Buffers // the write's gather list, over vec
	vec  [2][]byte   // head, tail
	err  error       // first write error: later frames are dropped

	// mu orders enqueue's parked.Add before flushClose's parked.Wait.
	mu     sync.Mutex
	closed atomic.Bool    // flushClose has begun: later frames are dropped
	parked sync.WaitGroup // enqueued frames not yet written
}

func newWConn(c wire, onErr func(error)) *wconn {
	return &wconn{c: c, onErr: onErr}
}

// send writes one frame, blocking while another is on the wire. After a
// write error or flushClose the frame is dropped and its head returned to
// the arena (the connection is dead or detaching; frame loss past that
// point is equivalent to loss in flight).
func (w *wconn) send(f outFrame) error {
	w.wmu.Lock()
	if w.closed.Load() {
		w.wmu.Unlock()
		putBuf(f.head)
		return net.ErrClosed
	}
	return w.write(f)
}

// write puts f on the wire unless an earlier write failed, releases wmu
// (held by the caller) and returns f's head to the arena. The first failure
// is recorded and reported to onErr, outside the lock.
func (w *wconn) write(f outFrame) error {
	err, first := w.err, false
	if err == nil {
		w.vec = [2][]byte{f.head.b, f.tail}
		w.bufs = w.vec[:1]
		if len(f.tail) > 0 {
			w.bufs = w.vec[:2]
		}
		err = writeBuffers(w.c, &w.bufs)
		w.vec = [2][]byte{} // no reference into the sender's payload past the write
		w.err, first = err, err != nil
	}
	w.wmu.Unlock()
	putBuf(f.head)
	if first && w.onErr != nil {
		w.onErr(err)
	}
	return err
}

// enqueue ships one frame without ever blocking the caller on the wire: the
// frame is captured and written by a goroutine of its own. It is for
// order-free frames on a connection that may be stalled or dying —
// heartbeats, peer-down lists, the best-effort abort broadcast — where a
// send could wait forever behind a write stuck in flight. Frames enqueued
// after flushClose are dropped.
func (w *wconn) enqueue(f outFrame) {
	w.mu.Lock()
	if w.closed.Load() {
		w.mu.Unlock()
		putBuf(f.head)
		return
	}
	w.parked.Add(1)
	w.mu.Unlock()
	f.capture()
	go func() {
		defer w.parked.Done()
		w.wmu.Lock()
		w.write(f)
	}()
}

// flushClose writes what was already handed to the connection, then last
// (a detach frame), and closes it — within flushTimeout even when the peer
// has stopped reading: the write deadline ends any write still blocked by
// then. Frames sent or enqueued once it has begun are dropped. Idempotent.
func (w *wconn) flushClose(last ...outFrame) {
	w.c.SetWriteDeadline(time.Now().Add(flushTimeout))
	w.mu.Lock()
	w.closed.Store(true)
	w.mu.Unlock()
	parked := make(chan struct{})
	go func() {
		w.parked.Wait()
		close(parked)
	}()
	select {
	case <-parked:
	case <-time.After(flushTimeout):
	}
	for _, f := range last {
		w.wmu.Lock()
		w.write(f)
	}
	w.c.Close()
}
