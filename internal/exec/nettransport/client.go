package nettransport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/obsv"
	"skipper/internal/value"
)

// Client is the node-process side of the TCP backend: it hosts a subset of
// the architecture's processors, keeps a control connection to the hub
// (handshake, abort, detach, frames to and from hub-hosted processors) and
// exchanges data frames with other node processes directly over the peer
// mesh once the hub has distributed the address map. Traffic between two
// processors hosted by the same client never touches the wire.
type Client struct {
	fp       uint64
	localSet map[arch.ProcID]bool
	boxes    map[arch.ProcID]*transport.Mailbox
	w        *wconn        // control connection to the hub
	ln       net.Listener  // peer data listener
	meshWait time.Duration // bound on waiting for the hub's peers map
	hb       time.Duration // heartbeat interval; 0 = none
	shmPlane bool          // request the shm ring upgrade on peer dials

	// peers is the cluster address map (processor → peer data listener),
	// set exactly once when the hub's peers frame arrives. Until then
	// remote Sends wait on meshCond: routing the first frames through the
	// hub and later ones through the mesh would break FIFO per sender.
	peers     atomic.Pointer[map[arch.ProcID]string]
	meshMu    sync.Mutex
	meshCond  *sync.Cond
	meshDown  bool                     // aborted before/while waiting for the map
	meshLate  bool                     // meshWait elapsed without a peers frame
	addrProcs map[string][]arch.ProcID // reverse of peers: data address → processors

	pcMu   sync.Mutex
	pconns map[string]*wconn // dialed peer connections by address

	inMu    sync.Mutex
	inbound []net.Conn // accepted peer connections

	// pdFn, when registered via OnPeerDown, switches peer-death handling
	// from abort-the-cluster to contain-and-notify.
	pdMu sync.Mutex
	pdFn transport.PeerDown

	deadMu  sync.Mutex
	dead    map[arch.ProcID]bool
	anyDead atomic.Bool // fast path: skip the dead-map lookup while nobody died

	hbStop     chan struct{}
	hbStopOnce sync.Once

	errMu sync.Mutex
	err   error

	closing   atomic.Bool
	aborted   atomic.Bool
	abortOnce sync.Once
	readerWG  sync.WaitGroup

	messages  atomic.Int64
	direct    atomic.Int64
	bytesSent atomic.Int64
	bytesRecv atomic.Int64

	// clockOff is the NTP-style offset estimated from the hub handshake:
	// add it to this process's wall clock to get the hub's wall clock.
	clockOff int64

	// rec, when set via SetTrace before the run's traffic starts, receives
	// send/recv/abort events; mailbox events are wired through the boxes.
	// Atomic because the control-plane read loop is alive from Dial on,
	// before the machine gets the chance to arm tracing.
	rec atomic.Pointer[obsv.Recorder]
	kl  transport.KeyLabels
}

var (
	_ transport.Transport       = (*Client)(nil)
	_ transport.FailureNotifier = (*Client)(nil)
	_ transport.PeerDowner      = (*Client)(nil)
)

// Dial connects to the hub at addr, retrying with jittered exponential
// backoff until d elapses (node processes may be spawned before the
// coordinator finishes binding, and a whole fleet retrying in lockstep
// would hammer it the moment it does), binds a peer data listener on the
// same interface, then performs the handshake claiming local and starts
// the reader and acceptor loops.
func Dial(addr string, fingerprint uint64, local []arch.ProcID, d time.Duration, opts ...Option) (*Client, error) {
	o := buildOptions(opts)
	network, address := SplitNetAddr(addr)
	deadline := time.Now().Add(d)
	bo := newBackoff()
	var c net.Conn
	var err error
	for {
		c, err = net.DialTimeout(network, address, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("nettransport: dialing hub %s: %w", addr, err)
		}
		bo.sleep()
	}
	setNoDelay(c)
	ln, err := listenPeer(c, o.dataPlane)
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("nettransport: peer listener: %w", err)
	}
	// The shm control-plane upgrade (DESIGN.md §9): create both ring
	// segments before saying hello — the hello carries their paths, the
	// hub's reply says whether it mapped them. Creation failure (no tmpfs,
	// quota) silently degrades to the plain socket.
	h := hello{fingerprint: fingerprint, procs: local, dataAddr: JoinNetAddr(ln)}
	var shmOut, shmIn *shmRing
	if o.dataPlane == "shm" && sameHost(c) {
		if shmOut, err = createShmRing(fingerprint, shmDefaultSlots); err == nil {
			if shmIn, err = createShmRing(fingerprint, shmDefaultSlots); err != nil {
				shmOut.remove()
				shmOut.unmap()
				shmOut = nil
			}
		}
		if shmOut != nil {
			h.shmToHub, h.shmFromHub = shmOut.path, shmIn.path
		}
	}
	dropRings := func() {
		if shmOut != nil {
			shmOut.remove()
			shmOut.unmap()
			shmIn.remove()
			shmIn.unmap()
		}
	}
	t0 := time.Now().UnixNano()
	if err := writeHello(c, h); err != nil {
		dropRings()
		ln.Close()
		c.Close()
		return nil, fmt.Errorf("nettransport: handshake: %w", err)
	}
	br := bufio.NewReaderSize(c, readBufSize)
	hubNano, shmOK, err := readHelloReply(br)
	if err != nil {
		dropRings()
		ln.Close()
		c.Close()
		return nil, err
	}
	t1 := time.Now().UnixNano()
	// NTP-style offset: the hub stamped its clock mid-handshake, so it maps
	// to the midpoint of our request/reply bracket. Adding the offset to a
	// local wall-clock instant yields the hub's wall clock (± half the RTT).
	clockOff := hubNano - (t0+t1)/2
	var cw wire = c
	if shmOut != nil {
		// Both ends hold mappings now (or the hub declined); the segment
		// names can leave the filesystem either way.
		shmOut.remove()
		shmIn.remove()
		if shmOK {
			sc := newShmConn(c, shmIn, shmOut)
			cw = sc
			br = bufio.NewReaderSize(sc, shmReadBufSize)
		} else {
			shmOut.unmap()
			shmIn.unmap()
		}
	}
	return newClient(fingerprint, local, cw, br, ln, clockOff, o), nil
}

// newClient wires up a Client on an already-handshaken control connection
// and peer listener, and starts its reader, acceptor and (when configured)
// heartbeat loops.
func newClient(fingerprint uint64, local []arch.ProcID, c wire, br *bufio.Reader, ln net.Listener, clockOff int64, o options) *Client {
	cl := &Client{
		fp:       fingerprint,
		localSet: map[arch.ProcID]bool{},
		boxes:    map[arch.ProcID]*transport.Mailbox{},
		ln:       ln,
		meshWait: o.meshWait,
		hb:       o.heartbeat,
		shmPlane: o.dataPlane == "shm",
		pconns:   map[string]*wconn{},
		dead:     map[arch.ProcID]bool{},
		clockOff: clockOff,
	}
	cl.meshCond = sync.NewCond(&cl.meshMu)
	if o.trace != nil {
		// Armed before the loops below start: the first inbound frame can
		// beat any post-Dial SetTrace call.
		cl.kl.Reset(o.trace)
		cl.rec.Store(o.trace)
	}
	cl.w = newWConn(c, func(err error) {
		// The aborted check breaks a re-entrant deadlock: Abort's best-effort
		// abort-frame send can fail inline on this very goroutine (the hub is
		// typically already gone when Abort runs), and failf -> Abort would
		// re-enter abortOnce.Do.
		if !cl.closing.Load() && !cl.aborted.Load() {
			cl.failf("nettransport: hub connection: %v", err)
		}
	}, &cl.rec)
	for _, p := range local {
		cl.localSet[p] = true
		cl.boxes[p] = transport.NewMailbox()
	}
	cl.readerWG.Add(2)
	go cl.readLoop(br)
	go cl.acceptLoop()
	if cl.hb > 0 {
		cl.hbStop = make(chan struct{})
		go cl.heartbeatLoop()
	}
	return cl
}

// heartbeatLoop proves this process's liveness to the hub's monitor: one
// heartbeat control frame per interval, enqueued (never an inline socket
// write) so a stalled hub connection cannot block it.
func (cl *Client) heartbeatLoop() {
	t := time.NewTicker(cl.hb)
	defer t.Stop()
	for {
		select {
		case <-cl.hbStop:
			return
		case <-t.C:
		}
		if cl.closing.Load() || cl.aborted.Load() {
			return
		}
		cl.w.enqueue(controlFrame(heartbeatDst, nil))
	}
}

func (cl *Client) stopHeartbeat() {
	if cl.hbStop != nil {
		cl.hbStopOnce.Do(func() { close(cl.hbStop) })
	}
}

// errStopRead tells a read loop to exit: the frame it just dispatched was
// an abort, or dispatching it failed the client. Sentinel, not an error to
// report — whoever returns it has already recorded the cause.
var errStopRead = errors.New("nettransport: stop reading")

// readLoop handles control-plane frames from the hub: the peers map,
// cluster aborts and payloads for processors hosted here. EOF means the
// coordinator tore the deployment down: incoming traffic is over, so the
// mailboxes close (draining anything already delivered first).
func (cl *Client) readLoop(br *bufio.Reader) {
	defer cl.readerWG.Done()
	for {
		n, dst, key, err := readFrameHeader(br)
		if err != nil {
			if err != io.EOF && !cl.closing.Load() && !cl.aborted.Load() {
				cl.failf("nettransport: reading from hub: %v", err)
				return
			}
			cl.Abort()
			return
		}
		// Data frames for a locally hosted processor stream-decode straight
		// off the connection (the payload never lands in a frame buffer);
		// control frames and batches are slurped and dispatched in memory.
		if cl.localSet[arch.ProcID(dst)] {
			if err := cl.deliverStream(br, arch.ProcID(dst), key, n-frameHeader); err != nil {
				if !cl.closing.Load() && !cl.aborted.Load() {
					cl.failf("nettransport: reading from hub: %v", err)
				} else {
					cl.Abort()
				}
				return
			}
			continue
		}
		fb, payload, err := readFrameRest(br, n, dst, key)
		if err != nil {
			if !cl.closing.Load() && !cl.aborted.Load() {
				cl.failf("nettransport: reading from hub: %v", err)
			} else {
				cl.Abort()
			}
			return
		}
		if dst == batchDst {
			err = forEachBatched(payload, cl.hubFrame)
		} else {
			err = cl.hubFrame(dst, key, payload)
		}
		putBuf(fb)
		if err == errStopRead {
			return
		}
		if err != nil {
			cl.failf("%v", err)
			return
		}
	}
}

// hubFrame dispatches one control-connection frame — read directly off the
// wire or unpacked from a batch. errStopRead means the read loop must exit
// (abort received, or dispatch failed the client).
func (cl *Client) hubFrame(dst uint32, key transport.Key, payload []byte) error {
	switch dst {
	case abortDst:
		cl.Abort()
		return errStopRead
	case peersDst:
		m, perr := parsePeers(payload)
		if perr != nil {
			cl.failf("nettransport: %v", perr)
			return errStopRead
		}
		ap := make(map[string][]arch.ProcID, len(m))
		for p, a := range m {
			ap[a] = append(ap[a], p)
		}
		cl.meshMu.Lock()
		cl.peers.Store(&m)
		cl.addrProcs = ap
		cl.meshMu.Unlock()
		cl.meshCond.Broadcast()
		return nil
	case peerDownDst:
		procs, perr := parseProcs(payload)
		if perr != nil {
			cl.failf("nettransport: %v", perr)
			return errStopRead
		}
		cl.markPeersDown(procs, true)
		return nil
	}
	if !cl.deliver(arch.ProcID(dst), key, payload) {
		return errStopRead
	}
	return nil
}

// deliver decodes a frame payload into a local processor's mailbox.
func (cl *Client) deliver(p arch.ProcID, key transport.Key, payload []byte) bool {
	box, ok := cl.boxes[p]
	if !ok {
		cl.failf("nettransport: received frame for processor %d, not hosted here", p)
		return false
	}
	v, err := value.Decode(payload)
	if err != nil {
		cl.failf("nettransport: decoding frame for processor %d key %v: %v", p, key, err)
		return false
	}
	cl.bytesRecv.Add(int64(len(payload)))
	if rec := cl.rec.Load(); rec != nil {
		rec.Record(int32(p), obsv.EvRecv, cl.kl.Of(key), -1, int64(len(payload)))
	}
	box.Deliver(key, v)
	return true
}

// deliverStream decodes a frame payload straight off the connection into a
// local processor's mailbox: large trailing slabs (pixel planes) land in
// their final arena buffer without an intermediate frame buffer or its
// per-hop copy. Any error — I/O or format — leaves br mid-frame, so the
// caller must stop reading the connection.
func (cl *Client) deliverStream(br *bufio.Reader, p arch.ProcID, key transport.Key, n int) error {
	box, ok := cl.boxes[p]
	if !ok {
		return fmt.Errorf("received frame for processor %d, not hosted here", p)
	}
	v, err := value.DecodeStream(br, n)
	if err != nil {
		return fmt.Errorf("decoding frame for processor %d key %v: %v", p, key, err)
	}
	cl.bytesRecv.Add(int64(n))
	if rec := cl.rec.Load(); rec != nil {
		rec.Record(int32(p), obsv.EvRecv, cl.kl.Of(key), -1, int64(n))
	}
	box.Deliver(key, v)
	return nil
}

// OnPeerDown registers the executive's failure handler, switching peer
// death from abort-the-cluster to contain-and-notify. Register before the
// run's traffic starts.
func (cl *Client) OnPeerDown(fn transport.PeerDown) {
	cl.pdMu.Lock()
	cl.pdFn = fn
	cl.pdMu.Unlock()
}

// MarkPeerDown declares p dead without invoking the handler: the executive
// calls this when it concludes a processor is gone so routing to and from
// it stops. Local only — the hub's control plane is the authority that
// propagates deaths cluster-wide (it detects them on the control
// connection, or the coordinator-side executive marks them on the Hub,
// which broadcasts).
func (cl *Client) MarkPeerDown(p arch.ProcID) {
	cl.markPeersDown([]arch.ProcID{p}, false)
}

// markPeersDown records procs as dead and, when notify is set, tells the
// registered handler about the ones not already known dead. A dead
// processor hosted *here* (the hub declared this process's own processor
// dead — a deadline overrun the coordinator decided not to wait out) gets
// its mailbox killed so its blocked op loops unwind immediately.
func (cl *Client) markPeersDown(procs []arch.ProcID, notify bool) {
	cl.deadMu.Lock()
	var fresh []arch.ProcID
	for _, p := range procs {
		if cl.dead[p] {
			continue
		}
		cl.dead[p] = true
		fresh = append(fresh, p)
	}
	cl.deadMu.Unlock()
	if len(fresh) == 0 {
		return
	}
	cl.anyDead.Store(true)
	for _, p := range fresh {
		if box, ok := cl.boxes[p]; ok {
			box.Kill()
		}
	}
	if !notify {
		return
	}
	cl.pdMu.Lock()
	fn := cl.pdFn
	cl.pdMu.Unlock()
	if fn != nil {
		fn(fresh)
	}
}

// hasPeerDownHandler reports whether a failure handler is registered.
func (cl *Client) hasPeerDownHandler() bool {
	cl.pdMu.Lock()
	defer cl.pdMu.Unlock()
	return cl.pdFn != nil
}

// isDead reports whether p has been declared dead.
func (cl *Client) isDead(p arch.ProcID) bool {
	if !cl.anyDead.Load() {
		return false
	}
	cl.deadMu.Lock()
	defer cl.deadMu.Unlock()
	return cl.dead[p]
}

// containsPeerFailure handles a peer-mesh dial or write error to addr:
// with a handler registered, the processors at that address are marked
// dead and the handler notified (the hub independently detects the death
// on its control connection and broadcasts; this just keeps the local
// Send from aborting the cluster in the race window). Reports whether the
// failure was contained.
func (cl *Client) containsPeerFailure(addr string) bool {
	cl.pdMu.Lock()
	fn := cl.pdFn
	cl.pdMu.Unlock()
	if fn == nil {
		return false
	}
	cl.meshMu.Lock()
	procs := cl.addrProcs[addr]
	cl.meshMu.Unlock()
	if len(procs) == 0 {
		return false
	}
	cl.markPeersDown(procs, true)
	return true
}

func (cl *Client) failf(format string, args ...any) {
	cl.errMu.Lock()
	if cl.err == nil {
		cl.err = fmt.Errorf(format, args...)
	}
	cl.errMu.Unlock()
	if rec := cl.rec.Load(); rec != nil {
		rec.Record(-1, obsv.EvAbort, 0, -1, 0)
	}
	cl.Abort()
}

// SetTrace arms event recording on r: send/recv with byte sizes here,
// enqueue/park/wake through the mailboxes. Call before traffic starts.
func (cl *Client) SetTrace(r *obsv.Recorder) {
	cl.kl.Reset(r)
	cl.rec.Store(r)
	for p, b := range cl.boxes {
		b.SetTrace(r, int32(p), &cl.kl)
	}
}

// ClockOffsetNS reports the handshake-estimated offset onto the hub's wall
// clock (0 if this process never estimated one).
func (cl *Client) ClockOffsetNS() int64 { return cl.clockOff }

// QueueDepth reports the total delivered-but-unconsumed values across the
// client-local mailboxes (a point-in-time gauge for metrics).
func (cl *Client) QueueDepth() int {
	n := 0
	for _, b := range cl.boxes {
		n += b.Depth()
	}
	return n
}

// peersMap returns the cluster address map, waiting for the hub to
// broadcast it if necessary. The wait is bounded by the client's mesh-wait
// timeout (WithMeshWaitTimeout): the map only arrives once the whole
// cluster has attached, so an unbounded wait would turn one missing node
// process into a silent cluster-wide hang. nil means the transport aborted
// (or timed out and aborted) first.
func (cl *Client) peersMap() map[arch.ProcID]string {
	if m := cl.peers.Load(); m != nil {
		return *m
	}
	timer := time.AfterFunc(cl.meshWait, func() {
		cl.meshMu.Lock()
		cl.meshLate = true
		cl.meshMu.Unlock()
		cl.meshCond.Broadcast()
	})
	defer timer.Stop()
	cl.meshMu.Lock()
	for cl.peers.Load() == nil && !cl.meshDown && !cl.meshLate {
		cl.meshCond.Wait()
	}
	down := cl.meshDown
	cl.meshMu.Unlock()
	if m := cl.peers.Load(); m != nil {
		return *m
	}
	if !down {
		cl.failf("nettransport: no peers map from the hub within %v (did every node process start?)", cl.meshWait)
	}
	return nil
}

// Send injects a message from a client-local processor. Destinations on
// this client skip the codec; other node processes are reached directly
// over the peer mesh; hub-hosted processors ride the control connection.
func (cl *Client) Send(src, dst arch.ProcID, key transport.Key, payload value.Value) {
	if cl.anyDead.Load() && (cl.isDead(src) || cl.isDead(dst)) {
		return // uncounted, like loss in flight
	}
	cl.messages.Add(1)
	if cl.localSet[dst] {
		n := int64(value.SizeOf(payload))
		cl.bytesSent.Add(n)
		cl.bytesRecv.Add(n)
		if rec := cl.rec.Load(); rec != nil {
			id := cl.kl.Of(key)
			rec.Record(int32(src), obsv.EvSend, id, int32(dst), n)
			rec.Record(int32(dst), obsv.EvRecv, id, -1, n)
		}
		cl.boxes[dst].Deliver(key, payload)
		return
	}
	peers := cl.peersMap()
	if peers == nil {
		return // aborted while waiting for the address map; mailboxes are closed
	}
	f, err := encodeMessage(dst, key, payload)
	if err != nil {
		cl.failf("nettransport: encoding %v for processor %d: %v", key, dst, err)
		return
	}
	wireBytes := int64(len(f.head.b) - 4 - frameHeader + len(f.tail))
	cl.bytesSent.Add(wireBytes)
	if rec := cl.rec.Load(); rec != nil {
		rec.Record(int32(src), obsv.EvSend, cl.kl.Of(key), int32(dst), wireBytes)
	}
	w := cl.w
	peerAddr := ""
	if addr, ok := peers[dst]; ok {
		if w, err = cl.peerConn(addr); err != nil {
			putBuf(f.head)
			if cl.containsPeerFailure(addr) {
				return // dst's process is dead; the frame is loss in flight
			}
			cl.failf("nettransport: dialing peer %s for processor %d: %v", addr, dst, err)
			return
		}
		peerAddr = addr
		cl.direct.Add(1)
	}
	if err := w.send(f); err != nil && !cl.closing.Load() && !cl.aborted.Load() {
		if peerAddr != "" && cl.containsPeerFailure(peerAddr) {
			return
		}
		cl.failf("nettransport: sending to processor %d: %v", dst, err)
	}
}

// Recv blocks on a client-local processor's mailbox.
func (cl *Client) Recv(p arch.ProcID, key transport.Key) (value.Value, bool) {
	return cl.boxes[p].Recv(key)
}

// Receiver returns the mailbox slot for (p, key).
func (cl *Client) Receiver(p arch.ProcID, key transport.Key) transport.Receiver {
	return cl.boxes[p].Slot(key)
}

// Abort notifies the hub (which re-broadcasts to every other node), wakes
// any Send waiting for the peers map and unblocks all local mailboxes.
func (cl *Client) Abort() {
	cl.stopHeartbeat()
	cl.abortOnce.Do(func() {
		// aborted must be set before the abort-frame send: if that inline
		// write fails (the hub is often already gone here), the wconn's
		// onErr fires on this goroutine and would otherwise failf -> Abort
		// -> abortOnce.Do, self-deadlocking inside the Once.
		cl.aborted.Store(true)
		cl.meshMu.Lock()
		cl.meshDown = true
		cl.meshMu.Unlock()
		cl.meshCond.Broadcast()
		cl.w.send(controlFrame(abortDst, nil)) // best effort
		for _, b := range cl.boxes {
			b.Close()
		}
	})
}

// Sever tears the client down the way a crash would: no detach frame, no
// queue flush — every socket (control, peer listener, peer connections)
// is closed abruptly and local mailboxes are killed, dropping anything
// buffered. The hub observes exactly what a died node process produces
// (EOF without detach), which makes Sever the in-process stand-in for
// kill -9 in chaos tests.
func (cl *Client) Sever() {
	cl.closing.Store(true)
	cl.stopHeartbeat()
	cl.abortOnce.Do(func() {
		cl.aborted.Store(true)
		cl.meshMu.Lock()
		cl.meshDown = true
		cl.meshMu.Unlock()
		cl.meshCond.Broadcast()
		for _, b := range cl.boxes {
			b.Kill()
		}
	})
	cl.w.c.Close()
	cl.ln.Close()
	cl.pcMu.Lock()
	pcs := make([]*wconn, 0, len(cl.pconns))
	for _, w := range cl.pconns {
		pcs = append(pcs, w)
	}
	cl.pcMu.Unlock()
	for _, w := range pcs {
		w.c.Close()
	}
	cl.inMu.Lock()
	in := append([]net.Conn(nil), cl.inbound...)
	cl.inMu.Unlock()
	for _, c := range in {
		c.Close()
	}
	cl.readerWG.Wait()
}

// Close detaches from the cluster: peer connections flush and close, a
// detach frame tells the hub this is a clean shutdown (EOF without one is
// treated as a died node), the control connection flushes and closes, and
// the peer listener and its accepted connections are torn down.
func (cl *Client) Close() error {
	cl.closing.Store(true)
	cl.stopHeartbeat()
	cl.pcMu.Lock()
	pcs := make([]*wconn, 0, len(cl.pconns))
	for _, w := range cl.pconns {
		pcs = append(pcs, w)
	}
	cl.pcMu.Unlock()
	for _, w := range pcs {
		w.flushClose()
	}
	cl.w.send(controlFrame(detachDst, nil))
	cl.w.flushClose()
	cl.ln.Close()
	cl.inMu.Lock()
	in := append([]net.Conn(nil), cl.inbound...)
	cl.inMu.Unlock()
	for _, c := range in {
		c.Close()
	}
	cl.readerWG.Wait()
	cl.abortOnce.Do(func() {
		cl.aborted.Store(true)
		cl.meshMu.Lock()
		cl.meshDown = true
		cl.meshMu.Unlock()
		cl.meshCond.Broadcast()
		for _, b := range cl.boxes {
			b.Close()
		}
	})
	return nil
}

// Err reports the first client-side failure, or nil.
func (cl *Client) Err() error {
	cl.errMu.Lock()
	defer cl.errMu.Unlock()
	return cl.err
}

// Stats reports messages injected by client-local processors, how many
// frames went point to point over the peer mesh, and payload volume; safe
// to call concurrently with traffic. Relay hops are counted at the hub.
func (cl *Client) Stats() transport.Stats {
	return transport.Stats{
		Messages:  cl.messages.Load(),
		Direct:    cl.direct.Load(),
		BytesSent: cl.bytesSent.Load(),
		BytesRecv: cl.bytesRecv.Load(),
	}
}
