package nettransport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/value"
)

// Client is the node-process side of the TCP backend: it hosts a subset of
// the architecture's processors, keeps a control connection to the hub
// (handshake, abort, detach, frames to and from hub-hosted processors) and
// exchanges data frames with other node processes directly over the peer
// mesh once the hub has distributed the address map. Traffic between two
// processors hosted by the same client never touches the wire.
type Client struct {
	endpoint
	fp       uint64
	w        *wconn        // control connection to the hub
	ln       net.Listener  // peer data listener
	hb       time.Duration // heartbeat interval; 0 = none
	shmPlane bool          // request the shm ring upgrade on peer dials

	// peers is the cluster address map, replaced whenever the hub broadcasts
	// one; the first arrival closes ready. Until then remote Sends wait:
	// routing the first frames through the hub and later ones through the
	// mesh would break FIFO per sender.
	peers atomic.Pointer[peerMap]

	pcMu   sync.Mutex
	pconns map[string]*wconn // dialed peer connections by address

	inMu    sync.Mutex
	inbound []net.Conn // accepted peer connections

	hbStop     chan struct{}
	hbStopOnce sync.Once

	readerWG sync.WaitGroup

	// clockOff is the NTP-style offset estimated from the hub handshake:
	// add it to this process's wall clock to get the hub's wall clock.
	clockOff int64
}

// peerMap is one peers frame: processor → peer data listener, and its
// reverse, the processors each listener serves.
type peerMap struct {
	addr  map[arch.ProcID]string
	procs map[string][]arch.ProcID
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
		ln:       ln,
		hb:       o.heartbeat,
		shmPlane: o.dataPlane == "shm",
		pconns:   map[string]*wconn{},
		clockOff: clockOff,
	}
	cl.init(local, o.meshWait, cl.Abort)
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

// readLoop reads the control connection from the hub: the peers map,
// peer-down notices, cluster aborts and payloads for processors hosted here.
// EOF means the coordinator tore the deployment down: incoming traffic is
// over, so the mailboxes close (draining anything already delivered first).
func (cl *Client) readLoop(br *bufio.Reader) {
	defer cl.readerWG.Done()
	err := cl.readFrames(br, nil, cl.hubFrame)
	switch {
	case err == errStopRead:
	case err == io.EOF || cl.closing.Load() || cl.aborted.Load():
		cl.Abort()
	default:
		cl.failf("nettransport: reading from hub: %v", err)
	}
}

// hubFrame dispatches one control-connection frame that is not data for a
// processor hosted here.
func (cl *Client) hubFrame(dst uint32, _ transport.Key, payload []byte) error {
	switch dst {
	case abortDst:
		cl.Abort()
		return errStopRead
	case peersDst:
		m, err := parsePeers(payload)
		if err != nil {
			cl.failf("%v", err)
			return errStopRead
		}
		pm := &peerMap{addr: m, procs: make(map[string][]arch.ProcID, len(m))}
		for p, a := range m {
			pm.procs[a] = append(pm.procs[a], p)
		}
		if cl.peers.Swap(pm) == nil {
			close(cl.ready) // only this loop stores peers: closed once
		}
		return nil
	case peerDownDst:
		procs, err := parseProcs(payload)
		if err != nil {
			cl.failf("%v", err)
			return errStopRead
		}
		cl.peersDown(procs, true)
		return nil
	}
	return cl.notHosted(dst)
}

// notHosted fails the client on a data frame for a processor it does not
// host: a sender whose routing disagrees with this process's claim.
func (cl *Client) notHosted(dst uint32) error {
	cl.failf("nettransport: received frame for processor %d, not hosted here", dst)
	return errStopRead
}

// MarkPeerDown declares p dead without invoking the handler: the executive
// calls this when it concludes a processor is gone so routing to and from
// it stops. Local only — the hub's control plane is the authority that
// propagates deaths cluster-wide (it detects them on the control
// connection, or the coordinator-side executive marks them on its Session,
// which broadcasts).
func (cl *Client) MarkPeerDown(p arch.ProcID) {
	cl.peersDown([]arch.ProcID{p}, false)
}

// containsPeerFailure handles a peer-mesh dial or write error to addr:
// with a handler registered, the processors at that address are marked
// dead and the handler notified (the hub independently detects the death
// on its control connection and broadcasts; this just keeps the local
// Send from aborting the cluster in the race window). Reports whether the
// failure was contained.
func (cl *Client) containsPeerFailure(addr string) bool {
	pm := cl.peers.Load()
	if cl.handler() == nil || pm == nil || len(pm.procs[addr]) == 0 {
		return false
	}
	cl.peersDown(pm.procs[addr], true)
	return true
}

// ClockOffsetNS reports the handshake-estimated offset onto the hub's wall
// clock (0 if this process never estimated one).
func (cl *Client) ClockOffsetNS() int64 { return cl.clockOff }

// Send injects a message from a client-local processor. Destinations on
// this client skip the codec; other node processes are reached directly
// over the peer mesh; hub-hosted processors ride the control connection.
// Remote sends wait for the hub's peers map (see awaitRoutes).
func (cl *Client) Send(src, dst arch.ProcID, key transport.Key, payload value.Value) {
	if cl.sendLocal(src, dst, key, payload) ||
		!cl.awaitRoutes("nettransport: no peers map from the hub within %v (did every node process start?)") {
		return
	}
	f, ok := cl.encode(src, dst, key, payload)
	if !ok {
		return
	}
	w := cl.w
	addr, mesh := cl.peers.Load().addr[dst]
	if mesh {
		var err error
		if w, err = cl.peerConn(addr); err != nil {
			putBuf(f.head)
			if !cl.containsPeerFailure(addr) { // else dst's process is dead: loss in flight
				cl.failf("nettransport: dialing peer %s for processor %d: %v", addr, dst, err)
			}
			return
		}
		cl.direct.Add(1)
	}
	if err := w.send(f); err != nil && !cl.closing.Load() && !cl.aborted.Load() &&
		!(mesh && cl.containsPeerFailure(addr)) {
		cl.failf("nettransport: sending to processor %d: %v", dst, err)
	}
}

// Abort notifies the hub (which re-broadcasts to every other node), wakes
// any Send waiting for the peers map and unblocks all local mailboxes.
func (cl *Client) Abort() {
	cl.stopHeartbeat()
	cl.halt(func() { cl.w.send(controlFrame(abortDst, nil)) }, false)
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
	cl.halt(nil, true)
	cl.w.c.Close()
	cl.ln.Close()
	for _, w := range cl.peerConns() {
		w.c.Close()
	}
	cl.closeInbound()
}

// Close detaches from the cluster: peer connections flush and close, a
// detach frame tells the hub this is a clean shutdown (EOF without one is
// treated as a died node), the control connection flushes and closes, and
// the peer listener and its accepted connections are torn down.
func (cl *Client) Close() error {
	cl.closing.Store(true)
	cl.stopHeartbeat()
	for _, w := range cl.peerConns() {
		w.flushClose()
	}
	cl.w.send(controlFrame(detachDst, nil))
	cl.w.flushClose()
	cl.ln.Close()
	cl.closeInbound()
	cl.halt(nil, false)
	return nil
}

// peerConns snapshots the dialed peer connections.
func (cl *Client) peerConns() []*wconn {
	cl.pcMu.Lock()
	defer cl.pcMu.Unlock()
	pcs := make([]*wconn, 0, len(cl.pconns))
	for _, w := range cl.pconns {
		pcs = append(pcs, w)
	}
	return pcs
}

// closeInbound closes the accepted peer connections and waits for every
// reader goroutine to exit.
func (cl *Client) closeInbound() {
	cl.inMu.Lock()
	in := append([]net.Conn(nil), cl.inbound...)
	cl.inMu.Unlock()
	for _, c := range in {
		c.Close()
	}
	cl.readerWG.Wait()
}
