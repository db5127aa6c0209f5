package nettransport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/value"
)

// Session is one deployment's control plane on a FleetHub plus the
// processors the hub process hosts for it (typically processor 0, which
// usually holds the input/output nodes): it owns the attachment state for a
// single fingerprinted schedule — which processors are local, which have
// attached remotely, the peer address map and the death bookkeeping. A
// FleetHub multiplexes many concurrent Sessions over one listener; the hello
// fingerprint selects the session, so frames from different jobs sharing a
// worker can never cross (and the peer mesh re-validates the same
// fingerprint on every data connection). The hub routes nothing: node
// processes reach each other over the mesh, and a node's control connection
// carries only control frames and data for the processors hosted here.
type Session struct {
	endpoint
	f  *FleetHub
	a  *arch.Arch
	fp uint64
	// private marks the session NewHub opened on a fleet hub of its own,
	// which the session's Close and Sever shut down with it.
	private bool

	mu     sync.Mutex
	remote map[arch.ProcID]*wconn // attached remote processors
	// attaching holds processors whose hello was accepted but whose
	// connection is not registered in remote yet: the claim is taken from
	// the moment it is validated, so a second claimant arriving between the
	// first's ack and its registration is still refused.
	attaching map[arch.ProcID]bool
	dataAddr  map[arch.ProcID]string // their peer data listeners
	states    []*connState           // per-connection liveness bookkeeping
	// departed marks processors whose connection detached cleanly (worker
	// churn). Frames addressed to a departed processor are dropped — they
	// belong to the session epoch that ended with the detach — and a
	// re-attach under the same processor ID starts from a clean slate
	// instead of inheriting a stale peers-map entry.
	departed    map[arch.ProcID]bool
	readyClosed bool // guards close(ready) across detach/re-attach cycles
	closed      bool

	closeOnce sync.Once
	severOnce sync.Once
}

var (
	_ transport.Transport       = (*Session)(nil)
	_ transport.FailureNotifier = (*Session)(nil)
	_ transport.PeerDowner      = (*Session)(nil)
	_ transport.Copier          = (*Session)(nil)
)

// connState is the session's per-connection bookkeeping: the processors
// the node claimed, and liveness — lastHeard is bumped on every frame the
// read loop sees (heartbeats included), and the fleet monitor condemns a
// connection whose node has gone silent for several heartbeat intervals.
type connState struct {
	w         *wconn
	procs     []arch.ProcID
	lastHeard atomic.Int64 // UnixNano of the most recent frame
	condemned atomic.Bool  // the monitor declared it dead; readLoop exits silently
	gone      atomic.Bool  // readLoop exited (detach, death, or teardown)
}

// NewHub is the one-deployment shape of the hub, for drivers that bring a
// schedule up once over raw transports (the benchmark, transport tests):
// a Session on a FleetHub of its own listening on addr (e.g. "127.0.0.1:0";
// see Addr for the bound address). local are hosted in this process, all
// others must attach over the network with a matching schedule fingerprint.
// The session's Close and Sever also shut the listener down.
func NewHub(addr string, a *arch.Arch, fingerprint uint64, local []arch.ProcID, opts ...Option) (*Session, error) {
	f, err := NewFleetHub(addr, nil, opts...)
	if err != nil {
		return nil, err
	}
	s, err := f.OpenSession(a, fingerprint, local)
	if err != nil {
		f.Close()
		return nil, err
	}
	s.private = true
	return s, nil
}

func newSession(f *FleetHub, a *arch.Arch, fingerprint uint64, local []arch.ProcID) *Session {
	s := &Session{
		f:         f,
		a:         a,
		fp:        fingerprint,
		remote:    map[arch.ProcID]*wconn{},
		dataAddr:  map[arch.ProcID]string{},
		departed:  map[arch.ProcID]bool{},
		attaching: map[arch.ProcID]bool{},
	}
	s.init(local, f.meshWait, s.Abort)
	if len(local) == a.N {
		s.readyClosed = true
		close(s.ready) // degenerate single-process deployment
	}
	return s
}

// Fingerprint is the schedule fingerprint (possibly salted per job by the
// scheduler) that namespaces this session on its hub.
func (s *Session) Fingerprint() uint64 { return s.fp }

// Addr is the address clients of this session should dial — the owning
// fleet hub's listener ("unix:"-prefixed on a unix-domain socket).
func (s *Session) Addr() string { return s.f.Addr() }

// WaitReady blocks until every non-local processor has attached, the
// session fails, or d elapses. A failure (bad handshake, node death during
// attach) returns immediately rather than burning the rest of the timeout:
// callers otherwise sit out the full attach window to learn about an error
// that was recorded milliseconds in.
func (s *Session) WaitReady(d time.Duration) error {
	switch {
	case s.wait(d):
		return nil
	case s.Err() != nil:
		return s.Err()
	case s.aborted.Load():
		return errors.New("nettransport: session aborted before every processor attached")
	}
	return fmt.Errorf("nettransport: not all processors attached within %v", d)
}

// Ready reports whether the deployment has been fully attached at least
// once — without blocking, unlike WaitReady. Schedulers use it post-mortem
// to tell an attempt that genuinely started (and deserves to burn a retry
// budget) from one whose workers died before ever attaching.
func (s *Session) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readyClosed
}

// serveConn validates one client handshake against this session, attaches
// its processors and runs its reader loop. The handshake ack is written
// before the connection gets its wconn, so no frame can ever precede it on
// the wire.
func (s *Session) serveConn(c net.Conn, br *bufio.Reader, hel hello) {
	if reject := s.validateHello(hel); reject != "" {
		writeHelloReply(c, reject, false)
		c.Close()
		return
	}
	// The shm upgrade (DESIGN.md §9): the client created both rings before
	// its hello; map them before the ack so the reply's accept byte is
	// truthful, and fall back to the plain socket if either mapping fails.
	// The client sends nothing between hello and reply, so starting the
	// shmConn's bell loop (which owns socket reads from here on) cannot
	// steal frame bytes, and no doorbell can arrive at the client before it
	// has read the reply — sleep flags are armed only by running ring
	// consumers, which exist on neither end yet.
	var cw wire = c
	var sc *shmConn
	if hel.shmToHub != "" {
		in, ierr := openShmRing(hel.shmToHub)
		if ierr == nil {
			out, oerr := openShmRing(hel.shmFromHub)
			if oerr == nil {
				sc = newShmConn(c, in, out)
				cw = sc
			} else {
				in.unmap()
			}
		}
	}
	if err := writeHelloReply(c, "", sc != nil); err != nil {
		if sc != nil {
			sc.Close()
		} else {
			c.Close()
		}
		s.failf("nettransport: handshake ack to %v: %v", hel.procs, err)
		return
	}
	if sc != nil {
		br = bufio.NewReaderSize(sc, shmReadBufSize)
	}
	// No write-error handler: the connection's reader is the one judge of a
	// broken connection — a clean detach, or a death it reports through
	// connDeath — and a failed write is the same event seen from the other
	// side, often earlier: a control broadcast racing a node's clean exit
	// finds the socket closed before the reader has seen the detach frame,
	// and the peer-down broadcast races a dead node's socket teardown.
	w := newWConn(cw, nil)
	cs := &connState{w: w, procs: hel.procs}
	cs.lastHeard.Store(time.Now().UnixNano())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		w.flushClose()
		return
	}
	for _, p := range hel.procs {
		delete(s.attaching, p)
		s.remote[p] = w
		s.dataAddr[p] = hel.dataAddr
	}
	s.states = append(s.states, cs)
	// A processor that already detached cleanly has attached and finished
	// (an idle node's empty program ends before the slowest node dials in):
	// it counts toward completeness, or the peers map would never go out.
	allAttached := len(s.remote)+len(s.localSet)+len(s.departed) == s.a.N
	firstComplete := false
	var peersFrame []byte
	var conns []*wconn
	if allAttached {
		peersFrame = encodePeers(s.dataAddr)
		conns = s.connsLocked()
		firstComplete = !s.readyClosed
		s.readyClosed = true
	}
	s.mu.Unlock()
	if allAttached {
		for _, pw := range conns {
			pw.send(controlFrame(peersDst, peersFrame))
		}
		if firstComplete {
			close(s.ready)
		}
	}
	detached := s.readLoop(br, cs)
	cs.gone.Store(true)
	if detached {
		s.detach(cs)
	}
}

// connsLocked lists the attached connections; s.mu must be held.
func (s *Session) connsLocked() []*wconn {
	conns := make([]*wconn, len(s.states))
	for i, cs := range s.states {
		conns[i] = cs.w
	}
	return conns
}

// conns snapshots the attached connections.
func (s *Session) conns() []*wconn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.connsLocked()
}

// detach retires a cleanly departed connection: its processors leave the
// attachment and peer-address maps and are marked departed, so in-flight
// traffic addressed to the old epoch is discarded rather than delivered to
// a future re-attach.
func (s *Session) detach(cs *connState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range cs.procs {
		if s.remote[p] != cs.w {
			continue // a re-attach already superseded this connection
		}
		delete(s.remote, p)
		delete(s.dataAddr, p)
		s.departed[p] = true
	}
	for i, st := range s.states {
		if st == cs {
			s.states = append(s.states[:i], s.states[i+1:]...)
			break
		}
	}
}

// validateHello returns a rejection reason, or "" to accept. The
// fingerprint was already matched by the fleet hub when it routed the
// connection here.
func (s *Session) validateHello(hel hello) string {
	if len(hel.procs) == 0 {
		return "no processors claimed"
	}
	if hel.dataAddr == "" {
		return "no peer data listener address"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range hel.procs {
		if int(p) < 0 || int(p) >= s.a.N {
			return fmt.Sprintf("processor %d outside architecture %s", p, s.a.Name)
		}
		if s.localSet[p] {
			return fmt.Sprintf("processor %d is hosted by the coordinator", p)
		}
		if _, taken := s.remote[p]; taken || s.attaching[p] {
			return fmt.Sprintf("processor %d already attached", p)
		}
	}
	// A re-attach after a clean detach starts a fresh epoch here, before the
	// node hears it was accepted: from the dialer's return on, the processor
	// no longer counts as departed (and so not toward completeness either)
	// until its registration lands.
	for _, p := range hel.procs {
		delete(s.departed, p)
		s.attaching[p] = true
	}
	return ""
}

// readLoop reads one node's control connection and reports whether it
// ended with a clean detach. A connection that reaches EOF without
// announcing a detach is a died node process — over the peer mesh the hub
// no longer sees data frames stop flowing, so process death must be
// detected on the control plane. Without a peer-down handler the whole
// session aborts (the legacy behavior, and the only safe default); with
// one, the death is contained and the executive notified.
func (s *Session) readLoop(br *bufio.Reader, cs *connState) bool {
	detached := false
	err := s.readFrames(br, cs, func(dst uint32, _ transport.Key, _ []byte) error {
		switch dst {
		case abortDst:
			s.Abort()
			return errStopRead
		case detachDst:
			detached = true
			return nil
		case heartbeatDst:
			return nil
		case peersDst:
			s.failf("nettransport: node %v sent a peers frame", cs.procs)
			return errStopRead
		}
		// Data for a processor this hub does not host: nodes reach each other
		// over the mesh, so only a sender whose peers map no longer lists the
		// destination sends here — dropped, like loss in flight, when that is
		// because it departed or died; anything else is a broken node.
		p := arch.ProcID(dst)
		s.mu.Lock()
		gone := s.departed[p]
		s.mu.Unlock()
		if gone || s.isDead(p) {
			return nil
		}
		s.failf("nettransport: node %v sent a frame for processor %d, which the hub does not host", cs.procs, dst)
		return errStopRead
	})
	switch {
	// After a detach frame any end of stream is the clean one: a node that
	// closes with control frames unread (a peers map it never needed) resets
	// the connection instead of ending it with EOF.
	case err == errStopRead || s.closing.Load() || s.aborted.Load() || detached:
		return detached
	case cs.condemned.Load(): // the monitor already declared this node dead
	case err == io.EOF || errors.Is(err, syscall.ECONNRESET):
		s.connDeath(cs.procs, fmt.Sprintf("nettransport: node %v closed its connection without detaching (process died?)", cs.procs))
	default:
		s.connDeath(cs.procs, fmt.Sprintf("nettransport: reading from node %v: %v", cs.procs, err))
	}
	return false
}

// connDeath handles a connection whose node died (EOF without detach, read
// error, or heartbeat timeout). With no peer-down handler registered the
// legacy behavior stands: the death is a session-wide fatal error. With a
// handler, the failure is contained — the node's processors are marked
// dead, surviving nodes are told, and the executive decides what survives.
func (s *Session) connDeath(procs []arch.ProcID, legacy string) {
	if s.handler() == nil {
		s.failf("%s", legacy)
		return
	}
	s.markDown(procs, true)
}

// MarkPeerDown declares p dead without invoking the handler: the executive
// calls this when it concludes a processor is gone (task deadline overrun)
// so the transport stops routing to it and tells the other nodes. The
// hub-side observation path (connDeath) notifies; this one does not, as
// the caller already knows.
func (s *Session) MarkPeerDown(p arch.ProcID) {
	s.markDown([]arch.ProcID{p}, false)
}

// markDown records the remote processors among procs as dead (notifying
// the handler when asked) and broadcasts a peer-down control frame so
// every node contains the same failure.
func (s *Session) markDown(procs []arch.ProcID, notify bool) {
	var remote []arch.ProcID
	for _, p := range procs {
		if int(p) >= 0 && int(p) < s.a.N && !s.localSet[p] {
			remote = append(remote, p)
		}
	}
	fresh := s.peersDown(remote, notify)
	if len(fresh) == 0 {
		return
	}
	payload := encodeProcs(fresh)
	for _, w := range s.conns() {
		// enqueue: the dead node's own conn is among these and its socket may
		// be mid-teardown; a blocking inline write here could stall or error
		// from the caller's goroutine.
		w.enqueue(controlFrame(peerDownDst, payload))
	}
}

// ClusterInfo is a session's point-in-time view of its deployment.
type ClusterInfo struct {
	// Ready is true once every non-local processor has attached and the
	// peer address map has been broadcast.
	Ready bool `json:"ready"`
	// Local lists the coordinator-hosted processors, Attached the remotely
	// attached ones.
	Local    []int `json:"local"`
	Attached []int `json:"attached"`
	// Dead lists processors declared dead by failure detection.
	Dead []int `json:"dead,omitempty"`
	// Departed lists processors that detached cleanly and have not
	// re-attached (elastic-fleet churn).
	Departed []int `json:"departed,omitempty"`
}

// ClusterInfo snapshots the attachment state of the session.
func (s *Session) ClusterInfo() ClusterInfo {
	var ci ClusterInfo
	for p := range s.localSet {
		ci.Local = append(ci.Local, int(p))
	}
	s.mu.Lock()
	ci.Ready = s.readyClosed
	for p := range s.remote {
		ci.Attached = append(ci.Attached, int(p))
	}
	for p := range s.departed {
		ci.Departed = append(ci.Departed, int(p))
	}
	s.mu.Unlock()
	s.deadMu.Lock()
	for p := range s.dead {
		ci.Dead = append(ci.Dead, int(p))
	}
	s.deadMu.Unlock()
	for _, l := range [][]int{ci.Local, ci.Attached, ci.Dead, ci.Departed} {
		sort.Ints(l)
	}
	return ci
}

// Send injects a message from a hub-local processor. Local destinations
// skip the codec; remote ones are flattened and shipped over the
// destination's control connection. A destination not attached yet makes
// the Send wait for the session to be ready (see awaitRoutes); one that
// departed gets nothing — the frame belongs to the epoch that ended.
func (s *Session) Send(src, dst arch.ProcID, key transport.Key, payload value.Value) {
	if s.sendLocal(src, dst, key, payload) {
		return
	}
	s.mu.Lock()
	w, gone := s.remote[dst], s.departed[dst]
	s.mu.Unlock()
	if w == nil && !gone && s.awaitRoutes("nettransport: not all processors attached within %v (did every node process start?)") {
		s.mu.Lock()
		w = s.remote[dst] // nil if it departed (or is re-attaching) meanwhile
		s.mu.Unlock()
	}
	if w == nil {
		return
	}
	f, ok := s.encode(src, dst, key, payload)
	if !ok {
		return
	}
	if err := w.send(f); err != nil && !s.closing.Load() && !s.aborted.Load() {
		s.failf("nettransport: sending to processor %d: %v", dst, err)
	}
}

// Abort propagates a session-wide abort: every attached client gets an
// abort control frame, any Send waiting for the session to be ready gives
// up and all local mailboxes unblock. Other sessions on the same fleet hub
// are untouched. The frames are enqueued, best effort: a connection may be
// gone, or stalled under a write that would hold a send forever.
func (s *Session) Abort() {
	s.halt(func() {
		for _, w := range s.conns() {
			w.enqueue(controlFrame(abortDst, nil))
		}
	}, false)
}

// Sever tears the session down the way a coordinator crash would: no abort
// broadcast, no flush — every control connection closes abruptly and
// local mailboxes are killed (a NewHub session's listener closes too).
// Attached clients observe exactly what a died coordinator produces (EOF on
// the control connection), which makes Sever the in-process stand-in for
// kill -9 in chaos tests.
func (s *Session) Sever() {
	s.severOnce.Do(func() {
		s.closing.Store(true)
		s.mu.Lock()
		s.closed = true
		conns := s.connsLocked()
		s.mu.Unlock()
		for _, w := range conns {
			w.c.Close()
		}
		s.halt(nil, true)
		s.f.dropSession(s)
		if s.private {
			s.f.Sever()
		}
	})
}

// Close aborts the session and tears down its connections (flushing the
// frames already handed to them, bounded by flushTimeout), then retires it
// from the fleet hub so the fingerprint can be reused. The hub's listener
// and other sessions keep running — except for a NewHub session, whose
// fleet hub closes with it; connection reader goroutines are owned by the
// fleet hub and reaped by its Close.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		s.mu.Lock()
		s.closed = true
		conns := s.connsLocked()
		s.mu.Unlock()
		s.Abort()
		for _, w := range conns {
			w.flushClose()
		}
		s.f.dropSession(s)
		if s.private {
			s.f.Close()
		}
	})
	return nil
}
