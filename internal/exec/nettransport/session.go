package nettransport

import (
	"bufio"
	"encoding/binary"
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
	"skipper/internal/obsv"
	"skipper/internal/value"
)

// maxPending bounds the session's per-processor backlog of frames buffered
// for a processor that has not attached yet. A deployment where a node never
// starts would otherwise accumulate frames without limit; hitting the cap
// fails the session instead.
const maxPending = 1024

// Session is one deployment's control plane on a FleetHub: it owns the
// attachment state for a single fingerprinted schedule — which processors
// are local, which have attached remotely, the pre-attach frame backlog, the
// peer address map and the death bookkeeping. A FleetHub multiplexes many
// concurrent Sessions over one listener; the hello fingerprint selects the
// session, so frames from different jobs sharing a worker can never cross
// (and the peer mesh re-validates the same fingerprint on every data
// connection). A Session is itself a transport.Transport for the processors
// hosted in the hub process (typically processor 0, which usually holds the
// input/output nodes).
type Session struct {
	f  *FleetHub
	a  *arch.Arch
	fp uint64
	hb time.Duration // heartbeat interval; 0 = no liveness monitoring

	localSet map[arch.ProcID]bool
	boxes    map[arch.ProcID]*transport.Mailbox

	mu     sync.Mutex
	remote map[arch.ProcID]*wconn // attached remote processors
	// attaching holds processors whose hello was accepted but whose
	// connection is not registered in remote yet: the claim is taken from
	// the moment it is validated, so a second claimant arriving between the
	// first's ack and its registration is still refused.
	attaching map[arch.ProcID]bool
	dataAddr  map[arch.ProcID]string // their peer data listeners
	pending   map[arch.ProcID][]outFrame
	conns     []*wconn
	states    []*connState // per-connection liveness bookkeeping
	dead      map[arch.ProcID]bool
	// departed marks processors whose connection detached cleanly (worker
	// churn). Frames addressed to a departed processor are dropped — they
	// belong to the session epoch that ended with the detach — and a
	// re-attach under the same processor ID starts from a clean slate
	// instead of resurrecting stale pending frames or peers-map entries.
	departed    map[arch.ProcID]bool
	ready       chan struct{} // closed when every non-local processor is attached
	readyClosed bool          // guards close(ready) across detach/re-attach cycles
	closed      bool

	// pdFn, when registered via OnPeerDown, switches peer-death handling
	// from abort-the-cluster to contain-and-notify.
	pdMu sync.Mutex
	pdFn transport.PeerDown

	errMu  sync.Mutex
	err    error
	failed chan struct{} // closed on the first failf, so WaitReady fails fast

	closing   atomic.Bool
	aborted   atomic.Bool
	anyDead   atomic.Bool // fast path: skip the dead-map lookup while nobody died
	abortOnce sync.Once
	closeOnce sync.Once
	severOnce sync.Once

	messages  atomic.Int64
	hops      atomic.Int64
	bytesSent atomic.Int64
	bytesRecv atomic.Int64

	// rec, when set via SetTrace before the run's traffic starts, receives
	// send/recv/abort events for hub-local processors; relayed frames are
	// counted as hops only (the endpoints record their own send/recv).
	// Atomic because accept and per-connection read loops are alive from
	// OpenSession on, before the machine gets the chance to arm tracing.
	rec atomic.Pointer[obsv.Recorder]
	kl  transport.KeyLabels
}

var (
	_ transport.Transport       = (*Session)(nil)
	_ transport.FailureNotifier = (*Session)(nil)
	_ transport.PeerDowner      = (*Session)(nil)
)

// connState is the session's per-connection liveness bookkeeping: lastHeard
// is bumped on every frame the read loop sees (heartbeats included), and the
// fleet monitor condemns a connection whose node has gone silent for several
// heartbeat intervals.
type connState struct {
	w         *wconn
	procs     []arch.ProcID
	lastHeard atomic.Int64 // UnixNano of the most recent frame
	condemned atomic.Bool  // the monitor declared it dead; readLoop exits silently
	gone      atomic.Bool  // readLoop exited (detach, death, or teardown)
}

func newSession(f *FleetHub, a *arch.Arch, fingerprint uint64, local []arch.ProcID) *Session {
	s := &Session{
		f:         f,
		a:         a,
		fp:        fingerprint,
		hb:        f.hb,
		localSet:  map[arch.ProcID]bool{},
		boxes:     map[arch.ProcID]*transport.Mailbox{},
		remote:    map[arch.ProcID]*wconn{},
		dataAddr:  map[arch.ProcID]string{},
		pending:   map[arch.ProcID][]outFrame{},
		dead:      map[arch.ProcID]bool{},
		departed:  map[arch.ProcID]bool{},
		attaching: map[arch.ProcID]bool{},
		ready:     make(chan struct{}),
		failed:    make(chan struct{}),
	}
	for _, p := range local {
		s.localSet[p] = true
		s.boxes[p] = transport.NewMailbox()
	}
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
// fleet hub's listener.
func (s *Session) Addr() string { return s.f.Addr() }

// WaitReady blocks until every non-local processor has attached, the
// session fails, or d elapses. A failure (bad handshake, node death during
// attach) returns immediately rather than burning the rest of the timeout:
// callers otherwise sit out the full attach window to learn about an error
// that was recorded milliseconds in.
func (s *Session) WaitReady(d time.Duration) error {
	select {
	case <-s.ready:
		return nil
	case <-s.failed:
		return s.Err()
	case <-time.After(d):
		if err := s.Err(); err != nil {
			return err
		}
		return fmt.Errorf("nettransport: not all processors attached within %v", d)
	}
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
// before the connection gets a writer, so no queued frame can ever precede
// it on the wire; the backlog flush is queued while the registration lock is
// held, so a concurrent Send cannot order ahead of frames buffered before
// attach.
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
	w := newWConn(cw, nil, &s.rec)
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
		for _, f := range s.pending[p] {
			// enqueue, not send: send's inline fast path would perform a
			// blocking socket write under s.mu (stalling all routing on one
			// slow client) and on failure would invoke onErr -> failf ->
			// Abort -> s.mu.Lock on this goroutine, a self-deadlock.
			w.enqueue(f)
		}
		delete(s.pending, p)
	}
	s.conns = append(s.conns, w)
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
		conns = append(conns, s.conns...)
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

// detach retires a cleanly departed connection: its processors leave the
// attachment and peer-address maps, any frames buffered for them are
// dropped, and they are marked departed so in-flight traffic addressed to
// the old epoch is discarded rather than delivered to a future re-attach.
func (s *Session) detach(cs *connState) {
	s.mu.Lock()
	for _, p := range cs.procs {
		if s.remote[p] != cs.w {
			continue // a re-attach already superseded this connection
		}
		delete(s.remote, p)
		delete(s.dataAddr, p)
		s.departed[p] = true
		for _, f := range s.pending[p] {
			putBuf(f.head)
		}
		delete(s.pending, p)
	}
	for i, w := range s.conns {
		if w == cs.w {
			s.conns = append(s.conns[:i], s.conns[i+1:]...)
			break
		}
	}
	for i, st := range s.states {
		if st == cs {
			s.states = append(s.states[:i], s.states[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
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

// readLoop routes one client's incoming frames and reports whether the
// connection ended with a clean detach. A connection that reaches EOF
// without announcing a detach is a died node process — over the peer mesh
// the hub no longer sees data frames stop flowing, so process death must be
// detected on the control plane. Without a peer-down handler the whole
// session aborts (the legacy behavior, and the only safe default); with
// one, the death is contained and the executive notified.
func (s *Session) readLoop(br *bufio.Reader, cs *connState) bool {
	procs := cs.procs
	detached := false
	for {
		n, dst, key, err := readFrameHeader(br)
		if err != nil {
			// After a detach frame any end of stream is the clean one: a node
			// that closes with control frames unread (a peers map it never
			// needed) resets the connection instead of ending it with EOF.
			if s.closing.Load() || s.aborted.Load() || detached {
				return detached
			}
			if cs.condemned.Load() {
				return false // the monitor already declared this node dead
			}
			if err == io.EOF || errors.Is(err, syscall.ECONNRESET) {
				s.connDeath(procs, fmt.Sprintf("nettransport: node %v closed its connection without detaching (process died?)", procs))
				return false
			}
			s.connDeath(procs, fmt.Sprintf("nettransport: reading from node %v: %v", procs, err))
			return false
		}
		cs.lastHeard.Store(time.Now().UnixNano())
		// Frames for hub-hosted processors stream-decode straight off the
		// connection — unless the sender was declared dead, in which case the
		// payload must be slurped anyway to keep the stream in sync.
		if s.localSet[arch.ProcID(dst)] && !(s.anyDead.Load() && s.allDead(procs)) {
			if serr := s.deliverLocalStream(br, arch.ProcID(dst), key, n-frameHeader); serr != nil {
				if s.closing.Load() || s.aborted.Load() || cs.condemned.Load() {
					return detached
				}
				s.connDeath(procs, fmt.Sprintf("nettransport: reading from node %v: %v", procs, serr))
				return false
			}
			continue
		}
		fb, payload, err := readFrameRest(br, n, dst, key)
		if err != nil {
			if s.closing.Load() || s.aborted.Load() || cs.condemned.Load() {
				return detached
			}
			s.connDeath(procs, fmt.Sprintf("nettransport: reading from node %v: %v", procs, err))
			return false
		}
		switch dst {
		case abortDst:
			putBuf(fb)
			s.Abort()
			return detached
		case detachDst:
			putBuf(fb)
			detached = true
			continue
		case heartbeatDst:
			putBuf(fb)
			continue
		case peersDst:
			putBuf(fb)
			s.failf("nettransport: node %v sent a peers frame", procs)
			return detached
		case batchDst:
			berr := forEachBatched(payload, func(d uint32, k transport.Key, body []byte) error {
				return s.nodeFrame(d, k, body, procs, &detached)
			})
			putBuf(fb)
			if berr == errStopRead {
				return detached
			}
			if berr != nil {
				s.failf("nettransport: batch from node %v: %v", procs, berr)
				return detached
			}
			continue
		}
		if s.anyDead.Load() && s.allDead(procs) {
			// A deadline-suspected node may still be running; anything it
			// sends after being declared dead is stale and dropped.
			putBuf(fb)
			continue
		}
		p := arch.ProcID(dst)
		if s.localSet[p] {
			s.deliverLocal(p, key, payload)
			putBuf(fb)
			continue
		}
		s.hops.Add(1)
		s.routeRemote(p, outFrame{head: fb}, procs)
	}
}

// nodeFrame dispatches one frame unpacked from a node's batch. Unlike the
// top-level loop — which relays a remote-bound frame by handing its arena
// buffer straight to the destination's connection — a batched sub-frame
// aliases the batch buffer, so relaying re-frames it into its own buffer.
func (s *Session) nodeFrame(dst uint32, key transport.Key, payload []byte, procs []arch.ProcID, detached *bool) error {
	switch dst {
	case abortDst:
		s.Abort()
		return errStopRead
	case detachDst:
		*detached = true
		return nil
	case heartbeatDst:
		return nil
	case peersDst:
		s.failf("nettransport: node %v sent a peers frame", procs)
		return errStopRead
	}
	if s.anyDead.Load() && s.allDead(procs) {
		return nil // stale traffic from a declared-dead node, dropped
	}
	p := arch.ProcID(dst)
	if s.localSet[p] {
		s.deliverLocal(p, key, payload)
		return nil
	}
	fb := getBuf(4 + frameHeader + len(payload))
	buf := binary.BigEndian.AppendUint32(fb.b, uint32(frameHeader+len(payload)))
	buf = appendHeader(buf, dst, key)
	fb.b = append(buf, payload...)
	s.hops.Add(1)
	s.routeRemote(p, outFrame{head: fb}, procs)
	return nil
}

// connDeath handles a connection whose node died (EOF without detach, read
// error, or heartbeat timeout). With no peer-down handler registered the
// legacy behavior stands: the death is a session-wide fatal error. With a
// handler, the failure is contained — the node's processors are marked
// dead, surviving nodes are told, and the executive decides what survives.
func (s *Session) connDeath(procs []arch.ProcID, legacy string) {
	s.pdMu.Lock()
	fn := s.pdFn
	s.pdMu.Unlock()
	if fn == nil {
		s.failf("%s", legacy)
		return
	}
	s.peerDown(procs)
}

// OnPeerDown registers the executive's failure handler, switching peer
// death from abort-the-cluster to contain-and-notify. Register before the
// run's traffic starts.
func (s *Session) OnPeerDown(fn transport.PeerDown) {
	s.pdMu.Lock()
	s.pdFn = fn
	s.pdMu.Unlock()
}

// MarkPeerDown declares p dead without invoking the handler: the executive
// calls this when it concludes a processor is gone (task deadline overrun)
// so the transport stops routing to it and tells the other nodes. The
// hub-side observation path (connDeath) notifies; this one does not, as
// the caller already knows.
func (s *Session) MarkPeerDown(p arch.ProcID) {
	s.markDown([]arch.ProcID{p})
}

// peerDown marks procs dead and notifies the registered handler of the
// ones not already known dead.
func (s *Session) peerDown(procs []arch.ProcID) {
	fresh := s.markDown(procs)
	if len(fresh) == 0 {
		return
	}
	s.pdMu.Lock()
	fn := s.pdFn
	s.pdMu.Unlock()
	if fn != nil {
		fn(fresh)
	}
}

// markDown records procs as dead, drops their buffered frames, and
// broadcasts a peer-down control frame so every node contains the same
// failure. Returns the procs that were not already dead.
func (s *Session) markDown(procs []arch.ProcID) []arch.ProcID {
	s.mu.Lock()
	var fresh []arch.ProcID
	for _, p := range procs {
		if int(p) < 0 || int(p) >= s.a.N || s.dead[p] || s.localSet[p] {
			continue
		}
		s.dead[p] = true
		fresh = append(fresh, p)
		for _, f := range s.pending[p] {
			putBuf(f.head)
		}
		delete(s.pending, p)
	}
	conns := append([]*wconn(nil), s.conns...)
	s.mu.Unlock()
	if len(fresh) == 0 {
		return nil
	}
	s.anyDead.Store(true)
	payload := encodeProcs(fresh)
	for _, w := range conns {
		// enqueue: the dead node's own conn is among these and its socket may
		// be mid-teardown; a blocking inline write here could stall or error
		// from the caller's goroutine.
		w.enqueue(controlFrame(peerDownDst, payload))
	}
	return fresh
}

// allDead reports whether every processor in procs has been declared dead
// (vacuously false for an empty list).
func (s *Session) allDead(procs []arch.ProcID) bool {
	if !s.anyDead.Load() || len(procs) == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range procs {
		if !s.dead[p] {
			return false
		}
	}
	return true
}

// isDead reports whether p has been declared dead.
func (s *Session) isDead(p arch.ProcID) bool {
	if !s.anyDead.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dead[p]
}

// routeRemote forwards a frame to dst's control connection, or buffers it
// (up to maxPending frames) if dst has not attached yet. Frames for a
// departed processor (clean detach) are dropped: they belong to the epoch
// that ended with the detach.
func (s *Session) routeRemote(p arch.ProcID, f outFrame, from []arch.ProcID) {
	if int(p) < 0 || int(p) >= s.a.N {
		putBuf(f.head)
		s.failf("nettransport: frame from node %v for unknown processor %d", from, p)
		return
	}
	if s.isDead(p) {
		putBuf(f.head) // frames to the dead are dropped, like loss in flight
		return
	}
	s.mu.Lock()
	if s.departed[p] {
		s.mu.Unlock()
		putBuf(f.head)
		return
	}
	w, ok := s.remote[p]
	if !ok {
		if len(s.pending[p]) >= maxPending {
			s.mu.Unlock()
			putBuf(f.head)
			s.failf("nettransport: backlog for unattached processor %d exceeds %d frames", p, maxPending)
			return
		}
		f.capture() // buffered frames must not borrow sender memory
		s.pending[p] = append(s.pending[p], f)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	if err := w.send(f); err != nil && !s.closing.Load() && !s.aborted.Load() {
		s.failf("nettransport: forwarding to processor %d: %v", p, err)
	}
}

// deliverLocal decodes a frame payload and delivers it to a hub-hosted
// processor's mailbox.
func (s *Session) deliverLocal(p arch.ProcID, key transport.Key, payload []byte) {
	v, err := value.Decode(payload)
	if err != nil {
		s.failf("nettransport: decoding frame for processor %d key %v: %v", p, key, err)
		return
	}
	s.bytesRecv.Add(int64(len(payload)))
	if rec := s.rec.Load(); rec != nil {
		rec.Record(int32(p), obsv.EvRecv, s.kl.Of(key), -1, int64(len(payload)))
	}
	s.boxes[p].Deliver(key, v)
}

// deliverLocalStream is deliverLocal reading the payload straight off the
// connection (see Client.deliverStream): pixel slabs land in their arena
// image without an intermediate frame buffer. An error leaves br mid-frame;
// the caller must stop reading the connection.
func (s *Session) deliverLocalStream(br *bufio.Reader, p arch.ProcID, key transport.Key, n int) error {
	v, err := value.DecodeStream(br, n)
	if err != nil {
		return fmt.Errorf("decoding frame for processor %d key %v: %v", p, key, err)
	}
	s.bytesRecv.Add(int64(n))
	if rec := s.rec.Load(); rec != nil {
		rec.Record(int32(p), obsv.EvRecv, s.kl.Of(key), -1, int64(n))
	}
	s.boxes[p].Deliver(key, v)
	return nil
}

func (s *Session) failf(format string, args ...any) {
	s.errMu.Lock()
	first := s.err == nil
	if first {
		s.err = fmt.Errorf(format, args...)
	}
	s.errMu.Unlock()
	if first {
		close(s.failed)
	}
	if rec := s.rec.Load(); rec != nil {
		rec.Record(-1, obsv.EvAbort, 0, -1, 0)
	}
	s.Abort()
}

// SetTrace arms event recording on r: send/recv with byte sizes for
// hub-local processors, enqueue/park/wake through the mailboxes. Call
// before traffic starts.
func (s *Session) SetTrace(r *obsv.Recorder) {
	s.kl.Reset(r)
	s.rec.Store(r)
	for p, b := range s.boxes {
		b.SetTrace(r, int32(p), &s.kl)
	}
}

// QueueDepth reports the total delivered-but-unconsumed values across the
// hub-local mailboxes (a point-in-time gauge for metrics).
func (s *Session) QueueDepth() int {
	n := 0
	for _, b := range s.boxes {
		n += b.Depth()
	}
	return n
}

// ClusterInfo is a session's point-in-time view of its deployment, exposed
// on the coordinator's /varz endpoint.
type ClusterInfo struct {
	// Ready is true once every non-local processor has attached and the
	// peer address map has been broadcast.
	Ready bool `json:"ready"`
	// Local lists the coordinator-hosted processors, Attached the remotely
	// attached ones.
	Local    []int `json:"local"`
	Attached []int `json:"attached"`
	// Pending counts frames buffered for processors not yet attached.
	Pending int `json:"pending"`
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
	sort.Ints(ci.Local)
	select {
	case <-s.ready:
		ci.Ready = true
	default:
	}
	s.mu.Lock()
	for p := range s.remote {
		ci.Attached = append(ci.Attached, int(p))
	}
	for _, fs := range s.pending {
		ci.Pending += len(fs)
	}
	for p := range s.dead {
		ci.Dead = append(ci.Dead, int(p))
	}
	for p := range s.departed {
		ci.Departed = append(ci.Departed, int(p))
	}
	s.mu.Unlock()
	sort.Ints(ci.Attached)
	sort.Ints(ci.Dead)
	sort.Ints(ci.Departed)
	return ci
}

// Send injects a message from a hub-local processor. Local destinations
// skip the codec entirely (the payload is passed by reference, exactly as
// the mem backend does); remote ones are flattened and shipped over the
// destination's control connection.
func (s *Session) Send(src, dst arch.ProcID, key transport.Key, payload value.Value) {
	if s.isDead(dst) {
		return // uncounted, like loss in flight
	}
	s.messages.Add(1)
	if s.localSet[dst] {
		n := int64(value.SizeOf(payload))
		s.bytesSent.Add(n)
		s.bytesRecv.Add(n)
		if rec := s.rec.Load(); rec != nil {
			id := s.kl.Of(key)
			rec.Record(int32(src), obsv.EvSend, id, int32(dst), n)
			rec.Record(int32(dst), obsv.EvRecv, id, -1, n)
		}
		s.boxes[dst].Deliver(key, payload)
		return
	}
	f, err := encodeMessage(dst, key, payload)
	if err != nil {
		s.failf("nettransport: encoding %v for processor %d: %v", key, dst, err)
		return
	}
	wireBytes := int64(len(f.head.b) - 4 - frameHeader + len(f.tail))
	s.bytesSent.Add(wireBytes)
	if rec := s.rec.Load(); rec != nil {
		rec.Record(int32(src), obsv.EvSend, s.kl.Of(key), int32(dst), wireBytes)
	}
	s.routeRemote(dst, f, nil)
}

// Recv blocks on a hub-local processor's mailbox.
func (s *Session) Recv(p arch.ProcID, key transport.Key) (value.Value, bool) {
	return s.boxes[p].Recv(key)
}

// Receiver returns the mailbox slot for (p, key).
func (s *Session) Receiver(p arch.ProcID, key transport.Key) transport.Receiver {
	return s.boxes[p].Slot(key)
}

// Abort propagates a session-wide abort: every attached client gets an
// abort control frame, and all local mailboxes unblock. Other sessions on
// the same fleet hub are untouched.
func (s *Session) Abort() {
	s.abortOnce.Do(func() {
		s.aborted.Store(true)
		s.mu.Lock()
		conns := append([]*wconn(nil), s.conns...)
		s.mu.Unlock()
		for _, w := range conns {
			w.send(controlFrame(abortDst, nil)) // best effort: the conn may already be gone
		}
		for _, b := range s.boxes {
			b.Close()
		}
	})
}

// sever tears the session down the way a coordinator crash would: no abort
// broadcast, no queue flush — every control connection closes abruptly and
// local mailboxes are killed.
func (s *Session) sever() {
	s.severOnce.Do(func() {
		s.closing.Store(true)
		s.mu.Lock()
		s.closed = true
		conns := append([]*wconn(nil), s.conns...)
		s.mu.Unlock()
		for _, w := range conns {
			w.c.Close()
		}
		for _, b := range s.boxes {
			b.Kill()
		}
		s.f.dropSession(s)
	})
}

// Close aborts the session and tears down its connections (flushing queued
// frames, bounded by flushTimeout), then retires it from the fleet hub so
// the fingerprint can be reused. The hub's listener and other sessions keep
// running; connection reader goroutines are owned by the fleet hub and
// reaped by its Close.
func (s *Session) Close() error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		s.mu.Lock()
		s.closed = true
		conns := append([]*wconn(nil), s.conns...)
		pending := s.pending
		s.pending = map[arch.ProcID][]outFrame{}
		s.mu.Unlock()
		for _, fs := range pending {
			for _, f := range fs {
				putBuf(f.head)
			}
		}
		s.Abort()
		for _, w := range conns {
			w.flushClose()
		}
		s.f.dropSession(s)
	})
	return nil
}

// Err reports the first session-side failure, or nil.
func (s *Session) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.err
}

// Stats reports messages injected by hub-local processors, frames the hub
// relayed between node processes (zero once the mesh is up: every
// client↔client frame then travels point to point) and payload volume;
// safe to call concurrently with traffic.
func (s *Session) Stats() transport.Stats {
	return transport.Stats{
		Messages:  s.messages.Load(),
		Hops:      s.hops.Load(),
		BytesSent: s.bytesSent.Load(),
		BytesRecv: s.bytesRecv.Load(),
	}
}
