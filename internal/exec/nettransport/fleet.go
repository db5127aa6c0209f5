package nettransport

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"skipper/internal/arch"
	"skipper/internal/obsv"
)

// FleetHub is the long-lived listener side of the net backend: one bound
// address that outlives any single deployment. Node processes attach with a
// fingerprinted hello exactly as before, but the fingerprint now *selects* —
// each active Session (one per job) is registered under its fingerprint, and
// a connection is handed to the session it was compiled against. That makes
// the hub address a durable rendezvous for an elastic fleet: workers come
// and go across jobs while the listener, and therefore the address clients
// and workers hold, stays put. A rejected fingerprint means no such
// deployment is active, which also guarantees frames from different jobs
// sharing a worker can never cross: they ride different sessions here and
// differently-fingerprinted peer connections on the data plane. The same
// listener takes fleet members: a join hello goes to the hub's join
// handler instead of a session (Member).
type FleetHub struct {
	ln       net.Listener
	join     func(*Member) error // nil: joins are refused
	hb       time.Duration       // heartbeat interval; 0 = no liveness monitor
	meshWait time.Duration       // bound on a session Send waiting for attachment
	// trace (WithTrace) pre-arms every session opened on this hub — set for
	// NewHub's single session so the recorder is live before any node
	// attaches; schedulers multiplexing sessions arm each one instead.
	trace *obsv.Recorder

	mu       sync.Mutex
	sessions map[uint64]*Session
	closed   bool

	monStop chan struct{}
	monOnce sync.Once

	closing atomic.Bool
	wg      sync.WaitGroup
}

// NewFleetHub binds addr (e.g. "127.0.0.1:0" or "unix:/tmp/hub.sock"; see
// Addr for the bound address) and starts accepting connections. Sessions
// are opened per deployment with OpenSession; a connection whose
// fingerprint matches no open session is rejected in the handshake. join,
// when not nil, takes every member that joins (see Member); without it
// the hub refuses joins.
func NewFleetHub(addr string, join func(*Member) error, opts ...Option) (*FleetHub, error) {
	o := buildOptions(opts)
	ln, err := listenNet(addr)
	if err != nil {
		return nil, err
	}
	f := &FleetHub{
		ln:       ln,
		join:     join,
		hb:       o.heartbeat,
		meshWait: o.meshWait,
		trace:    o.trace,
		sessions: map[uint64]*Session{},
	}
	f.wg.Add(1)
	go f.acceptLoop()
	if f.hb > 0 {
		f.monStop = make(chan struct{})
		f.wg.Add(1)
		go f.monitor()
	}
	return f, nil
}

// Addr is the address clients should dial ("unix:"-prefixed when the hub
// listens on a unix-domain socket).
func (f *FleetHub) Addr() string { return joinNetAddr(f.ln) }

// OpenSession registers a deployment on the hub: connections whose hello
// carries fingerprint are routed to the returned Session. local are the
// processors hosted in this process (typically processor 0 with the
// input/output nodes). The fingerprint must be unique among open sessions —
// a scheduler multiplexing identical jobs salts it per job.
func (f *FleetHub) OpenSession(a *arch.Arch, fingerprint uint64, local []arch.ProcID) (*Session, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("nettransport: fleet hub is closed")
	}
	if _, dup := f.sessions[fingerprint]; dup {
		return nil, fmt.Errorf("nettransport: a session with fingerprint %#x is already open", fingerprint)
	}
	s := newSession(f, a, fingerprint, local)
	if f.trace != nil {
		// Before the registry insert: once registered, a dialing node's
		// frames route to this session immediately.
		s.kl.Reset(f.trace)
		s.rec.Store(f.trace)
	}
	f.sessions[fingerprint] = s
	return s, nil
}

// session looks up the open session for a fingerprint, nil if none.
func (f *FleetHub) session(fingerprint uint64) *Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sessions[fingerprint]
}

// dropSession retires a session from the registry (called by
// Session.Close/Sever), freeing its fingerprint for reuse.
func (f *FleetHub) dropSession(s *Session) {
	f.mu.Lock()
	if f.sessions[s.fp] == s {
		delete(f.sessions, s.fp)
	}
	f.mu.Unlock()
}

// snapshotSessions returns the open sessions at this instant.
func (f *FleetHub) snapshotSessions() []*Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Session, 0, len(f.sessions))
	for _, s := range f.sessions {
		out = append(out, s)
	}
	return out
}

// SessionCount reports how many deployments are currently open on the hub.
func (f *FleetHub) SessionCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sessions)
}

func (f *FleetHub) acceptLoop() {
	defer f.wg.Done()
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			f.ServeConn(c)
		}()
	}
}

// ServeConn reads one handshake on a connection accepted for the hub and
// hands the connection to the join handler or to the session it
// fingerprints; the accept loop runs it per connection, and a caller with
// a connection of its own (a net.Pipe) may too. An unknown fingerprint is a
// per-connection rejection, never a hub-wide fault: on a multi-job hub one
// confused node must not take the other deployments down.
func (f *FleetHub) ServeConn(c net.Conn) {
	setNoDelay(c)
	br := bufio.NewReaderSize(c, readBufSize)
	hel, err := readHello(br)
	if err != nil {
		writeHelloReply(c, err.Error(), false)
		c.Close()
		return
	}
	if hel.name != "" {
		f.serveJoin(c, br, hel.name)
		return
	}
	s := f.session(hel.fingerprint)
	if s == nil {
		writeHelloReply(c, fmt.Sprintf("no active deployment with schedule fingerprint %#x on this hub (nodes compiled a different deployment?)", hel.fingerprint), false)
		c.Close()
		return
	}
	s.serveConn(c, br, hel)
}

// serveJoin answers a join hello with the join handler's verdict: the
// welcome, or its refusal. The member's writer is held until the reply is
// written, so nothing the handler's side sends can precede the welcome.
func (f *FleetHub) serveJoin(c net.Conn, br *bufio.Reader, name string) {
	if f.join == nil {
		writeHelloReply(c, "this hub takes no fleet members (it hosts a single deployment)", false)
		c.Close()
		return
	}
	m := newMember(name, c, br)
	m.w.wmu.Lock()
	defer m.w.wmu.Unlock()
	if err := f.join(m); err != nil {
		writeHelloReply(c, err.Error(), false)
		c.Close()
		return
	}
	if writeHelloReply(c, "", false) != nil {
		c.Close() // the handler's side reads the member's death
	}
}

// Member is one end of a fleet member's connection to a hub: the worker's,
// from Join, or the hub's, handed to its join handler. The ends exchange
// member frames, each carrying one control-plane message the transport
// does not interpret, through the connection's locked writer; a clean
// leave is a detach frame, and an end of stream without one is a death,
// the rule a session applies to its nodes.
type Member struct {
	name string
	w    *wconn
	br   *bufio.Reader
}

func newMember(name string, c net.Conn, br *bufio.Reader) *Member {
	return &Member{name: name, w: newWConn(c, nil), br: br}
}

// Join joins the fleet of the hub at the other end of c (see DialHub)
// under name. The hub's refusal, if it refuses, is the error; c is closed
// then.
func Join(c net.Conn, name string) (*Member, error) {
	if name == "" {
		c.Close()
		return nil, fmt.Errorf("nettransport: joining a fleet takes a name")
	}
	if err := writeHello(c, hello{name: name}); err != nil {
		c.Close()
		return nil, fmt.Errorf("nettransport: join hello: %w", err)
	}
	br := bufio.NewReaderSize(c, readBufSize)
	if _, _, err := readHelloReply(br); err != nil {
		c.Close()
		return nil, err
	}
	return newMember(name, c, br), nil
}

// Name is the name the member joined under.
func (m *Member) Name() string { return m.name }

// Send writes one member frame carrying payload.
func (m *Member) Send(payload []byte) error {
	if len(payload) > maxFrame-frameHeader {
		return fmt.Errorf("nettransport: member message of %d bytes exceeds the frame limit", len(payload))
	}
	return m.w.send(controlFrame(memberDst, payload))
}

// Recv returns the next member frame's payload. io.EOF means the other end
// left cleanly, with a detach frame. Any other error is its death: the
// stream ended without a detach, or carried a frame no member sends (one
// past the frame limit, which is refused before anything is allocated, a
// truncated one, or one for another destination).
func (m *Member) Recv() ([]byte, error) {
	n, dst, _, err := readFrameHeader(m.br)
	switch {
	case err == io.EOF:
		return nil, fmt.Errorf("nettransport: member %q closed its connection without detaching", m.name)
	case err != nil:
		return nil, err
	case dst == detachDst:
		return nil, io.EOF
	case dst != memberDst:
		return nil, fmt.Errorf("nettransport: member %q sent a frame for %#x", m.name, dst)
	}
	fb, payload, err := readPayload(m.br, n-frameHeader)
	if err != nil {
		return nil, err
	}
	defer putBuf(fb)
	return bytes.Clone(payload), nil
}

// Leave departs cleanly: a detach frame after what was already sent, then
// the connection closes.
func (m *Member) Leave() { m.w.flushClose(controlFrame(detachDst, nil)) }

// Close drops the connection without a detach: the other end reads a death.
func (m *Member) Close() error { return m.w.c.Close() }

// monitor is the fleet-wide liveness watchdog, armed by WithHeartbeat: a
// connection with no frames at all for 3 heartbeat intervals is condemned —
// its processors are declared dead in its session and its socket severed,
// catching nodes that hang or vanish without closing their connection
// (which plain TCP can take minutes to surface).
func (f *FleetHub) monitor() {
	defer f.wg.Done()
	t := time.NewTicker(f.hb)
	defer t.Stop()
	for {
		select {
		case <-f.monStop:
			return
		case <-t.C:
		}
		if f.closing.Load() {
			return
		}
		limit := time.Now().Add(-3 * f.hb).UnixNano()
		for _, s := range f.snapshotSessions() {
			if s.closing.Load() || s.aborted.Load() {
				continue
			}
			s.mu.Lock()
			states := append([]*connState(nil), s.states...)
			s.mu.Unlock()
			for _, cs := range states {
				if cs.gone.Load() || cs.condemned.Load() || cs.lastHeard.Load() >= limit {
					continue
				}
				cs.condemned.Store(true)
				s.connDeath(cs.procs, fmt.Sprintf("nettransport: node %v sent no frames for %v (process hung?)", cs.procs, 3*f.hb))
				cs.w.c.Close() // unblock its readLoop; condemned makes that exit silent
			}
		}
	}
}

func (f *FleetHub) stopMonitor() {
	if f.monStop != nil {
		f.monOnce.Do(func() { close(f.monStop) })
	}
}

// Sever tears the hub down the way a coordinator crash would: no abort
// broadcast, no queue flush — the listener and every session's control
// connections close abruptly and local mailboxes are killed. Attached
// clients observe exactly what a died coordinator produces (EOF on the
// control connection), which makes Sever the in-process stand-in for
// kill -9 in chaos tests.
func (f *FleetHub) Sever() {
	f.closing.Store(true)
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.stopMonitor()
	f.ln.Close()
	for _, s := range f.snapshotSessions() {
		s.Sever()
	}
	f.wg.Wait()
}

// Close shuts the hub down cleanly: the listener closes, every open session
// is closed (abort + flush), and the hub's goroutines are reaped.
func (f *FleetHub) Close() error {
	f.closing.Store(true)
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.stopMonitor()
	f.ln.Close()
	for _, s := range f.snapshotSessions() {
		s.Close()
	}
	f.wg.Wait()
	return nil
}
