package nettransport

import (
	"bufio"
	"fmt"
	"net"
	"sort"
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
// differently-fingerprinted peer connections on the data plane.
type FleetHub struct {
	ln       net.Listener
	hb       time.Duration // heartbeat interval; 0 = no liveness monitor
	meshWait time.Duration // bound on a session Send waiting for attachment
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
// fingerprint matches no open session is rejected in the handshake.
func NewFleetHub(addr string, opts ...Option) (*FleetHub, error) {
	o := buildOptions(opts)
	ln, err := ListenNet(addr)
	if err != nil {
		return nil, err
	}
	f := &FleetHub{
		ln:       ln,
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
func (f *FleetHub) Addr() string { return JoinNetAddr(f.ln) }

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

// SessionFingerprints lists the open sessions' fingerprints, sorted (a
// /varz convenience).
func (f *FleetHub) SessionFingerprints() []uint64 {
	f.mu.Lock()
	fps := make([]uint64, 0, len(f.sessions))
	for fp := range f.sessions {
		fps = append(fps, fp)
	}
	f.mu.Unlock()
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	return fps
}

func (f *FleetHub) acceptLoop() {
	defer f.wg.Done()
	for {
		c, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.wg.Add(1)
		go f.serveConn(c)
	}
}

// serveConn reads one handshake and hands the connection to the session it
// fingerprints. An unknown fingerprint is a per-connection rejection, never
// a hub-wide fault: on a multi-job hub one confused node must not take the
// other deployments down.
func (f *FleetHub) serveConn(c net.Conn) {
	defer f.wg.Done()
	setNoDelay(c)
	br := bufio.NewReaderSize(c, readBufSize)
	hel, err := readHello(br)
	if err != nil {
		writeHelloReply(c, err.Error(), false)
		c.Close()
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
