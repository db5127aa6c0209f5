package nettransport_test

import (
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/nettransport"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
	"skipper/internal/leakcheck"
	"skipper/internal/obsv"
)

// waitCluster polls a session's ClusterInfo until cond holds or the
// deadline passes; detach bookkeeping happens on the hub's read loop,
// asynchronously to the client's Close.
func waitCluster(t *testing.T, s *nettransport.Session, cond func(nettransport.ClusterInfo) bool) nettransport.ClusterInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ci := s.ClusterInfo()
		if cond(ci) {
			return ci
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached expected state: %+v", ci)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWorkerChurnFreshSession drills the elastic-fleet contract on one
// session: a worker that detaches cleanly and re-attaches under the same
// processor ID must get a fresh epoch — no resurrected frames, no stale
// peers-map entry — and the deployment must become ready again.
func TestWorkerChurnFreshSession(t *testing.T) {
	a := arch.Ring(3)
	hub, err := nettransport.NewHub("127.0.0.1:0", a, 0xc0ffee, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	c1, err := nettransport.Dial(hub.Addr(), 0xc0ffee, []arch.ProcID{1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	// Attached is empty before the hub has registered the connection too
	// (Dial returns on the hello reply), so wait for the detach itself.
	ci := waitCluster(t, hub, func(ci nettransport.ClusterInfo) bool {
		return len(ci.Attached) == 0 && len(ci.Departed) == 1
	})
	if len(ci.Departed) != 1 || ci.Departed[0] != 1 {
		t.Fatalf("departed = %v, want [1]", ci.Departed)
	}

	// A frame addressed to the departed processor belongs to the epoch that
	// ended with the detach: it must be dropped at once, not held for the
	// next attach under the same ID.
	k := transport.EdgeKey(graph.EdgeID(4))
	hub.Send(0, 1, k, "stale")

	c1b, err := nettransport.Dial(hub.Addr(), 0xc0ffee, []arch.ProcID{1}, time.Second)
	if err != nil {
		t.Fatalf("re-attach after clean detach rejected: %v", err)
	}
	defer c1b.Close()
	c2, err := nettransport.Dial(hub.Addr(), 0xc0ffee, []arch.ProcID{2}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := hub.WaitReady(2 * time.Second); err != nil {
		t.Fatalf("session not ready after churn: %v", err)
	}
	ci = hub.ClusterInfo()
	if len(ci.Departed) != 0 {
		t.Fatalf("departed = %v after re-attach, want none", ci.Departed)
	}

	// First frame out of the mailbox must be the fresh one; a resurrected
	// "stale" would have gone out at attach time, ahead of it.
	hub.Send(0, 1, k, "fresh")
	if v, ok := c1b.Recv(1, k); !ok || v.(string) != "fresh" {
		t.Fatalf("recv after re-attach = %v %v, want \"fresh\"", v, ok)
	}

	// The peers map handed to c2 must point at the re-attached listener:
	// a mesh frame from 2 reaches the new client 1.
	km := transport.EdgeKey(graph.EdgeID(5))
	c2.Send(2, 1, km, "mesh")
	if v, ok := c1b.Recv(1, km); !ok || v.(string) != "mesh" {
		t.Fatalf("mesh frame after churn = %v %v, want \"mesh\"", v, ok)
	}
}

// TestSessionReclaimsGoroutines: a session opened, attached, used and
// closed leaves nothing running — the hub's accept and read loops and each
// client's loops and peer listener all end with Close.
func TestSessionReclaimsGoroutines(t *testing.T) {
	openClose := func() {
		hub, err := nettransport.NewHub("127.0.0.1:0", arch.Ring(3), 0x1eac, []arch.ProcID{0})
		if err != nil {
			t.Fatal(err)
		}
		defer hub.Close()
		for p := arch.ProcID(1); p <= 2; p++ {
			c, err := nettransport.Dial(hub.Addr(), 0x1eac, []arch.ProcID{p}, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
		}
		if err := hub.WaitReady(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		k := transport.EdgeKey(graph.EdgeID(7))
		hub.Send(0, 2, k, "frame")
	}
	openClose() // the first session starts the runtime's and net's lazy goroutines
	reclaimed := leakcheck.Goroutines(t)
	openClose()
	reclaimed()
}

// TestEarlyDetachStillCompletes: a node whose program is empty detaches
// cleanly before the slowest node has dialed in. The cluster must still
// complete — the hub becomes ready and the late node gets its peers map, so
// its first remote Send goes out instead of waiting out the mesh timeout.
func TestEarlyDetachStillCompletes(t *testing.T) {
	a := arch.Ring(3)
	hub, err := nettransport.NewHub("127.0.0.1:0", a, 0xea71, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	c1, err := nettransport.Dial(hub.Addr(), 0xea71, []arch.ProcID{1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	waitCluster(t, hub, func(ci nettransport.ClusterInfo) bool {
		return len(ci.Departed) == 1
	})

	c2, err := nettransport.Dial(hub.Addr(), 0xea71, []arch.ProcID{2}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := hub.WaitReady(2 * time.Second); err != nil {
		t.Fatalf("session not ready although every processor attached at some point: %v", err)
	}
	k := transport.EdgeKey(graph.EdgeID(6))
	c2.Send(2, 0, k, "late")
	if v, ok := hub.Recv(0, k); !ok || v.(string) != "late" {
		t.Fatalf("recv from the late node = %v %v, want \"late\"", v, ok)
	}
}

// TestDialTraceRecordsBeforeSetTrace: a recorder handed to Dial is live from
// the first inbound frame, which can beat the executive's SetTrace call, so
// the option itself must arm the key-label cache the receive path interns
// through (it used to be armed by SetTrace only, and the reader panicked).
func TestDialTraceRecordsBeforeSetTrace(t *testing.T) {
	a := arch.Ring(2)
	hub, err := nettransport.NewHub("127.0.0.1:0", a, 0x7ace, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	rec := obsv.NewRecorder(a.N, 0)
	c1, err := nettransport.Dial(hub.Addr(), 0x7ace, []arch.ProcID{1}, time.Second, nettransport.WithTrace(rec))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	k := transport.EdgeKey(graph.EdgeID(7))
	hub.Send(0, 1, k, "early")
	if v, ok := c1.Recv(1, k); !ok || v.(string) != "early" {
		t.Fatalf("recv = %v %v, want \"early\"", v, ok)
	}
	var recvs int
	for _, ev := range rec.Snapshot().Events {
		if ev.Kind == obsv.EvRecv {
			recvs++
		}
	}
	if recvs != 1 {
		t.Fatalf("recorded %d receive events before SetTrace, want 1", recvs)
	}
}

// TestCrossJobFrameIsolation pins the multi-job invariant of the fleet hub:
// two sessions share one listener and even the same processor IDs, yet a
// frame keyed for job A is never delivered to job B.
func TestCrossJobFrameIsolation(t *testing.T) {
	f, err := nettransport.NewFleetHub("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	a := arch.Ring(3)
	const fpA, fpB = 0xa0a0, 0xb1b1
	sa, err := f.OpenSession(a, fpA, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := f.OpenSession(a, fpB, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()

	dial := func(fp uint64, p arch.ProcID) *nettransport.Client {
		t.Helper()
		cl, err := nettransport.Dial(f.Addr(), fp, []arch.ProcID{p}, time.Second)
		if err != nil {
			t.Fatalf("dial fp %#x proc %d: %v", fp, p, err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	a1, a2 := dial(fpA, 1), dial(fpA, 2)
	b1, b2 := dial(fpB, 1), dial(fpB, 2)
	if err := sa.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := sb.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Same key, same processor pair, different jobs — over both the control
	// plane (0→1) and the peer mesh (1→2).
	k := transport.EdgeKey(graph.EdgeID(7))
	sa.Send(0, 1, k, "ctl-A")
	sb.Send(0, 1, k, "ctl-B")
	a1.Send(1, 2, k, "mesh-A")
	b1.Send(1, 2, k, "mesh-B")
	if v, ok := a1.Recv(1, k); !ok || v.(string) != "ctl-A" {
		t.Fatalf("job A control frame = %v %v, want \"ctl-A\"", v, ok)
	}
	if v, ok := b1.Recv(1, k); !ok || v.(string) != "ctl-B" {
		t.Fatalf("job B control frame = %v %v, want \"ctl-B\"", v, ok)
	}
	if v, ok := a2.Recv(2, k); !ok || v.(string) != "mesh-A" {
		t.Fatalf("job A mesh frame = %v %v, want \"mesh-A\"", v, ok)
	}
	if v, ok := b2.Recv(2, k); !ok || v.(string) != "mesh-B" {
		t.Fatalf("job B mesh frame = %v %v, want \"mesh-B\"", v, ok)
	}
	// Every mailbox has been drained exactly once: nothing crossed.
	for name, n := range map[string]int{
		"a1": a1.QueueDepth(), "a2": a2.QueueDepth(),
		"b1": b1.QueueDepth(), "b2": b2.QueueDepth(),
		"sa": sa.QueueDepth(), "sb": sb.QueueDepth(),
	} {
		if n != 0 {
			t.Fatalf("%s holds %d undelivered values — a frame crossed jobs", name, n)
		}
	}

	// An abort in job A must not touch job B.
	sa.Abort()
	k2 := transport.EdgeKey(graph.EdgeID(8))
	sb.Send(0, 1, k2, "still-alive")
	if v, ok := b1.Recv(1, k2); !ok || v.(string) != "still-alive" {
		t.Fatalf("job B after job A abort = %v %v, want \"still-alive\"", v, ok)
	}
}

// TestFleetHubSessionRegistry covers the registry contract: unknown
// fingerprints are rejected per-connection, duplicates are refused, and a
// closed session frees its fingerprint for reuse.
func TestFleetHubSessionRegistry(t *testing.T) {
	f, err := nettransport.NewFleetHub("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a := arch.Ring(2)
	s1, err := f.OpenSession(a, 42, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.OpenSession(a, 42, []arch.ProcID{0}); err == nil {
		t.Fatal("duplicate fingerprint accepted")
	}
	if _, err := nettransport.Dial(f.Addr(), 999, []arch.ProcID{1}, 500*time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), "no active deployment") {
		t.Fatalf("unknown fingerprint dial err = %v, want rejection", err)
	}
	if n := f.SessionCount(); n != 1 {
		t.Fatalf("SessionCount = %d, want 1", n)
	}
	s1.Close()
	if n := f.SessionCount(); n != 0 {
		t.Fatalf("SessionCount after close = %d, want 0", n)
	}
	s2, err := f.OpenSession(a, 42, []arch.ProcID{0})
	if err != nil {
		t.Fatalf("fingerprint not freed by session close: %v", err)
	}
	s2.Close()
}

// TestStaleUnixSocketRecovered pins the bind-time hygiene fix: a socket
// file left behind by a SIGKILLed process (simulated by closing a listener
// with unlink-on-close disabled) must not make the next bind fail — the
// connect-refused probe identifies it as dead and it is unlinked. A path
// with a *live* listener must still be refused.
func TestStaleUnixSocketRecovered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hub.sock")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close() // the socket file survives, with nobody accepting

	f, err := nettransport.NewFleetHub("unix:"+path, nil)
	if err != nil {
		t.Fatalf("bind over stale socket file: %v", err)
	}
	// The recovered listener works end to end.
	a := arch.Ring(2)
	s, err := f.OpenSession(a, 7, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := nettransport.Dial(f.Addr(), 7, []arch.ProcID{1}, time.Second)
	if err != nil {
		t.Fatalf("dial recovered socket: %v", err)
	}
	k := transport.EdgeKey(graph.EdgeID(1))
	s.Send(0, 1, k, "over-unix")
	if v, ok := cl.Recv(1, k); !ok || v.(string) != "over-unix" {
		t.Fatalf("recv = %v %v, want \"over-unix\"", v, ok)
	}
	cl.Close()

	// Live listener on the path: the probe connects, so the bind error
	// stands instead of yanking a working hub's socket out from under it.
	if _, err := nettransport.NewFleetHub("unix:"+path, nil); err == nil {
		t.Fatal("second hub bound over a live unix listener")
	}
	f.Close()
}
