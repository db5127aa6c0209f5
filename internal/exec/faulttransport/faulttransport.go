// Package faulttransport wraps any transport backend with deterministic,
// scripted fault injection: per-processor kill-after-N-sends, periodic and
// seeded-probabilistic frame drops, and send delays. It exists so the
// executive's failure detection and farm re-dispatch (DESIGN.md §11) can
// be exercised in ordinary unit tests — same-process, no OS processes to
// kill, reproducible run to run — against both the mem and net backends.
//
// The injected failure model is process death as the surviving cluster
// perceives it: once a processor's kill trigger fires, everything it sends
// vanishes, everything addressed to it vanishes, its blocked receives
// unwind, and the registered peer-down handler is told — exactly the
// sequence a real node crash produces through the TCP control plane, minus
// the wire.
package faulttransport

import (
	"math/rand"
	"sync"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/obsv"
	"skipper/internal/value"
)

// Fault scripts the failures injected at one processor's sends.
type Fault struct {
	// KillAfterSends, when positive, declares the processor dead once it
	// has performed this many Sends: the Nth send is delivered, the N+1th
	// and everything after it is dropped, and the death is announced.
	KillAfterSends int
	// DropEveryNth, when positive, silently drops every Nth send (counted
	// per processor) without declaring anything dead — lossy-link chaos,
	// for exercising deadline-based recovery.
	DropEveryNth int
	// DropProb, in [0,1), drops each send with this probability using the
	// config's seeded generator, so a given seed replays the same loss
	// pattern every run.
	DropProb float64
	// SlowEveryNth, when positive (and SlowFor > 0), delays every Nth send
	// from this processor by SlowFor before delivering it — a deterministic
	// straggler script. The sleep happens on the sender's goroutine, so a
	// scripted farm worker models slow compute: its reply (a worker-only
	// processor's only send) arrives late but intact, exactly the signature
	// speculation and false-suspicion accounting must tolerate. Counted per
	// processor like DropEveryNth; 1 slows every send.
	SlowEveryNth int
	// SlowFor is the delay SlowEveryNth applies.
	SlowFor time.Duration
}

// Config scripts a reproducible chaos scenario.
type Config struct {
	// Seed feeds the probabilistic drops; runs with equal seeds and equal
	// send sequences inject identical faults.
	Seed int64
	// Faults maps processors to their scripted failures.
	Faults map[arch.ProcID]Fault
	// OnKill, when set, replaces the default kill behavior (mark the
	// processor dead on the inner transport and notify the peer-down
	// handler). A distributed chaos harness sets it to exit the whole OS
	// process, turning the scripted trigger into a real node death that
	// the TCP control plane must detect on its own.
	OnKill func(p arch.ProcID)
}

// Transport decorates an inner transport with the scripted faults.
type Transport struct {
	inner transport.Transport
	cfg   Config

	mu     sync.Mutex
	rng    *rand.Rand
	sends  map[arch.ProcID]int
	killed map[arch.ProcID]bool

	pdMu sync.Mutex
	pdFn transport.PeerDown
}

var (
	_ transport.Transport       = (*Transport)(nil)
	_ transport.FailureNotifier = (*Transport)(nil)
	_ transport.PeerDowner      = (*Transport)(nil)
	_ transport.TraceSink       = (*Transport)(nil)
	_ transport.Copier          = (*Transport)(nil)
)

// New wraps inner with cfg's scripted faults.
func New(inner transport.Transport, cfg Config) *Transport {
	return &Transport{
		inner:  inner,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		sends:  map[arch.ProcID]int{},
		killed: map[arch.ProcID]bool{},
	}
}

// Send applies src's scripted faults, then forwards to the inner backend.
// Dropped and post-death sends vanish before the inner transport counts
// them, matching how real backends treat traffic to and from the dead.
func (t *Transport) Send(src, dst arch.ProcID, key transport.Key, payload value.Value) {
	t.mu.Lock()
	if t.killed[src] || t.killed[dst] {
		t.mu.Unlock()
		return
	}
	f, scripted := t.cfg.Faults[src]
	if !scripted {
		t.mu.Unlock()
		t.inner.Send(src, dst, key, payload)
		return
	}
	t.sends[src]++
	n := t.sends[src]
	if f.KillAfterSends > 0 && n > f.KillAfterSends {
		t.killed[src] = true
		t.mu.Unlock()
		t.kill(src)
		return
	}
	drop := (f.DropEveryNth > 0 && n%f.DropEveryNth == 0) ||
		(f.DropProb > 0 && t.rng.Float64() < f.DropProb)
	slow := f.SlowEveryNth > 0 && f.SlowFor > 0 && n%f.SlowEveryNth == 0
	t.mu.Unlock()
	if drop {
		return
	}
	if slow {
		// Outside the lock: other processors' sends must not stall behind
		// the straggler. If the processor is declared dead mid-sleep, the
		// inner backend drops the late frame itself, as it would any send
		// from the dead.
		time.Sleep(f.SlowFor)
	}
	t.inner.Send(src, dst, key, payload)
}

// kill performs the death announcement for p, outside the transport lock
// (the handler typically sends).
func (t *Transport) kill(p arch.ProcID) {
	if t.cfg.OnKill != nil {
		t.cfg.OnKill(p)
		return
	}
	if pd, ok := t.inner.(transport.PeerDowner); ok {
		pd.MarkPeerDown(p)
	}
	t.pdMu.Lock()
	fn := t.pdFn
	t.pdMu.Unlock()
	if fn != nil {
		fn([]arch.ProcID{p})
	}
}

// OnPeerDown registers the failure handler for injected kills and chains
// it to the inner transport, so organically detected deaths (a real TCP
// EOF underneath) reach the same handler.
func (t *Transport) OnPeerDown(fn transport.PeerDown) {
	t.pdMu.Lock()
	t.pdFn = fn
	t.pdMu.Unlock()
	if n, ok := t.inner.(transport.FailureNotifier); ok {
		n.OnPeerDown(fn)
	}
}

// MarkPeerDown forwards the executive's own death verdicts (deadline
// suspicions) to the inner backend and stops routing for p here too.
func (t *Transport) MarkPeerDown(p arch.ProcID) {
	t.mu.Lock()
	t.killed[p] = true
	t.mu.Unlock()
	if pd, ok := t.inner.(transport.PeerDowner); ok {
		pd.MarkPeerDown(p)
	}
}

// Recv delegates to the inner backend.
func (t *Transport) Recv(p arch.ProcID, key transport.Key) (value.Value, bool) {
	return t.inner.Recv(p, key)
}

// Receiver delegates to the inner backend.
func (t *Transport) Receiver(p arch.ProcID, key transport.Key) transport.Receiver {
	return t.inner.Receiver(p, key)
}

// Copies forwards the inner backend's answer; a backend without one passes
// by reference.
func (t *Transport) Copies(src, dst arch.ProcID) bool {
	c, ok := t.inner.(transport.Copier)
	return ok && c.Copies(src, dst)
}

// Abort delegates to the inner backend.
func (t *Transport) Abort() { t.inner.Abort() }

// Close delegates to the inner backend.
func (t *Transport) Close() error { return t.inner.Close() }

// Err delegates to the inner backend.
func (t *Transport) Err() error { return t.inner.Err() }

// Stats delegates to the inner backend; injected drops are uncounted.
func (t *Transport) Stats() transport.Stats { return t.inner.Stats() }

// SetTrace forwards trace recording to the inner backend when supported.
func (t *Transport) SetTrace(r *obsv.Recorder) {
	if ts, ok := t.inner.(transport.TraceSink); ok {
		ts.SetTrace(r)
	}
}
