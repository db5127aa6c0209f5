package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/obsv"
	"skipper/internal/syndex"
)

// FaultTolerance configures farm-level failure recovery (DESIGN.md §11).
// Data-farm skeletons are fault-tolerant by construction: a task is a pure
// function of its input, so re-executing it on a surviving worker is
// semantically free. The executive exploits that — when a worker processor
// dies (transport-detected) or a task deadline fires (executive-detected),
// the in-flight task is re-enqueued on the surviving pool and the run
// completes bit-identically on the shrunken cluster. Processors hosting
// anything other than farm-worker ops carry irreplaceable state, so their
// death remains a cluster-wide fatal error.
type FaultTolerance struct {
	// MaxRetries bounds how many times one task may be re-dispatched after
	// its worker died or its deadline fired. Zero disables fault tolerance
	// entirely (the default): any peer death aborts the cluster.
	MaxRetries int
	// TaskDeadline, when positive, bounds how long a dispatched task may
	// stay outstanding before the executive suspects its worker dead and
	// re-dispatches — catching workers that hang rather than crash, which
	// no transport-level detector can see. Must comfortably exceed the
	// slowest legitimate task, or healthy workers get declared dead.
	TaskDeadline time.Duration
	// SpeculateAfter is the straggler threshold (DESIGN.md §11): when a
	// dispatched task sits unanswered this long and an idle live worker
	// exists, the master duplicates the task onto it. The first valid
	// same-generation reply wins, the loser's reply is discarded by the
	// done check, and the slow worker keeps its good standing — no
	// MarkPeerDown, no retry-budget charge — unless the hard TaskDeadline
	// later fires. It gets no new task, this frame or a later one, until
	// its late reply arrives. Zero defaults to TaskDeadline/2 when a deadline is set
	// (speculation rides the same watchdog); a negative value disables
	// speculation explicitly.
	SpeculateAfter time.Duration
}

// speculateAfter resolves the effective speculation threshold: an explicit
// positive value wins, zero inherits half the hard deadline, negative (or
// no deadline to inherit from) disables.
func (ft FaultTolerance) speculateAfter() time.Duration {
	if ft.SpeculateAfter != 0 {
		return max(ft.SpeculateAfter, 0)
	}
	return max(ft.TaskDeadline/2, 0)
}

// ftState is the per-run fault-tolerance bookkeeping. It is built before
// the run's programs are lowered and the peer-down handler is registered
// after, so farms never changes while the handler can run.
type ftState struct {
	dead  []atomic.Bool // indexed by processor: declared dead this run
	farms []*farm       // every farm master this machine hosts
}

// procTolerable reports whether p's death is survivable: its program must
// consist solely of farm-worker ops, whose tasks are stateless and
// re-executable elsewhere. Anything else on the processor — sends,
// receives, memory nodes, masters — is irreplaceable.
func (m *Machine) procTolerable(p arch.ProcID) bool {
	for _, op := range m.sched.Programs[p] {
		if op.Kind != syndex.OpWorker {
			return false
		}
	}
	return true
}

// handlePeerDown is the transport's failure callback: classify the deaths
// (tolerable or fatal), record them, and wake every farm master that is
// mid-invocation so it can re-dispatch the dead workers' in-flight tasks.
// The wake-up is a transport.ProcsDown self-sent to the master's reply
// stream, so a master learns of deaths at the same point it learns of
// everything else, with no extra synchronization in its dispatch loop.
func (m *Machine) handlePeerDown(procs []arch.ProcID) {
	ft := m.ft
	if ft == nil {
		return
	}
	var fresh []arch.ProcID
	for _, p := range procs {
		if int(p) >= 0 && int(p) < len(ft.dead) && !ft.dead[p].Swap(true) {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 {
		return
	}
	for _, p := range fresh {
		if !m.procTolerable(p) {
			m.fail(fmt.Errorf("exec: processor %d died hosting ops other than farm workers; the cluster cannot recover", p))
			return
		}
	}
	for _, p := range fresh {
		m.ftFailures.Add(1)
		m.Trace.Record(int32(p), obsv.EvPeerDown, 0, -1, 0)
	}
	for _, f := range ft.farms {
		// A master marks itself active before it reads the dead set, and the
		// deaths above are marked before active is read here: a death the
		// master did not see at its start reaches it as ProcsDown.
		if f.active.Load() {
			m.t.Send(f.p, f.p, f.replyKey, transport.ProcsDown{Procs: fresh})
		}
	}
}
