package memtransport

import (
	"testing"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
	"skipper/internal/obsv"
	"skipper/internal/value"
)

// roundTripper builds a send/recv round trip from processor 0 to dst, the
// executive's steady-state hot path.
func roundTripper(t *testing.T, tr *Transport, dst arch.ProcID) func() {
	t.Helper()
	k := transport.EdgeKey(graph.EdgeID(2))
	r := tr.Receiver(dst, k)
	var payload value.Value = "frame"
	return func() {
		tr.Send(0, dst, k, payload)
		if _, ok := r.Recv(); !ok {
			t.Fatal("recv aborted")
		}
	}
}

// TestSendRecvNoAllocsUntraced pins the hot-path allocation budget with
// tracing disabled — the transport's twin of
// transport.TestMailboxSteadyStateAllocationFree: a steady-state
// send/deliver/recv round trip must not allocate at all, to a neighbour or
// across the longest route of ring(8). The hop accounting is a table
// lookup (arch.Route would allocate a path per message), and the
// nil-recorder checks must compile down to branches, not interface
// conversions or closures.
func TestSendRecvNoAllocsUntraced(t *testing.T) {
	tr := New(arch.Ring(8))
	defer tr.Close()
	for _, dst := range []arch.ProcID{1, 4} {
		rt := roundTripper(t, tr, dst)
		for i := 0; i < 100; i++ {
			rt() // warm up: grow the mailbox backing array
		}
		if allocs := testing.AllocsPerRun(10_000, rt); allocs != 0 {
			t.Errorf("untraced round trip 0 -> %d allocates %.1f times/op, want 0", dst, allocs)
		}
	}
}

// TestSendRecvAllocBudgetTraced pins the cost of event recording on the
// same path: with a recorder armed (send, recv, enqueue, park and wake
// events per round trip) the budget is at most 2 allocations/op.
func TestSendRecvAllocBudgetTraced(t *testing.T) {
	tr := New(arch.Ring(4))
	defer tr.Close()
	tr.SetTrace(obsv.NewRecorder(4, 1<<14))
	rt := roundTripper(t, tr, 1)
	for i := 0; i < 100; i++ {
		rt() // warm up: also interns the key label
	}
	if allocs := testing.AllocsPerRun(200, rt); allocs > 2 {
		t.Errorf("traced round trip allocates %.1f times/op, want <= 2", allocs)
	}
}
