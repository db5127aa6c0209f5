package transport

import (
	"sync"
	"testing"

	"skipper/internal/graph"
)

// TestMailboxSteadyStateAllocationFree is the regression test for the seed
// retention bug: m.slots[k] = m.slots[k][1:] kept every consumed head
// element reachable and forced append to grow a fresh backing array, so
// pumping packets through one key allocated without bound. The sharded
// slot consumes via a head index and resets the backing array on drain:
// after warm-up, a Deliver/Recv pair through one key must not allocate.
func TestMailboxSteadyStateAllocationFree(t *testing.T) {
	m := NewMailbox()
	k := EdgeKey(graph.EdgeID(1))
	s := m.Slot(k)
	payload := struct{}{} // zero-size: boxing never allocates
	// Warm up: let the slot buffer reach steady state.
	for i := 0; i < 100; i++ {
		s.Deliver(payload)
		if _, ok := s.Recv(); !ok {
			t.Fatal("recv failed during warm-up")
		}
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		s.Deliver(payload)
		if _, ok := s.Recv(); !ok {
			t.Fatal("recv failed")
		}
	})
	if allocs > 0 {
		t.Fatalf("deliver/recv through one key allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestMailboxBurstBoundedMemory pushes 10k packets through a single key in
// bursts and checks the slot's backing buffer stays bounded by the largest
// burst rather than growing with total traffic.
func TestMailboxBurstBoundedMemory(t *testing.T) {
	m := NewMailbox()
	k := ReplyKey(graph.NodeID(7))
	s := m.Slot(k)
	const burst = 64
	for round := 0; round < 10_000/burst; round++ {
		for i := 0; i < burst; i++ {
			s.Deliver(i)
		}
		for i := 0; i < burst; i++ {
			v, ok := s.Recv()
			if !ok {
				t.Fatal("recv failed")
			}
			if v.(int) != i {
				t.Fatalf("FIFO broken: got %v at position %d", v, i)
			}
		}
	}
	if got := s.Cap(); got > 2*burst {
		t.Fatalf("slot buffer grew to cap %d after 10k packets; want bounded by burst size %d", got, burst)
	}
}

// TestMailboxFIFOPerKeyUnderConcurrency checks per-key FIFO order with many
// keys delivered and consumed concurrently (run with -race).
func TestMailboxFIFOPerKeyUnderConcurrency(t *testing.T) {
	m := NewMailbox()
	const keys = 16
	const perKey = 2000
	var wg sync.WaitGroup
	for ki := 0; ki < keys; ki++ {
		k := EdgeKey(graph.EdgeID(ki))
		wg.Add(2)
		go func() { // producer: one ordered stream per key
			defer wg.Done()
			for i := 0; i < perKey; i++ {
				m.Deliver(k, i)
			}
		}()
		go func() { // consumer
			defer wg.Done()
			for i := 0; i < perKey; i++ {
				v, ok := m.Recv(k)
				if !ok {
					t.Errorf("key %v: recv failed at %d", k, i)
					return
				}
				if v.(int) != i {
					t.Errorf("key %v: FIFO broken, got %v want %d", k, v, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMailboxCloseUnblocksWaiters checks clean shutdown: blocked receivers
// on any key return ok=false once the mailbox closes, and values delivered
// before close are still drained first.
func TestMailboxCloseUnblocksWaiters(t *testing.T) {
	m := NewMailbox()
	kEmpty := EdgeKey(graph.EdgeID(1))
	kFull := EdgeKey(graph.EdgeID(2))
	m.Deliver(kFull, "leftover")

	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		close(started)
		if _, ok := m.Recv(kEmpty); ok {
			t.Error("recv on empty key returned ok after close")
		}
	}()
	<-started
	m.Close()
	wg.Wait()

	// Delivered-before-close values drain, then the key reports closed.
	if v, ok := m.Recv(kFull); !ok || v.(string) != "leftover" {
		t.Fatalf("pre-close value lost: %v %v", v, ok)
	}
	if _, ok := m.Recv(kFull); ok {
		t.Fatal("drained closed key still returns ok")
	}
	// Keys first touched after close are born closed.
	if _, ok := m.Recv(EdgeKey(graph.EdgeID(3))); ok {
		t.Fatal("new key on closed mailbox returned ok")
	}
}
