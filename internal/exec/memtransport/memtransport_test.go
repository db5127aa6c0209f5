package memtransport

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
)

func TestSendRecvAcrossRing(t *testing.T) {
	a := arch.Ring(8)
	tr := New(a)
	defer tr.Close()
	k := transport.EdgeKey(graph.EdgeID(1))
	// 0 -> 4 is the longest route on a ring of 8 (4 links).
	tr.Send(0, 4, k, "hello")
	v, ok := tr.Recv(4, k)
	if !ok || v.(string) != "hello" {
		t.Fatalf("recv gave %v %v", v, ok)
	}
	st := tr.Stats()
	if st.Messages != 1 {
		t.Fatalf("messages = %d, want 1", st.Messages)
	}
	if st.Hops != 4 {
		t.Fatalf("hops = %d, want 4 (the links 0 -> 4 crosses on ring(8), accounted at Send)", st.Hops)
	}
}

func TestLocalDeliveryCountsNoHops(t *testing.T) {
	tr := New(arch.Ring(4))
	defer tr.Close()
	k := transport.EdgeKey(graph.EdgeID(9))
	tr.Send(2, 2, k, 7)
	if v, ok := tr.Recv(2, k); !ok || v.(int) != 7 {
		t.Fatalf("recv gave %v %v", v, ok)
	}
	if st := tr.Stats(); st.Hops != 0 {
		t.Fatalf("self-delivery took %d hops", st.Hops)
	}
}

// TestNoGoroutines: the transport is passive. New starts nothing, traffic
// runs on the callers' goroutines, and Close has nothing to wait for — a
// reintroduced forwarding goroutine shows up here first.
func TestNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	tr := New(arch.Ring(8))
	k := transport.EdgeKey(graph.EdgeID(1))
	tr.Send(0, 4, k, 1)
	if _, ok := tr.Recv(4, k); !ok {
		t.Fatal("recv aborted")
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("New + a round trip left %d goroutines running, %d ran before", n, before)
	}
	// Close must return even with a receiver still parked: it unblocks the
	// receiver, it does not wait for it.
	parked := make(chan bool)
	go func() {
		_, ok := tr.Recv(3, k)
		parked <- ok
	}()
	closed := make(chan error, 1)
	go func() { closed <- tr.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	if ok := <-parked; ok {
		t.Fatal("recv returned ok after Close")
	}
}

// TestHopsSummedOverConcurrentSenders: Stats.Hops is the sum, over every
// message, of the links its route crosses — exact under concurrent senders.
func TestHopsSummedOverConcurrentSenders(t *testing.T) {
	a := arch.Ring(8)
	tr := New(a)
	defer tr.Close()
	const per = 500
	var wg sync.WaitGroup
	want := int64(0)
	for src := 0; src < a.N; src++ {
		want += per * int64(a.Hops(arch.ProcID(src), 4))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr.Send(arch.ProcID(src), 4, transport.EdgeKey(graph.EdgeID(src)), i)
			}
		}()
	}
	wg.Wait()
	st := tr.Stats()
	if st.Messages != per*int64(a.N) || st.Hops != want {
		t.Fatalf("messages %d hops %d, want %d and %d", st.Messages, st.Hops, per*a.N, want)
	}
}

// TestFIFOPerSenderConcurrentSenders: four processors, one to four links
// away, send into one slot at once; each sender's values must come out in
// the order it sent them.
func TestFIFOPerSenderConcurrentSenders(t *testing.T) {
	tr := New(arch.Ring(8))
	defer tr.Close()
	k := transport.ReplyKey(graph.NodeID(3))
	const senders, n = 4, 2000
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				tr.Send(arch.ProcID(s+1), 0, k, [2]int{s, i})
			}
		}()
	}
	r := tr.Receiver(0, k)
	var next [senders]int
	for got := 0; got < senders*n; got++ {
		v, ok := r.Recv()
		if !ok {
			t.Fatalf("recv aborted after %d values", got)
		}
		si := v.([2]int)
		if si[1] != next[si[0]] {
			t.Fatalf("sender %d: got its value %d, want %d", si[0], si[1], next[si[0]])
		}
		next[si[0]]++
	}
	wg.Wait()
}

// TestNoRouteFailsAtSend: a pair the architecture graph does not connect
// fails the transport on the sender's goroutine, with nothing delivered.
func TestNoRouteFailsAtSend(t *testing.T) {
	a := arch.Custom("islands", 4, []arch.LinkID{{From: 0, To: 1}, {From: 2, To: 3}})
	tr := New(a)
	defer tr.Close()
	k := transport.EdgeKey(graph.EdgeID(1))
	tr.Send(0, 1, k, "in-island")
	if err := tr.Err(); err != nil {
		t.Fatalf("routable send failed the transport: %v", err)
	}
	tr.Send(0, 2, k, "across")
	err := tr.Err()
	if err == nil || !strings.Contains(err.Error(), "no route from 0 to 2") {
		t.Fatalf("Err() = %v, want the no-route diagnostic", err)
	}
	if _, ok := tr.Recv(2, k); ok {
		t.Fatal("unroutable message was delivered")
	}
	if st := tr.Stats(); st.Messages != 1 {
		t.Fatalf("messages = %d, want 1 (the unroutable send is not accounted)", st.Messages)
	}
}

func TestAbortUnblocksRecv(t *testing.T) {
	tr := New(arch.Ring(4))
	done := make(chan bool)
	go func() {
		_, ok := tr.Recv(1, transport.EdgeKey(graph.EdgeID(5)))
		done <- ok
	}()
	tr.Abort()
	if ok := <-done; ok {
		t.Fatal("recv returned ok after abort")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}
