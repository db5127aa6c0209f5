package nettransport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
)

// TestShmRingSlotExhaustion fills the ring to the last slot and drains it,
// repeatedly, crossing the wrap boundary many times over: tryWrite must
// report a full ring with 0 (never overwrite unconsumed slots), and every
// drained byte must come back in order. The payload is larger than the slab,
// so the producer sees exhaustion on every lap.
func TestShmRingSlotExhaustion(t *testing.T) {
	const slots = 64 // 4KB slab: exhaustion every few records
	ring, err := createShmRing(42, slots)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.unmap()
	defer ring.remove()

	src := make([]byte, 64*1024)
	for i := range src {
		src[i] = byte(i*7 + i>>8)
	}
	var got bytes.Buffer
	rbuf := make([]byte, 777) // odd size: reads straddle records
	w := src
	sawFull := false
	for got.Len() < len(src) {
		for len(w) > 0 {
			n := ring.tryWrite(w)
			if n == 0 {
				sawFull = true
				if free := ring.free(); free != 0 {
					t.Fatalf("tryWrite returned 0 with %d free slots", free)
				}
				break
			}
			w = w[n:]
		}
		if !ring.readable() {
			t.Fatal("ring neither writable nor readable: cursors corrupted")
		}
		for ring.readable() {
			n := ring.tryRead(rbuf)
			if n == 0 {
				break
			}
			got.Write(rbuf[:n])
		}
	}
	if !sawFull {
		t.Fatal("payload larger than the slab never filled the ring")
	}
	if !bytes.Equal(got.Bytes(), src) {
		t.Fatal("bytes drained from the exhausted ring differ from the bytes written")
	}
}

// TestShmRingRejectsHostileHeader pins the two header checks a peer's bytes
// must pass: a slot count whose slab would overflow the mapping size
// arithmetic (1<<58 slots of 64 bytes wraps to 0) fails the open, and
// cursors further apart than the ring poison it closed instead of indexing
// outside the mapping.
func TestShmRingRejectsHostileHeader(t *testing.T) {
	ring, err := createShmRing(44, 16) // a 5 120-byte mapping
	if err != nil {
		t.Fatal(err)
	}
	defer ring.unmap()
	defer ring.remove()
	atomic.StoreUint64(ring.u64(shmOffSlots), 1<<58)
	if r, err := openShmRing(ring.path); err == nil {
		r.unmap()
		t.Fatal("a ring claiming 1<<58 slots in a 5 120-byte mapping was accepted")
	}

	atomic.StoreUint64(ring.u64(shmOffSlots), 16)
	atomic.StoreUint64(ring.u64(shmOffTail), 17) // one slot more than the ring holds
	binary.LittleEndian.PutUint32(ring.mem[shmHdrSize:], 8)
	if n := ring.tryRead(make([]byte, 64)); n != 0 {
		t.Fatalf("read %d bytes from a ring whose cursors are 17 slots apart", n)
	}
	if !ring.closedFlag() {
		t.Fatal("cursors further apart than the ring did not poison it closed")
	}
}

// FuzzShmRing hands the consumer a ring whose header words and slab are
// the fuzzer's: the slot count, both cursors and every slab byte, as a
// hostile or torn peer could leave them. The closed flag is set, so an
// empty ring ends the stream. The open must fail, or Read must return bytes
// until io.EOF — never panic, block, or yield more bytes than the mapping
// holds.
func FuzzShmRing(f *testing.F) {
	const slots = 16
	f.Add(uint64(slots), uint64(0), uint64(0), []byte{})
	f.Add(uint64(slots), uint64(0), uint64(1), []byte{5, 0, 0, 0, 'h', 'e', 'l', 'l', 'o'})
	f.Add(uint64(slots), uint64(15), uint64(17), []byte{60, 0, 0, 0})
	f.Add(uint64(slots), uint64(3), uint64(2), []byte{1, 0, 0, 0, 'x'})
	// testdata/fuzz/FuzzShmRing holds the 1<<58-slot header that indexed
	// outside the mapping before openShmRing divided instead of multiplying.
	f.Fuzz(func(t *testing.T, nslots, head, tail uint64, slab []byte) {
		ring, err := createShmRing(45, slots)
		if err != nil {
			t.Skip(err)
		}
		defer ring.unmap()
		copy(ring.mem[shmHdrSize:], slab)
		atomic.StoreUint64(ring.u64(shmOffSlots), nslots)
		atomic.StoreUint64(ring.u64(shmOffHead), head)
		atomic.StoreUint64(ring.u64(shmOffTail), tail)
		ring.setClosed()
		in, err := openShmRing(ring.path)
		ring.remove()
		if err != nil {
			return
		}
		sa, sb := net.Pipe()
		defer sb.Close()
		c := newShmConn(sa, in, nil)
		defer c.Close()
		buf := make([]byte, 97)
		for total := 0; ; {
			n, err := c.Read(buf)
			total += n
			if total > len(in.mem) {
				t.Fatalf("read %d bytes out of a %d-byte mapping", total, len(in.mem))
			}
			if err == io.EOF {
				return
			}
			if err != nil || n == 0 {
				t.Fatalf("Read = %d, %v; want bytes or io.EOF", n, err)
			}
		}
	})
}

// TestShmConnBlockedProducerPreservesStream pushes a stream many times the
// slab size through an shmConn pair: the producer must block on the full
// ring (never drop or corrupt) and the consumer must read back the exact
// byte stream. Closing the producer after the last write must let the
// consumer drain the tail and then see EOF — the socket-close semantics the
// frame reader depends on.
func TestShmConnBlockedProducerPreservesStream(t *testing.T) {
	ring, err := createShmRing(43, shmDefaultSlots)
	if err != nil {
		t.Fatal(err)
	}
	opened, err := openShmRing(ring.path)
	if err != nil {
		t.Fatal(err)
	}
	ring.remove()
	sa, sb := net.Pipe()
	prod := newShmConn(sa, nil, ring)
	cons := newShmConn(sb, opened, nil)
	defer prod.Close()
	defer cons.Close()

	src := make([]byte, 16*shmDefaultSlots*shmSlotSize) // 16 slabs
	for i := range src {
		src[i] = byte(i ^ i>>9)
	}
	go func() {
		for off := 0; off < len(src); off += 4096 {
			end := off + 4096
			if end > len(src) {
				end = len(src)
			}
			if _, werr := prod.Write(src[off:end]); werr != nil {
				return
			}
		}
		prod.Close()
	}()

	var got bytes.Buffer
	buf := make([]byte, 1500)
	for {
		n, rerr := cons.Read(buf)
		got.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	if got.Len() != len(src) {
		t.Fatalf("consumer drained %d bytes, want %d", got.Len(), len(src))
	}
	if !bytes.Equal(got.Bytes(), src) {
		t.Fatal("stream through the blocking ring is corrupted")
	}
}

// TestShmPeerFIFOUnderControlTraffic: several goroutines blast small frames
// peer-to-peer over the shm data plane, sharing one ring under its write
// lock, while heartbeats tick on the control plane and a third node is
// severed mid-stream. Per-sender FIFO must hold, every frame must arrive,
// and the survivor must see the contained death.
func TestShmPeerFIFOUnderControlTraffic(t *testing.T) {
	const hb = 10 * time.Millisecond
	a := arch.Ring(4)
	hub, err := NewHub(unixScheme+ShortSockPath("skipper-shmfifo"), a, 7,
		[]arch.ProcID{0}, WithHeartbeat(hb))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.OnPeerDown(func([]arch.ProcID) {}) // contain, not abort

	dialOpts := []Option{WithHeartbeat(hb), WithDataPlane("shm")}
	c1, err := Dial(hub.Addr(), 7, []arch.ProcID{1}, time.Second, dialOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(hub.Addr(), 7, []arch.ProcID{2}, time.Second, dialOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	downCh := make(chan []arch.ProcID, 1)
	c2.OnPeerDown(func(procs []arch.ProcID) {
		select {
		case downCh <- procs:
		default:
		}
	})
	victim, err := Dial(hub.Addr(), 7, []arch.ProcID{3}, time.Second, dialOpts...)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	if err := hub.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	const senders, perSender = 4, 64
	key := transport.EdgeKey(graph.EdgeID(9))
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				c1.Send(1, 2, key, s*1_000_000+i)
				if s == 0 && i == perSender/2 {
					victim.Sever() // mid-stream death between bursts
				}
			}
		}(s)
	}

	next := make([]int, senders)
	rx := c2.Receiver(2, key)
	for n := 0; n < senders*perSender; n++ {
		v, ok := rx.Recv()
		if !ok {
			t.Fatalf("receiver aborted after %d/%d frames: %v", n, senders*perSender, c2.Err())
		}
		s, i := v.(int)/1_000_000, v.(int)%1_000_000
		if i != next[s] {
			t.Fatalf("sender %d frame %d arrived out of order (want %d); shm plane broke FIFO", s, i, next[s])
		}
		next[s]++
	}
	wg.Wait()

	// The frames must actually have traveled a ring, not a silent unix
	// fallback: the sender's peer connection must write to an shmConn.
	c1.pcMu.Lock()
	sawShm := false
	for _, w := range c1.pconns {
		if _, ok := w.c.(*shmConn); ok {
			sawShm = true
		}
	}
	c1.pcMu.Unlock()
	if !sawShm {
		t.Fatal("no peer connection upgraded to shm; the FIFO ran over the wrong plane")
	}

	select {
	case procs := <-downCh:
		if fmt.Sprint(procs) != "[3]" {
			t.Fatalf("survivor notified of %v, want [3]", procs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never saw the peer-down broadcast")
	}
	if err := hub.Err(); err != nil {
		t.Fatalf("contained death must not fail the hub: %v", err)
	}
}
