package nettransport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
	"skipper/internal/value"
	"skipper/internal/vision"
)

// readFrame reads one whole frame off br: the routing header, then the
// payload into an arena buffer the caller putBufs.
func readFrame(br *bufio.Reader) (fb *frameBuf, dst uint32, key transport.Key, payload []byte, err error) {
	n, dst, key, err := readFrameHeader(br)
	if err != nil {
		return nil, dst, key, nil, err
	}
	fb, payload, err = readPayload(br, n-frameHeader)
	return fb, dst, key, payload, err
}

// wirePair connects a wconn's wire to the reader of its other end on one
// data plane: a loopback tcp or unix socket pair, or an in-process shm ring
// whose doorbell is a pipe. Both ends close at the end of the test.
func wirePair(t *testing.T, plane string) (wire, *bufio.Reader) {
	t.Helper()
	if plane == "shm" {
		ring, err := createShmRing(46, shmDefaultSlots)
		if err != nil {
			t.Fatal(err)
		}
		opened, err := openShmRing(ring.path)
		ring.remove()
		if err != nil {
			t.Fatal(err)
		}
		sa, sb := net.Pipe()
		prod, cons := newShmConn(sa, nil, ring), newShmConn(sb, opened, nil)
		t.Cleanup(func() { prod.Close(); cons.Close() })
		return prod, bufio.NewReaderSize(cons, shmReadBufSize)
	}
	addr := "127.0.0.1:0"
	if plane == "unix" {
		addr = ShortSockPath("skipper-wire")
	}
	ln, err := net.Listen(plane, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c, err := net.Dial(plane, ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-accepted
	if r == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); r.Close() })
	return c, bufio.NewReaderSize(r, readBufSize)
}

// pattern is sender s's i-th image: mostly a few hundred bytes, every 25th
// larger than an shm slab, its pixels a function of (s, i, offset).
func pattern(s, i int) *vision.Image {
	w, h := 64, 4+i%8
	if i%25 == 0 {
		w, h = 320, 256
	}
	im := vision.NewImage(w, h)
	for k := range im.Pix {
		im.Pix[k] = byte(s*37 + i*11 + k)
	}
	return im
}

// TestConcurrentSendersNeverInterleave pins the locked writer on every
// plane: eight goroutines share one connection, each sending 200 frames
// whose image tails go out in the same vectored write as their heads. Every
// frame must reach the reader intact, and each sender's frames in order.
func TestConcurrentSendersNeverInterleave(t *testing.T) {
	const senders, frames = 8, 200
	for _, plane := range []string{"tcp", "unix", "shm"} {
		t.Run(plane, func(t *testing.T) {
			c, br := wirePair(t, plane)
			w := newWConn(c, nil)
			var e endpoint
			e.init([]arch.ProcID{1}, time.Second, func() {})
			read := make(chan error, 1)
			go func() {
				err := e.readFrames(br, nil, func(dst uint32, _ transport.Key, _ []byte) error {
					return fmt.Errorf("frame for %#x, not the hosted processor", dst)
				})
				e.halt(nil, false) // a garbled stream ends the test, not hangs it
				read <- err
			}()
			var wg sync.WaitGroup
			sendErr := make(chan error, senders)
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < frames; i++ {
						f, err := encodeMessage(1, transport.EdgeKey(graph.EdgeID(s)), transport.Task{Idx: i, V: pattern(s, i)})
						if err == nil {
							err = w.send(f)
						}
						if err != nil {
							sendErr <- fmt.Errorf("sender %d frame %d: %v", s, i, err)
							return
						}
					}
				}(s)
			}
			for s := 0; s < senders; s++ {
				for i := 0; i < frames; i++ {
					v, ok := e.Recv(1, transport.EdgeKey(graph.EdgeID(s)))
					if !ok {
						t.Fatalf("sender %d: mailbox closed at frame %d: %v", s, i, <-read)
					}
					tk := v.(transport.Task)
					want := pattern(s, i)
					got, _ := tk.V.(*vision.Image)
					if tk.Idx != i || got == nil || got.W != want.W || got.H != want.H || !bytes.Equal(got.Pix, want.Pix) {
						t.Fatalf("sender %d: frame %d arrived as task %d; frames interleaved or reordered", s, i, tk.Idx)
					}
				}
			}
			wg.Wait()
			close(sendErr)
			for err := range sendErr {
				t.Error(err)
			}
			w.flushClose()
			if err := <-read; err != io.EOF {
				t.Fatalf("read loop ended with %v, want io.EOF", err)
			}
		})
	}
}

// TestSendZeroAllocs pins send's allocation-free hot path on a socket and on
// an shm ring: a frame with a raw tail goes out through the connection's own
// gather scratch, so nothing escapes per frame.
func TestSendZeroAllocs(t *testing.T) {
	tail := bytes.Repeat([]byte{7}, 4096)
	for _, plane := range []string{"tcp", "shm"} {
		t.Run(plane, func(t *testing.T) {
			c, br := wirePair(t, plane)
			w := newWConn(c, nil)
			go func() {
				buf := make([]byte, 64<<10)
				for {
					if _, err := br.Read(buf); err != nil {
						return
					}
				}
			}()
			send := func() {
				fb := getBuf(64 + len(tail))
				fb.b = append(fb.b, zeroKey[:]...)
				if err := w.send(outFrame{head: fb, tail: tail}); err != nil {
					t.Fatal(err)
				}
			}
			send() // warm the arena and the plane's wait state
			if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
				t.Fatalf("send allocates %.1f times per frame on %s, want 0", allocs, plane)
			}
		})
	}
}

// TestStalledPeerTeardownIsBounded parks one sender mid-write on a peer that
// never reads. Abort must not queue behind that write: it returns and
// unblocks the mailboxes at once, its broadcast enqueued. Close then ends
// the connection within flushTimeout, the deadline failing the stuck write.
func TestStalledPeerTeardownIsBounded(t *testing.T) {
	k := transport.EdgeKey(graph.EdgeID(5))
	cases := []struct {
		name string
		// up returns a transport hosting local whose Send to dst blocks on
		// the wire, and the wconn it blocks on.
		up func(t *testing.T) (tr transport.Transport, local, dst arch.ProcID, w *wconn)
	}{
		{"client", func(t *testing.T) (transport.Transport, arch.ProcID, arch.ProcID, *wconn) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c1, c2 := net.Pipe() // nobody reads c2: every write to c1 blocks
			t.Cleanup(func() { c2.Close() })
			cl := newClient(7, []arch.ProcID{1}, c1, bufio.NewReader(c1), ln, 0, buildOptions(nil))
			cl.peers.Store(&peerMap{}) // processor 0 rides the control connection
			close(cl.ready)
			return cl, 1, 0, cl.w
		}},
		{"session", func(t *testing.T) (transport.Transport, arch.ProcID, arch.ProcID, *wconn) {
			hub, err := NewHub(unixScheme+ShortSockPath("skipper-stall"), arch.Ring(2), 7, []arch.ProcID{0})
			if err != nil {
				t.Fatal(err)
			}
			network, address := splitNetAddr(hub.Addr())
			c, err := net.Dial(network, address)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if err := writeHello(c, hello{fingerprint: 7, procs: []arch.ProcID{1}, dataAddr: "127.0.0.1:9"}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := readHelloReply(bufio.NewReader(c)); err != nil {
				t.Fatal(err)
			}
			if err := hub.WaitReady(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			hub.mu.Lock()
			w := hub.remote[1]
			hub.mu.Unlock()
			return hub, 0, 1, w // the hand-rolled node never reads again
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tr, local, dst, w := tc.up(t)
			// Far more than a socket buffer holds: the write stalls midway.
			go tr.Send(local, dst, k, vision.NewImage(2048, 1024))
			for deadline := time.Now().Add(5 * time.Second); w.wmu.TryLock(); time.Sleep(time.Millisecond) {
				w.wmu.Unlock()
				if time.Now().After(deadline) {
					t.Fatal("the send never reached the wire")
				}
			}

			recv := make(chan bool, 1)
			go func() {
				_, ok := tr.Recv(local, k)
				recv <- ok
			}()
			start := time.Now()
			aborted := make(chan struct{})
			go func() {
				tr.Abort()
				close(aborted)
			}()
			select {
			case <-aborted:
			case <-time.After(time.Second):
				t.Fatal("Abort blocked behind the stalled write")
			}
			select {
			case ok := <-recv:
				if ok {
					t.Fatal("mailbox delivered a value after Abort")
				}
			case <-time.After(time.Second):
				t.Fatal("Abort did not unblock the mailboxes")
			}
			if el := time.Since(start); el > 100*time.Millisecond {
				t.Fatalf("Abort took %v to unblock the mailboxes, want <= 100ms", el)
			}

			start = time.Now()
			tr.Close()
			if el := time.Since(start); el > flushTimeout+2*time.Second {
				t.Fatalf("Close took %v against a stalled peer, want <= flushTimeout (%v) plus slack", el, flushTimeout)
			}
		})
	}
}

// TestReadFrameHeaderFraming pins how the read side reports a frame cut
// short or mis-sized: a clean end between frames is io.EOF verbatim, and
// anything else an error naming what is wrong, never a panic or a hang.
func TestReadFrameHeaderFraming(t *testing.T) {
	valid := controlFrame(peerDownDst, encodeProcs([]arch.ProcID{2}))
	defer putBuf(valid.head)
	whole := valid.head.b
	lenOnly := func(n uint32) []byte {
		return binary.BigEndian.AppendUint32(make([]byte, 0, 4+frameHeader), n)
	}
	cases := []struct {
		name  string
		input []byte
		want  string
	}{
		{"empty", nil, "EOF"},
		{"truncated length", whole[:3], "truncated frame length"},
		{"length below header", append(lenOnly(frameHeader-1), make([]byte, frameHeader)...), "out of range"},
		{"length above maxFrame", append(lenOnly(maxFrame+1), make([]byte, frameHeader)...), "out of range"},
		{"truncated header", whole[:4+frameHeader-1], "truncated frame body"},
		{"truncated payload", whole[:len(whole)-1], "truncated frame body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fb, _, _, _, err := readFrame(bufio.NewReader(bytes.NewReader(tc.input)))
			putBuf(fb)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			if tc.want == "EOF" && err != io.EOF {
				t.Fatalf("a clean end between frames gave %v, want io.EOF itself", err)
			}
		})
	}
	fb, dst, _, payload, err := readFrame(bufio.NewReader(bytes.NewReader(whole)))
	defer putBuf(fb)
	if err != nil || dst != peerDownDst {
		t.Fatalf("whole frame read as dst %#x, err %v", dst, err)
	}
	if procs, err := parseProcs(payload); err != nil || fmt.Sprint(procs) != "[2]" {
		t.Fatalf("payload parsed as %v, %v; want [2]", procs, err)
	}
}

// frameSeeds is FuzzReadFrames' corpus: plain frame streams — data frames
// with and without a raw tail, each control frame — and corruptions of them.
func frameSeeds(tb testing.TB) [][]byte {
	wireOf := func(f outFrame) []byte {
		b := append(bytes.Clone(f.head.b), f.tail...)
		putBuf(f.head)
		return b
	}
	data := func(dst arch.ProcID, v value.Value) []byte {
		f, err := encodeMessage(dst, transport.EdgeKey(graph.EdgeID(1)), v)
		if err != nil {
			tb.Fatal(err)
		}
		return wireOf(f)
	}
	im := vision.NewImage(16, 4)
	for i := range im.Pix {
		im.Pix[i] = byte(i)
	}
	stream := append(data(3, 1), data(4, "two")...)
	withTail := data(3, transport.Task{Idx: 1, V: im})
	trunc := bytes.Clone(stream)
	binary.BigEndian.PutUint32(trunc, uint32(len(trunc)*2))
	peers := wireOf(controlFrame(peersDst, encodePeers(map[arch.ProcID]string{1: "127.0.0.1:9", 2: "unix:/tmp/p"})))
	return [][]byte{
		stream, stream[:len(stream)-3], stream[:3], {}, trunc,
		withTail, withTail[:len(withTail)-5],
		append(data(4, 5), peers...),
		peers,
		wireOf(controlFrame(peerDownDst, encodeProcs([]arch.ProcID{2, 3}))),
		wireOf(controlFrame(abortDst, nil)),
		append(wireOf(controlFrame(heartbeatDst, nil)), wireOf(controlFrame(detachDst, nil))...),
		append(data(3, value.List{1, 2}), data(9, value.Tuple{3, "x"})...),
		// The farm frames' 16-byte headers: a tf task with a Spare, and a
		// reply carrying (results, tasks handed back).
		append(data(3, transport.Task{Idx: 4, Spare: 3, Gen: 9, V: im}),
			data(3, transport.Reply{Widx: 1, Task: 4, Gen: 9, V: value.Tuple{value.List{im}, value.List{}}})...),
	}
}

// FuzzBatchDecode walks a batch of frames laid back to back, as a writer's
// vectored write or an shm drain puts them on the wire, one readFrame at a
// time. Every walk must end in an error, and one that ends cleanly (io.EOF
// between frames) must have consumed exactly the input's bytes. Its corpus
// is the first five frameSeeds: a two-frame stream and corruptions of it.
func FuzzBatchDecode(f *testing.F) {
	for _, seed := range frameSeeds(f)[:5] {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		total := 0
		for {
			fb, _, _, payload, err := readFrame(br)
			putBuf(fb)
			if err == io.EOF {
				if total != len(data) {
					t.Fatalf("walk ended cleanly after %d of %d bytes", total, len(data))
				}
				return
			}
			if err != nil {
				return
			}
			total += 4 + frameHeader + len(payload)
		}
	})
}

// FuzzReadFrames feeds arbitrary bytes to the backend's one read loop, as a
// connection to an endpoint hosting processor 3 would see them, with a
// recording dispatch: frames for processor 3 stream-decode into its mailbox,
// every other frame reaches dispatch. The loop must end in an error (io.EOF
// when the input ends between frames), never a panic, never dispatch a frame
// for the hosted processor and never hand out a frame longer than maxFrame;
// control payloads go through their parsers.
func FuzzReadFrames(f *testing.F) {
	for _, seed := range frameSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var e endpoint
		e.init([]arch.ProcID{3}, time.Second, func() {})
		err := e.readFrames(bufio.NewReader(bytes.NewReader(data)), nil, func(dst uint32, _ transport.Key, payload []byte) error {
			if dst == 3 {
				t.Fatal("a frame for the hosted processor was dispatched")
			}
			if frameHeader+len(payload) > maxFrame {
				t.Fatalf("dispatched a %d-byte payload, past maxFrame", len(payload))
			}
			switch dst {
			case peersDst:
				parsePeers(payload)
			case peerDownDst:
				parseProcs(payload)
			}
			return nil
		})
		if err == nil {
			t.Fatal("read loop ended without an error")
		}
	})
}
