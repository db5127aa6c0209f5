package nettransport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
	"skipper/internal/value"
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

// mkFrame encodes a frame for the batch tests and captures its tail so the
// head buffer holds the complete wire image, the way writeLoop parks frames.
func mkFrame(t *testing.T, dst arch.ProcID, key transport.Key, v value.Value) outFrame {
	t.Helper()
	f, err := encodeMessage(dst, key, v)
	if err != nil {
		t.Fatal(err)
	}
	f.capture()
	return f
}

// TestBatchableBytes pins the writer's batching policy: at least two
// frames, none above batchFragMax on the wire, batchMaxBytes in total.
func TestBatchableBytes(t *testing.T) {
	pad := func(n int) outFrame {
		fb := getBuf(n)
		fb.b = append(fb.b, make([]byte, n)...)
		return outFrame{head: fb}
	}
	small := pad(64)
	big := pad(batchFragMax + 1)
	defer putBuf(small.head)
	defer putBuf(big.head)

	if got := batchableBytes([]outFrame{small}); got != 0 {
		t.Errorf("lone frame reported batchable (%d bytes); it must go out bare", got)
	}
	if got := batchableBytes([]outFrame{small, small}); got != 128 {
		t.Errorf("two small frames: batchable bytes = %d, want 128", got)
	}
	if got := batchableBytes([]outFrame{small, big}); got != 0 {
		t.Errorf("oversized frame (%d bytes) must disable batching, got %d", batchFragMax+1, got)
	}
	withTail := outFrame{head: small.head, tail: make([]byte, 32)}
	if got := batchableBytes([]outFrame{small, withTail}); got != 64+64+32 {
		t.Errorf("tail bytes must count toward the batch size: got %d, want %d", got, 64+64+32)
	}

	// Exactly batchMaxBytes is allowed; one frame more tips it over.
	frag := pad(batchFragMax)
	defer putBuf(frag.head)
	atCap := make([]outFrame, batchMaxBytes/batchFragMax)
	for i := range atCap {
		atCap[i] = frag
	}
	if got := batchableBytes(atCap); got != batchMaxBytes {
		t.Errorf("batch at the byte cap: got %d, want %d", got, batchMaxBytes)
	}
	if got := batchableBytes(append(atCap, frag)); got != 0 {
		t.Errorf("batch above the byte cap must go out bare, got %d", got)
	}
}

// TestBatchDecodeBitIdenticalToInline packs frames into a batch payload
// exactly as writeLoop does and checks forEachBatched recovers the same
// (dst, key, value) sequence the inline per-frame path would decode.
func TestBatchDecodeBitIdenticalToInline(t *testing.T) {
	type msg struct {
		dst arch.ProcID
		key transport.Key
		v   value.Value
	}
	msgs := []msg{
		{3, transport.EdgeKey(graph.EdgeID(7)), 42},
		{1, transport.TaskKey(graph.NodeID(2), 0), transport.Task{Idx: 5, V: value.List{1, 2, 3}}},
		{3, transport.ReplyKey(graph.NodeID(2)), transport.Reply{Widx: 1, Task: 5, V: value.Tuple{9, value.Unit{}}}},
		{0, transport.EdgeKey(graph.EdgeID(1)), "batched string"},
	}

	var payload []byte
	for _, m := range msgs {
		f := mkFrame(t, m.dst, m.key, m.v)
		payload = append(payload, f.head.b...)
		putBuf(f.head)
	}

	var got []msg
	err := forEachBatched(payload, func(dst uint32, key transport.Key, body []byte) error {
		v, derr := value.Decode(body)
		if derr != nil {
			return derr
		}
		got = append(got, msg{arch.ProcID(dst), key, v})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("batch walk yielded %d frames, want %d", len(got), len(msgs))
	}
	for i, m := range msgs {
		if got[i].dst != m.dst || got[i].key != m.key {
			t.Errorf("frame %d: routed to (%d,%v), want (%d,%v)", i, got[i].dst, got[i].key, m.dst, m.key)
		}
		if !reflect.DeepEqual(got[i].v, m.v) {
			t.Errorf("frame %d: batch decode %v diverges from sent value %v", i, got[i].v, m.v)
		}
	}
}

// TestForEachBatchedRejectsCorruptFraming drives the batch walker with
// malformed payloads: every corruption must surface as an error, never a
// panic or a silently misdecoded frame.
func TestForEachBatchedRejectsCorruptFraming(t *testing.T) {
	valid := mkFrame(t, 1, transport.EdgeKey(graph.EdgeID(1)), 7)
	defer putBuf(valid.head)

	nested := make([]byte, 4+frameHeader)
	binary.BigEndian.PutUint32(nested, frameHeader)
	binary.BigEndian.PutUint32(nested[4:], batchDst)

	undersized := make([]byte, 4+frameHeader)
	binary.BigEndian.PutUint32(undersized, frameHeader-1)

	cases := []struct {
		name    string
		payload []byte
		wantErr string
	}{
		{"truncated length prefix", valid.head.b[:3], "truncated batch sub-frame length"},
		{"length beyond payload", valid.head.b[:len(valid.head.b)-1], "out of range"},
		{"length below header", undersized, "out of range"},
		{"nested batch", nested, "nested batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := forEachBatched(tc.payload, func(uint32, transport.Key, []byte) error { return nil })
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}

	// The empty batch is vacuously well-formed.
	if err := forEachBatched(nil, func(uint32, transport.Key, []byte) error { return nil }); err != nil {
		t.Fatalf("empty batch payload: %v", err)
	}
}

// TestPartialBatchAtConnectionClose kills a connection mid-batch: the
// reader must surface a truncated-frame error, not hang or deliver a
// half-read batch.
func TestPartialBatchAtConnectionClose(t *testing.T) {
	c1, c2 := net.Pipe()
	go func() {
		// A batch frame declaring 200 payload bytes, of which only 40 ever
		// arrive before the writer dies.
		hdr := make([]byte, 4+frameHeader)
		binary.BigEndian.PutUint32(hdr, uint32(frameHeader+200))
		binary.BigEndian.PutUint32(hdr[4:], batchDst)
		c1.Write(hdr)
		c1.Write(make([]byte, 40))
		c1.Close()
	}()
	fb, _, _, _, err := readFrame(bufio.NewReader(c2))
	putBuf(fb)
	c2.Close()
	if err == nil || !strings.Contains(err.Error(), "truncated frame body") {
		t.Fatalf("mid-batch close: err = %v, want truncated frame body", err)
	}
}

// TestWriterCoalescingPreservesFrameStream drives a wconn whose socket is
// stalled so frames pile up and the writer must batch, then replays the
// wire through the reader-side unwrapping: the delivered (dst, key, value)
// sequence must be identical to the enqueue order whether a frame traveled
// bare or inside a batch — the bit-identity contract between the inline
// fast path and the coalesced path.
func TestWriterCoalescingPreservesFrameStream(t *testing.T) {
	c1, c2 := net.Pipe()
	w := newWConn(c1, nil, nil)

	const frames = 24
	key := transport.EdgeKey(graph.EdgeID(3))
	for i := 0; i < frames; i++ {
		w.enqueue(mkFrame(t, 2, key, i))
	}

	// net.Pipe is unbuffered: the writer is blocked in its first write until
	// we start reading, so everything enqueued after that first grab is
	// guaranteed to coalesce into at least one batch frame.
	type rec struct {
		dst uint32
		key transport.Key
		v   value.Value
	}
	var got []rec
	batches := 0
	br := bufio.NewReader(c2)
	for len(got) < frames {
		fb, dst, k, payload, err := readFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if dst == batchDst {
			batches++
			err = forEachBatched(payload, func(d uint32, bk transport.Key, body []byte) error {
				v, derr := value.Decode(body)
				if derr != nil {
					return derr
				}
				got = append(got, rec{d, bk, v})
				return nil
			})
		} else {
			var v value.Value
			if v, err = value.Decode(payload); err == nil {
				got = append(got, rec{dst, k, v})
			}
		}
		putBuf(fb)
		if err != nil {
			t.Fatal(err)
		}
	}
	w.flushClose()
	c2.Close()

	if batches == 0 {
		t.Error("stalled socket produced no batch frames; writer coalescing is not engaging")
	}
	for i, r := range got {
		if r.dst != 2 || r.key != key || !value.Equal(r.v, i) {
			t.Fatalf("frame %d arrived as (dst %d, key %v, val %v); order or content corrupted",
				i, r.dst, r.key, r.v)
		}
	}
}

// TestBatchesInterleavedWithControlFrames is the integration cut: several
// goroutines blast small frames at the hub-hosted processor (coalescing on
// the control connection) while heartbeats tick underneath and a third node
// is severed mid-stream, injecting a peer-down broadcast between batches.
// Every data frame must arrive, per-sender FIFO must hold, and the survivor
// must observe the contained death rather than a cluster abort.
func TestBatchesInterleavedWithControlFrames(t *testing.T) {
	const hb = 10 * time.Millisecond
	a := arch.Ring(3)
	hub, err := NewHub("127.0.0.1:0", a, 7, []arch.ProcID{0}, WithHeartbeat(hb))
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.OnPeerDown(func([]arch.ProcID) {}) // contain, not abort

	c1, err := Dial(hub.Addr(), 7, []arch.ProcID{1}, time.Second, WithHeartbeat(hb))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	downCh := make(chan []arch.ProcID, 1)
	c1.OnPeerDown(func(procs []arch.ProcID) {
		select {
		case downCh <- procs:
		default:
		}
	})

	victim, err := Dial(hub.Addr(), 7, []arch.ProcID{2}, time.Second, WithHeartbeat(hb))
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
				c1.Send(1, 0, key, s*1_000_000+i)
				if s == 0 && i == perSender/2 {
					victim.Sever() // mid-stream death between batches
				}
			}
		}(s)
	}

	next := make([]int, senders)
	rx := hub.Receiver(0, key)
	for n := 0; n < senders*perSender; n++ {
		v, ok := rx.Recv()
		if !ok {
			t.Fatalf("hub receiver aborted after %d/%d frames: %v", n, senders*perSender, hub.Err())
		}
		s, i := v.(int)/1_000_000, v.(int)%1_000_000
		if i != next[s] {
			t.Fatalf("sender %d frame %d arrived out of order (want %d); batching broke FIFO", s, i, next[s])
		}
		next[s]++
	}
	wg.Wait()

	select {
	case procs := <-downCh:
		if fmt.Sprint(procs) != "[2]" {
			t.Fatalf("survivor notified of %v, want [2]", procs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor never saw the peer-down broadcast")
	}
	if err := hub.Err(); err != nil {
		t.Fatalf("contained death must not fail the hub: %v", err)
	}
}

// batchSeeds is the batch-payload corpus the fuzzers start from: a
// well-formed two-frame batch and a few corruptions of it.
func batchSeeds(tb testing.TB) [][]byte {
	var seed []byte
	for _, v := range []value.Value{1, "two"} {
		fr, err := encodeMessage(3, transport.EdgeKey(graph.EdgeID(1)), v)
		if err != nil {
			tb.Fatal(err)
		}
		fr.capture()
		seed = append(seed, fr.head.b...)
		putBuf(fr.head)
	}
	trunc := bytes.Clone(seed)
	binary.BigEndian.PutUint32(trunc, uint32(len(trunc)*2))
	return [][]byte{seed, seed[:len(seed)-3], seed[:3], {}, trunc}
}

// FuzzBatchDecode fuzzes the batch walker with arbitrary payloads: it must
// either report a framing error or walk sub-frames whose lengths exactly
// tile the payload — and never panic, over-read, or loop.
func FuzzBatchDecode(f *testing.F) {
	for _, seed := range batchSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		total := 0
		err := forEachBatched(payload, func(_ uint32, _ transport.Key, body []byte) error {
			total += 4 + frameHeader + len(body)
			return nil
		})
		if err == nil && total != len(payload) {
			t.Fatalf("walk consumed %d of %d payload bytes without error", total, len(payload))
		}
	})
}

// FuzzReadFrames feeds arbitrary bytes to the backend's one read loop, as a
// connection hosting no processor would see them, with a recording
// dispatch: every frame — control, data, batched — reaches it. The loop must
// end in an error (io.EOF when the input ends between frames), never a
// panic, never dispatch a batch (batches do not nest) and never hand out a
// frame longer than maxFrame; control payloads go through their parsers.
func FuzzReadFrames(f *testing.F) {
	for _, seed := range batchSeeds(f) {
		f.Add(seed) // a run of bare frames
		batch := controlFrame(batchDst, seed)
		f.Add(bytes.Clone(batch.head.b))
		putBuf(batch.head)
	}
	for _, cf := range []outFrame{
		controlFrame(peersDst, encodePeers(map[arch.ProcID]string{1: "127.0.0.1:9", 2: "unix:/tmp/p"})),
		controlFrame(peerDownDst, encodeProcs([]arch.ProcID{2, 3})),
		controlFrame(abortDst, nil),
	} {
		f.Add(bytes.Clone(cf.head.b))
		putBuf(cf.head)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var e endpoint
		e.init(nil, time.Second, func() {})
		err := e.readFrames(bufio.NewReader(bytes.NewReader(data)), nil, func(dst uint32, _ transport.Key, payload []byte) error {
			if dst == batchDst {
				t.Fatal("a batch nested in a batch was dispatched")
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
