package nettransport

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/graph"
	"skipper/internal/value"
	"skipper/internal/vision"
)

// TestPeerDeathAbortsCluster checks the control-plane death detector: over
// the mesh the hub never sees data traffic stop, so a control connection
// hitting EOF without a detach frame must abort the whole cluster.
func TestPeerDeathAbortsCluster(t *testing.T) {
	a := arch.Ring(3)
	hub, err := NewHub("127.0.0.1:0", a, 7, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	c1, err := Dial(hub.Addr(), 7, []arch.ProcID{1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// A hand-rolled node claims processor 2: handshake only, then it "dies"
	// (closes the control connection without detaching).
	c, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := writeHello(c, hello{fingerprint: 7, procs: []arch.ProcID{2}, dataAddr: "127.0.0.1:9"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readHelloReply(bufio.NewReader(c)); err != nil {
		t.Fatal(err)
	}
	if err := hub.WaitReady(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	recvDone := make(chan bool, 1)
	go func() {
		_, ok := c1.Recv(1, transport.EdgeKey(graph.EdgeID(1)))
		recvDone <- ok
	}()
	c.Close()
	select {
	case ok := <-recvDone:
		if ok {
			t.Fatal("recv delivered a value after node death")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node death did not abort the cluster within 5s")
	}
	if err := hub.Err(); err == nil || !strings.Contains(err.Error(), "died") {
		t.Fatalf("hub error = %v, want a node-death report", err)
	}
}

// TestHubDropsOrRejectsForeignFrame pins what the hub does with a node
// frame for a processor it does not host, now that it relays nothing: a
// frame for a departed processor is dropped like loss in flight and the
// connection reads on; one for an attached node's processor can only come
// from a broken sender and fails the session with a diagnostic.
func TestHubDropsOrRejectsForeignFrame(t *testing.T) {
	a := arch.Ring(4)
	hub, err := NewHub("127.0.0.1:0", a, 7, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	c1, err := Dial(hub.Addr(), 7, []arch.ProcID{1}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(hub.Addr(), 7, []arch.ProcID{2}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	for deadline := time.Now().Add(5 * time.Second); len(hub.ClusterInfo().Departed) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("processor 2 never departed")
		}
	}

	// A hand-rolled node claims processor 3 and writes raw frames.
	c, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := writeHello(c, hello{fingerprint: 7, procs: []arch.ProcID{3}, dataAddr: "127.0.0.1:9"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readHelloReply(bufio.NewReader(c)); err != nil {
		t.Fatal(err)
	}
	k := transport.EdgeKey(graph.EdgeID(4))
	write := func(dst arch.ProcID, v value.Value) {
		t.Helper()
		f, err := encodeMessage(dst, k, v)
		if err != nil {
			t.Fatal(err)
		}
		f.capture()
		defer putBuf(f.head)
		if _, err := c.Write(f.head.b); err != nil {
			t.Fatal(err)
		}
	}
	write(2, "to-departed")
	write(0, "after")
	if v, ok := hub.Recv(0, k); !ok || v.(string) != "after" {
		t.Fatalf("recv after a frame for a departed processor = %v %v, want \"after\" (drop, read on): %v", v, ok, hub.Err())
	}
	if err := hub.Err(); err != nil {
		t.Fatalf("a frame for a departed processor failed the session: %v", err)
	}

	write(1, "to-attached")
	if _, ok := hub.Recv(0, k); ok {
		t.Fatal("session kept running after a frame for a processor the hub does not host")
	}
	if err := hub.Err(); err == nil || !strings.Contains(err.Error(), "does not host") {
		t.Fatalf("hub error = %v, want a \"does not host\" diagnostic", err)
	}
}

// TestAbortSurvivesDeadControlConnection pins the abort re-entrancy guard:
// Abort's best-effort abort frame is sent on the control connection, which
// in real aborts is often already dead, so the inline write fails on the
// aborting goroutine itself. The wconn's onErr must not re-enter Abort
// (sync.Once.Do would self-deadlock and the mailboxes would never unblock).
func TestAbortSurvivesDeadControlConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	cl := newClient(7, []arch.ProcID{1}, c1, bufio.NewReader(c1), ln, 0, buildOptions(nil))
	c2.Close() // control writes now fail synchronously on the caller's goroutine
	done := make(chan struct{})
	go func() {
		cl.Abort()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Abort deadlocked when the abort-frame send failed inline")
	}
	if _, ok := cl.Recv(1, transport.EdgeKey(graph.EdgeID(1))); ok {
		t.Fatal("mailbox delivered a value after abort")
	}
	cl.Close()
}

// TestEnqueueNeverBlocksOnSocket pins the enqueue-only wconn path heartbeats
// and the hub's peer-down broadcast take: unlike send's inline fast path,
// enqueue must return without touching the socket (net.Pipe writes block
// until the other end reads, so an inline write here would hang).
func TestEnqueueNeverBlocksOnSocket(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c2.Close()
	w := newWConn(c1, nil, nil)
	done := make(chan struct{})
	go func() {
		w.enqueue(controlFrame(abortDst, nil))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("enqueue blocked on the socket")
	}
	fb, dst, _, _, err := readFrame(bufio.NewReader(c2))
	if err != nil {
		t.Fatal(err)
	}
	putBuf(fb)
	if dst != abortDst {
		t.Fatalf("dst = %#x, want abortDst", dst)
	}
	w.flushClose()
}

// TestSendFailsWithoutPeersMap checks that a remote Send does not hang
// forever when the peers map never arrives (a node process that never
// starts): past the mesh-wait timeout the client must abort with a
// diagnostic.
func TestSendFailsWithoutPeersMap(t *testing.T) {
	a := arch.Ring(3)
	hub, err := NewHub("127.0.0.1:0", a, 7, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	c1, err := Dial(hub.Addr(), 7, []arch.ProcID{1}, time.Second,
		WithMeshWaitTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// Processor 2 never attaches, so the hub never broadcasts the map; even
	// a Send to the hub-hosted processor 0 waits on it (FIFO across the
	// mesh cutover) and must time out rather than hang silently.
	done := make(chan struct{})
	go func() {
		c1.Send(1, 0, transport.EdgeKey(graph.EdgeID(1)), "stuck")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send hung waiting for a peers map that never comes")
	}
	if err := c1.Err(); err == nil || !strings.Contains(err.Error(), "peers map") {
		t.Fatalf("client error = %v, want a peers-map timeout diagnostic", err)
	}
}

// TestFrameRoundTripWithRawTail pins the vectored-write wire format: a frame
// whose payload takes the raw-slab fast path (head + borrowed pixel tail)
// must read back identical to one written contiguously.
func TestFrameRoundTripWithRawTail(t *testing.T) {
	im := vision.GetImage(64, 8)
	for i := range im.Pix {
		im.Pix[i] = byte(i)
	}
	key := transport.TaskKey(2, 5)
	f, err := encodeMessage(3, key, transport.Task{Idx: 9, V: im})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.tail) == 0 {
		t.Fatal("image payload did not take the raw-slab fast path")
	}
	wire := append(append([]byte(nil), f.head.b...), f.tail...)
	putBuf(f.head)

	fb, dst, gotKey, payload, err := readFrame(bufio.NewReader(bytes.NewReader(wire)))
	if err != nil {
		t.Fatal(err)
	}
	defer putBuf(fb)
	if dst != 3 || gotKey != key {
		t.Fatalf("routing header dst=%d key=%+v, want dst=3 key=%+v", dst, gotKey, key)
	}
	v, err := value.Decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	tk, ok := v.(transport.Task)
	if !ok {
		t.Fatalf("decoded %T, want transport.Task", v)
	}
	got, ok := tk.V.(*vision.Image)
	if !ok || tk.Idx != 9 {
		t.Fatalf("decoded task %+v, want Idx=9 carrying *vision.Image", tk)
	}
	if got.W != im.W || got.H != im.H || !bytes.Equal(got.Pix, im.Pix) {
		t.Fatalf("decoded image %dx%d differs from original %dx%d", got.W, got.H, im.W, im.H)
	}
}

// TestEncodeMessageZeroAllocs guards the allocation-free hot path: with a
// warm arena and the presized codec, flattening a task that carries a full
// image must not touch the heap at all.
func TestEncodeMessageZeroAllocs(t *testing.T) {
	im := vision.GetImage(512, 64)
	defer vision.PutImage(im)
	var v value.Value = transport.Task{Idx: 3, V: im} // boxed once, outside the loop
	key := transport.TaskKey(0, 0)
	f, err := encodeMessage(2, key, v) // warm the arena
	if err != nil {
		t.Fatal(err)
	}
	putBuf(f.head)
	allocs := testing.AllocsPerRun(200, func() {
		f, err := encodeMessage(2, key, v)
		if err != nil {
			t.Fatal(err)
		}
		putBuf(f.head)
	})
	if allocs != 0 {
		t.Fatalf("encodeMessage allocates %.1f times per op, want 0", allocs)
	}
}
