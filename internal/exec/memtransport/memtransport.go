// Package memtransport is the in-process communication backend of the
// executive: goroutine "processors" connected through sharded mailboxes.
// Send delivers straight into the destination processor's mailbox — one
// wake per message, no goroutine of the transport's own — and accounts the
// link traversals the architecture graph would have charged the message
// (Stats.Hops) from a table built once in New; the paper's store-and-forward
// routing processes are modelled by internal/sim, not performed here.
// Payloads are passed by reference — zero copies, and the mailbox's
// head-index FIFOs keep steady-state traffic allocation-free.
package memtransport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"skipper/internal/arch"
	"skipper/internal/exec/transport"
	"skipper/internal/obsv"
	"skipper/internal/value"
)

// Transport is the in-process backend. All processors of the architecture
// are local to it.
type Transport struct {
	boxes []*transport.Mailbox

	// hops[src][dst] is the number of links a message from src to dst
	// crosses on the architecture graph, -1 if dst is unreachable. Built
	// once in New: arch.Hops allocates a route per call.
	hops [][]int

	// dead[p] marks processor p as failed (MarkPeerDown): sends to or from
	// it are dropped and its mailbox is killed (real process death is the
	// net backend's concern; here death is injected by a fault wrapper).
	dead []atomic.Bool

	errMu sync.Mutex
	err   error

	closeOnce sync.Once

	messages  atomic.Int64
	hopCount  atomic.Int64
	bytesSent atomic.Int64
	bytesRecv atomic.Int64

	// rec, when set via SetTrace before traffic starts, receives
	// send/recv/abort events; mailbox events are wired through the boxes.
	rec *obsv.Recorder
	kl  transport.KeyLabels
}

var _ transport.Transport = (*Transport)(nil)

// New builds a transport over the architecture graph. It starts no
// goroutine; Close only unblocks receivers.
func New(a *arch.Arch) *Transport {
	t := &Transport{
		boxes: make([]*transport.Mailbox, a.N),
		hops:  make([][]int, a.N),
		dead:  make([]atomic.Bool, a.N),
	}
	for i := range t.boxes {
		t.boxes[i] = transport.NewMailbox()
		t.hops[i] = make([]int, a.N)
		for j := range t.hops[i] {
			t.hops[i][j] = a.Hops(arch.ProcID(i), arch.ProcID(j))
		}
	}
	return t
}

func (t *Transport) failf(format string, args ...any) {
	t.errMu.Lock()
	if t.err == nil {
		t.err = fmt.Errorf(format, args...)
	}
	t.errMu.Unlock()
	if t.rec != nil {
		t.rec.Record(-1, obsv.EvAbort, 0, -1, 0)
	}
	t.Abort()
}

// SetTrace arms event recording on r: send/recv with byte sizes here,
// enqueue/park/wake through the mailboxes. Call before traffic starts.
func (t *Transport) SetTrace(r *obsv.Recorder) {
	t.kl.Reset(r)
	t.rec = r
	for i, b := range t.boxes {
		b.SetTrace(r, int32(i), &t.kl)
	}
}

// MarkPeerDown declares processor p dead: its mailbox is killed (blocked
// receivers unblock with ok=false, nothing further is delivered) and
// packets to or from it are dropped at Send. Idempotent.
func (t *Transport) MarkPeerDown(p arch.ProcID) {
	if int(p) < 0 || int(p) >= len(t.boxes) {
		return
	}
	t.dead[p].Store(true)
	t.boxes[p].Kill()
}

var _ transport.PeerDowner = (*Transport)(nil)

// Send delivers payload into processor dst's mailbox on the calling
// goroutine and charges the message the links its route crosses. Packets
// to or from a dead processor are dropped silently, uncounted — exactly
// what a wire to a dead machine does; a pair the architecture graph does
// not connect fails the transport.
func (t *Transport) Send(src, dst arch.ProcID, key transport.Key, payload value.Value) {
	if t.dead[src].Load() || t.dead[dst].Load() {
		return
	}
	h := t.hops[src][dst]
	if h < 0 {
		t.failf("memtransport: no route from %d to %d", src, dst)
		return
	}
	t.messages.Add(1)
	if h > 0 {
		t.hopCount.Add(int64(h))
	}
	n := int64(value.SizeOf(payload))
	t.bytesSent.Add(n)
	t.bytesRecv.Add(n)
	if t.rec != nil {
		label := t.kl.Of(key)
		t.rec.Record(int32(src), obsv.EvSend, label, int32(dst), n)
		t.rec.Record(int32(dst), obsv.EvRecv, label, -1, n)
	}
	t.boxes[dst].Deliver(key, payload)
}

// Recv blocks on processor p's mailbox slot for key.
func (t *Transport) Recv(p arch.ProcID, key transport.Key) (value.Value, bool) {
	return t.boxes[p].Recv(key)
}

// Receiver returns (p, key)'s mailbox slot directly: the hot loops in the
// farm protocol hoist this once and then receive with no map lookups and
// no allocations.
func (t *Transport) Receiver(p arch.ProcID, key transport.Key) transport.Receiver {
	return t.boxes[p].Slot(key)
}

// Abort unblocks every pending and future Recv; idempotent.
func (t *Transport) Abort() {
	t.closeOnce.Do(func() {
		for _, b := range t.boxes {
			b.Close()
		}
	})
}

// Close aborts the transport; there is nothing to wait for.
func (t *Transport) Close() error {
	t.Abort()
	return nil
}

// Err reports the first routing failure, or nil.
func (t *Transport) Err() error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.err
}

// Stats reports delivered messages, the link traversals accounted to them
// and payload volume; safe to call concurrently with traffic.
func (t *Transport) Stats() transport.Stats {
	return transport.Stats{
		Messages:  t.messages.Load(),
		Hops:      t.hopCount.Load(),
		BytesSent: t.bytesSent.Load(),
		BytesRecv: t.bytesRecv.Load(),
	}
}
