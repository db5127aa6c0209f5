// Package transport defines the communication substrate of the distributed
// executive. The paper's executive is kernel-portable by construction: the
// same macro-code runs on any MIMD-DM kernel that supplies "thread creation,
// communication and synchronisation" primitives (§3). This package is that
// seam in Go form — the scheduler core in internal/exec is written against
// the Transport interface, and interchangeable backends supply the
// primitives:
//
//   - memtransport: goroutine processors and sharded in-process mailboxes;
//     Send delivers on the sender's goroutine and accounts the links the
//     architecture graph would have charged;
//   - nettransport: OS processes hosting shares of the processors,
//     length-prefixed binary frames over TCP, unix sockets or shared-memory
//     rings, one hop point to point, with a hub process as control plane.
//
// Contract (see DESIGN.md §8): messages addressed to the same (processor,
// key) pair are delivered FIFO with respect to one sender; Send never
// blocks on the consumer; Recv blocks until a message arrives or the
// transport is aborted; after Abort every blocked and future Recv returns
// ok=false. Payload values are owned by the receiver once delivered —
// senders must not mutate a payload after Send (the mem backend passes
// references, the net backend copies through the wire codec).
package transport

import (
	"fmt"

	"skipper/internal/arch"
	"skipper/internal/graph"
	"skipper/internal/value"
)

// Key addresses one mailbox FIFO on a processor: a static edge, a farm
// worker's task stream, or a farm master's reply stream.
type Key struct {
	Kind byte // 'e' static edge, 't' farm task, 'r' farm reply
	Edge graph.EdgeID
	Farm graph.NodeID
	Widx int
}

// EdgeKey addresses the mailbox of a statically scheduled communication.
func EdgeKey(e graph.EdgeID) Key { return Key{Kind: 'e', Edge: e} }

// TaskKey addresses worker w's task stream within master m's farm.
func TaskKey(m graph.NodeID, w int) Key { return Key{Kind: 't', Farm: m, Widx: w} }

// ReplyKey addresses master m's reply stream.
func ReplyKey(m graph.NodeID) Key { return Key{Kind: 'r', Farm: m} }

func (k Key) String() string {
	switch k.Kind {
	case 'e':
		return fmt.Sprintf("edge(%d)", k.Edge)
	case 't':
		return fmt.Sprintf("task(m%d,w%d)", k.Farm, k.Widx)
	case 'r':
		return fmt.Sprintf("reply(m%d)", k.Farm)
	}
	return fmt.Sprintf("key(%q)", k.Kind)
}

// Stats reports the traffic a transport carried. Backends maintain every
// field with atomics, so Stats may be called concurrently with traffic
// (e.g. by a metrics scrape mid-run); each field is individually coherent,
// though the snapshot as a whole is not taken atomically across fields.
type Stats struct {
	// Messages is the number of payloads injected via Send.
	Messages int64
	// Hops is the number of link traversals: on the mem backend the links
	// each message's route crosses on the architecture graph, accounted at
	// Send (nothing forwards); always zero on the net backend, whose hub
	// relays nothing.
	Hops int64
	// Direct is the number of frames shipped point-to-point over the net
	// backend's peer mesh between node processes. Always zero for the mem
	// backend (every in-process delivery is already direct).
	Direct int64
	// BytesSent is the payload volume injected via Send, and BytesRecv the
	// volume delivered to local consumers. The mem backend sizes payloads
	// with value.SizeOf; the net backend counts encoded wire bytes
	// (excluding frame headers). In a steady single-process run the two
	// converge; mid-run BytesRecv trails BytesSent by the in-flight volume.
	BytesSent int64
	BytesRecv int64
}

// Receiver is a single-key receive endpoint, hoisted out of hot loops so
// steady-state farm traffic skips the per-receive key lookup (the mem
// backend returns the mailbox slot itself, preserving the 0-alloc contract).
type Receiver interface {
	Recv() (value.Value, bool)
}

// Transport is the communication substrate a Machine executes over. A
// transport instance serves a fixed set of locally attached processors
// (all of them for the in-process backend, this OS process's share for the
// distributed one); Send accepts any destination, Recv only local ones.
type Transport interface {
	// Send injects a message at local processor src addressed to processor
	// dst (possibly src itself). It never blocks on the consumer.
	Send(src, dst arch.ProcID, key Key, payload value.Value)
	// Recv blocks until a message for local processor p on key arrives.
	// ok=false means the transport was aborted or closed.
	Recv(p arch.ProcID, key Key) (value.Value, bool)
	// Receiver returns a dedicated receive endpoint for (p, key).
	Receiver(p arch.ProcID, key Key) Receiver
	// Abort unblocks every pending and future Recv with ok=false. It is
	// idempotent and safe to call concurrently with traffic.
	Abort()
	// Close releases the transport's resources (connections, reader and
	// writer goroutines). The transport must not be used afterwards.
	Close() error
	// Err returns the first internal transport failure (routing error,
	// connection loss, codec mismatch), or nil.
	Err() error
	// Stats reports the traffic carried so far.
	Stats() Stats
}
