package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"

	"skipper/internal/value"
)

// Farm protocol frames. These travel through the transport like any other
// payload: over the mem backend they are passed by reference, over the net
// backend they are flattened by the codec extensions registered below, so a
// master and its workers can sit in different OS processes.

// Sentinel terminates a farm worker's task loop for the run: its master
// sends it once, after the last frame.
type Sentinel struct{}

// Task couples a packet of work with its index in the master's task table:
// the position in the input list, or for a task spawned by tf feedback the
// next free index after it. Gen tags the master invocation that dispatched
// it: workers echo it back in the Reply, and the master ignores replies from
// other generations — a deadline-suspected worker may deliver its answer
// late, after the task was re-dispatched or even after the next iteration's
// farm started, and task indices repeat across iterations. Spare, for a tf
// task, is how many of the tasks it spawns its worker hands back to the
// master rather than running them itself (DESIGN.md §7). The fields keep the
// struct at 32 bytes, so a boxed task stays in Go's 32-byte size class.
type Task struct {
	Idx   int
	Gen   int32
	Spare int32
	V     value.Value
}

// Reply is a worker's answer to its master; 32 bytes, like Task.
type Reply struct {
	Widx int32
	Gen  int32 // echoed from the Task, see Task.Gen
	Task int   // echoed from the Task's Idx
	V    value.Value
}

func init() {
	value.RegisterExt(value.Ext{
		Name:   "exec.Sentinel",
		Match:  func(v value.Value) bool { _, ok := v.(Sentinel); return ok },
		Encode: func(buf []byte, v value.Value) ([]byte, error) { return buf, nil },
		Size:   func(value.Value) int { return 0 },
		Decode: func(payload []byte) (value.Value, error) {
			if len(payload) != 0 {
				return nil, fmt.Errorf("sentinel frame carries %d payload bytes", len(payload))
			}
			return Sentinel{}, nil
		},
	})
	value.RegisterExt(value.Ext{
		Name:  "exec.Task",
		Match: func(v value.Value) bool { _, ok := v.(Task); return ok },
		Encode: func(buf []byte, v value.Value) ([]byte, error) {
			t := v.(Task)
			return value.Encode(appendHeader(buf, t.Idx, t.Spare, t.Gen), t.V)
		},
		Size: func(v value.Value) int { return sizeWithHeader(v.(Task).V) },
		EncodeTail: func(buf []byte, v value.Value) ([]byte, []byte, error) {
			t := v.(Task)
			return value.EncodeTrailing(appendHeader(buf, t.Idx, t.Spare, t.Gen), t.V)
		},
		Decode: func(payload []byte) (value.Value, error) {
			var t Task
			var err error
			t.Idx, t.Spare, t.Gen, t.V, err = decodeWithHeader(payload, "task")
			return t, err
		},
		DecodeFrom: func(r *bufio.Reader, n int) (value.Value, error) {
			var t Task
			var err error
			t.Idx, t.Spare, t.Gen, t.V, err = streamWithHeader(r, n, "task")
			return t, err
		},
	})
	value.RegisterExt(value.Ext{
		Name:  "exec.Reply",
		Match: func(v value.Value) bool { _, ok := v.(Reply); return ok },
		Encode: func(buf []byte, v value.Value) ([]byte, error) {
			r := v.(Reply)
			return value.Encode(appendHeader(buf, r.Task, r.Widx, r.Gen), r.V)
		},
		Size: func(v value.Value) int { return sizeWithHeader(v.(Reply).V) },
		EncodeTail: func(buf []byte, v value.Value) ([]byte, []byte, error) {
			r := v.(Reply)
			return value.EncodeTrailing(appendHeader(buf, r.Task, r.Widx, r.Gen), r.V)
		},
		Decode: func(payload []byte) (value.Value, error) {
			var r Reply
			var err error
			r.Task, r.Widx, r.Gen, r.V, err = decodeWithHeader(payload, "reply")
			return r, err
		},
		DecodeFrom: func(rd *bufio.Reader, n int) (value.Value, error) {
			var r Reply
			var err error
			r.Task, r.Widx, r.Gen, r.V, err = streamWithHeader(rd, n, "reply")
			return r, err
		},
	})
}

// header is the size of a task or reply frame's header: the task index as 8
// bytes, then two 4-byte fields — a task's Spare and Gen, a reply's Widx and
// Gen — all big-endian.
const header = 16

func appendHeader(buf []byte, idx int, a, b int32) []byte {
	buf = value.AppendI64(buf, int64(idx))
	buf = value.AppendU32(buf, uint32(a))
	return value.AppendU32(buf, uint32(b))
}

func readHeader(hdr []byte) (idx int, a, b int32) {
	return int(int64(binary.BigEndian.Uint64(hdr))),
		int32(binary.BigEndian.Uint32(hdr[8:])), int32(binary.BigEndian.Uint32(hdr[12:]))
}

func sizeWithHeader(v value.Value) int {
	n := value.EncodeSize(v)
	if n < 0 {
		return -1
	}
	return header + n
}

func decodeWithHeader(payload []byte, what string) (idx int, a, b int32, v value.Value, err error) {
	if len(payload) < header {
		return 0, 0, 0, nil, fmt.Errorf("truncated %s header (%d bytes)", what, len(payload))
	}
	idx, a, b = readHeader(payload)
	v, rest, err := value.DecodePrefix(payload[header:])
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("trailing bytes after %s frame", what)
	}
	return idx, a, b, v, err
}

func streamWithHeader(r *bufio.Reader, n int, what string) (idx int, a, b int32, v value.Value, err error) {
	if n < header {
		return 0, 0, 0, nil, fmt.Errorf("truncated %s header (%d bytes)", what, n)
	}
	hdr, err := r.Peek(header)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	idx, a, b = readHeader(hdr)
	r.Discard(header)
	v, err = value.DecodeStream(r, n-header)
	return idx, a, b, v, err
}
