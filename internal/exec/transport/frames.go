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
// farm started, and task indices repeat across iterations.
type Task struct {
	Idx int
	Gen int64
	V   value.Value
}

// Reply is a worker's answer to its master.
type Reply struct {
	Widx int
	Task int   // echoed from the Task's Idx
	Gen  int64 // echoed from the Task, see Task.Gen
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
			buf = value.AppendI64(buf, int64(t.Idx))
			buf = value.AppendI64(buf, t.Gen)
			return value.Encode(buf, t.V)
		},
		Size: func(v value.Value) int {
			n := value.EncodeSize(v.(Task).V)
			if n < 0 {
				return -1
			}
			return 16 + n
		},
		EncodeTail: func(buf []byte, v value.Value) ([]byte, []byte, error) {
			t := v.(Task)
			buf = value.AppendI64(buf, int64(t.Idx))
			buf = value.AppendI64(buf, t.Gen)
			return value.EncodeTrailing(buf, t.V)
		},
		Decode: func(payload []byte) (value.Value, error) {
			idx, pos, err := value.ReadI64(payload, 0)
			if err != nil {
				return nil, err
			}
			gen, pos, err := value.ReadI64(payload, pos)
			if err != nil {
				return nil, err
			}
			v, rest, err := value.DecodePrefix(payload[pos:])
			if err != nil {
				return nil, err
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("trailing bytes after task frame")
			}
			return Task{Idx: int(idx), Gen: gen, V: v}, nil
		},
		DecodeFrom: func(r *bufio.Reader, n int) (value.Value, error) {
			if n < 16 {
				return nil, fmt.Errorf("truncated task header (%d bytes)", n)
			}
			hdr, err := r.Peek(16)
			if err != nil {
				return nil, err
			}
			t := Task{
				Idx: int(int64(binary.BigEndian.Uint64(hdr[0:]))),
				Gen: int64(binary.BigEndian.Uint64(hdr[8:])),
			}
			r.Discard(16)
			if t.V, err = value.DecodeStream(r, n-16); err != nil {
				return nil, err
			}
			return t, nil
		},
	})
	value.RegisterExt(value.Ext{
		Name:  "exec.Reply",
		Match: func(v value.Value) bool { _, ok := v.(Reply); return ok },
		Encode: func(buf []byte, v value.Value) ([]byte, error) {
			r := v.(Reply)
			buf = value.AppendI64(buf, int64(r.Widx))
			buf = value.AppendI64(buf, int64(r.Task))
			buf = value.AppendI64(buf, r.Gen)
			return value.Encode(buf, r.V)
		},
		Size: func(v value.Value) int {
			n := value.EncodeSize(v.(Reply).V)
			if n < 0 {
				return -1
			}
			return 24 + n
		},
		EncodeTail: func(buf []byte, v value.Value) ([]byte, []byte, error) {
			r := v.(Reply)
			buf = value.AppendI64(buf, int64(r.Widx))
			buf = value.AppendI64(buf, int64(r.Task))
			buf = value.AppendI64(buf, r.Gen)
			return value.EncodeTrailing(buf, r.V)
		},
		Decode: func(payload []byte) (value.Value, error) {
			widx, pos, err := value.ReadI64(payload, 0)
			if err != nil {
				return nil, err
			}
			task, pos, err := value.ReadI64(payload, pos)
			if err != nil {
				return nil, err
			}
			gen, pos, err := value.ReadI64(payload, pos)
			if err != nil {
				return nil, err
			}
			v, rest, err := value.DecodePrefix(payload[pos:])
			if err != nil {
				return nil, err
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("trailing bytes after reply frame")
			}
			return Reply{Widx: int(widx), Task: int(task), Gen: gen, V: v}, nil
		},
		DecodeFrom: func(r *bufio.Reader, n int) (value.Value, error) {
			if n < 24 {
				return nil, fmt.Errorf("truncated reply header (%d bytes)", n)
			}
			hdr, err := r.Peek(24)
			if err != nil {
				return nil, err
			}
			rep := Reply{
				Widx: int(int64(binary.BigEndian.Uint64(hdr[0:]))),
				Task: int(int64(binary.BigEndian.Uint64(hdr[8:]))),
				Gen:  int64(binary.BigEndian.Uint64(hdr[16:])),
			}
			r.Discard(24)
			if rep.V, err = value.DecodeStream(r, n-24); err != nil {
				return nil, err
			}
			return rep, nil
		},
	})
}
