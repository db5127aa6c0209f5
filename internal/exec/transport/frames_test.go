package transport

import (
	"bufio"
	"bytes"
	"testing"
	"unsafe"

	"skipper/internal/value"
)

// TestFarmFrameCodecRoundTrip checks the farm protocol frames survive the
// wire codec — the property the distributed backend depends on — through
// both the in-memory decoder and the stream decoder a connection uses.
func TestFarmFrameCodecRoundTrip(t *testing.T) {
	cases := []struct {
		in    interface{}
		check func(got interface{}) bool
	}{
		{Sentinel{}, func(got interface{}) bool { _, ok := got.(Sentinel); return ok }},
		{Task{Idx: 3, V: 42}, func(got interface{}) bool {
			tk, ok := got.(Task)
			return ok && tk.Idx == 3 && tk.Spare == 0 && tk.V == 42
		}},
		{Task{Idx: -1, V: nil}, func(got interface{}) bool {
			tk, ok := got.(Task)
			return ok && tk.Idx == -1 && tk.V == nil
		}},
		{Task{Idx: 1 << 40, Spare: 7, Gen: -5, V: "x"}, func(got interface{}) bool {
			tk, ok := got.(Task)
			return ok && tk.Idx == 1<<40 && tk.Spare == 7 && tk.Gen == -5 && tk.V == "x"
		}},
		{Task{Idx: 2, Spare: 1<<31 - 1, Gen: 1<<31 - 1, V: value.List{1}}, func(got interface{}) bool {
			tk, ok := got.(Task)
			return ok && tk.Spare == 1<<31-1 && tk.Gen == 1<<31-1 && value.Equal(tk.V, value.List{1})
		}},
		{Reply{Widx: 2, Task: 7, V: "done"}, func(got interface{}) bool {
			r, ok := got.(Reply)
			return ok && r.Widx == 2 && r.Task == 7 && r.V == "done"
		}},
		{Reply{Widx: 255, Task: 1 << 33, Gen: -1, V: value.Tuple{value.List{}, value.List{2}}}, func(got interface{}) bool {
			r, ok := got.(Reply)
			return ok && r.Widx == 255 && r.Task == 1<<33 && r.Gen == -1 &&
				value.Equal(r.V, value.Tuple{value.List{}, value.List{2}})
		}},
	}
	for _, c := range cases {
		data, err := value.Encode(nil, c.in)
		if err != nil {
			t.Fatalf("encode %#v: %v", c.in, err)
		}
		got, err := value.Decode(data)
		if err != nil {
			t.Fatalf("decode %#v: %v", c.in, err)
		}
		if !c.check(got) {
			t.Fatalf("round trip of %#v gave %#v", c.in, got)
		}
		got, err = value.DecodeStream(bufio.NewReader(bytes.NewReader(data)), len(data))
		if err != nil {
			t.Fatalf("stream-decode %#v: %v", c.in, err)
		}
		if !c.check(got) {
			t.Fatalf("stream round trip of %#v gave %#v", c.in, got)
		}
	}
}

// TestFarmFramesFit32Bytes pins the frames' size: at 32 bytes a boxed task
// or reply is one object of Go's 32-byte size class; one more field would
// move every farm send and decode to the 48-byte class.
func TestFarmFramesFit32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Task{}); n != 32 {
		t.Errorf("Task is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(Reply{}); n != 32 {
		t.Errorf("Reply is %d bytes, want 32", n)
	}
}
