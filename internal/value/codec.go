package value

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
)

// Binary value codec: the wire format the TCP executive transport uses to
// ship values between processor OS processes. The format is length-safe
// (every variable-size field is validated against the remaining input before
// any allocation, so truncated or corrupted frames fail with an error
// instead of a panic or an unbounded allocation) and extensible: opaque
// application types register a named extension codec, mirroring how the
// paper's kernel-level communication primitives are parameterized by
// user-supplied marshalling for abstract C types.
//
// Layout (integers big-endian): one tag byte, then a tag-specific payload.
//
//	0x00 nil
//	0x01 int      8-byte two's complement
//	0x02 float64  8-byte IEEE-754 bits
//	0x03 bool     1 byte (0/1)
//	0x04 string   u32 length + bytes
//	0x05 unit
//	0x06 tuple    u32 count + encoded elements
//	0x07 list     u32 count + encoded elements
//	0x08 ext      u16 name length + name + u32 payload length + payload
const (
	tagNil byte = iota
	tagInt
	tagFloat
	tagBool
	tagString
	tagUnit
	tagTuple
	tagList
	tagExt
)

// maxDecodeDepth bounds the nesting of tuples/lists a decoder accepts, so a
// crafted frame cannot overflow the stack.
const maxDecodeDepth = 512

// Ext is a named extension codec for one opaque value type. Encode appends
// the payload bytes for v; Decode parses exactly the payload written by
// Encode (it receives the length-delimited payload slice and must consume
// all of it). Match reports whether the extension handles v.
//
// Size and EncodeTail are optional hot-path accelerators. Size returns the
// exact payload byte count Encode will produce for v (or a negative value
// when it cannot tell), letting callers presize buffers so the append path
// never reallocates. EncodeTail is the zero-copy variant of Encode for
// values whose encoding ends in one large raw byte slab (image pixels): it
// appends everything up to the slab and returns the slab by reference, so
// a transport can hand both pieces to a vectored write without ever
// copying the slab. The concatenation head[start:]+tail must be byte
// identical to what Encode appends.
//
// DecodeFrom is the read-side mirror of EncodeTail: it parses the same
// payload Decode would, but straight from a reader positioned at the
// payload's first byte, consuming exactly n bytes; fixed headers are peeked
// in the reader's buffer and discarded, never copied out. A codec whose payload
// ends in a raw slab reads the slab into its final buffer (an arena image)
// instead of an intermediate frame buffer — the transport's zero-copy read
// path. Wrapper codecs (farm tasks) read their fixed fields and recurse via
// DecodeStream. On error the reader's position is unspecified; stream
// decoders must treat any error as fatal for the connection.
//
// Release, also optional, hands a dead value's buffers back to the arena its
// decoder draws from (see Release below).
//
// NoView declares that a value of the type never holds a view of another
// value — no slice of an image's pixels, no pointer into a frame — so an
// accumulator built of such values cannot keep a frame alive (ViewFree).
type Ext struct {
	Name       string
	Match      func(v Value) bool
	Encode     func(buf []byte, v Value) ([]byte, error)
	Decode     func(payload []byte) (Value, error)
	Size       func(v Value) int
	EncodeTail func(buf []byte, v Value) (head, tail []byte, err error)
	DecodeFrom func(r *bufio.Reader, n int) (Value, error)
	Release    func(v Value)
	NoView     bool
}

var (
	extMu     sync.RWMutex
	extByName = map[string]*Ext{}
	extOrder  []*Ext
)

// RegisterExt adds an extension codec; it panics on duplicate or malformed
// registrations, which are programming errors (registration happens in
// package init functions).
func RegisterExt(e Ext) {
	if e.Name == "" || e.Match == nil || e.Encode == nil || e.Decode == nil {
		panic("value: malformed extension codec registration")
	}
	extMu.Lock()
	defer extMu.Unlock()
	if _, dup := extByName[e.Name]; dup {
		panic("value: duplicate extension codec " + e.Name)
	}
	ext := &e
	extByName[e.Name] = ext
	extOrder = append(extOrder, ext)
}

// ExtNames returns the registered extension names, sorted (for diagnostics).
func ExtNames() []string {
	extMu.RLock()
	defer extMu.RUnlock()
	out := make([]string, 0, len(extByName))
	for n := range extByName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func matchExt(v Value) *Ext {
	extMu.RLock()
	defer extMu.RUnlock()
	for _, e := range extOrder {
		if e.Match(v) {
			return e
		}
	}
	return nil
}

// Release recycles the buffers of v, walking tuples and lists, through the
// Release hooks of the extension codecs that match its leaves. The caller
// asserts that v is dead: it owns v alone (the executive calls this only for
// values a transport decoded for it) and neither v nor any view of it is
// reachable once Release returns.
func Release(v Value) {
	switch v := v.(type) {
	case Tuple:
		for _, e := range v {
			Release(e)
		}
	case List:
		for _, e := range v {
			Release(e)
		}
	default:
		if e := matchExt(v); e != nil && e.Release != nil {
			e.Release(v)
		}
	}
}

// ViewFree reports whether v is of an extension type declared NoView.
func ViewFree(v Value) bool {
	e := matchExt(v)
	return e != nil && e.NoView
}

func lookupExt(name string) *Ext {
	extMu.RLock()
	defer extMu.RUnlock()
	return extByName[name]
}

// Encode appends the encoding of v to buf and returns the extended slice.
// Values that are neither base types nor registered extensions are an error.
func Encode(buf []byte, v Value) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(buf, tagNil), nil
	case int:
		return AppendI64(append(buf, tagInt), int64(v)), nil
	case float64:
		return AppendF64(append(buf, tagFloat), v), nil
	case bool:
		b := byte(0)
		if v {
			b = 1
		}
		return append(buf, tagBool, b), nil
	case string:
		buf = AppendU32(append(buf, tagString), uint32(len(v)))
		return append(buf, v...), nil
	case Unit:
		return append(buf, tagUnit), nil
	case Tuple:
		return encodeSeq(buf, tagTuple, v)
	case List:
		return encodeSeq(buf, tagList, v)
	}
	e := matchExt(v)
	if e == nil {
		return nil, fmt.Errorf("value: no codec for %T (register a codec extension)", v)
	}
	if len(e.Name) > math.MaxUint16 {
		return nil, fmt.Errorf("value: extension name %q too long", e.Name)
	}
	buf = append(buf, tagExt)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Name)))
	buf = append(buf, e.Name...)
	// Reserve the payload length and backpatch once the payload is written.
	lenAt := len(buf)
	buf = AppendU32(buf, 0)
	buf, err := e.Encode(buf, v)
	if err != nil {
		return nil, fmt.Errorf("value: ext %s: %w", e.Name, err)
	}
	payload := len(buf) - lenAt - 4
	if payload < 0 || payload > math.MaxUint32 {
		return nil, fmt.Errorf("value: ext %s payload size %d out of range", e.Name, payload)
	}
	binary.BigEndian.PutUint32(buf[lenAt:], uint32(payload))
	return buf, nil
}

// EncodeSize returns the exact number of bytes Encode will append for v, or
// -1 when the size cannot be computed without encoding (an extension codec
// without a Size model). Callers use it to presize buffers: with a reused
// buffer of EncodeSize(v) capacity, Encode performs zero allocations.
func EncodeSize(v Value) int {
	switch v := v.(type) {
	case nil:
		return 1
	case int:
		return 9
	case float64:
		return 9
	case bool:
		return 2
	case string:
		return 5 + len(v)
	case Unit:
		return 1
	case Tuple:
		return seqSize(v)
	case List:
		return seqSize(v)
	}
	e := matchExt(v)
	if e == nil || e.Size == nil {
		return -1
	}
	n := e.Size(v)
	if n < 0 {
		return -1
	}
	return 1 + 2 + len(e.Name) + 4 + n
}

func seqSize(elems []Value) int {
	n := 5
	for _, el := range elems {
		s := EncodeSize(el)
		if s < 0 {
			return -1
		}
		n += s
	}
	return n
}

// EncodeTrailing encodes v like Encode, but when v (or the value it wraps)
// registers an EncodeTail fast path, the trailing raw slab of the encoding
// is returned by reference in tail instead of being copied into the buffer.
// head[len(buf):] followed by tail is byte identical to Encode's output; a
// nil tail means the whole encoding is in head. The caller must treat tail
// as borrowed from v: it stays valid only as long as v is not mutated.
func EncodeTrailing(buf []byte, v Value) (head, tail []byte, err error) {
	e := matchExt(v)
	if e == nil || e.EncodeTail == nil {
		head, err = Encode(buf, v)
		return head, nil, err
	}
	if len(e.Name) > math.MaxUint16 {
		return nil, nil, fmt.Errorf("value: extension name %q too long", e.Name)
	}
	buf = append(buf, tagExt)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Name)))
	buf = append(buf, e.Name...)
	lenAt := len(buf)
	buf = AppendU32(buf, 0)
	head, tail, err = e.EncodeTail(buf, v)
	if err != nil {
		return nil, nil, fmt.Errorf("value: ext %s: %w", e.Name, err)
	}
	payload := len(head) - lenAt - 4 + len(tail)
	if payload < 0 || payload > math.MaxUint32 {
		return nil, nil, fmt.Errorf("value: ext %s payload size %d out of range", e.Name, payload)
	}
	binary.BigEndian.PutUint32(head[lenAt:], uint32(payload))
	return head, tail, nil
}

func encodeSeq(buf []byte, tag byte, elems []Value) ([]byte, error) {
	buf = AppendU32(append(buf, tag), uint32(len(elems)))
	var err error
	for _, e := range elems {
		if buf, err = Encode(buf, e); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Decode parses a single encoded value occupying all of data.
func Decode(data []byte) (Value, error) {
	v, rest, err := DecodePrefix(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("value: %d trailing bytes after value", len(rest))
	}
	return v, nil
}

// DecodePrefix parses one encoded value from the front of data and returns
// the remainder, for consumers (and extension codecs) that concatenate
// encodings.
func DecodePrefix(data []byte) (Value, []byte, error) {
	v, n, err := decodeAt(data, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	return v, data[n:], nil
}

func decodeAt(data []byte, pos, depth int) (Value, int, error) {
	if depth > maxDecodeDepth {
		return nil, 0, fmt.Errorf("value: nesting deeper than %d", maxDecodeDepth)
	}
	if pos >= len(data) {
		return nil, 0, fmt.Errorf("value: truncated input (no tag at offset %d)", pos)
	}
	tag := data[pos]
	pos++
	switch tag {
	case tagNil:
		return nil, pos, nil
	case tagInt:
		x, pos, err := ReadI64(data, pos)
		return int(x), pos, err
	case tagFloat:
		x, pos, err := ReadF64(data, pos)
		return x, pos, err
	case tagBool:
		if pos >= len(data) {
			return nil, 0, fmt.Errorf("value: truncated bool")
		}
		switch data[pos] {
		case 0:
			return false, pos + 1, nil
		case 1:
			return true, pos + 1, nil
		}
		return nil, 0, fmt.Errorf("value: invalid bool byte %#x", data[pos])
	case tagString:
		n, pos, err := readLen(data, pos)
		if err != nil {
			return nil, 0, fmt.Errorf("value: string: %w", err)
		}
		return string(data[pos : pos+n]), pos + n, nil
	case tagUnit:
		return Unit{}, pos, nil
	case tagTuple, tagList:
		count, pos, err := ReadU32(data, pos)
		if err != nil {
			return nil, 0, err
		}
		// Each element takes at least one byte: a count beyond the
		// remaining input is corrupt, reject before allocating.
		if int64(count) > int64(len(data)-pos) {
			return nil, 0, fmt.Errorf("value: sequence count %d exceeds remaining %d bytes",
				count, len(data)-pos)
		}
		elems := make([]Value, count)
		for i := range elems {
			var err error
			elems[i], pos, err = decodeAt(data, pos, depth+1)
			if err != nil {
				return nil, 0, err
			}
		}
		if tag == tagTuple {
			return Tuple(elems), pos, nil
		}
		return List(elems), pos, nil
	case tagExt:
		if pos+2 > len(data) {
			return nil, 0, fmt.Errorf("value: truncated extension name length")
		}
		nameLen := int(binary.BigEndian.Uint16(data[pos:]))
		pos += 2
		if pos+nameLen > len(data) {
			return nil, 0, fmt.Errorf("value: truncated extension name")
		}
		name := string(data[pos : pos+nameLen])
		pos += nameLen
		n, pos, err := readLen(data, pos)
		if err != nil {
			return nil, 0, fmt.Errorf("value: ext %s: %w", name, err)
		}
		e := lookupExt(name)
		if e == nil {
			return nil, 0, fmt.Errorf("value: unknown codec extension %q (registered: %v)",
				name, ExtNames())
		}
		v, err := e.Decode(data[pos : pos+n])
		if err != nil {
			return nil, 0, fmt.Errorf("value: ext %s: %w", name, err)
		}
		return v, pos + n, nil
	}
	return nil, 0, fmt.Errorf("value: unknown tag %#x", tag)
}

// readLen reads a u32 length and validates it against the remaining input.
func readLen(data []byte, pos int) (int, int, error) {
	n, pos, err := ReadU32(data, pos)
	if err != nil {
		return 0, 0, err
	}
	if int64(n) > int64(len(data)-pos) {
		return 0, 0, fmt.Errorf("length %d exceeds remaining %d bytes", n, len(data)-pos)
	}
	return int(n), pos, nil
}

// ---------------------------------------------------------------------------
// Primitive helpers shared with extension codecs.

// AppendU32 appends x big-endian.
func AppendU32(buf []byte, x uint32) []byte { return binary.BigEndian.AppendUint32(buf, x) }

// AppendI64 appends x big-endian.
func AppendI64(buf []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(buf, uint64(x))
}

// AppendF64 appends the IEEE-754 bits of x big-endian.
func AppendF64(buf []byte, x float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(x))
}

// ReadU32 reads a big-endian u32 at pos.
func ReadU32(data []byte, pos int) (uint32, int, error) {
	if pos+4 > len(data) {
		return 0, 0, fmt.Errorf("truncated u32 at offset %d", pos)
	}
	return binary.BigEndian.Uint32(data[pos:]), pos + 4, nil
}

// ReadI64 reads a big-endian i64 at pos.
func ReadI64(data []byte, pos int) (int64, int, error) {
	if pos+8 > len(data) {
		return 0, 0, fmt.Errorf("truncated i64 at offset %d", pos)
	}
	return int64(binary.BigEndian.Uint64(data[pos:])), pos + 8, nil
}

// ReadF64 reads big-endian IEEE-754 bits at pos.
func ReadF64(data []byte, pos int) (float64, int, error) {
	if pos+8 > len(data) {
		return 0, 0, fmt.Errorf("truncated f64 at offset %d", pos)
	}
	return math.Float64frombits(binary.BigEndian.Uint64(data[pos:])), pos + 8, nil
}
