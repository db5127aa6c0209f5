package value

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Streaming decode: the read-side half of the transport's zero-copy frame
// path. Decode requires the whole encoding in memory, which forces the
// transport to slurp every frame into an intermediate buffer and costs one
// full copy of each pixel slab per hop. DecodeStream instead peeks just the
// extension framing and, when the codec registers a DecodeFrom hook, hands
// the reader to the codec so the slab lands directly in its final buffer.
// Everything else falls back to a pooled in-memory buffer and the plain
// decoder, which owns all format diagnostics.

// maxStreamName bounds the extension names the streaming peek handles, so
// the framing it peeks (7+maxStreamName bytes) fits any reader buffer the
// transports use; longer names (legal, but none exist in-tree) take the
// in-memory fallback.
const maxStreamName = 64

// streamScratch pools the fallback buffers so steady-state stream decodes
// of non-slab values stay allocation-free.
var streamScratch = sync.Pool{New: func() any { return new([]byte) }}

// DecodeStream decodes one value occupying exactly n encoded bytes from r.
// Extension payloads whose codec registers DecodeFrom are parsed straight
// off the reader; all other shapes are read into a pooled buffer and handed
// to Decode. The framing is peeked in r's buffer, not copied out. Any error
// — format or I/O — leaves r mid-value: callers must treat it as fatal for
// the stream.
func DecodeStream(r *bufio.Reader, n int) (Value, error) {
	if n < 0 {
		return nil, fmt.Errorf("value: negative stream value length")
	}
	// tag + name length + name + payload length is the minimum extension
	// encoding; anything shorter (or a non-extension value) cannot stream.
	if n < 7 {
		return slurpDecode(r, n)
	}
	hdr, err := r.Peek(3)
	if err != nil {
		return nil, err
	}
	nameLen := int(binary.BigEndian.Uint16(hdr[1:3]))
	if hdr[0] != tagExt || nameLen > maxStreamName || 7+nameLen > n {
		return slurpDecode(r, n)
	}
	if hdr, err = r.Peek(7 + nameLen); err != nil {
		return nil, err
	}
	e := lookupExtBytes(hdr[3 : 3+nameLen])
	payloadLen := int(binary.BigEndian.Uint32(hdr[3+nameLen:]))
	if e == nil || e.DecodeFrom == nil || 7+nameLen+payloadLen != n {
		// Unknown extension, no streaming hook, or a length mismatch the
		// in-memory decoder will diagnose (trailing bytes / truncation).
		return slurpDecode(r, n)
	}
	r.Discard(7 + nameLen)
	v, err := e.DecodeFrom(r, payloadLen)
	if err != nil {
		return nil, fmt.Errorf("value: ext %s: %w", e.Name, err)
	}
	return v, nil
}

// slurpDecode decodes a stream value in memory: its n bytes are read into a
// pooled buffer and decoded by the ordinary path.
func slurpDecode(r io.Reader, n int) (Value, error) {
	sb := streamScratch.Get().(*[]byte)
	if cap(*sb) < n {
		*sb = make([]byte, 0, n)
	}
	buf := (*sb)[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		*sb = buf
		streamScratch.Put(sb)
		return nil, err
	}
	v, err := Decode(buf)
	*sb = buf
	streamScratch.Put(sb)
	return v, err
}

// lookupExtBytes is lookupExt without the string conversion allocating on
// the hot path (the conversion inside the map index does not escape).
func lookupExtBytes(name []byte) *Ext {
	extMu.RLock()
	defer extMu.RUnlock()
	return extByName[string(name)]
}
