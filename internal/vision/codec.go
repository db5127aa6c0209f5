package vision

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"skipper/internal/value"
)

// Codec extensions for the vision types that cross processor boundaries in
// distributed runs: full image planes (static edges) and windows of
// interest (farm task payloads). Registered at init so any process linking
// the vision package can decode frames produced by any other.

// maxImagePixels rejects absurd image headers before allocating: 64 MPix
// (a 8192×8192 plane) is far beyond anything the tracking pipeline ships.
const maxImagePixels = 64 << 20

func init() {
	value.RegisterExt(value.Ext{
		Name:       "vision.Image",
		Match:      func(v value.Value) bool { _, ok := v.(*Image); return ok },
		Encode:     encodeImage,
		Decode:     decodeImage,
		Size:       func(v value.Value) int { return 8 + v.(*Image).Bytes() },
		EncodeTail: encodeImageTail,
		DecodeFrom: decodeImageFrom,
		Release:    func(v value.Value) { PutImage(v.(*Image)) },
	})
	value.RegisterExt(value.Ext{
		Name:   "vision.Window",
		Match:  func(v value.Value) bool { _, ok := v.(Window); return ok },
		Encode: encodeWindow,
		Decode: decodeWindow,
		Size: func(v value.Value) int {
			win := v.(Window)
			if win.Img == nil {
				return 17
			}
			return 17 + 8 + win.Img.Bytes()
		},
		EncodeTail: encodeWindowTail,
		DecodeFrom: decodeWindowFrom,
		Release:    func(v value.Value) { PutImage(v.(Window).Img) },
	})
}

func encodeImage(buf []byte, v value.Value) ([]byte, error) {
	head, tail, err := encodeImageTail(buf, v)
	return append(head, tail...), err
}

// encodeImageTail is the zero-copy encode: the fixed header goes into buf,
// the pixel slab is returned by reference so the transport can hand it to a
// vectored write without copying ~W×H bytes per frame. The slab of a compact
// view is the frame's own memory. A strided view has no slab: its rows are
// gathered into buf (presized by the transport from Size), the one copy a
// window pays on its way to the wire.
func encodeImageTail(buf []byte, v value.Value) ([]byte, []byte, error) {
	im := v.(*Image)
	buf = value.AppendU32(buf, uint32(im.W))
	buf = value.AppendU32(buf, uint32(im.H))
	if len(im.Pix) == im.Bytes() {
		return buf, im.Pix, nil
	}
	for y := 0; y < im.H; y++ {
		buf = append(buf, im.Row(y)...)
	}
	return buf, nil, nil
}

func decodeImage(payload []byte) (value.Value, error) {
	w, pos, err := value.ReadU32(payload, 0)
	if err != nil {
		return nil, err
	}
	h, pos, err := value.ReadU32(payload, pos)
	if err != nil {
		return nil, err
	}
	px := int64(w) * int64(h)
	if px > maxImagePixels {
		return nil, fmt.Errorf("image %dx%d exceeds pixel budget", w, h)
	}
	if px != int64(len(payload)-pos) {
		return nil, fmt.Errorf("image %dx%d wants %d pixel bytes, frame has %d",
			w, h, px, len(payload)-pos)
	}
	// getImageDirty pulls a recycled pixel buffer from the frame arena when
	// one is available and skips the make() zeroing either way — every pixel
	// is overwritten by the copy below.
	im := getImageDirty(int(w), int(h))
	copy(im.Pix, payload[pos:])
	return im, nil
}

// decodeImageFrom is the streaming mirror of decodeImage: the pixel slab is
// read from the wire straight into the arena image, skipping the
// intermediate frame buffer (and its W×H-byte copy) entirely.
func decodeImageFrom(r *bufio.Reader, n int) (value.Value, error) {
	if n < 8 {
		return nil, fmt.Errorf("truncated image header (%d bytes)", n)
	}
	hdr, err := r.Peek(8)
	if err != nil {
		return nil, err
	}
	w := binary.BigEndian.Uint32(hdr[0:])
	h := binary.BigEndian.Uint32(hdr[4:])
	r.Discard(8)
	px := int64(w) * int64(h)
	if px > maxImagePixels {
		return nil, fmt.Errorf("image %dx%d exceeds pixel budget", w, h)
	}
	if px != int64(n-8) {
		return nil, fmt.Errorf("image %dx%d wants %d pixel bytes, frame has %d",
			w, h, px, n-8)
	}
	im := getImageDirty(int(w), int(h))
	if _, err := io.ReadFull(r, im.Pix); err != nil {
		PutImage(im)
		return nil, err
	}
	return im, nil
}

func encodeWindow(buf []byte, v value.Value) ([]byte, error) {
	head, tail, err := encodeWindowTail(buf, v)
	return append(head, tail...), err
}

// encodeWindowTail mirrors encodeWindow but returns the pixel slab by
// reference (see encodeImageTail).
func encodeWindowTail(buf []byte, v value.Value) ([]byte, []byte, error) {
	win := v.(Window)
	for _, c := range [4]int{win.Origin.X0, win.Origin.Y0, win.Origin.X1, win.Origin.Y1} {
		if c < math.MinInt32 || c > math.MaxInt32 {
			return nil, nil, fmt.Errorf("window origin coordinate %d out of range", c)
		}
		buf = value.AppendU32(buf, uint32(int32(c)))
	}
	if win.Img == nil {
		return append(buf, 0), nil, nil
	}
	return encodeImageTail(append(buf, 1), win.Img)
}

func decodeWindow(payload []byte) (value.Value, error) {
	var coords [4]int
	pos := 0
	for i := range coords {
		c, next, err := value.ReadU32(payload, pos)
		if err != nil {
			return nil, err
		}
		coords[i], pos = int(int32(c)), next
	}
	if pos >= len(payload) {
		return nil, fmt.Errorf("truncated window image marker")
	}
	win := Window{Origin: Rect{X0: coords[0], Y0: coords[1], X1: coords[2], Y1: coords[3]}}
	marker := payload[pos]
	pos++
	switch marker {
	case 0:
		if pos != len(payload) {
			return nil, fmt.Errorf("trailing bytes after nil-image window")
		}
		return win, nil
	case 1:
		v, err := decodeImage(payload[pos:])
		if err != nil {
			return nil, err
		}
		win.Img = v.(*Image)
		return win, nil
	}
	return nil, fmt.Errorf("invalid window image marker %#x", marker)
}

// decodeWindowFrom is the streaming mirror of decodeWindow (see
// decodeImageFrom).
func decodeWindowFrom(r *bufio.Reader, n int) (value.Value, error) {
	if n < 17 {
		return nil, fmt.Errorf("truncated window header (%d bytes)", n)
	}
	hdr, err := r.Peek(17)
	if err != nil {
		return nil, err
	}
	win := Window{Origin: Rect{
		X0: int(int32(binary.BigEndian.Uint32(hdr[0:]))),
		Y0: int(int32(binary.BigEndian.Uint32(hdr[4:]))),
		X1: int(int32(binary.BigEndian.Uint32(hdr[8:]))),
		Y1: int(int32(binary.BigEndian.Uint32(hdr[12:]))),
	}}
	marker := hdr[16]
	r.Discard(17)
	switch marker {
	case 0:
		if n != 17 {
			return nil, fmt.Errorf("trailing bytes after nil-image window")
		}
		return win, nil
	case 1:
		v, err := decodeImageFrom(r, n-17)
		if err != nil {
			return nil, err
		}
		win.Img = v.(*Image)
		return win, nil
	}
	return nil, fmt.Errorf("invalid window image marker %#x", marker)
}
