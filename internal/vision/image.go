// Package vision provides the low- and intermediate-level image processing
// primitives that SKiPPER applications are built from: grayscale images,
// thresholding, connected-component labelling, moments, windows of interest
// and simple feature extraction. These are the Go counterparts of the
// "application-specific sequential functions written in C" of the paper.
package vision

import (
	"fmt"
	"strings"
)

// Image is a single-channel 8-bit grayscale image. An image made by
// NewImage, a kernel or the decoder is compact: Pix is stored row-major with
// W bytes per row, so Pix[y*W+x] addresses pixel (x, y). A view made by
// Extract borrows another image's pixels and may keep that image's row
// pitch: code handed an *Image it did not make reads it through Row (or At),
// never through Pix[y*W+x].
type Image struct {
	W, H int
	Pix  []uint8

	// stride is zero for an image that owns a compact Pix. Extract sets it,
	// to the bytes between row starts, on a view: Pix then belongs to the
	// image viewed, whatever the view's width.
	stride int
}

// NewImage returns a zeroed (black) W×H image.
func NewImage(w, h int) *Image {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("vision: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h)}
}

// At returns the pixel at (x, y). Out-of-bounds coordinates return 0, which
// keeps window-based code free of border special cases.
func (im *Image) At(x, y int) uint8 {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return 0
	}
	return im.Pix[y*im.pitch()+x]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (im *Image) Set(x, y int, v uint8) {
	if x < 0 || y < 0 || x >= im.W || y >= im.H {
		return
	}
	im.Pix[y*im.pitch()+x] = v
}

func (im *Image) pitch() int {
	if im.stride != 0 {
		return im.stride
	}
	return im.W
}

// Row returns the W pixels of row y. It is the one way to address the
// pixels of an image that may be a view.
func (im *Image) Row(y int) []uint8 {
	o := y * im.pitch()
	return im.Pix[o : o+im.W : o+im.W]
}

// reset reshapes im to a compact w×h, reusing the pixel buffer when im owns
// one large enough; pixel contents are unspecified afterwards. It is the
// in-place kernels' way of adopting a caller-provided destination without
// allocating. A view never lends its borrowed pixels to a kernel's output.
func (im *Image) reset(w, h int) {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("vision: invalid image size %dx%d", w, h))
	}
	need := w * h
	if im.stride != 0 || cap(im.Pix) < need {
		im.Pix = make([]uint8, need)
	} else {
		im.Pix = im.Pix[:need]
	}
	im.W, im.H, im.stride = w, h, 0
}

// Clone returns a deep copy of the image: compact, and owning its pixels.
// It is the one way to keep a window's pixels beyond its frame's lifetime.
func (im *Image) Clone() *Image {
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		copy(out.Row(y), im.Row(y))
	}
	return out
}

// Fill sets every pixel to v.
func (im *Image) Fill(v uint8) {
	for y := 0; y < im.H; y++ {
		row := im.Row(y)
		for i := range row {
			row[i] = v
		}
	}
}

// Bytes returns the size of the pixel payload, used by the communication
// cost model of the timing simulator.
func (im *Image) Bytes() int { return im.W * im.H }

// Rect is an axis-aligned rectangle [X0,X1)×[Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// W returns the rectangle width (zero for degenerate rectangles).
func (r Rect) W() int {
	if r.X1 < r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// H returns the rectangle height (zero for degenerate rectangles).
func (r Rect) H() int {
	if r.Y1 < r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns W*H.
func (r Rect) Area() int { return r.W() * r.H() }

// Empty reports whether the rectangle contains no pixels.
func (r Rect) Empty() bool { return r.W() == 0 || r.H() == 0 }

// Contains reports whether (x, y) lies inside the rectangle.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{max(r.X0, s.X0), max(r.Y0, s.Y0), min(r.X1, s.X1), min(r.Y1, s.Y1)}
	if out.X1 < out.X0 {
		out.X1 = out.X0
	}
	if out.Y1 < out.Y0 {
		out.Y1 = out.Y0
	}
	return out
}

// Union returns the smallest rectangle containing both r and s. Empty
// rectangles are treated as the identity element.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{min(r.X0, s.X0), min(r.Y0, s.Y0), max(r.X1, s.X1), max(r.Y1, s.Y1)}
}

// Inflate grows the rectangle by d on every side, clamped to [0,w)×[0,h).
func (r Rect) Inflate(d, w, h int) Rect {
	out := Rect{r.X0 - d, r.Y0 - d, r.X1 + d, r.Y1 + d}
	if out.X0 < 0 {
		out.X0 = 0
	}
	if out.Y0 < 0 {
		out.Y0 = 0
	}
	if out.X1 > w {
		out.X1 = w
	}
	if out.Y1 > h {
		out.Y1 = h
	}
	return out
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// Window is a rectangular region of interest: Origin records where it sits
// in the full frame and Img holds its pixels in window-local coordinates. A
// window made by Extract is a descriptor, not a copy — Img is a view that
// borrows the frame's pixels. The frame must not be written while a window
// on it is reachable, a retained window keeps the whole frame alive, and
// nobody writes through Img; Clone it to own the pixels. Pixels are copied
// only when a window crosses a transport, and the window decoded on the far
// side is compact and owns its buffer.
type Window struct {
	Origin Rect
	Img    *Image
}

// Extract returns the window of im delimited by r (clipped to the frame) in
// O(1): a view of im's pixels with im's row pitch, compact when r spans im's
// full width. im may itself be a view.
func Extract(im *Image, r Rect) Window {
	r = r.Intersect(Rect{0, 0, im.W, im.H})
	v := &Image{W: r.W(), H: r.H()}
	if !r.Empty() {
		p := im.pitch()
		lo := r.Y0*p + r.X0
		hi := lo + (v.H-1)*p + v.W
		v.Pix, v.stride = im.Pix[lo:hi:hi], p
	}
	return Window{Origin: r, Img: v}
}

// Bytes returns the transfer size of the window: pixels plus a small
// fixed-size header for the origin rectangle.
func (w Window) Bytes() int {
	if w.Img == nil {
		return 16
	}
	return 16 + w.Img.Bytes()
}

// SplitGrid divides the full frame of size w×h into n near-equal horizontal
// bands (the reinitialization strategy of the paper: "dividing up the whole
// image into n equally-sized sub-windows"). It returns exactly n rectangles,
// the last one absorbing the remainder rows.
func SplitGrid(w, h, n int) []Rect {
	if n <= 0 {
		return nil
	}
	out := make([]Rect, 0, n)
	for i := 0; i < n; i++ {
		y0 := i * h / n
		y1 := (i + 1) * h / n
		out = append(out, Rect{0, y0, w, y1})
	}
	return out
}

// ASCII renders a coarse ASCII-art view of the image (for demo/debug output
// in the examples); each output cell is the maximum of a block of pixels.
func (im *Image) ASCII(cols, rows int) string {
	if cols <= 0 || rows <= 0 || im.W == 0 || im.H == 0 {
		return ""
	}
	const ramp = " .:-=+*#%@"
	var b strings.Builder
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			x0, x1 := c*im.W/cols, (c+1)*im.W/cols
			y0, y1 := r*im.H/rows, (r+1)*im.H/rows
			var m uint8
			for y := y0; y < y1; y++ {
				for _, p := range im.Row(y)[x0:x1] {
					m = max(m, p)
				}
			}
			b.WriteByte(ramp[int(m)*(len(ramp)-1)/255])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
