package vision

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"skipper/internal/value"
)

// A window is a view of its frame (image.go). Every kernel that accepts an
// *Image must give, on a view, exactly what it gives on the view's Clone:
// these tests cut views at awkward offsets, views of views and full-width
// bands, and compare kernel by kernel.

func expectRowsEqual(t testing.TB, name string, got, want *Image) {
	t.Helper()
	if got.W != want.W || got.H != want.H {
		t.Fatalf("%s: geometry %dx%d, want %dx%d", name, got.W, got.H, want.W, want.H)
	}
	for y := 0; y < want.H; y++ {
		if !bytes.Equal(got.Row(y), want.Row(y)) {
			t.Fatalf("%s: row %d of %dx%d differs", name, y, want.W, want.H)
		}
	}
}

// overlaps reports whether two pixel buffers share memory (whole capacity).
func overlaps(a, b []uint8) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	a0 := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	b0 := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b)) && b0 < a0+uintptr(cap(a))
}

// checkViewKernels runs every exported *Image kernel on v and on its Clone.
func checkViewKernels(t testing.TB, v *Image, thr uint8) {
	t.Helper()
	c := v.Clone()
	if c.stride != 0 || len(c.Pix) != c.W*c.H || overlaps(c.Pix, v.Pix) {
		t.Fatalf("Clone of a %dx%d view is not a compact image of its own", v.W, v.H)
	}
	for y := -1; y <= v.H; y++ {
		for x := -1; x <= v.W; x++ {
			if v.At(x, y) != c.At(x, y) {
				t.Fatalf("At(%d,%d) = %d on the view, %d on its clone", x, y, v.At(x, y), c.At(x, y))
			}
		}
	}
	if v.Bytes() != c.Bytes() {
		t.Fatalf("Bytes %d, clone %d", v.Bytes(), c.Bytes())
	}
	if got, want := CountAbove(v, thr), CountAbove(c, thr); got != want {
		t.Fatalf("CountAbove %d, clone %d", got, want)
	}
	if Histogram(v) != Histogram(c) {
		t.Fatalf("Histogram differs")
	}
	expectRowsEqual(t, "Threshold", Threshold(v, thr), Threshold(c, thr))
	expectRowsEqual(t, "Dilate3", Dilate3(v), Dilate3(c))
	expectRowsEqual(t, "Erode3", Erode3(v), Erode3(c))
	expectRowsEqual(t, "Open3", Open3(v), Open3(c))
	expectRowsEqual(t, "Sobel", Sobel(v), Sobel(c))
	if iv, ic := NewIntegral(v), NewIntegral(c); !reflect.DeepEqual(iv, ic) {
		t.Fatalf("Integral differs")
	}
	band := Rect{1, 0, v.W + 3, v.H - 1} // reaches past the right edge
	vx, vy := RowMaxima(v, band, thr)
	cx, cy := RowMaxima(c, band, thr)
	if !reflect.DeepEqual(vx, cx) || !reflect.DeepEqual(vy, cy) {
		t.Fatalf("RowMaxima differs")
	}
	if !reflect.DeepEqual(FloodComponents(v, thr, 1), FloodComponents(c, thr, 1)) {
		t.Fatalf("FloodComponents differs")
	}
	if !reflect.DeepEqual(Components(v, thr, 1), Components(c, thr, 1)) {
		t.Fatalf("Components differs")
	}
	if !reflect.DeepEqual(Label(v, thr), Label(c, thr)) {
		t.Fatalf("Label plane differs")
	}
	var pv, pc bytes.Buffer
	if err := EncodePGM(&pv, v); err != nil {
		t.Fatal(err)
	}
	if err := EncodePGM(&pc, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pv.Bytes(), pc.Bytes()) {
		t.Fatalf("EncodePGM differs")
	}
	if v.ASCII(7, 5) != c.ASCII(7, 5) {
		t.Fatalf("ASCII differs")
	}
}

// checkViewWrites paints through a view of a private frame: the view ends up
// as its clone does, and the frame changes nowhere else.
func checkViewWrites(t testing.TB, frame *Image, r Rect) {
	t.Helper()
	frame = frame.Clone()
	before := frame.Clone()
	v := Extract(frame, r).Img
	c := v.Clone()
	for _, im := range []*Image{v, c} {
		im.Fill(7)
		FillRect(im, Rect{1, 1, im.W + 2, im.H - 1}, 9)
		FillRect(im, Rect{im.W + 1, 0, im.W + 4, im.H}, 9) // wholly outside
		DrawRect(im, Rect{0, 0, im.W, im.H}, 11)
		im.Set(im.W/2, im.H/2, 13)
		im.Set(im.W, 0, 13) // out of bounds: ignored
	}
	expectRowsEqual(t, "painted view", v, c)
	r = r.Intersect(Rect{0, 0, frame.W, frame.H})
	for y := 0; y < frame.H; y++ {
		for x := 0; x < frame.W; x++ {
			if !r.Contains(x, y) && frame.At(x, y) != before.At(x, y) {
				t.Fatalf("painting view %v changed frame pixel (%d,%d)", r, x, y)
			}
		}
	}
}

// checkViews checks the window of frame at r, a window of that window and
// the full-width band of the same rows.
func checkViews(t testing.TB, frame *Image, r Rect, thr uint8) {
	t.Helper()
	win := Extract(frame, r)
	if want := r.Intersect(Rect{0, 0, frame.W, frame.H}); win.Origin != want {
		t.Fatalf("Extract(%v) origin %v, want %v", r, win.Origin, want)
	}
	for y := 0; y < win.Img.H; y++ {
		for x, p := range win.Img.Row(y) {
			if p != frame.At(win.Origin.X0+x, win.Origin.Y0+y) {
				t.Fatalf("Extract(%v) differs from the frame at (%d,%d)", r, x, y)
			}
		}
	}
	checkViewKernels(t, win.Img, thr)
	inner := Extract(win.Img, Rect{1, 1, win.Img.W - 1, win.Img.H}) // a view of a view
	checkViewKernels(t, inner.Img, thr)
	band := Extract(frame, Rect{0, r.Y0, frame.W, r.Y1})
	if len(band.Img.Pix) != band.Img.W*band.Img.H {
		t.Fatalf("full-width band %v is not compact", band.Origin)
	}
	checkViewKernels(t, band.Img, thr)
	checkViewWrites(t, frame, r)
}

func TestViewsMatchCompact(t *testing.T) {
	for w := 1; w <= 70; w++ {
		h := 3 + w%11
		frame := noiseImage(w+9, h+6, 0.4, int64(w))
		checkViews(t, frame, Rect{5, 3, 5 + w, 3 + h}, 200)       // interior, odd offset
		checkViews(t, frame, Rect{w / 2, 1, w + 20, h + 20}, 200) // clipped bottom right
		checkViews(t, frame, Rect{-4, -4, 1 + w/3, 2}, 1)         // clipped top left
		checkViews(t, frame, Rect{w + 30, 2, w + 40, 4}, 200)     // outside: empty
		checkViews(t, checkerImage(w+3, h+2), Rect{3, 1, 3 + w, h}, 128)
	}
}

func FuzzViewKernelsMatchCompact(f *testing.F) {
	f.Add(uint8(16), uint8(5), uint8(3), uint8(9), uint8(4), uint8(200), []byte{0, 255, 200, 7, 199, 201})
	f.Add(uint8(70), uint8(1), uint8(0), uint8(69), uint8(12), uint8(0), []byte{1})
	f.Add(uint8(9), uint8(0), uint8(0), uint8(9), uint8(3), uint8(128), []byte{255, 0}) // full width
	f.Add(uint8(33), uint8(40), uint8(2), uint8(8), uint8(2), uint8(255), []byte{})     // outside
	f.Fuzz(func(t *testing.T, fw, x0, y0, w, h, thr uint8, pix []byte) {
		if fw == 0 || len(pix) == 0 {
			return
		}
		frame := NewImage(int(fw)%80+1, 24)
		for i := range frame.Pix {
			frame.Pix[i] = pix[i%len(pix)] + uint8(i/len(pix))
		}
		x, y := int(x0), int(y0)
		checkViews(t, frame, Rect{x, y, x + int(w), y + int(h)}, thr)
	})
}

// A view recycled into the arena would hand a slice of a live frame to the
// next kernel that asks for scratch: PutImage must drop it.
func TestPutImageIgnoresViews(t *testing.T) {
	frame := allocTestFrame(64, 64)
	want := frame.Clone()
	for i := 0; i < 64; i++ {
		PutImage(Extract(frame, Rect{0, 16, 64, 48}).Img)
		PutImage(Extract(frame, Rect{8, 8, 40, 40}).Img)
		got := GetImage(64, 32)
		if overlaps(got.Pix, frame.Pix) {
			t.Fatalf("GetImage returned memory of a live frame after PutImage(view)")
		}
		got.Fill(0xEE)
		PutImage(got)
	}
	expectRowsEqual(t, "frame", frame, want)
}

// The wire format does not know about views: every encoder gives, for a
// strided or a compact window, the bytes it gives for the window's Clone,
// and what comes back owns a compact buffer.
func TestViewEncodingMatchesClone(t *testing.T) {
	frame := allocTestFrame(96, 80)
	for _, r := range []Rect{{5, 7, 60, 50}, {0, 16, 96, 48}, {90, 70, 200, 200}, {10, 10, 10, 30}} {
		win := Extract(frame, r)
		own := Window{Origin: win.Origin, Img: win.Img.Clone()}
		for _, pair := range [][2]value.Value{{win, own}, {win.Img, own.Img}} {
			want, err := value.Encode(nil, pair[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := value.Encode(nil, pair[0])
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%v: Encode of the view differs from its clone's (err %v)", r, err)
			}
			head, tail, err := value.EncodeTrailing(nil, pair[0])
			if err != nil || !bytes.Equal(append(head, tail...), want) {
				t.Fatalf("%v: EncodeTrailing head+tail differs from Encode (err %v)", r, err)
			}
			if n := value.EncodeSize(pair[0]); n != len(want) {
				t.Fatalf("%v: EncodeSize %d, encoding has %d bytes", r, n, len(want))
			}
			back, err := value.Decode(got)
			if err != nil {
				t.Fatal(err)
			}
			im, ok := back.(*Image)
			if !ok {
				im = back.(Window).Img
			}
			if im.stride != 0 || len(im.Pix) != im.W*im.H || overlaps(im.Pix, frame.Pix) {
				t.Fatalf("%v: decoded image is not compact and owning", r)
			}
			expectRowsEqual(t, "decoded", im, own.Img)
		}
		if win.Bytes() != 16+win.Img.W*win.Img.H {
			t.Fatalf("%v: Window.Bytes %d", r, win.Bytes())
		}
	}
}
