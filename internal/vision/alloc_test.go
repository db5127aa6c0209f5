package vision

import "testing"

// Allocation budgets for the per-frame hot-path kernels: with reused
// destinations/scratch, the in-place variants must be 0-alloc at steady
// state. These tests pin the contract the tracking frame loop relies on.

func allocTestFrame(w, h int) *Image {
	im := NewImage(w, h)
	for i := range im.Pix {
		im.Pix[i] = uint8(i * 37 % 251)
	}
	FillDisc(im, w/3, h/3, 5, 250)
	FillDisc(im, 2*w/3, h/2, 4, 250)
	FillDisc(im, w/2, 2*h/3, 3, 250)
	return im
}

func TestThresholdIntoZeroAlloc(t *testing.T) {
	im := allocTestFrame(128, 128)
	dst := NewImage(128, 128)
	if got := testing.AllocsPerRun(100, func() { ThresholdInto(dst, im, 200) }); got > 0 {
		t.Fatalf("ThresholdInto allocates %.1f allocs/op, want 0", got)
	}
}

func TestLabelScratchZeroAlloc(t *testing.T) {
	im := allocTestFrame(128, 128)
	var s LabelScratch
	s.Label(im, 200) // warm up scratch buffers
	if got := testing.AllocsPerRun(100, func() { s.Label(im, 200) }); got > 0 {
		t.Fatalf("LabelScratch.Label allocates %.1f allocs/op, want 0", got)
	}
}

func TestComponentsScratchZeroAlloc(t *testing.T) {
	im := allocTestFrame(128, 128)
	var s LabelScratch
	s.Components(im, 200, 2)
	if got := testing.AllocsPerRun(100, func() { s.Components(im, 200, 2) }); got > 0 {
		t.Fatalf("LabelScratch.Components allocates %.1f allocs/op, want 0", got)
	}
}

// A scratch regrown after the sync.Pool holding it was flushed by a
// collection must stay cheap on the frames the applications label (dark
// road, a few marks): runs, union-find parents, statistics and the
// component list, with room for one doubling of the label tables. (Dense
// noise mints thousands of provisional labels and grows the tables by
// doubling, once per scratch.)
func TestComponentsFreshScratchAllocBudget(t *testing.T) {
	im := NewImage(512, 64)
	for i := 0; i < 9; i++ {
		FillDisc(im, 30+50*i, 10+5*i, 4, 250)
	}
	if got := testing.AllocsPerRun(20, func() { new(LabelScratch).Components(im, 200, 2) }); got > 6 {
		t.Fatalf("Components on a fresh scratch allocates %.1f allocs/op, want <= 6", got)
	}
}

// A window is a descriptor: extracting a 512×64 band (32 KB of pixels)
// allocates the view's header and nothing else.
func TestExtractAllocatesNoPixels(t *testing.T) {
	im := allocTestFrame(512, 512)
	r := Rect{X0: 0, Y0: 64, X1: 512, Y1: 128}
	var w Window
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w = Extract(im, r)
		}
	})
	if res.AllocsPerOp() > 1 || res.AllocedBytesPerOp() >= 128 {
		t.Fatalf("Extract allocates %d allocs, %d B per window, want <= 1 and < 128 B",
			res.AllocsPerOp(), res.AllocedBytesPerOp())
	}
	if w.Img.W != 512 || w.Img.H != 64 || &w.Img.Row(0)[0] != &im.Row(64)[0] {
		t.Fatalf("band is not a view of the frame")
	}
}

func TestMorphIntoZeroAlloc(t *testing.T) {
	im := allocTestFrame(64, 64)
	dst := NewImage(64, 64)
	if got := testing.AllocsPerRun(50, func() { Dilate3Into(dst, im) }); got > 0 {
		t.Fatalf("Dilate3Into allocates %.1f allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() { Erode3Into(dst, im) }); got > 0 {
		t.Fatalf("Erode3Into allocates %.1f allocs/op, want 0", got)
	}
}

// The in-place variants must agree with their allocating counterparts.
func TestIntoVariantsMatchOneShot(t *testing.T) {
	im := allocTestFrame(96, 80)

	want := Threshold(im, 200)
	dst := NewImage(1, 1) // deliberately too small: reset must grow it
	got := ThresholdInto(dst, im, 200)
	if got.W != want.W || got.H != want.H {
		t.Fatalf("geometry: %dx%d vs %dx%d", got.W, got.H, want.W, want.H)
	}
	expectRowsEqual(t, "ThresholdInto", got, want)

	wd := Dilate3(im)
	gd := Dilate3Into(NewImage(0, 0), im)
	expectRowsEqual(t, "Dilate3Into", gd, wd)

	// A view is a source like any other, and never a destination buffer:
	// thresholding into a window must leave the frame it borrows alone.
	win := Extract(im, Rect{X0: 5, Y0: 7, X1: 60, Y1: 50})
	frame := im.Clone()
	expectRowsEqual(t, "Threshold(view)", Threshold(win.Img, 200), Threshold(win.Img.Clone(), 200))
	ThresholdInto(win.Img, win.Img.Clone(), 200)
	expectRowsEqual(t, "frame after ThresholdInto(view, ...)", im, frame)
}

// Labelling with scratch reuse must match the one-shot path and the
// brute-force flood-fill oracle across repeated frames.
func TestLabelScratchReuseMatchesOneShot(t *testing.T) {
	var s LabelScratch
	for frame := 0; frame < 5; frame++ {
		im := NewImage(64, 64)
		for i := range im.Pix {
			im.Pix[i] = uint8((i*31 + frame*97) % 256)
		}
		want := Label(im, 180)
		got := s.Label(im, 180)
		if got.N != want.N {
			t.Fatalf("frame %d: N=%d want %d", frame, got.N, want.N)
		}
		for i := range want.Labels {
			if got.Labels[i] != want.Labels[i] {
				t.Fatalf("frame %d: label differs at %d", frame, i)
			}
		}
		gotC := s.Components(im, 180, 1)
		wantC := FloodComponents(im, 180, 1)
		if len(gotC) != len(wantC) {
			t.Fatalf("frame %d: %d components, oracle %d", frame, len(gotC), len(wantC))
		}
	}
}

func TestArenaGetImageIsZeroed(t *testing.T) {
	im := GetImage(32, 32)
	for i := range im.Pix {
		im.Pix[i] = 255
	}
	PutImage(im)
	im2 := GetImage(32, 32)
	for i, p := range im2.Pix {
		if p != 0 {
			t.Fatalf("GetImage returned dirty pixel at %d: %d", i, p)
		}
	}
	PutImage(im2)
	if got := GetImage(8, 4); got.W != 8 || got.H != 4 || len(got.Pix) != 32 {
		t.Fatalf("GetImage geometry wrong: %dx%d len %d", got.W, got.H, len(got.Pix))
	}
}
