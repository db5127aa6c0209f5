package vision

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestThreshold(t *testing.T) {
	im := NewImage(3, 1)
	im.Pix = []uint8{10, 128, 250}
	b := Threshold(im, 128)
	want := []uint8{0, 255, 255}
	for i := range want {
		if b.Pix[i] != want[i] {
			t.Fatalf("pix %d = %d, want %d", i, b.Pix[i], want[i])
		}
	}
}

func TestCountAboveAndHistogram(t *testing.T) {
	im := NewImage(4, 1)
	im.Pix = []uint8{0, 5, 5, 200}
	if got := CountAbove(im, 5); got != 3 {
		t.Fatalf("CountAbove = %d, want 3", got)
	}
	h := Histogram(im)
	if h[0] != 1 || h[5] != 2 || h[200] != 1 {
		t.Fatalf("bad histogram: h[0]=%d h[5]=%d h[200]=%d", h[0], h[5], h[200])
	}
}

func TestLabelSimpleShapes(t *testing.T) {
	im := NewImage(8, 4)
	FillRect(im, Rect{0, 0, 2, 2}, 255) // component 1
	FillRect(im, Rect{4, 0, 6, 1}, 255) // component 2
	FillRect(im, Rect{6, 3, 8, 4}, 255) // component 3
	lr := Label(im, 128)
	if lr.N != 3 {
		t.Fatalf("N = %d, want 3", lr.N)
	}
	if lr.Labels[0] != 1 || lr.Labels[4] != 2 || lr.Labels[3*8+6] != 3 {
		t.Fatalf("unexpected labels: %v", lr.Labels)
	}
}

func TestLabelUShapeMerges(t *testing.T) {
	// A 'U' shape forces pass-1 to create two provisional labels that must
	// be merged by union-find when the bottom bar connects them.
	im := NewImage(5, 4)
	FillRect(im, Rect{0, 0, 1, 4}, 255)
	FillRect(im, Rect{4, 0, 5, 4}, 255)
	FillRect(im, Rect{0, 3, 5, 4}, 255)
	lr := Label(im, 1)
	if lr.N != 1 {
		t.Fatalf("U shape should be one component, got %d", lr.N)
	}
}

func TestLabelDiagonalNotConnected(t *testing.T) {
	// 4-connectivity: diagonal pixels are separate components.
	im := NewImage(2, 2)
	im.Set(0, 0, 255)
	im.Set(1, 1, 255)
	if lr := Label(im, 1); lr.N != 2 {
		t.Fatalf("diagonal pixels should be 2 components, got %d", lr.N)
	}
}

func TestComponentsStatistics(t *testing.T) {
	im := NewImage(10, 10)
	FillRect(im, Rect{2, 3, 5, 6}, 200) // 3x3 block
	comps := Components(im, 100, 1)
	if len(comps) != 1 {
		t.Fatalf("got %d components", len(comps))
	}
	c := comps[0]
	if c.Area != 9 {
		t.Fatalf("Area = %d, want 9", c.Area)
	}
	if math.Abs(c.CX-3) > 1e-9 || math.Abs(c.CY-4) > 1e-9 {
		t.Fatalf("centroid (%g,%g), want (3,4)", c.CX, c.CY)
	}
	if c.BBox != (Rect{2, 3, 5, 6}) {
		t.Fatalf("BBox = %v", c.BBox)
	}
	if c.SumVal != 9*200 {
		t.Fatalf("SumVal = %d", c.SumVal)
	}
}

func TestComponentsMinAreaFilter(t *testing.T) {
	im := NewImage(10, 10)
	im.Set(0, 0, 255)                   // 1-pixel noise blob
	FillRect(im, Rect{5, 5, 8, 8}, 255) // real blob
	comps := Components(im, 128, 4)
	if len(comps) != 1 || comps[0].Area != 9 {
		t.Fatalf("minArea filter failed: %+v", comps)
	}
}

func TestComponentsEmptyImage(t *testing.T) {
	if comps := Components(NewImage(16, 16), 1, 1); comps != nil {
		t.Fatalf("expected nil, got %v", comps)
	}
}

// Property: the run-based labelling agrees exactly with brute-force flood
// fill on random binary images of random sizes and densities.
func TestLabelMatchesFloodFill(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, h := 1+rng.Intn(40), 1+rng.Intn(40)
		checkAgainstFlood(t, new(LabelScratch), noiseImage(w, h, rng.Float64(), seed), 100, 1)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDrawRectOutline(t *testing.T) {
	im := NewImage(6, 6)
	DrawRect(im, Rect{1, 1, 5, 5}, 9)
	if im.At(1, 1) != 9 || im.At(4, 4) != 9 || im.At(1, 4) != 9 {
		t.Fatal("outline corners not drawn")
	}
	if im.At(2, 2) != 0 {
		t.Fatal("interior should be untouched")
	}
}

func TestFillDisc(t *testing.T) {
	im := NewImage(11, 11)
	FillDisc(im, 5, 5, 3, 255)
	if im.At(5, 5) != 255 || im.At(5, 2) != 255 || im.At(2, 5) != 255 {
		t.Fatal("disc pixels missing")
	}
	if im.At(0, 0) != 0 || im.At(8, 8) != 0 {
		t.Fatal("disc painted outside radius")
	}
	// Clipping: disc centered off-image must not panic.
	FillDisc(im, -2, -2, 3, 255)
}

func TestFitLineRecoversSlope(t *testing.T) {
	// x = 2y + 3 exactly.
	var xs, ys []float64
	for y := 0; y < 10; y++ {
		ys = append(ys, float64(y))
		xs = append(xs, 2*float64(y)+3)
	}
	l := FitLine(xs, ys)
	if math.Abs(l.A-2) > 1e-9 || math.Abs(l.B-3) > 1e-9 {
		t.Fatalf("fit = %+v, want A=2 B=3", l)
	}
	if l.N != 10 {
		t.Fatalf("N = %d", l.N)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if l := FitLine(nil, nil); l.N != 0 {
		t.Fatal("empty fit should have N=0")
	}
	// Single point: vertical line through the point.
	l := FitLine([]float64{7}, []float64{3})
	if l.A != 0 || l.B != 7 {
		t.Fatalf("single-point fit = %+v", l)
	}
	// All points on one row: denominator degenerate.
	l = FitLine([]float64{1, 3}, []float64{5, 5})
	if l.A != 0 || math.Abs(l.B-2) > 1e-9 {
		t.Fatalf("same-row fit = %+v", l)
	}
}

func TestRowMaxima(t *testing.T) {
	im := NewImage(10, 5)
	for y := 0; y < 5; y++ {
		im.Set(y+2, y, 255) // bright diagonal: x = y + 2
	}
	xs, ys := RowMaxima(im, Rect{0, 0, 10, 5}, 128)
	if len(xs) != 5 {
		t.Fatalf("got %d maxima", len(xs))
	}
	for i := range xs {
		if xs[i] != ys[i]+2 {
			t.Fatalf("maximum %d at x=%g, want %g", i, xs[i], ys[i]+2)
		}
	}
	// Below threshold: no samples.
	if xs, _ := RowMaxima(im, Rect{0, 0, 10, 5}, 255); len(xs) != 5 {
		t.Fatalf("threshold=255 should still catch 255 pixels, got %d", len(xs))
	}
	if xs, _ := RowMaxima(NewImage(4, 4), Rect{0, 0, 4, 4}, 1); len(xs) != 0 {
		t.Fatal("dark image should yield no maxima")
	}
}

func TestMergeFits(t *testing.T) {
	// Two bands both supporting x = y + 1.
	bands := []Rect{{0, 0, 10, 5}, {0, 5, 10, 10}}
	fits := []Line{{A: 1, B: 1, N: 5}, {A: 1, B: 1, N: 5}}
	l := MergeFits(fits, bands)
	if math.Abs(l.A-1) > 1e-9 || math.Abs(l.B-1) > 1e-9 {
		t.Fatalf("merged fit = %+v", l)
	}
	// A band with no support is ignored.
	fits[1].N = 0
	l = MergeFits(fits, bands)
	if math.Abs(l.A-1) > 1e-9 {
		t.Fatalf("merge with empty band = %+v", l)
	}
}
