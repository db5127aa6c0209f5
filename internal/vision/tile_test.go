package vision

import (
	"math/rand"
	"runtime"
	"testing"
)

// The banded kernels must be bit-identical to their straightforward
// sequential counterparts at any parallelism. These tests force a
// multi-worker GOMAXPROCS (so bandCuts actually splits, even on a
// single-CPU host) and compare against naive reference implementations
// over degenerate and awkward geometries.

func withProcs(t *testing.T, n int, f func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	f()
}

func randomFrame(w, h int, seed int64) *Image {
	im := NewImage(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range im.Pix {
		im.Pix[i] = uint8(rng.Intn(256))
	}
	return im
}

func naiveThreshold(im *Image, t uint8) *Image {
	out := NewImage(im.W, im.H)
	for i, p := range im.Pix {
		if p >= t {
			out.Pix[i] = 255
		}
	}
	return out
}

func naiveDilate3(im *Image) *Image {
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var m uint8
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if v := im.At(x+dx, y+dy); v > m {
						m = v
					}
				}
			}
			out.Pix[y*im.W+x] = m
		}
	}
	return out
}

func naiveErode3(im *Image) *Image {
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			m := uint8(255)
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if v := im.At(x+dx, y+dy); v < m {
						m = v
					}
				}
			}
			out.Pix[y*im.W+x] = m
		}
	}
	return out
}

func expectPixEqual(t *testing.T, name string, w, h int, got, want []uint8) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s %dx%d: pixel %d (x=%d y=%d) = %d, want %d",
				name, w, h, i, i%w, i/w, got[i], want[i])
		}
	}
}

var tileGeometries = [][2]int{
	{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 3}, {2, 200}, {200, 2},
	{17, 129}, {100, 301}, {512, 512},
}

func TestBandCutsProperties(t *testing.T) {
	withProcs(t, 8, func() {
		for _, g := range tileGeometries {
			w, h := g[0], g[1]
			cuts := bandCuts(w, h)
			if cuts == nil {
				continue
			}
			if cuts[0] != 0 || cuts[len(cuts)-1] != h {
				t.Fatalf("%dx%d: cuts %v do not cover [0,%d)", w, h, cuts, h)
			}
			for i := 1; i < len(cuts); i++ {
				if cuts[i] <= cuts[i-1] {
					t.Fatalf("%dx%d: cuts %v not strictly increasing", w, h, cuts)
				}
			}
		}
		if cuts := bandCuts(512, 512); cuts == nil {
			t.Fatalf("512x512 at GOMAXPROCS=8 should band")
		}
	})
	withProcs(t, 1, func() {
		if cuts := bandCuts(512, 512); cuts != nil {
			t.Fatalf("single worker should not band, got %v", cuts)
		}
	})
}

func TestBandedKernelsMatchNaive(t *testing.T) {
	withProcs(t, 8, func() {
		for _, g := range tileGeometries {
			w, h := g[0], g[1]
			im := randomFrame(w, h, int64(w*1000+h))

			got := ThresholdInto(NewImage(0, 0), im, 128)
			expectPixEqual(t, "ThresholdInto", w, h, got.Pix, naiveThreshold(im, 128).Pix)

			got = Dilate3Into(NewImage(0, 0), im)
			expectPixEqual(t, "Dilate3Into", w, h, got.Pix, naiveDilate3(im).Pix)

			got = Erode3Into(NewImage(0, 0), im)
			expectPixEqual(t, "Erode3Into", w, h, got.Pix, naiveErode3(im).Pix)

			if w > 2 && h > 2 {
				r := Rect{X0: 1, Y0: 1, X1: w - 1, Y1: h - 1}
				// The banded kernels read a strided view row by row.
				win := Extract(im, r)
				for y := 0; y < r.H(); y++ {
					for x, p := range win.Img.Row(y) {
						if p != im.At(x+1, y+1) {
							t.Fatalf("Extract %dx%d differs at (%d,%d)", w, h, x, y)
						}
					}
				}
				got = Dilate3Into(NewImage(0, 0), win.Img)
				expectPixEqual(t, "Dilate3Into(view)", w-2, h-2, got.Pix, naiveDilate3(win.Img).Pix)
				got = Erode3Into(NewImage(0, 0), win.Img)
				expectPixEqual(t, "Erode3Into(view)", w-2, h-2, got.Pix, naiveErode3(win.Img).Pix)
				got = ThresholdInto(NewImage(0, 0), win.Img, 128)
				expectPixEqual(t, "ThresholdInto(view)", w-2, h-2, got.Pix, naiveThreshold(win.Img.Clone(), 128).Pix)
			}
		}
	})
}
