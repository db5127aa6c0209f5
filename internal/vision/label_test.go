package vision

import (
	"math/rand"
	"testing"
)

// floodPlane is the label-plane oracle: flood fill from every unvisited
// foreground pixel in raster order, so labels are dense in raster order of
// first appearance by construction.
func floodPlane(im *Image, t uint8) ([]int32, int) {
	w, h := im.W, im.H
	plane := make([]int32, w*h)
	n := int32(0)
	var stack []int
	for i0, p := range im.Pix {
		if p < t || plane[i0] != 0 {
			continue
		}
		n++
		plane[i0] = n
		stack = append(stack[:0], i0)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := i%w, i/w
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || ny < 0 || nx >= w || ny >= h {
					continue
				}
				if j := ny*w + nx; plane[j] == 0 && im.Pix[j] >= t {
					plane[j] = n
					stack = append(stack, j)
				}
			}
		}
	}
	return plane, int(n)
}

// checkAgainstFlood requires the run kernel's two outputs to equal the
// flood-fill oracles exactly: every Component field (FloodComponents visits
// components in raster order of their first pixel and divides the same
// integer sums, so labels and centroid bits must agree, not merely be
// close) and every cell of the label plane.
func checkAgainstFlood(t testing.TB, s *LabelScratch, im *Image, thr uint8, minArea int) {
	t.Helper()
	got, want := s.Components(im, thr, minArea), FloodComponents(im, thr, minArea)
	if len(got) != len(want) {
		t.Fatalf("%dx%d thr=%d minArea=%d: %d components, oracle %d", im.W, im.H, thr, minArea, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%dx%d thr=%d minArea=%d: component %d = %+v, oracle %+v", im.W, im.H, thr, minArea, i, got[i], want[i])
		}
	}
	lr := s.Label(im, thr)
	plane, n := floodPlane(im, thr)
	if lr.W != im.W || lr.H != im.H || lr.N != n || len(lr.Labels) != len(plane) {
		t.Fatalf("%dx%d thr=%d: Label %dx%d N=%d len=%d, oracle N=%d len=%d", im.W, im.H, thr, lr.W, lr.H, lr.N, len(lr.Labels), n, len(plane))
	}
	for i := range plane {
		if lr.Labels[i] != plane[i] {
			t.Fatalf("%dx%d thr=%d: label at (%d,%d) = %d, oracle %d", im.W, im.H, thr, i%im.W, i/im.W, lr.Labels[i], plane[i])
		}
	}
}

// noiseImage sets each pixel to a random value in [1,255] with probability
// density and to 0 otherwise, so thresholds 1, 128 and 255 all cut it.
func noiseImage(w, h int, density float64, seed int64) *Image {
	im := NewImage(w, h)
	rng := rand.New(rand.NewSource(seed))
	for i := range im.Pix {
		if rng.Float64() < density {
			im.Pix[i] = uint8(1 + rng.Intn(255))
		}
	}
	return im
}

func checkerImage(w, h int) *Image {
	im := NewImage(w, h)
	for i := range im.Pix {
		if (i%w+i/w)%2 == 0 {
			im.Pix[i] = 255
		}
	}
	return im
}

var labelThresholds = []uint8{0, 1, 128, 255}

// Widths 1..70 cover rows shorter than one 8-pixel word, rows with a scalar
// tail and runs touching both borders; density 1 is a single run per row,
// the checkerboard one run per foreground pixel. One scratch serves every
// case, so stale runs, labels or statistics from a previous geometry show.
func TestComponentsMatchFlood(t *testing.T) {
	var s LabelScratch
	for w := 1; w <= 70; w++ {
		h := 1 + (w*7)%23
		for _, thr := range labelThresholds {
			for di, density := range []float64{0.01, 0.45, 1} {
				checkAgainstFlood(t, &s, noiseImage(w, h, density, int64(w*10+di)), thr, 1+di)
			}
			checkAgainstFlood(t, &s, checkerImage(w, h), thr, 1)
		}
	}
}

// Whole frames and degenerate strips through one scratch (the geometries
// the tiled labelling used to be checked on), dense noise and sparse blobs.
func TestLabelScratchReuseAcrossGeometries(t *testing.T) {
	var s LabelScratch
	for i, g := range tileGeometries {
		im := randomFrame(g[0], g[1], int64(i))
		for _, thr := range []uint8{100, 240} {
			checkAgainstFlood(t, &s, im, thr, 1)
		}
	}
}

func FuzzComponentsMatchFlood(f *testing.F) {
	for _, w := range []int{1, 7, 8, 9, 70} {
		for _, thr := range labelThresholds {
			f.Add(uint8(w), thr, uint8(1), noiseImage(w, 9, 0.45, int64(w)).Pix)
			f.Add(uint8(w), thr, uint8(2), checkerImage(w, 5).Pix)
		}
	}
	f.Fuzz(func(t *testing.T, w, thr, minArea uint8, pix []byte) {
		if w == 0 || len(pix) > 1<<14 {
			return
		}
		h := len(pix) / int(w)
		im := &Image{W: int(w), H: h, Pix: pix[:int(w)*h]}
		checkAgainstFlood(t, new(LabelScratch), im, thr, int(minArea))
	})
}

// CountAbove against the scalar loop at every threshold, on lengths around
// the 8-pixel word and on sub-slices starting at every byte offset.
func TestCountAboveMatchesScalar(t *testing.T) {
	buf := make([]uint8, 32)
	rng := rand.New(rand.NewSource(3))
	for i := range buf {
		buf[i] = uint8(rng.Intn(256))
	}
	buf[3], buf[4], buf[11], buf[12] = 0, 255, 127, 128
	for thr := 0; thr <= 255; thr++ {
		for off := 0; off < 8; off++ {
			for n := 0; n <= 17; n++ {
				pix := buf[off : off+n]
				want := 0
				for _, p := range pix {
					if p >= uint8(thr) {
						want++
					}
				}
				if got := CountAbove(&Image{W: n, H: 1, Pix: pix}, uint8(thr)); got != want {
					t.Fatalf("thr=%d off=%d len=%d: CountAbove = %d, want %d", thr, off, n, got, want)
				}
			}
		}
	}
}
