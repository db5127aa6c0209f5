package vision

import (
	"bytes"
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
	c := im.Clone() // the oracles' input: im may be a view, and floodPlane indexes Pix
	got, want := s.Components(im, thr, minArea), FloodComponents(c, thr, minArea)
	if len(got) != len(want) {
		t.Fatalf("%dx%d thr=%d minArea=%d: %d components, oracle %d", im.W, im.H, thr, minArea, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%dx%d thr=%d minArea=%d: component %d = %+v, oracle %+v", im.W, im.H, thr, minArea, i, got[i], want[i])
		}
	}
	lr := s.Label(im, thr)
	plane, n := floodPlane(c, thr)
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

// 200 is the workloads' threshold, and the one under which 0x55|0xAA lies.
var labelThresholds = []uint8{0, 1, 128, 200, 255}

// skipMaxW takes a row through two 64-pixel steps of the background skip
// and a tail of two words and a pixel.
const skipMaxW = 2*64 + 17

// gradedPix returns n random pixels in [0,t): none reaches t, but the OR of
// the eight words of a block nearly always does, so none64 fails on
// background.
func gradedPix(n int, t uint8, seed int64) []uint8 {
	pix := make([]uint8, n)
	rng := rand.New(rand.NewSource(seed))
	for i := range pix {
		pix[i] = uint8(rng.Intn(max(int(t), 1)))
	}
	return pix
}

// orCrossPix returns n pixels of 0x55 and 0xAA, alternating from byte to
// byte and from word to word: under t=200 no pixel reaches t and the OR of
// any two neighbours, in a word or across words, is 0xff.
func orCrossPix(n int) []uint8 {
	pix := make([]uint8, n)
	for i := range pix {
		pix[i] = 0x55 << ((i>>3 ^ i) & 1)
	}
	return pix
}

// skipViews returns w×h windows on backgrounds that defeat the OR test,
// bare and under sparse marks (single pixels and short runs of 255, about
// one start in 40), each cut from a wider frame at an odd x so that rows are
// strided and start at odd addresses. The frame's margins hold marks too: a
// kernel that read past a row's end would see them.
func skipViews(w, h int, t uint8, seed int64) []*Image {
	fw, fh := w+9, h+2
	var views []*Image
	for bi, bg := range [][]uint8{gradedPix(fw*fh, t, seed), orCrossPix(fw * fh)} {
		bare := &Image{W: fw, H: fh, Pix: bg}
		marked := bare.Clone()
		rng := rand.New(rand.NewSource(seed + int64(bi)))
		for i := 0; i < len(marked.Pix); i++ {
			if rng.Intn(40) == 0 {
				for n := 1 + rng.Intn(4); n > 0 && i < len(marked.Pix); n-- {
					marked.Pix[i] = 255
					i++
				}
			}
		}
		for _, frame := range []*Image{bare, marked} {
			views = append(views, Extract(frame, Rect{3 + 2*bi, 1, 3 + 2*bi + w, 1 + h}).Img)
		}
	}
	return views
}

// Widths 1..skipMaxW cover rows shorter than one 8-pixel word, rows with a
// scalar tail, rows of one and two 64-pixel blocks with every tail, and runs
// touching both borders; density 1 is a single run per row, the checkerboard
// one run per foreground pixel, and skipViews are the backgrounds on which
// the 64-pixel test fails. One scratch serves every case, so stale runs,
// labels or statistics from a previous geometry show.
func TestComponentsMatchFlood(t *testing.T) {
	var s LabelScratch
	for w := 1; w <= skipMaxW; w++ {
		h := 1 + (w*7)%23
		for _, thr := range labelThresholds {
			for di, density := range []float64{0.01, 0.45, 1} {
				checkAgainstFlood(t, &s, noiseImage(w, h, density, int64(w*10+di)), thr, 1+di)
			}
			checkAgainstFlood(t, &s, checkerImage(w, h), thr, 1)
			for _, v := range skipViews(w, h, thr, int64(w)) {
				checkAgainstFlood(t, &s, v, thr, 1)
			}
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
	// Rows of one to four 64-pixel steps on the backgrounds the OR test fails
	// on, so the fuzzer starts inside the wide step.
	for _, w := range []int{63, 64, 65, 130, 255} {
		for _, thr := range labelThresholds {
			for _, v := range skipViews(w, 5, thr, int64(w)) {
				f.Add(uint8(w), thr, uint8(1), v.Clone().Pix)
			}
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

// skipBelow against its definition — the first word from x, in steps of
// eight, that holds a pixel >= t, or the first position with fewer than eight
// pixels left — on backgrounds where the OR test holds (zero) and where it
// fails (graded, OR-crossing), with no mark and with one mark at every
// position, from every start near the row's beginning.
func TestSkipBelowExact(t *testing.T) {
	const thr = 200
	ge := newSwarGE(thr)
	for bi, bg := range [][]uint8{make([]uint8, skipMaxW), gradedPix(skipMaxW, thr, 1), orCrossPix(skipMaxW)} {
		for n := 0; n <= skipMaxW; n++ {
			for mark := -1; mark < n; mark++ {
				row := append([]uint8(nil), bg[:n]...)
				if mark >= 0 {
					row[mark] = thr
				}
				for x := 0; x <= min(n, 17); x++ {
					want := x
					for want+8 <= n && (mark < want || mark >= want+8) {
						want += 8
					}
					if got := ge.skipBelow(row, x); got != want {
						t.Fatalf("background %d len=%d mark=%d: skipBelow(row, %d) = %d, want %d", bi, n, mark, x, got, want)
					}
				}
			}
		}
	}
}

// CountAbove and ThresholdInto against the scalar loop at every threshold,
// on every length through skipMaxW, on sub-slices starting at every byte
// offset, over random pixels and over the two backgrounds that defeat the
// 64-pixel test.
func TestCountAboveAndThresholdMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]uint8, skipMaxW+8)
	for i := range random {
		random[i] = uint8(rng.Intn(256))
	}
	random[3], random[4], random[11], random[12] = 0, 255, 127, 128
	orCross := orCrossPix(len(random))
	dst, want := new(Image), make([]uint8, skipMaxW)
	for thr := 0; thr <= 255; thr++ {
		graded := gradedPix(len(random), uint8(thr), int64(thr))
		graded[70], graded[71], graded[140] = uint8(thr), 255, 255
		for bi, buf := range [][]uint8{random, graded, orCross} {
			for off := 0; off < 8; off++ {
				for n := 0; n <= skipMaxW; n++ {
					pix := buf[off : off+n]
					count := 0
					for i, p := range pix {
						want[i] = 0
						if p >= uint8(thr) {
							want[i] = 255
							count++
						}
					}
					im := &Image{W: n, H: 1, Pix: pix}
					if got := CountAbove(im, uint8(thr)); got != count {
						t.Fatalf("buffer %d thr=%d off=%d len=%d: CountAbove = %d, want %d", bi, thr, off, n, got, count)
					}
					if got := ThresholdInto(dst, im, uint8(thr)); !bytes.Equal(got.Pix, want[:n]) {
						t.Fatalf("buffer %d thr=%d off=%d len=%d: ThresholdInto differs from the scalar loop", bi, thr, off, n)
					}
				}
			}
		}
	}
}
