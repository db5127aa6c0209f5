package vision_test

import (
	"math/rand"
	"testing"

	"skipper/internal/video"
	"skipper/internal/vision"
)

// One 512×64 band is what the scm labelling application hands a worker and
// what the tracking application's reinitialisation phase hands each df
// worker. The inputs bracket the run kernel from both ends. The scene the
// workloads label (>95 % background, a few long runs) is where the 64-byte
// background skip pays. 45 % salt noise and a checkerboard (one run per
// foreground pixel — the worst case, where a run must not cost more than a
// pixel did) never stand on background long enough to enter it. On orcross
// (words of 0x55 and words of 0xAA alternating: no pixel >= t, yet the OR of
// two neighbouring words is 0xff in every byte) and graded (random bytes in
// [0,t) under a few marks) the skip is entered at every row and its OR test
// fails on every block: they pin what a lying prefilter costs.

func sceneBands() []*vision.Image {
	sc := video.NewScene(512, 512, 3, 5)
	var bands []*vision.Image
	for f := 0; f < 4; f++ {
		im := sc.Next()
		for _, r := range vision.SplitGrid(im.W, im.H, 8) {
			bands = append(bands, vision.Extract(im, r).Img)
		}
	}
	return bands
}

func noiseBand(density float64) *vision.Image {
	im := vision.NewImage(512, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range im.Pix {
		if rng.Float64() < density {
			im.Pix[i] = 255
		}
	}
	return im
}

func checkerBand() *vision.Image {
	im := vision.NewImage(512, 64)
	for i := range im.Pix {
		if (i%im.W+i/im.W)%2 == 0 {
			im.Pix[i] = 255
		}
	}
	return im
}

func orCrossBand() *vision.Image {
	im := vision.NewImage(512, 64)
	for i := range im.Pix {
		im.Pix[i] = 0x55 << (i >> 3 & 1)
	}
	return im
}

func gradedBand() *vision.Image {
	im := vision.NewImage(512, 64)
	rng := rand.New(rand.NewSource(2))
	for i := range im.Pix {
		im.Pix[i] = uint8(rng.Intn(video.DetectThreshold))
	}
	for _, x := range []int{40, 250, 460} {
		vision.FillDisc(im, x, 32, 9, video.MarkGray)
	}
	return im
}

var benchComps []vision.Component

func BenchmarkComponentsBand512x64(b *testing.B) {
	for _, c := range []struct {
		name  string
		bands []*vision.Image
	}{
		{"scene", sceneBands()},
		{"noise45", []*vision.Image{noiseBand(0.45)}},
		{"checker", []*vision.Image{checkerBand()}},
		{"orcross", []*vision.Image{orCrossBand()}},
		{"graded", []*vision.Image{gradedBand()}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var s vision.LabelScratch
			b.SetBytes(512 * 64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchComps = s.Components(c.bands[i%len(c.bands)], video.DetectThreshold, 2)
			}
		})
	}
}

var benchCount int

// CountAbove is the quadtree application's region test (count_region and
// split_region call it on every region): a 256² scene window, the size of
// that workload's root region, and the dense worst case.
func BenchmarkCountAbove(b *testing.B) {
	scene := video.NewScene(512, 512, 3, 5).Next()
	for _, c := range []struct {
		name string
		im   *vision.Image
	}{
		{"scene256", vision.Extract(scene, vision.Rect{X0: 128, Y0: 128, X1: 384, Y1: 384}).Img},
		{"noise45", noiseBand(0.45)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(c.im.W * c.im.H))
			for i := 0; i < b.N; i++ {
				benchCount = vision.CountAbove(c.im, video.DetectThreshold)
			}
		})
	}
}

// ThresholdInto writes a pixel for every pixel it reads, so its cost must
// not depend on the input: the same band sizes, sparse and dense.
func BenchmarkThresholdInto(b *testing.B) {
	for _, c := range []struct {
		name string
		im   *vision.Image
	}{
		{"scene", sceneBands()[3]},
		{"noise45", noiseBand(0.45)},
	} {
		b.Run(c.name, func(b *testing.B) {
			dst := vision.NewImage(c.im.W, c.im.H)
			b.SetBytes(int64(c.im.W * c.im.H))
			for i := 0; i < b.N; i++ {
				vision.ThresholdInto(dst, c.im, video.DetectThreshold)
			}
		})
	}
}

// The whole 512² frame: Components is what a tracking reinitialisation runs,
// Label (which also writes the label plane) with a reused scratch allocates
// nothing at steady state, and the one-shot form shows what the scratch saves.
func BenchmarkComponents512(b *testing.B) {
	frame := video.NewScene(512, 512, 3, 1).Next()
	b.SetBytes(int64(frame.Bytes()))
	for i := 0; i < b.N; i++ {
		benchComps = vision.Components(frame, video.DetectThreshold, 2)
	}
}

func BenchmarkLabel512(b *testing.B) {
	frame := video.NewScene(512, 512, 3, 1).Next()
	var s vision.LabelScratch
	s.Label(frame, video.DetectThreshold)
	b.SetBytes(int64(frame.Bytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Label(frame, video.DetectThreshold)
	}
}

func BenchmarkLabel512OneShot(b *testing.B) {
	frame := video.NewScene(512, 512, 3, 1).Next()
	b.SetBytes(int64(frame.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vision.Label(frame, video.DetectThreshold)
	}
}
