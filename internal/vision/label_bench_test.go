package vision_test

import (
	"math/rand"
	"testing"

	"skipper/internal/video"
	"skipper/internal/vision"
)

// One 512×64 band is what the scm labelling application hands a worker and
// what the tracking application's reinitialisation phase hands each df
// worker. Three inputs bracket the run kernel: the scene the workloads
// label (>95 % background, a few long runs), 45 % salt noise and a
// checkerboard (one run per foreground pixel — the worst case, where a run
// must not cost more than a pixel did).

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

var benchComps []vision.Component

func BenchmarkComponentsBand512x64(b *testing.B) {
	for _, c := range []struct {
		name  string
		bands []*vision.Image
	}{
		{"scene", sceneBands()},
		{"noise45", []*vision.Image{noiseBand(0.45)}},
		{"checker", []*vision.Image{checkerBand()}},
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
