package video

import (
	"math"
	"testing"

	"skipper/internal/vision"
)

func TestSceneVehicleCountClamped(t *testing.T) {
	if n := len(NewScene(128, 128, 0, 1).Vehicles); n != 1 {
		t.Fatalf("n=0 clamps to 1, got %d", n)
	}
	if n := len(NewScene(128, 128, 9, 1).Vehicles); n != 3 {
		t.Fatalf("n=9 clamps to 3, got %d", n)
	}
	if n := len(NewScene(128, 128, 2, 1).Vehicles); n != 2 {
		t.Fatalf("got %d vehicles, want 2", n)
	}
}

func TestDeterministicStream(t *testing.T) {
	a := NewScene(96, 96, 2, 42)
	b := NewScene(96, 96, 2, 42)
	for i := 0; i < 5; i++ {
		fa, fb := a.Next(), b.Next()
		for j := range fa.Pix {
			if fa.Pix[j] != fb.Pix[j] {
				t.Fatalf("frame %d differs at pixel %d", i, j)
			}
		}
	}
	if a.Frame() != 5 {
		t.Fatalf("Frame() = %d, want 5", a.Frame())
	}
}

func TestBackgroundBelowThreshold(t *testing.T) {
	s := NewScene(160, 120, 1, 7)
	s.Vehicles[0].Z = 60 // push vehicle far away so body is tiny
	f := s.Next()
	over := 0
	for _, p := range f.Pix {
		if p >= DetectThreshold && p != MarkGray {
			over++
		}
	}
	if over != 0 {
		t.Fatalf("%d non-mark pixels above threshold", over)
	}
}

func TestMarksDetectableAndMatchTruth(t *testing.T) {
	s := NewScene(256, 256, 1, 3)
	f := s.Next()
	truth := s.Truth()
	comps := vision.Components(f, DetectThreshold, 1)
	if len(comps) != 3 {
		t.Fatalf("expected 3 mark components, got %d", len(comps))
	}
	if len(truth) != 3 {
		t.Fatalf("expected 3 truth marks, got %d", len(truth))
	}
	for _, tm := range truth {
		best := math.Inf(1)
		for _, c := range comps {
			d := math.Hypot(c.CX-tm.CX, c.CY-tm.CY)
			if d < best {
				best = d
			}
		}
		if best > 1.5 {
			t.Fatalf("no detected mark within 1.5px of truth (%g,%g), best %g",
				tm.CX, tm.CY, best)
		}
	}
}

func TestMarkSizeShrinksWithDistance(t *testing.T) {
	near := NewScene(256, 256, 1, 3)
	near.Vehicles[0].Z = 8
	far := NewScene(256, 256, 1, 3)
	far.Vehicles[0].Z = 40
	nc := vision.Components(near.Next(), DetectThreshold, 1)
	fc := vision.Components(far.Next(), DetectThreshold, 1)
	if len(nc) == 0 || len(fc) == 0 {
		t.Fatalf("marks missing: near=%d far=%d", len(nc), len(fc))
	}
	if nc[0].Area <= fc[0].Area {
		t.Fatalf("near mark area %d should exceed far mark area %d",
			nc[0].Area, fc[0].Area)
	}
}

func TestVehicleStateBounded(t *testing.T) {
	s := NewScene(128, 128, 3, 99)
	for i := 0; i < 300; i++ {
		s.Next()
	}
	for i, v := range s.Vehicles {
		if v.Z < 6 || v.Z > 60 || v.X < -4 || v.X > 4 {
			t.Fatalf("vehicle %d escaped bounds: %+v", i, v)
		}
	}
}

func TestNoiseSprinklesPixels(t *testing.T) {
	s := NewScene(64, 64, 1, 5)
	s.Noise = 0.02
	f := s.Next()
	noisy := 0
	for _, p := range f.Pix {
		if p >= 130 && p < 200 {
			noisy++
		}
	}
	if noisy < 10 {
		t.Fatalf("expected noise specks, found %d", noisy)
	}
	// Noise stays below the detection threshold.
	for _, p := range f.Pix {
		if p >= DetectThreshold && p != MarkGray {
			t.Fatalf("noise pixel %d crossed threshold", p)
		}
	}
}

func TestTruthOmitsOffscreenMarks(t *testing.T) {
	s := NewScene(128, 128, 1, 3)
	s.Vehicles[0].X = 100 // way off to the side
	if tr := s.Truth(); len(tr) != 0 {
		t.Fatalf("off-screen vehicle should have no visible marks, got %d", len(tr))
	}
}

func TestDropoutHidesMarks(t *testing.T) {
	s := NewScene(256, 256, 1, 3)
	s.Dropout = 1.0 // every mark dropped
	f := s.Next()
	if comps := vision.Components(f, DetectThreshold, 1); len(comps) != 0 {
		t.Fatalf("full dropout should hide all marks, found %d", len(comps))
	}
	s2 := NewScene(256, 256, 1, 3)
	s2.Dropout = 0
	if comps := vision.Components(s2.Next(), DetectThreshold, 1); len(comps) != 3 {
		t.Fatalf("no dropout should show 3 marks, found %d", len(comps))
	}
}

// Frame synthesis, allocating a frame per call vs drawing into a reused one.
func BenchmarkSceneNext512(b *testing.B) {
	scene := NewScene(512, 512, 3, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scene.Next()
	}
}

func BenchmarkSceneNextInto512(b *testing.B) {
	scene := NewScene(512, 512, 3, 2)
	buf := vision.NewImage(512, 512)
	b.SetBytes(int64(buf.Bytes()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scene.NextInto(buf)
	}
}
