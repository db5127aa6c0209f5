package skipper

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"skipper/internal/track"
	"skipper/internal/video"
)

// newTrackingSetup compiles the paper's tracking application over a fresh
// synthetic scene (each path needs its own registry: the registered
// functions are stateful, like the paper's C functions with static
// variables).
func newTrackingSetup(t *testing.T, nproc, w, h, vehicles int, seed int64) (*Program, *track.Recorder) {
	t.Helper()
	scene := video.NewScene(w, h, vehicles, seed)
	reg, rec := track.NewRegistry(scene, nil)
	prog, err := Compile(track.ProgramSource(nproc, w, h), reg)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog, rec
}

func TestCompilePaperApplication(t *testing.T) {
	prog, _ := newTrackingSetup(t, 8, 512, 512, 1, 1)
	if !prog.Stream {
		t.Fatal("tracking application is a stream program")
	}
	if ty, ok := prog.TypeOf("loop"); !ok || ty != "state * img -> state * mark list" {
		t.Fatalf("loop : %q", ty)
	}
	if ty, ok := prog.TypeOf("main"); !ok || ty != "unit" {
		t.Fatalf("main : %q", ty)
	}
	dot := prog.DOT("tracking")
	if !strings.Contains(dot, "Worker<detect_mark>") || !strings.Contains(dot, "MEM") {
		t.Fatal("DOT missing expected nodes")
	}
}

func TestEmulationTracksVehicle(t *testing.T) {
	prog, rec := newTrackingSetup(t, 8, 256, 256, 1, 3)
	if err := prog.Emulate(30); err != nil {
		t.Fatal(err)
	}
	if len(rec.Results) != 30 {
		t.Fatalf("got %d results", len(rec.Results))
	}
	locked := 0
	for _, r := range rec.Results {
		if r.Tracking {
			locked++
		}
	}
	if locked < 20 {
		t.Fatalf("locked only %d/30 iterations", locked)
	}
}

func TestExecutiveMatchesEmulation(t *testing.T) {
	// Experiment E4: the sequential emulation and the parallel executive
	// compute identical results on the same input stream.
	const iters = 20
	emuProg, emuRec := newTrackingSetup(t, 8, 192, 192, 2, 7)
	if err := emuProg.Emulate(iters); err != nil {
		t.Fatal(err)
	}

	parProg, parRec := newTrackingSetup(t, 8, 192, 192, 2, 7)
	dep, err := parProg.MapOnto(Ring(8), Structured)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Run(iters); err != nil {
		t.Fatal(err)
	}

	if len(emuRec.Results) != len(parRec.Results) {
		t.Fatalf("result counts: emu %d, par %d", len(emuRec.Results), len(parRec.Results))
	}
	for i := range emuRec.Results {
		a, b := emuRec.Results[i], parRec.Results[i]
		if a.Tracking != b.Tracking || a.Vehicles != b.Vehicles || len(a.Marks) != len(b.Marks) {
			t.Fatalf("iteration %d diverged: %+v vs %+v", i, a, b)
		}
		for j := range a.Marks {
			if a.Marks[j].CX != b.Marks[j].CX || a.Marks[j].CY != b.Marks[j].CY {
				t.Fatalf("iteration %d mark %d diverged", i, j)
			}
		}
	}
}

func TestSimulatorMatchesEmulation(t *testing.T) {
	const iters = 15
	emuProg, emuRec := newTrackingSetup(t, 8, 192, 192, 1, 9)
	if err := emuProg.Emulate(iters); err != nil {
		t.Fatal(err)
	}
	simProg, simRec := newTrackingSetup(t, 8, 192, 192, 1, 9)
	dep, err := simProg.MapOnto(Ring(8), Structured)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dep.Simulate(SimOptions{Iters: iters}); err != nil {
		t.Fatal(err)
	}
	if len(emuRec.Results) != len(simRec.Results) {
		t.Fatalf("result counts: emu %d, sim %d", len(emuRec.Results), len(simRec.Results))
	}
	for i := range emuRec.Results {
		if emuRec.Results[i].Vehicles != simRec.Results[i].Vehicles {
			t.Fatalf("iteration %d diverged", i)
		}
	}
}

func TestPaperLatencyEnvelope(t *testing.T) {
	// Experiment E1 (smoke version; the full table lives in the harness):
	// 8 T9000s, 512x512 @ 25 Hz, three lead vehicles (9 windows of
	// interest in tracking). Paper: tracking ≈ 30 ms, reinit ≈ 110 ms.
	prog, rec := newTrackingSetup(t, 8, 512, 512, 3, 3)
	dep, err := prog.MapOnto(Ring(8), Structured)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dep.Simulate(SimOptions{Iters: 30, FramePeriod: VideoPeriod})
	if err != nil {
		t.Fatal(err)
	}
	var trackLat, reinitLat []float64
	for i, r := range rec.Results {
		if i >= len(res.Iters) {
			break
		}
		if r.Tracking {
			trackLat = append(trackLat, res.Iters[i].Latency)
		} else {
			reinitLat = append(reinitLat, res.Iters[i].Latency)
		}
	}
	if len(trackLat) == 0 || len(reinitLat) == 0 {
		t.Fatalf("phases missing: track=%d reinit=%d", len(trackLat), len(reinitLat))
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	tr, re := mean(trackLat), mean(reinitLat)
	t.Logf("tracking %.1f ms, reinit %.1f ms, skipped %d frames",
		tr*1000, re*1000, res.FramesSkipped)
	// Paper: 30 ms and 110 ms. Accept the right decade and ordering.
	if tr < 0.010 || tr > 0.060 {
		t.Fatalf("tracking latency %.1f ms outside [10,60] ms", tr*1000)
	}
	if re < 0.060 || re > 0.180 {
		t.Fatalf("reinit latency %.1f ms outside [60,180] ms", re*1000)
	}
	if re < 2*tr {
		t.Fatalf("reinit (%.1f ms) should dominate tracking (%.1f ms)", re*1000, tr*1000)
	}
}

func TestMacroCodeAndSummary(t *testing.T) {
	prog, _ := newTrackingSetup(t, 4, 128, 128, 1, 1)
	dep, err := prog.MapOnto(Ring(4), Structured)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dep.MacroCode(), "master_(") {
		t.Fatal("macro-code missing master op")
	}
	if !strings.Contains(dep.Summary(), "P0:") {
		t.Fatal("summary missing placement")
	}
}

func TestConstProgramRejectedForDeployment(t *testing.T) {
	prog, err := Compile("let main = 1 + 2;;", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.MapOnto(Ring(2), Structured); err == nil ||
		!strings.Contains(err.Error(), "folded to the constant") {
		t.Fatalf("err = %v", err)
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	if _, err := Compile("let main = ;;", NewRegistry()); err == nil {
		t.Fatal("syntax error not surfaced")
	}
	if _, err := Compile("let main = nope;;", NewRegistry()); err == nil {
		t.Fatal("type error not surfaced")
	}
}

// TestDeploymentRunRecyclesFrames pins what a steady-state 512×512 tracking
// frame allocates on the in-process executive: the camera grabs into arena
// frames the executive hands back when their iteration ends, and windows
// are views, so no frame allocates pixels. A fresh frame per grab measured
// about 268 KB a frame at ring(2).
func TestDeploymentRunRecyclesFrames(t *testing.T) {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			t.Skip("the race detector's sync.Pool drops items at random")
		}
	}
	const frames, ceiling = 240, 16 << 10
	for _, procs := range []int{2, 8} {
		prog, _ := newTrackingSetup(t, 8, 512, 512, 2, 1)
		dep, err := prog.MapOnto(Ring(procs), Structured)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dep.Run(20); err != nil { // warm-up: the arena and the mailboxes reach their steady size
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := dep.Run(frames); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perFrame := float64(after.TotalAlloc-before.TotalAlloc) / frames
		t.Logf("ring(%d): %.0f B/frame", procs, perFrame)
		if perFrame >= ceiling {
			t.Errorf("ring(%d): %.0f B allocated a frame, want < %d", procs, perFrame, ceiling)
		}
	}
}
