package track

import (
	"hash/fnv"
	"strings"
	"testing"

	"skipper/internal/value"
	"skipper/internal/video"
	"skipper/internal/vision"
)

func TestProgramSourceSubstitution(t *testing.T) {
	src := ProgramSource(6, 320, 240)
	for _, want := range []string{
		"let nproc = 6;;",
		"(320, 240)",
		"extern detect_mark : window -> mark;;",
		"itermem read_img loop display_marks",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("source missing %q:\n%s", want, src)
		}
	}
	if strings.Contains(src, "NPROC") || strings.Contains(src, "WIDTH") {
		t.Fatal("placeholders not substituted")
	}
}

// TestProgramSourceBytes pins the rendered specification byte for byte: the
// digests were recorded from the character-at-a-time renderer this one
// replaced, so a schedule fingerprint computed from either is the same.
func TestProgramSourceBytes(t *testing.T) {
	for _, c := range []struct {
		nproc, w, h int
		fnv         uint64
	}{
		{1, 8, 8, 0x78aa5066823373d9},
		{8, 512, 512, 0x420882ac07268ae8},
		{16, 128, 128, 0x9d0667ebd5c7aaeb},
		{256, 4096, 4096, 0x801bbcb44c89f833},
		{4, 128, 128, 0x05d5bfc7f785f5d6},
		{3, 8, 4096, 0x68540bb0322c7fc8},
		{100, 4096, 8, 0x26bd3fd1a008fcb4},
		{0, 10, 2048, 0x611acdeeb488d79b},
	} {
		h := fnv.New64a()
		h.Write([]byte(ProgramSource(c.nproc, c.w, c.h)))
		if got := h.Sum64(); got != c.fnv {
			t.Errorf("ProgramSource(%d, %d, %d) digest %#016x, want %#016x", c.nproc, c.w, c.h, got, c.fnv)
		}
	}
}

// TestProgramSourceAllocs: rendering fills the template in once, not by
// rebuilding the string per character (1 431 allocations a call).
func TestProgramSourceAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(50, func() { ProgramSource(256, 4096, 4096) }); n > 8 {
		t.Fatalf("ProgramSource makes %.0f allocations, want at most 8", n)
	}
}

func TestDetectionsBytes(t *testing.T) {
	d := Detections{{}, {}, {}}
	if d.Bytes() != 8+3*40 {
		t.Fatalf("Bytes = %d", d.Bytes())
	}
	if value.SizeOf(d) != d.Bytes() {
		t.Fatal("SizeOf does not use the Sizer")
	}
}

func TestRegistryFunctionsRoundTrip(t *testing.T) {
	scene := video.NewScene(128, 128, 1, 3)
	reg, rec := NewRegistry(scene, nil)

	// read_img produces frames.
	rd, _ := reg.Lookup("read_img")
	im := rd.Fn([]value.Value{value.Tuple{128, 128}}).(*vision.Image)
	if im.W != 128 {
		t.Fatalf("frame geometry %dx%d", im.W, im.H)
	}
	if rd.CostOf(nil) != ReadImgCycles {
		t.Fatal("read_img cost model")
	}

	// init_state starts in reinit phase.
	is, _ := reg.Lookup("init_state")
	st := is.Fn(nil).(*State)
	if st.Tracking {
		t.Fatal("initial state should not be tracking")
	}

	// get_windows in reinit splits the frame into np bands.
	gw, _ := reg.Lookup("get_windows")
	ws := gw.Fn([]value.Value{8, st, im}).(value.List)
	if len(ws) != 8 {
		t.Fatalf("windows = %d", len(ws))
	}
	if c := gw.CostOf([]value.Value{8, st, im}); c <= FixedWindowCycles {
		t.Fatalf("reinit window cost = %d", c)
	}

	// detect_mark on each band; accumulate.
	dm, _ := reg.Lookup("detect_mark")
	am, _ := reg.Lookup("accum_marks")
	el, _ := reg.Lookup("empty_list")
	acc := el.Fn(nil)
	for _, w := range ws {
		d := dm.Fn([]value.Value{w})
		acc = am.Fn([]value.Value{acc, d})
	}
	if am.CostOf(nil) != AccumCycles {
		t.Fatal("accum cost model")
	}

	// predict returns (state, marks) and records a result.
	pr, _ := reg.Lookup("predict")
	out := pr.Fn([]value.Value{acc}).(value.Tuple)
	if _, ok := out[0].(*State); !ok {
		t.Fatalf("predict state component %T", out[0])
	}
	if len(rec.Results) != 1 {
		t.Fatalf("recorder has %d results", len(rec.Results))
	}

	// display writes a line when given a writer.
	var sb strings.Builder
	reg2, rec2 := NewRegistry(video.NewScene(64, 64, 1, 1), &sb)
	pr2, _ := reg2.Lookup("predict")
	pr2.Fn([]value.Value{value.List{}})
	dpl, _ := reg2.Lookup("display_marks")
	dpl.Fn([]value.Value{value.List{}})
	if !strings.Contains(sb.String(), "REINIT") && !strings.Contains(sb.String(), "TRACK") {
		t.Fatalf("display output: %q", sb.String())
	}
	_ = rec2
}

func TestGetWindowsCostTrackingBranch(t *testing.T) {
	scene := video.NewScene(128, 128, 1, 3)
	reg, _ := NewRegistry(scene, nil)
	gw, _ := reg.Lookup("get_windows")
	st := InitState(128, 128, 1)
	st.Tracking = true
	var est VehicleEst
	est.Scale = 40
	st.Vehicles = []VehicleEst{est}
	im := vision.NewImage(128, 128)
	trackCost := gw.CostOf([]value.Value{8, st, im})
	st2 := InitState(128, 128, 1)
	reinitCost := gw.CostOf([]value.Value{8, st2, im})
	if trackCost >= reinitCost {
		t.Fatalf("tracking windows (%d) should be cheaper than reinit (%d)",
			trackCost, reinitCost)
	}
}

func TestTriangleScaleDegenerate(t *testing.T) {
	if triangleScale(nil) != 16 {
		t.Fatal("nil group default")
	}
	g := []Mark{{CX: 10}, {CX: 10}, {CX: 11}}
	if triangleScale(sortTriangle(g)) != 4 {
		t.Fatal("minimum scale clamp")
	}
}
