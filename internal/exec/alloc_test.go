package exec

import (
	"runtime"
	"runtime/debug"
	"testing"

	"skipper/internal/arch"
	"skipper/internal/exec/faulttransport"
	"skipper/internal/exec/memtransport"
	"skipper/internal/syndex"
	"skipper/internal/track"
	"skipper/internal/value"
	"skipper/internal/video"
)

// trackingAllocsPerFrame measures the steady-state heap allocations and
// allocated bytes per frame of the stock tracking application (size×size
// frames, ring(8)) under the given machine configuration: the difference
// between a long and a short run over the same scene, so set-up —
// compilation, lowering, transport, the run's goroutines — cancels and what
// is left is what every further frame costs, user functions included. The
// frames are rendered before the measurement, as a camera's buffers exist
// before the program reads them.
func trackingAllocsPerFrame(t *testing.T, size, vehicles int, configure func(*Machine)) (allocs, bytes float64) {
	t.Helper()
	run := func(iters int) (uint64, uint64) {
		a := arch.Ring(8)
		scene := video.NewScene(size, size, vehicles, 1)
		reg, _ := track.NewRegistry(scene, nil)
		frames := make([]value.Value, iters)
		for i := range frames {
			frames[i] = scene.Next()
		}
		readImg, _ := reg.Lookup("read_img")
		readImg.Fn = func([]value.Value) value.Value {
			f := frames[0]
			frames = frames[1:]
			return f
		}
		s := compile(t, track.ProgramSource(8, size, size), reg, a, syndex.Structured)
		// The fault wrapper scripts no fault; it is there because fault
		// tolerance arms only on a transport that can report a peer's death.
		tr := faulttransport.New(memtransport.New(a), faulttransport.Config{})
		defer tr.Close()
		m := NewMachineOn(s, reg, tr, allProcs(a))
		configure(m)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := m.Run(iters); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	const short, long = 40, 240
	ln, lb := run(long)
	sn, sb := run(short)
	return float64(ln-sn) / (long - short), float64(lb-sb) / (long - short)
}

// raceDetector reports whether the test binary was built with -race, under
// which sync.Pool drops items at random.
func raceDetector() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestSteadyStateAllocsPerFrame pins what a steady-state tracking frame
// allocates, so the next change to the interpreter or the farm master cannot
// quietly re-grow it. The executive interpreting the schedule through
// per-frame maps, with a second farm master for fault tolerance, measured
// 197-207 allocations per frame here (204-206 with FT armed); the lowered
// plan measures 75-76, all of it the application's own (window descriptors,
// marks, task and reply boxing). Arming fault tolerance without a deadline
// starts no watchdog and keeps the farm's bookkeeping in the per-farm record,
// so it may add nothing beyond measurement noise.
func TestSteadyStateAllocsPerFrame(t *testing.T) {
	if raceDetector() {
		// The application's pooled buffers allocate ~10 more per frame.
		t.Skip("allocation counts are not comparable under the race detector")
	}
	const ceiling, ftSlack, byteCeiling = 84, 2, 16 << 10
	for _, det := range []bool{false, true} {
		for _, pipe := range []bool{false, true} {
			measure := func(ft FaultTolerance) float64 {
				n, _ := trackingAllocsPerFrame(t, 256, 2, func(m *Machine) {
					m.DeterministicFarm, m.Pipeline, m.FT = det, pipe, ft
				})
				return n
			}
			off := measure(FaultTolerance{})
			on := measure(FaultTolerance{MaxRetries: 2})
			t.Logf("deterministic=%v pipeline=%v: %.1f allocs/frame, %.1f with FT armed", det, pipe, off, on)
			if off > ceiling {
				t.Errorf("deterministic=%v pipeline=%v: %.1f allocs/frame, want <= %d", det, pipe, off, ceiling)
			}
			if on > off+ftSlack {
				t.Errorf("deterministic=%v pipeline=%v: %.1f allocs/frame with FT armed and no fault, want <= %.1f + %d",
					det, pipe, on, off, ftSlack)
			}
		}
	}
	// Bytes, on the benchmark's scene (512x512, three vehicles, nine windows
	// a frame): windows are views of the frame, so a frame allocates marks,
	// lists and boxes but no pixels. Copying the windows measured 37 KB here,
	// views 8.5 KB.
	_, bytes := trackingAllocsPerFrame(t, 512, 3, func(*Machine) {})
	t.Logf("512x512, three vehicles: %.0f B/frame", bytes)
	if bytes > byteCeiling {
		t.Errorf("512x512, three vehicles: %.0f B/frame, want <= %d", bytes, byteCeiling)
	}
}
