package harness

import (
	"runtime/debug"
	"testing"

	"skipper/internal/vision"
)

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

// TestReplyWindowsRecycleThroughArenaOverTCP pins the coordinator-side
// recycling contract: on a real socket transport every task and reply
// window is decoded into a fresh arena image, and both the worker (task
// side) and the master (merge side) must hand their decoded copy back via
// payload.recycle — otherwise each round trip leaks a 32KB pixel buffer to
// the GC. The arena's hit/miss counters make the contract observable: with
// recycling in place, a warmed-up run of N trips performs 2N decodes that
// are (almost) all pool hits.
func TestReplyWindowsRecycleThroughArenaOverTCP(t *testing.T) {
	if raceDetector() {
		t.Skip("pool hit ratios are not meaningful under the race detector")
	}
	pair := newTransportPair(t, "tcp")
	pl := windowPayload()

	// Warm-up: the first decodes on each side may miss (fresh buffers);
	// their recycles seed the pool for the measured window.
	if err := farmRoundTrips(pair, pl, 8); err != nil {
		t.Fatal(err)
	}

	h0, m0 := vision.ArenaStats()
	const trips = 96
	if err := farmRoundTrips(pair, pl, trips); err != nil {
		t.Fatal(err)
	}
	h1, m1 := vision.ArenaStats()
	hits, misses := h1-h0, m1-m0

	// Exactly two window decodes per trip: the worker decoding the task and
	// the master decoding the reply. Anything less means a decode bypassed
	// the arena; anything more means untracked traffic polluted the window.
	if total := hits + misses; total != 2*trips {
		t.Fatalf("expected %d arena requests for %d round trips, counted %d (hits %d, misses %d)",
			2*trips, trips, total, hits, misses)
	}
	// Steady state must be pool reuse. sync.Pool may drop entries under GC
	// pressure, so allow a small miss budget rather than demanding zero.
	if misses > trips/4 {
		t.Fatalf("decoded windows are not being recycled: %d/%d arena requests missed the pool",
			misses, 2*trips)
	}
}
