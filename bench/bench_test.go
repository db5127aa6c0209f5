package main

import (
	"bytes"
	"math"
	"runtime"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.1, 1}, {0, 1}, {1, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile reordered its input")
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %v, want 2", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must give 0")
	}
}

func TestOverSegmentsReportsMedianAndExtremes(t *testing.T) {
	s := overSegments("ms", []float64{4, 100, 5, 6, 3})
	if s.Value != 5 || s.Min != 3 || s.Max != 100 || s.Samples != 5 || s.Unit != "ms" {
		t.Errorf("got %+v: one slow segment must not move the reported value", s)
	}
}

func TestQuietestKeepsEachInputsBestRepetition(t *testing.T) {
	// Three inputs, four repetitions; the first measurement of input 0 is
	// missing and the third repetition ran while the host was busy.
	xs := []float64{math.Inf(1), 2, 3, 1.5, 2.5, 3.5, 10, 20, 30, 1, 2.25, 3.25}
	got := quietest(xs, 3)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("quietest = %v, want [1 2 3]", got)
	}
	if !math.IsInf(xs[0], 1) || xs[6] != 10 {
		t.Error("quietest changed its input")
	}
	if s := quiet("ms", sum(got), []float64{7, 5, 60}); s.Value != 6 || s.Min != 5 || s.Max != 60 || s.Samples != 3 {
		t.Errorf("quiet = %+v", s)
	}
}

// A window in which three of four repetitions of the cycle ran twice as slow
// must report the rate and latency of the fast repetition.
func TestEndToEndIsBuiltOnQuietRepetitions(t *testing.T) {
	p := plan{2, 2 * period}
	win := &window{plan: p, src: &frameSource{grab: make([]int64, p.total())}, sink: newSink(newClock(), p)}
	now := int64(0)
	for k := range win.sink.done {
		cost := int64(1_000_000 + 1000*(k%period)) // 1 ms and up, by position in the cycle
		if k/period%4 != 2 {
			cost *= 2
		}
		win.src.grab[k] = now
		now += cost
		win.sink.done[k] = now
	}
	m := win.endToEnd(0)
	wantMS := 1 + 0.001*float64(period-1)/2 // mean over the cycle = its median
	if got := m["frames_per_s"].Value; math.Abs(got-1e3/wantMS) > 1e-6*got {
		t.Errorf("frames_per_s = %v, want %v", got, 1e3/wantMS)
	}
	if got := m["frame_latency_p50_ms"].Value; math.Abs(got-(1+0.001*float64(period/2-1))) > 1e-9 {
		t.Errorf("frame_latency_p50_ms = %v", got)
	}
	if s := m["frames_per_s"]; s.Samples != 4 || s.Max > 1.01*s.Value || s.Min > 0.51*s.Value {
		t.Errorf("per-cycle rates %+v: want 4 cycles, the slow ones at half the rate", s)
	}
	fps, p50 := win.typical()
	if fps.Value > 0.8*m["frames_per_s"].Value || p50.Value < 1.2*m["frame_latency_p50_ms"].Value {
		t.Errorf("typical() = %v 1/s, %v ms: the median frame must show the slow half", fps.Value, p50.Value)
	}
}

// Twenty blocks of jobs, the first twelve served at half speed: the service
// workload must report the rate and latency of its best tenth of blocks.
func TestServeEndToEndReportsTheBestTenthOfBlocks(t *testing.T) {
	const blocks = 20
	p := plan{segments: 1, framesPerSegment: blocks * serveBlock}
	n := serveWarmup + p.framesPerSegment
	w := &serveWindow{plan: p, jobs: make([]jobRecord, n), order: make([]int32, n),
		start: make([]int64, 2), mem: make([]runtime.MemStats, 2)}
	now := int64(0)
	for i := range w.jobs {
		cost := int64(10_000_000) // one job at a time, 10 ms each
		if i < serveWarmup+12*serveBlock {
			cost *= 2
		}
		if i == serveWarmup {
			w.start[0] = now
		}
		w.jobs[i] = jobRecord{submit: now, done: now + cost, ok: true}
		w.order[i] = int32(i)
		now += cost
	}
	m := w.endToEnd()
	if got := m["frames_per_s"]; math.Abs(got.Value-100*serveIters) > 1e-6 || got.Samples != blocks || math.Abs(got.Min-50*serveIters) > 1e-6 {
		t.Errorf("frames_per_s = %+v, want %d from %d blocks, the slowest at half", got, 100*serveIters, blocks)
	}
	if got := m["frame_latency_p50_ms"]; math.Abs(got.Value-10.0/serveIters) > 1e-9 || math.Abs(got.Max-20.0/serveIters) > 1e-9 {
		t.Errorf("frame_latency_p50_ms = %+v, want %v", got, 10.0/serveIters)
	}
}

func TestPlanSegments(t *testing.T) {
	for _, c := range []struct{ budget, segs, per int }{
		{30000, 10, 2816}, // plenty: ten segments of whole periods
		{4000, 7, 512},    // 10x256 would waste a third of the budget
		{2600, 10, 256},
		{100, 5, 256}, // never fewer than five one-period segments
	} {
		segs, per := planSegments(c.budget)
		if segs != c.segs || per != c.per {
			t.Errorf("planSegments(%d) = %d x %d, want %d x %d", c.budget, segs, per, c.segs, c.per)
		}
		if per%period != 0 {
			t.Errorf("planSegments(%d): %d is not a whole number of periods", c.budget, per)
		}
	}
}

func TestFrameRingIsDeterministicPerSeed(t *testing.T) {
	a, b, c := renderRing(64, 64, 2, 5, 0), renderRing(64, 64, 2, 5, 0), renderRing(64, 64, 2, 11, 0)
	same := true
	for i := range a.frames {
		if !bytes.Equal(a.frames[i].Pix, b.frames[i].Pix) {
			t.Fatalf("scene 5 rendered frame %d differently twice", i)
		}
		same = same && bytes.Equal(a.frames[i].Pix, c.frames[i].Pix)
	}
	if same {
		t.Error("scenes 5 and 11 rendered the same frames")
	}
	// Forwards, then backwards, then again: the seam repeats a frame
	// instead of jumping, and the sequence has period 2*ringFrames.
	for k, want := range map[int]int{0: 0, 127: 127, 128: 127, 255: 0, 256: 0, 257: 1, 383: 127, 384: 127} {
		if got := palindrome(k, ringFrames); got != want {
			t.Errorf("palindrome(%d) = %d, want %d", k, got, want)
		}
		if a.at(k) != a.frames[want] {
			t.Errorf("ring.at(%d) is not frame %d", k, want)
		}
	}
	// The seed moves the start of the replay, not its content: the same
	// scene, entered 7 frames later, and again the same one period on.
	d, e := renderRing(64, 64, 2, 5, 7), renderRing(64, 64, 2, 5, 7+period)
	for k := 0; k < 2*period; k++ {
		if d.at(k) != d.frames[palindrome(k+7, ringFrames)] || !bytes.Equal(d.at(k).Pix, a.at(k+7).Pix) {
			t.Fatalf("seed 7: frame %d is not scene frame %d", k, k+7)
		}
		if !bytes.Equal(d.at(k).Pix, e.at(k).Pix) {
			t.Fatalf("seeds one period apart differ at frame %d", k)
		}
	}
}

func TestOpenLoopTimesFromDueTimeAndDropsPassedTicks(t *testing.T) {
	const every, frames, paceFrom = int64(2 * time.Millisecond), 8, 2
	src := &frameSource{ring: renderRing(16, 16, 1, 1, 0), clk: newClock(),
		grab: make([]int64, frames), lag: make([]int64, frames), every: every, paceFrom: paceFrom,
		open: make(chan struct{})}
	close(src.open)
	var asked, returned [frames]int64
	for k := 0; k < frames; k++ {
		if k == 5 {
			time.Sleep(3 * time.Duration(every)) // the consumer stalls for three periods
		}
		asked[k] = src.clk.now()
		src.readImg(nil)
		returned[k] = src.clk.now()
	}
	if src.grab[1]-src.grab[0] >= every {
		t.Error("warm-up frames must not be paced")
	}
	for k := paceFrom; k < frames; k++ {
		// Stamped with the due time, released at it: never before, and the
		// generator's own lateness is the recorded lag.
		if returned[k] < src.grab[k] {
			t.Errorf("frame %d was released %d ns before it was due", k, src.grab[k]-returned[k])
		}
		if src.lag[k] < 0 || src.lag[k] > returned[k]-src.grab[k] {
			t.Errorf("frame %d: lag %d outside [0, release - due = %d]", k, src.lag[k], returned[k]-src.grab[k])
		}
		if k > paceFrom {
			if gap := src.grab[k] - src.grab[k-1]; gap < every || gap%every != 0 {
				t.Errorf("frames %d and %d are due %d ns apart, want whole periods", k-1, k, gap)
			}
		}
	}
	// The stall let ticks pass: they are dropped, not queued, so frame 5 is
	// due at the first tick after it was asked for and nothing is late.
	if src.dropped < 2 {
		t.Errorf("dropped %d ticks over a three-period stall, want at least 2", src.dropped)
	}
	if gap := src.grab[5] - src.grab[4]; gap != (1+src.dropped)*every {
		t.Errorf("frame 5 is due %d ns after frame 4, want %d dropped ticks skipped", gap, src.dropped)
	}
	if src.grab[5] < asked[5] {
		t.Error("frame 5 was stamped with a tick that had passed before it was asked for")
	}
}

func TestWrappersDoNotAllocate(t *testing.T) {
	clk := newClock()
	ring := renderRing(16, 16, 1, 1, 0)
	src := &frameSource{ring: ring, clk: clk, grab: make([]int64, 4096)}
	if n := testing.AllocsPerRun(500, func() { src.readImg(nil) }); n != 0 {
		t.Errorf("read_img wrapper: %v allocs/op", n)
	}
	unit := sutValue(sutUnit{})
	sk := newSink(clk, plan{1, period})
	sk.onBoundary = func(int) {}
	display := sk.wrap(func([]sutValue) sutValue { return unit })
	if n := testing.AllocsPerRun(500, func() { display(nil) }); n != 0 {
		t.Errorf("display wrapper: %v allocs/op", n)
	}
	tr := newTracer(clk, src)
	tr.active.Store(true)
	args := []sutValue{7}
	for _, farm := range []bool{false, true} {
		st := &fnStat{id: tr.nameID("fn.f"), farm: farm}
		f := tr.wrapFn(st, func([]sutValue) sutValue { return unit })
		if n := testing.AllocsPerRun(500, func() { f(args) }); n != 0 {
			t.Errorf("traced function wrapper (farm=%v): %v allocs/op", farm, n)
		}
		if st.calls.Load() == 0 || (farm && st.taskBytes.Load() == 0) {
			t.Errorf("traced function wrapper (farm=%v) recorded nothing", farm)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	// Two children overlap on [20,30): they cover 40 of the parent's 100,
	// not 50; a child reaching past the parent is clipped.
	got := covered(0, 100, [][2]int64{{20, 40}, {10, 30}, {90, 120}})
	if got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
	if covered(0, 100, nil) != 0 {
		t.Error("no children must cover nothing")
	}
}

func TestDigestSeparatesOutputs(t *testing.T) {
	m := sutMark{CX: 1.5, CY: 2.5, Area: 9}
	a := sutTuple{3, sutList{m}, sutDetections{m}}
	b := sutTuple{3, sutList{m}, sutDetections{m}}
	if digest(a) != digest(b) {
		t.Error("equal outputs digest differently")
	}
	m.CX += 1e-12
	if digest(a) == digest(sutTuple{3, sutList{m}, sutDetections{m}}) {
		t.Error("a last-bit difference must change the digest")
	}
	if digest(sutList{1, 2}) == digest(sutTuple{1, 2}) {
		t.Error("list and tuple must digest differently")
	}
}

func TestPeriodicOracleMapsLaterFramesOntoTheSecondPeriod(t *testing.T) {
	o := &oracle{digests: make([]uint64, 2*period), periodic: true}
	for k := range o.digests {
		o.digests[k] = uint64(k)
	}
	for k, want := range map[int]uint64{0: 0, 300: 300, 2 * period: period, 5*period + 7: period + 7} {
		if got := o.at(k); got != want {
			t.Errorf("oracle.at(%d) = %d, want %d", k, got, want)
		}
	}
}

func TestCompleteFillsAndRejects(t *testing.T) {
	defs := []metricDef{{"a", "ms"}, {"b", "count"}}
	got, err := complete(defs, map[string]summary{"a": single("ms", 2)})
	if err != nil || got["a"].Value != 2 || got["b"].Unit != "count" || got["b"].Samples != 0 {
		t.Errorf("complete = %+v, %v", got, err)
	}
	if _, err := complete(defs, map[string]summary{"c": single("ms", 1)}); err == nil {
		t.Error("an undeclared metric must be rejected")
	}
	if _, err := complete(defs, map[string]summary{"a": single("s", 1)}); err == nil {
		t.Error("a unit that differs from the declaration must be rejected")
	}
}

// TestBenchmarkFileMatchesCode pins BENCHMARK.json to what the code emits:
// same workloads, same metrics with the same units, in both directions.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	names := workloadNames()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, names[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters", w.Name)
		}
	}
	check := func(kind string, file []benchMetric, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(file), len(code))
			return
		}
		for i, m := range file {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the code", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDefs, true)
	check("per_layer", b.PerLayer, perLayerDefs(), false)
	if len(b.Paths) != 1 || b.Paths[0] != "bench" || len(b.Command) == 0 {
		t.Errorf("paths %v, command %v", b.Paths, b.Command)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

// TestApplicationsMatchTheOracle runs each application, small, through the
// whole measurement path and checks every frame against the emulator.
func TestApplicationsMatchTheOracle(t *testing.T) {
	for _, w := range []*frameWorkload{
		{name: "track", app: trackingApp(128, 128, 2), transport: "mem"},
		{name: "label", app: labelApp(64, 64, 2), transport: "mem"},
		{name: "quad", app: quadApp(64, 64, 2), transport: "unix"},
	} {
		ring := renderRing(w.app.w, w.app.h, w.app.vehicles, 5, 3)
		win, tr, err := runWindow(w, ring, plan{2, period}, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		or, err := emulate(w.app, ring, win.plan.total())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if or.periodic != w.app.periodic {
			t.Errorf("%s: oracle periodic = %v", w.name, or.periodic)
		}
		if failed := or.verify(win.res.Outputs); failed != 0 {
			t.Errorf("%s: %d of %d frames differ from the emulator", w.name, failed, win.plan.total())
		}
		m := win.endToEnd(ring.bytes())
		if m["frames_per_s"].Value <= 0 || m["frame_latency_p50_ms"].Value <= 0 || m["allocs_per_frame"].Value <= 0 {
			t.Errorf("%s: empty end-to-end metrics %+v", w.name, m)
		}
		for _, farm := range w.app.farmFns {
			if tr.fns[farm].calls.Load() == 0 {
				t.Errorf("%s: farm function %s recorded no call", w.name, farm)
			}
		}
		if win.traffic.messages == 0 {
			t.Errorf("%s: no transport traffic counted over the window", w.name)
		}
		// A corrupted output must be caught.
		win.res.Outputs[win.plan.total()-1] = sutTuple{0, sutTuple{0, 0}}
		win.res.Outputs[3] = nil
		if failed := or.verify(win.res.Outputs); failed != 2 {
			t.Errorf("%s: verify found %d of 2 corrupted frames", w.name, failed)
		}
	}
}
