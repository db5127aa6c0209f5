package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"
)

// warmupFrames run before the measured window of every Run call: the first
// second of a run is 2-5x slower (heap growth, the tracker's initial
// reinitialization phase), and users of a 25 Hz stream do not live there.
const warmupFrames = 4 * period

// plan is the shape of one measured Run call: warm-up, then segments of
// equal length. Every timing metric is computed once per segment.
type plan struct {
	segments, framesPerSegment int
}

func (p plan) total() int         { return warmupFrames + p.segments*p.framesPerSegment }
func (p plan) boundary(i int) int { return warmupFrames + i*p.framesPerSegment }

// frameWorkload is a streaming workload: an application on a transport.
type frameWorkload struct {
	name       string
	app        *app
	transport  string
	gomaxprocs int   // 0 = min(nproc, 4)
	pipeline   bool  // software-pipelined itermem, full depth
	every      int64 // open-loop release period in ns; 0 = closed loop
	// rate is the nominal frame rate that turns -seconds into a frame count:
	// what the 2-core reference box sustains wall-clock on a busy host (less
	// for tracking, whose every frame the oracle emulates again). The count
	// is fixed, not calibrated per run: the executive spawns every
	// iteration's farm workers up front, so heap and collector load depend
	// on the total frame count, and a run-dependent count would leak into
	// every metric.
	rate float64
}

// sink is the display side of the measurement: it stamps each frame's end
// and takes the memory snapshots at segment boundaries. Everything it
// touches is preallocated, so the wrappers add no allocation to the run.
type sink struct {
	clk   clock
	plan  plan
	done  []int64 // done[k]: when display returned for frame k
	n     int     // frames displayed so far
	seg   int     // next boundary to snapshot
	start []int64 // start[i]: when segment i's clock starts (after the snapshot)
	mem   []runtime.MemStats
	// heapStart and heapEnd are the live heap (HeapAlloc right after a
	// forced collection) at the first and the last boundary.
	heapStart, heapEnd uint64
	onBoundary         func(i int) // reads transport counters, switches span recording
}

func newSink(clk clock, p plan) *sink {
	return &sink{
		clk: clk, plan: p,
		done:  make([]int64, p.total()),
		start: make([]int64, p.segments+1),
		mem:   make([]runtime.MemStats, p.segments+1),
	}
}

// wrap returns the display function with the end-of-frame stamp added.
func (s *sink) wrap(display func([]sutValue) sutValue) func([]sutValue) sutValue {
	return func(args []sutValue) sutValue {
		v := display(args)
		s.done[s.n] = s.clk.now()
		s.n++
		if s.seg <= s.plan.segments && s.n == s.plan.boundary(s.seg) {
			s.snapshot()
		}
		return v
	}
}

// snapshot runs between two frames at a segment boundary. The first
// boundary forces a collection so every run enters its window in the same
// collector phase and heap_live_mb is read at a fixed frame count.
func (s *sink) snapshot() {
	i := s.seg
	if i == 0 {
		s.heapStart = liveHeap()
	}
	runtime.ReadMemStats(&s.mem[i])
	if i == s.plan.segments {
		s.heapEnd = liveHeap()
	}
	s.onBoundary(i)
	s.start[i] = s.clk.now()
	s.seg++
}

// liveHeap collects twice — the second pass frees what other goroutines
// allocated while the first was marking — and returns the bytes still
// allocated.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// window is everything one measured Run call produced.
type window struct {
	plan    plan
	src     *frameSource
	sink    *sink
	res     *sutRunResult
	traffic traffic   // carried between the first and the last boundary
	first   *compiled // the coordinator's compilation
	bringup time.Duration
}

// runWindow deploys the workload and executes one Run call shaped by p.
// With trace set, every registered function of every node is instrumented
// and spans are recorded between the first and the last boundary.
func runWindow(w *frameWorkload, ring *frameRing, p plan, trace bool) (*window, *tracer, error) {
	clk := newClock()
	src := &frameSource{ring: ring, clk: clk, grab: make([]int64, p.total())}
	if w.every > 0 {
		src.every, src.paceFrom, src.open = w.every, warmupFrames, make(chan struct{})
		src.lag = make([]int64, p.total())
	}
	sk := newSink(clk, p)
	var tr *tracer
	var wrapFns func(*sutRegistry)
	if trace {
		tr = newTracer(clk, src)
		wrapFns = tr.wrapRegistry(w.app)
	}
	d, err := deploy(w.app, w.transport, src, w.pipeline, wrapFns)
	if err != nil {
		return nil, nil, err
	}
	defer d.close()
	var tr0, tr1 traffic
	sk.onBoundary = func(i int) {
		switch i {
		case 0:
			tr0 = d.traffic()
			if src.open != nil {
				close(src.open)
			}
		case p.segments:
			tr1 = d.traffic()
		}
		if tr != nil {
			tr.active.Store(i < p.segments)
		}
	}
	// Processor 0 hosts the stream output; its display carries the stamp.
	reg := d.nodes[0].reg
	name := displayName(reg)
	f, _ := reg.Lookup(name)
	f.Fn = sk.wrap(f.Fn)
	res, err := d.run(p.total())
	if err != nil {
		return nil, nil, err
	}
	if sk.n != p.total() {
		return nil, nil, fmt.Errorf("%s: %d of %d frames displayed", w.name, sk.n, p.total())
	}
	win := &window{plan: p, src: src, sink: sk, res: res, first: d.nodes[0].compiled, bringup: d.bringup,
		traffic: traffic{tr1.messages - tr0.messages, tr1.direct - tr0.direct, tr1.bytesSent - tr0.bytesSent}}
	if tr != nil {
		tr.finish(p.boundary(0), p.boundary(p.segments),
			func(k int) (int64, int64) { return src.grab[k], sk.done[k] })
	}
	return win, tr, nil
}

// displayName finds the application's display function: the one registered
// function whose name starts with "display".
func displayName(reg *sutRegistry) string {
	for _, n := range reg.Names() {
		if strings.HasPrefix(n, "display") {
			return n
		}
	}
	panic("bench: application registers no display function")
}

// latenciesMS returns the frame latencies of segment i in ms.
func (w *window) latenciesMS(i int) []float64 {
	lo, hi := w.plan.boundary(i), w.plan.boundary(i+1)
	out := make([]float64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		out = append(out, float64(w.sink.done[k]-w.src.grab[k])/1e6)
	}
	return out
}

// seconds is the wall time of segment i: boundary snapshot end → display of
// the segment's last frame.
func (w *window) seconds(i int) float64 {
	return float64(w.sink.done[w.plan.boundary(i+1)-1]-w.sink.start[i]) / 1e9
}

// periodsMS returns the frame periods of segment i in ms: the time from one
// frame's display to the next one's.
func (w *window) periodsMS(i int) []float64 {
	lo, hi := w.plan.boundary(i), w.plan.boundary(i+1)
	out := make([]float64, 0, hi-lo-1)
	for k := lo + 1; k < hi; k++ {
		out = append(out, float64(w.sink.done[k]-w.sink.done[k-1])/1e6)
	}
	return out
}

// typical returns the rate and the latency of the median frame, one value
// per segment: frames/s as the reciprocal of the segment's median frame
// period (display to display), and the median latency. They are what the
// machine did during this run, the host's interference included; the
// per-layer budget is built on them.
func (w *window) typical() (fps, p50 summary) {
	n := w.plan.segments
	rates, lats := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		rates[i] = 1e3 / median(w.periodsMS(i))
		lats[i] = percentile(w.latenciesMS(i), 0.50)
	}
	return overSegments("1/s", rates), overSegments("ms", lats)
}

// endToEnd computes the user-visible metrics of a window.
//
// The window replays the same cycle of `period` frames many times, so every
// frame of the cycle is timed once per repetition, and the two timing
// metrics are built from each frame's quietest repetition: frames_per_s is
// the cycle length over the sum of the frames' shortest periods (display to
// display), frame_latency_p50_ms the median over the cycle of the frames'
// shortest latencies. On the reference VM the host slows a core by a third
// for seconds at a time and takes it away in bursts of 5-250 ms; medians of
// identical runs differ by 10-20 % (30 % between a calm and a busy minute),
// which no bound the contract allows can hold, while what a frame costs when
// it is left alone repeats to a few percent. Interference only ever adds
// time, so the shortest repetition is the one estimate it cannot move. What
// the machine did on the median frame is the per-layer
// frame.median_rate_per_s / frame.latency_p50_ms, and what the stalls cost
// is frame.stall_ratio.
//
// The open loop's frame periods are set by its schedule, not by the system,
// so its frames_per_s is the rate over the fastest whole cycle: the
// generator's rate unless ticks were dropped.
func (w *window) endToEnd(ringBytes int) map[string]summary {
	lo, hi := w.plan.boundary(0), w.plan.boundary(w.plan.segments)
	per, lat := make([]float64, hi-lo), make([]float64, hi-lo)
	for k := lo; k < hi; k++ {
		per[k-lo] = float64(w.sink.done[k]-w.sink.done[max(k-1, lo)]) / 1e6
		lat[k-lo] = float64(w.sink.done[k]-w.src.grab[k]) / 1e6
	}
	per[0] = math.Inf(1) // the window's opening snapshot sits before its first frame
	cycles := (hi - lo) / period
	cycleRate, cycleP50 := make([]float64, cycles), make([]float64, cycles)
	for c := range cycleRate {
		a := lo + c*period
		cycleRate[c] = float64(period-1) * 1e9 / float64(w.sink.done[a+period-1]-w.sink.done[a])
		cycleP50[c] = percentile(lat[c*period:(c+1)*period], 0.50)
	}
	fps := quiet("1/s", 1e3*period/sum(quietest(per, period)), cycleRate)
	if w.src.every > 0 {
		fps.Value = fps.Max
	}

	n := w.plan.segments
	allocs, kb := make([]float64, n), make([]float64, n)
	f := float64(w.plan.framesPerSegment)
	for i := 0; i < n; i++ {
		a, b := &w.sink.mem[i], &w.sink.mem[i+1]
		allocs[i] = float64(b.Mallocs-a.Mallocs) / f
		kb[i] = float64(b.TotalAlloc-a.TotalAlloc) / 1024 / f
	}
	return map[string]summary{
		"frames_per_s":         fps,
		"frame_latency_p50_ms": quiet("ms", percentile(quietest(lat, period), 0.50), cycleP50),
		"allocs_per_frame":     overSegments("count", allocs),
		"alloc_kb_per_frame":   overSegments("KB", kb),
		"heap_live_mb":         single("MB", (float64(w.sink.heapStart)-float64(ringBytes))/(1<<20)),
	}
}

// meanRate is frames ÷ wall time over the whole window, stalls included.
func (w *window) meanRate() float64 {
	var secs float64
	for i := 0; i < w.plan.segments; i++ {
		secs += w.seconds(i)
	}
	return float64(w.plan.segments*w.plan.framesPerSegment) / secs
}

// A batch of set-ups is at least setupRuns of them and, because an
// in-process bring-up takes a millisecond and single ones jitter by half of
// that, as many more as fit in setupBudget (up to setupMax).
const (
	setupRuns   = 5
	setupMax    = 25
	setupBudget = 200 * time.Millisecond
)

// setupTime is a run's set-up time: the lower quartile of its set-ups, which
// come in two batches, one before the measured window and one when the run
// ends. The host slows for seconds at a time and a batch sits wholly inside
// or outside such a stretch; with two batches some seconds apart a quarter
// of the set-ups is usually outside. As a median of the run's set-ups,
// setup_s got worse by 26 % from one ten-run set to the next of the same
// code; as this lower quartile, by 7 % at most.
func setupTime(secs []float64) summary {
	return quiet("s", percentile(secs, 0.25), secs)
}

// repeatSetup runs one batch: it calls once, which performs and times one
// full set-up, until the rule above is met, and returns the durations in
// seconds.
func repeatSetup(once func() (time.Duration, error)) ([]float64, error) {
	var secs []float64
	var spent time.Duration
	for len(secs) < setupRuns || (spent < setupBudget && len(secs) < setupMax) {
		d, err := once()
		if err != nil {
			return nil, err
		}
		secs = append(secs, d.Seconds())
		spent += d
	}
	return secs, nil
}

// bringUps measures set-up: parse → map → transport up → first frame
// displayed → teardown, repeatedly. Frame rendering is not part of it. It
// returns each bring-up's duration and its coordinator compilation.
func bringUps(w *frameWorkload, ring *frameRing) ([]float64, []*window, error) {
	var wins []*window
	secs, err := repeatSetup(func() (time.Duration, error) {
		t0 := time.Now()
		src := &frameSource{ring: ring, clk: newClock()}
		d, err := deploy(w.app, w.transport, src, w.pipeline, nil)
		if err != nil {
			return 0, err
		}
		_, err = d.run(1)
		d.close()
		wins = append(wins, &window{first: d.nodes[0].compiled, bringup: d.bringup})
		return time.Since(t0), err
	})
	return secs, wins, err
}
