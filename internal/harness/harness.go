// Package harness regenerates every quantitative claim of the paper's
// evaluation (§4) plus the structural figures, as indexed in DESIGN.md §4.
// Each experiment prints a table to an io.Writer and returns a structured
// result for the benchmarks and tests.
package harness

import (
	"fmt"
	"io"
	"strings"

	"skipper/internal/arch"
	"skipper/internal/compile"
	"skipper/internal/dsl/eval"
	"skipper/internal/sim"
	"skipper/internal/skel"
	"skipper/internal/syndex"
	"skipper/internal/track"
	"skipper/internal/value"
	"skipper/internal/video"
	"skipper/internal/vision"
)

// compileTracking builds a fresh tracking deployment (scene + registry +
// schedule) for the given parameters.
func compileTracking(nproc, w, h, vehicles int, seed int64, a *arch.Arch, strat syndex.Strategy) (*syndex.Schedule, *value.Registry, *track.Recorder, error) {
	scene := video.NewScene(w, h, vehicles, seed)
	reg, rec := track.NewRegistry(scene, nil)
	s, err := compile.Schedule(track.ProgramSource(nproc, w, h), reg, a, strat)
	if err != nil {
		return nil, nil, nil, err
	}
	return s, reg, rec, nil
}

// simTracking simulates the 512x512, 3-vehicle tracking application with
// nproc farm workers on a and returns the simulation with the per-iteration
// results the display node recorded.
func simTracking(nproc int, seed int64, a *arch.Arch, strat syndex.Strategy, opts sim.Options) (*sim.Result, []track.Result, error) {
	s, reg, rec, err := compileTracking(nproc, 512, 512, 3, seed, a, strat)
	if err != nil {
		return nil, nil, err
	}
	res, err := sim.Run(s, reg, opts)
	if err != nil {
		return nil, nil, err
	}
	return res, rec.Results, nil
}

// byPhase splits a simulated tracking run's iteration latencies (seconds)
// by the phase each iteration ran in.
func byPhase(results []track.Result, res *sim.Result) (tracking, reinit []float64) {
	for i, r := range results[:min(len(results), len(res.Iters))] {
		if r.Tracking {
			tracking = append(tracking, res.Iters[i].Latency)
		} else {
			reinit = append(reinit, res.Iters[i].Latency)
		}
	}
	return tracking, reinit
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ---------------------------------------------------------------------------
// E1 — tracking/reinit latency on the 8-Transputer ring (paper §4)

// E1Result reports the phase latencies of the paper's experiment.
type E1Result struct {
	TrackingMS, ReinitMS    float64
	TrackIters, ReinitIters int
	FramesSkipped           int
	EveryFrameInTracking    bool
	OneOfThreeInReinit      bool
}

// E1 reproduces the headline numbers: "minimal latencies obtained is 30ms
// for the tracking phase and 110 ms for the reinitialization phase, with
// the application processing each image of the video stream in first case,
// and one image out of 3 in the second."
func E1(w io.Writer, iters int) (*E1Result, error) {
	res, results, err := simTracking(8, 3, arch.Ring(8), syndex.Structured, sim.Options{Iters: iters, FramePeriod: sim.VideoPeriod})
	if err != nil {
		return nil, err
	}
	trackLat, reinitLat := byPhase(results, res)
	trackFramesOK := true
	for i := 1; i < min(len(results), len(res.Iters)); i++ {
		if results[i].Tracking && results[i-1].Tracking && res.Iters[i].Frame-res.Iters[i-1].Frame != 1 {
			trackFramesOK = false
		}
	}
	out := &E1Result{
		TrackingMS:           mean(trackLat) * 1000,
		ReinitMS:             mean(reinitLat) * 1000,
		TrackIters:           len(trackLat),
		ReinitIters:          len(reinitLat),
		FramesSkipped:        res.FramesSkipped,
		EveryFrameInTracking: trackFramesOK,
		OneOfThreeInReinit:   mean(reinitLat) > 2*sim.VideoPeriod && mean(reinitLat) < 4*sim.VideoPeriod,
	}
	fmt.Fprintf(w, "E1: vehicle tracking, ring(8) T9000, 512x512 @ 25 Hz, 3 vehicles\n")
	fmt.Fprintf(w, "  phase       paper     measured    iters\n")
	fmt.Fprintf(w, "  tracking    30 ms     %6.1f ms   %5d\n", out.TrackingMS, out.TrackIters)
	fmt.Fprintf(w, "  reinit     110 ms     %6.1f ms   %5d\n", out.ReinitMS, out.ReinitIters)
	fmt.Fprintf(w, "  every frame in tracking: %v   ~1-of-3 in reinit: %v   skipped: %d\n",
		out.EveryFrameInTracking, out.OneOfThreeInReinit, out.FramesSkipped)
	return out, nil
}

// ---------------------------------------------------------------------------
// E2 — latency vs number of processors (scaling / instant retargeting)

// E2Row is one processor count's result.
type E2Row struct {
	Procs      int
	TrackingMS float64
	ReinitMS   float64
}

// E2 regenerates the scaling series: the same source is recompiled for each
// processor count — the paper's "almost instantaneous to get variant
// versions with different numbers of processors".
func E2(w io.Writer, iters int, procCounts []int) ([]E2Row, error) {
	fmt.Fprintf(w, "E2: latency vs processors (tracking app, 512x512, 3 vehicles)\n")
	fmt.Fprintf(w, "  P    tracking     reinit\n")
	var rows []E2Row
	for _, p := range procCounts {
		res, results, err := simTracking(p, 3, arch.Ring(p), syndex.Structured, sim.Options{Iters: iters, FramePeriod: sim.VideoPeriod})
		if err != nil {
			return nil, err
		}
		tl, rl := byPhase(results, res)
		row := E2Row{Procs: p, TrackingMS: mean(tl) * 1000, ReinitMS: mean(rl) * 1000}
		rows = append(rows, row)
		fmt.Fprintf(w, "  %-3d  %7.1f ms  %7.1f ms\n", row.Procs, row.TrackingMS, row.ReinitMS)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E3 — skeleton executive vs hand-crafted static partition

// E3Result compares the df farm against an idealized hand-coded version.
type E3Result struct {
	SkeletonMS, HandcraftMS float64
	OverheadPct             float64
}

// E3 quantifies the claim that skeleton performance is "similar to the ones
// obtained by an existing hand-crafted parallel version". The hand-crafted
// baseline is an idealized static partition of the reinitialization
// detection: each processor gets exactly one band, there is no master, no
// demand-driven dispatch and no farm protocol overhead — the best case a
// hand coder can reach on uniform loads.
func E3(w io.Writer, iters int) (*E3Result, error) {
	const P = 8
	res, results, err := simTracking(P, 5, arch.Ring(P), syndex.Structured, sim.Options{Iters: iters})
	if err != nil {
		return nil, err
	}
	// Compare the reinitialization phase (uniform full-image bands), the
	// only phase a static hand-partition expresses directly.
	_, reinit := byPhase(results, res)
	if len(reinit) == 0 {
		return nil, fmt.Errorf("harness: no reinitialization iterations observed")
	}
	skel := mean(reinit)

	// Idealized hand-crafted reinit iteration on the same platform model:
	// read + extract + scatter (pipelined on both ring directions) + one
	// band of detection per processor + gather + predict.
	a := arch.Ring(P)
	bandPx := 512 * 512 / P
	read := a.CycleSeconds(track.ReadImgCycles)
	extract := a.CycleSeconds(track.FixedWindowCycles + int64(512*512)*track.CyclesPerPixelExtract)
	detect := a.CycleSeconds(track.FixedDetectCycles + int64(bandPx)*track.CyclesPerPixelDetect)
	// Scatter: 4 bands per ring direction, store-and-forward; the farthest
	// band crosses 4 links.
	band := a.TransferSeconds(bandPx + 16)
	scatter := 4 * band
	gather := 4 * a.TransferSeconds(200)
	predict := a.CycleSeconds(track.PredictCycles)
	hand := read + extract + scatter + detect + gather + predict

	out := &E3Result{
		SkeletonMS:  skel * 1000,
		HandcraftMS: hand * 1000,
		OverheadPct: (skel - hand) / hand * 100,
	}
	fmt.Fprintf(w, "E3: df skeleton vs idealized hand-crafted static partition (reinit, ring(8))\n")
	fmt.Fprintf(w, "  skeleton executive : %7.1f ms\n", out.SkeletonMS)
	fmt.Fprintf(w, "  hand-crafted ideal : %7.1f ms\n", out.HandcraftMS)
	fmt.Fprintf(w, "  skeleton overhead  : %7.1f %%   (paper: \"similar\" performance)\n", out.OverheadPct)
	return out, nil
}

// ---------------------------------------------------------------------------
// E4 — sequential emulation ≡ parallel execution

// E4Result reports equivalence of the three execution paths, plus the
// coordinator's transport statistics for the parallel-executive leg (see
// exec.RunResult for the Hops/Direct semantics: hops are forwarder link
// traversals, direct are peer-mesh point-to-point frames).
type E4Result struct {
	Iterations int
	Identical  bool
	Messages   int64
	Hops       int64
	Direct     int64
}

// runE4Mode executes the E4 tracking deployment through the sequential
// emulator or the timing simulator (the parallel-executive path lives in
// runExecutiveOn, parameterized by transport).
func runE4Mode(mode string, iters int) ([]track.Result, error) {
	scene := video.NewScene(256, 256, 2, 21)
	reg, rec := track.NewRegistry(scene, nil)
	p, err := compile.Source(track.ProgramSource(8, 256, 256), reg)
	if err != nil {
		return nil, err
	}
	switch mode {
	case "emulate":
		if _, err := eval.New(reg, eval.Options{MaxIters: iters}).Run(p.AST); err != nil {
			return nil, err
		}
	case "simulate":
		s, err := p.Map(arch.Ring(8), syndex.Structured)
		if err != nil {
			return nil, err
		}
		if _, err := sim.Run(s, reg, sim.Options{Iters: iters}); err != nil {
			return nil, err
		}
	}
	return rec.Results, nil
}

// E4 verifies the debugging claim: the sequential emulation computes
// exactly what the parallel executive computes, iteration by iteration.
func E4(w io.Writer, iters int) (*E4Result, error) {
	return E4On(w, iters, "mem")
}

// ---------------------------------------------------------------------------
// E5 — df dynamic load balancing vs static split on uneven workloads

// E5Result compares makespans on skewed task lists.
type E5Result struct {
	Skew            float64
	DFMS, StaticMS  float64
	DFWinsOnSkewed  bool
	TieOnUniformPct float64
}

// E5 exercises the claim motivating df: window workloads are "very uneven",
// calling for dynamic load balancing. Tasks are synthetic with a controlled
// cost skew; the static baseline assigns tasks round-robin like an scm
// split would.
func E5(w io.Writer, tasks, workers int) (*E5Result, error) {
	// Workers tick at the Transvision clock rate; the makespan model needs
	// only that scale, not a routed topology, so no arch graph is built
	// (this function runs once per benchmark op and is alloc-guarded).
	const secPerCycle = 1 / arch.TransputerHz
	free := make([]float64, workers) // scratch, reset per makespan
	makespan := func(costs []int64, dynamic bool) float64 {
		for i := range free {
			free[i] = 0
		}
		if dynamic {
			// Greedy earliest-available worker = df master in virtual time.
			for _, c := range costs {
				best := 0
				for i := 1; i < workers; i++ {
					if free[i] < free[best] {
						best = i
					}
				}
				free[best] += float64(c) * secPerCycle
			}
		} else {
			// Static round-robin.
			for i, c := range costs {
				free[i%workers] += float64(c) * secPerCycle
			}
		}
		m := 0.0
		for _, f := range free {
			if f > m {
				m = f
			}
		}
		return m
	}
	// Skewed: geometric decay — first window huge (near vehicle), rest tiny.
	// Uniform rides in the same slab.
	costs := make([]int64, 2*tasks)
	skewed, uniform := costs[:tasks], costs[tasks:]
	for i := range skewed {
		skewed[i] = int64(4_000_000 / (1 + 3*i))
	}
	for i := range uniform {
		uniform[i] = 500_000
	}
	dfSkew := makespan(skewed, true)
	stSkew := makespan(skewed, false)
	dfUni := makespan(uniform, true)
	stUni := makespan(uniform, false)
	out := &E5Result{
		Skew:            float64(skewed[0]) / float64(skewed[len(skewed)-1]),
		DFMS:            dfSkew * 1000,
		StaticMS:        stSkew * 1000,
		DFWinsOnSkewed:  dfSkew < stSkew,
		TieOnUniformPct: (dfUni - stUni) / stUni * 100,
	}
	fmt.Fprintf(w, "E5: dynamic (df) vs static split, %d tasks on %d workers\n", tasks, workers)
	fmt.Fprintf(w, "  workload   df          static\n")
	fmt.Fprintf(w, "  skewed     %7.1f ms  %7.1f ms\n", dfSkew*1000, stSkew*1000)
	fmt.Fprintf(w, "  uniform    %7.1f ms  %7.1f ms\n", dfUni*1000, stUni*1000)
	return out, nil
}

// ---------------------------------------------------------------------------
// E6 — itermem stream behaviour (Fig. 4): throughput vs frame period

// E6Row reports frame-consumption behaviour for one workload intensity.
type E6Row struct {
	WorkCycles    int64
	LatencyMS     float64
	FramesPerIter float64 // 1 = every frame, 3 = one image out of 3
}

// E6 sweeps per-iteration work and reports how many camera frames elapse
// per processed image — the mechanism behind "one image out of 3".
func E6(w io.Writer, iters int) ([]E6Row, error) {
	fmt.Fprintf(w, "E6: itermem frame consumption vs loop cost (25 Hz camera)\n")
	fmt.Fprintf(w, "  work/frame    latency     frames consumed per iteration\n")
	var rows []E6Row
	for _, cycles := range []int64{200_000, 800_000, 1_600_000, 3_200_000, 6_400_000} {
		r := value.NewRegistry()
		r.Register(&value.Func{Name: "grab", Sig: "unit -> int", Arity: 1,
			Fn:   func([]value.Value) value.Value { return 1 },
			Cost: func([]value.Value) int64 { return 10_000 }})
		c := cycles
		r.Register(&value.Func{Name: "work", Sig: "int * int -> int * int", Arity: 1,
			Fn: func(a []value.Value) value.Value {
				pr := a[0].(value.Tuple)
				return value.Tuple{pr[0], pr[1]}
			},
			Cost: func([]value.Value) int64 { return c }})
		r.Register(&value.Func{Name: "show", Sig: "int -> unit", Arity: 1,
			Fn: func([]value.Value) value.Value { return value.Unit{} }})
		src := `
extern grab : unit -> int;;
extern work : int * int -> int * int;;
extern show : int -> unit;;
let main = itermem grab work show 0 ();;
`
		s, err := compile.Schedule(src, r, arch.Ring(2), syndex.Structured)
		if err != nil {
			return nil, err
		}
		res, err := sim.Run(s, r, sim.Options{Iters: iters, FramePeriod: sim.VideoPeriod})
		if err != nil {
			return nil, err
		}
		lastFrame := res.Iters[len(res.Iters)-1].Frame
		fpi := float64(lastFrame+1) / float64(len(res.Iters))
		row := E6Row{WorkCycles: cycles, LatencyMS: res.MeanLatency(1) * 1000, FramesPerIter: fpi}
		rows = append(rows, row)
		fmt.Fprintf(w, "  %9d     %7.1f ms   %.2f\n", row.WorkCycles, row.LatencyMS, row.FramesPerIter)
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// E7 — scm connected-component labelling speedup (ref [7])

// E7Row is the speedup at one processor count.
type E7Row struct {
	Procs   int
	TotalMS float64
	Speedup float64
}

// E7 reproduces the scm labelling experiment: a 512x512 frame is split into
// horizontal bands, each band labelled independently, and the per-band
// statistics merged. Costs follow the same calibration as detection.
func E7(w io.Writer, procCounts []int) ([]E7Row, error) {
	fmt.Fprintf(w, "E7: scm connected-component labelling, 512x512\n")
	fmt.Fprintf(w, "  P    total        speedup\n")
	var rows []E7Row
	base := 0.0
	for _, p := range procCounts {
		res, err := runLabelling(p)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = res.Total
		}
		row := E7Row{Procs: p, TotalMS: res.Total * 1000, Speedup: base / res.Total}
		rows = append(rows, row)
		fmt.Fprintf(w, "  %-3d  %8.1f ms  %6.2fx\n", row.Procs, row.TotalMS, row.Speedup)
	}
	return rows, nil
}

// runLabelling builds and simulates the scm labelling program on p procs.
func runLabelling(p int) (*sim.Result, error) {
	scene := video.NewScene(512, 512, 3, 17)
	frame := scene.Next()
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "the_img", Sig: "img", Arity: 0,
		Fn: func([]value.Value) value.Value { return frame }})
	r.Register(&value.Func{Name: "split_bands", Sig: "img -> window list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			im := a[0].(*vision.Image)
			out := make(value.List, 0, p)
			for _, rect := range vision.SplitGrid(im.W, im.H, p) {
				out = append(out, vision.Extract(im, rect))
			}
			return out
		},
		Cost: func(a []value.Value) int64 {
			im := a[0].(*vision.Image)
			return 10_000 + int64(im.W*im.H)*track.CyclesPerPixelExtract
		}})
	r.Register(&value.Func{Name: "label_band", Sig: "window -> mark", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			win := a[0].(vision.Window)
			return track.Detections(track.DetectMarks(win))
		},
		Cost: func(a []value.Value) int64 {
			win := a[0].(vision.Window)
			return track.FixedDetectCycles + int64(win.Origin.Area())*track.CyclesPerPixelDetect
		}})
	r.Register(&value.Func{Name: "merge_bands", Sig: "mark list -> mark", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			var all []track.Mark
			for _, d := range a[0].(value.List) {
				all = append(all, d.(track.Detections)...)
			}
			return track.Detections(track.MergeDuplicates(all))
		},
		Cost: func([]value.Value) int64 { return 50_000 }})
	src := fmt.Sprintf(`
type img;; type window;; type mark;;
extern the_img : img;;
extern split_bands : img -> window list;;
extern label_band : window -> mark;;
extern merge_bands : mark list -> mark;;
let main = scm %d split_bands label_band merge_bands the_img;;
`, p)
	s, err := compile.Schedule(src, r, arch.Ring(max(p, 1)), syndex.Structured)
	if err != nil {
		return nil, err
	}
	return sim.Run(s, r, sim.Options{Iters: 1})
}

// ---------------------------------------------------------------------------
// E8 — tf divide-and-conquer

// E8Result reports the task-farm experiment.
type E8Result struct {
	Procs   int
	TotalMS float64
	Tasks   int
	Correct bool
}

// E8 exercises the tf skeleton with a divide-and-conquer workload:
// recursive splitting of image regions until homogeneous (a quadtree-style
// segmentation), with worker-generated tasks flowing back to the master.
func E8(w io.Writer, procCounts []int) ([]E8Result, error) {
	fmt.Fprintf(w, "E8: tf divide-and-conquer region splitting, 256x256\n")
	fmt.Fprintf(w, "  P    total        regions\n")
	var outs []E8Result
	for _, p := range procCounts {
		res, regions, err := runQuadtree(p)
		if err != nil {
			return nil, err
		}
		o := E8Result{Procs: p, TotalMS: res.Total * 1000, Tasks: regions, Correct: regions > 0}
		outs = append(outs, o)
		fmt.Fprintf(w, "  %-3d  %8.1f ms  %6d\n", p, o.TotalMS, o.Tasks)
	}
	return outs, nil
}

func runQuadtree(p int) (*sim.Result, int, error) {
	scene := video.NewScene(256, 256, 2, 23)
	frame := scene.Next()
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "whole", Sig: "window list", Arity: 0,
		Fn: func([]value.Value) value.Value {
			return value.List{vision.Extract(frame, vision.Rect{X0: 0, Y0: 0, X1: frame.W, Y1: frame.H})}
		}})
	r.Register(&value.Func{Name: "split_region", Sig: "window -> window list * window list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			win := a[0].(vision.Window)
			// Homogeneous (no bright pixel) or small: emit as a region.
			if win.Origin.Area() <= 32*32 || vision.CountAbove(win.Img, video.DetectThreshold) == 0 {
				return value.Tuple{value.List{win}, value.List{}}
			}
			r0 := win.Origin
			mx, my := (r0.X0+r0.X1)/2, (r0.Y0+r0.Y1)/2
			quads := []vision.Rect{
				{X0: r0.X0, Y0: r0.Y0, X1: mx, Y1: my},
				{X0: mx, Y0: r0.Y0, X1: r0.X1, Y1: my},
				{X0: r0.X0, Y0: my, X1: mx, Y1: r0.Y1},
				{X0: mx, Y0: my, X1: r0.X1, Y1: r0.Y1},
			}
			more := make(value.List, 0, 4)
			for _, q := range quads {
				more = append(more, vision.Extract(frame, q))
			}
			return value.Tuple{value.List{}, more}
		},
		Cost: func(a []value.Value) int64 {
			// Homogeneity analysis (variance + gradient) per pixel.
			win := a[0].(vision.Window)
			return 10_000 + int64(win.Origin.Area())*12
		}})
	r.Register(&value.Func{Name: "count_region", Sig: "int -> window -> int", Arity: 2,
		Fn: func(a []value.Value) value.Value {
			return a[0].(int) + 1
		},
		Cost: func([]value.Value) int64 { return 1_000 }})
	src := fmt.Sprintf(`
type window;;
extern whole : window list;;
extern split_region : window -> window list * window list;;
extern count_region : int -> window -> int;;
let main = tf %d split_region count_region 0 whole;;
`, p)
	s, err := compile.Schedule(src, r, arch.Ring(max(p, 1)), syndex.Structured)
	if err != nil {
		return nil, 0, err
	}
	res, err := sim.Run(s, r, sim.Options{Iters: 1})
	if err != nil {
		return nil, 0, err
	}
	regions := 0
	if len(res.Outputs) == 1 {
		if n, ok := res.Outputs[0].(int); ok {
			regions = n
		}
	}
	return res, regions, nil
}

// ---------------------------------------------------------------------------
// E9 — programmability accounting

// E9Result counts what the programmer writes vs what SKiPPER generates.
type E9Result struct {
	SpecLines        int
	UserFunctions    int
	GraphNodes       int
	GraphEdges       int
	MacroCodeLines   int
	GeneratedPerSpec float64
}

// E9 reproduces the programmability claim: "the programmer's work here
// reduced to writing 6 sequential C functions and the caml specification"
// — everything else (process placement, communication scheduling, …) is
// generated.
func E9(w io.Writer) (*E9Result, error) {
	src := track.ProgramSource(8, 512, 512)
	s, _, _, err := compileTracking(8, 512, 512, 3, 3, arch.Ring(8), syndex.Structured)
	if err != nil {
		return nil, err
	}
	specLines := 0
	for _, ln := range strings.Split(src, "\n") {
		if trimmed := strings.TrimSpace(ln); trimmed != "" && !strings.HasPrefix(trimmed, "(*") {
			specLines++
		}
	}
	mcLines := strings.Count(s.MacroCode(), "\n")
	out := &E9Result{
		SpecLines:        specLines,
		UserFunctions:    7, // read_img, init_state, get_windows, detect_mark, accum_marks, predict, display_marks
		GraphNodes:       len(s.Graph.Nodes),
		GraphEdges:       len(s.Graph.Edges),
		MacroCodeLines:   mcLines,
		GeneratedPerSpec: float64(mcLines) / float64(specLines),
	}
	fmt.Fprintf(w, "E9: programmability accounting (tracking app, ring(8))\n")
	fmt.Fprintf(w, "  specification lines (non-blank): %d\n", out.SpecLines)
	fmt.Fprintf(w, "  user sequential functions:       %d (paper: 6 C functions)\n", out.UserFunctions)
	fmt.Fprintf(w, "  generated process graph:         %d nodes, %d edges\n", out.GraphNodes, out.GraphEdges)
	fmt.Fprintf(w, "  generated macro-code lines:      %d (%.1fx the specification)\n",
		out.MacroCodeLines, out.GeneratedPerSpec)
	return out, nil
}

// ---------------------------------------------------------------------------
// Skeleton micro-comparison used by the benchmarks: Go-level parallel
// skeletons versus their declarative definitions.

// SkelAgreement runs a quick cross-check of the Go skeleton library
// (operational vs declarative) over a pseudo-random workload; it returns
// true when all skeletons agree.
func SkelAgreement() bool {
	xs := make([]int, 200)
	for i := range xs {
		xs[i] = i * 7 % 31
	}
	comp := func(x int) int { return x*x + 1 }
	acc := func(a, b int) int { return a + b }
	if skel.DFSeq(8, comp, acc, 0, xs) != skel.DFPar(8, comp, acc, 0, xs) {
		return false
	}
	split := func(v []int) [][]int {
		var out [][]int
		for i := 0; i < 8; i++ {
			out = append(out, v[i*len(v)/8:(i+1)*len(v)/8])
		}
		return out
	}
	sum := func(v []int) int {
		s := 0
		for _, x := range v {
			s += x
		}
		return s
	}
	if skel.SCMSeq(8, split, sum, sum, xs) != skel.SCMPar(8, split, sum, sum, xs) {
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// E10 — ablation: structured skeleton-aware placement vs generic list
// scheduling (a design choice DESIGN.md calls out: SKiPPER's placement
// exploits skeleton structure that a generic scheduler cannot see).

// E10Result compares the two distribution strategies on the tracking app.
type E10Result struct {
	StructuredMS float64
	ListSchedMS  float64
	// Advantage is (list - structured) / structured; positive means the
	// skeleton-aware placement wins.
	AdvantagePct float64
}

// E10 measures the reinitialization-phase latency (the load-heavy phase)
// under both distribution strategies.
func E10(w io.Writer, iters int) (*E10Result, error) {
	measure := func(strat syndex.Strategy) (float64, error) {
		res, results, err := simTracking(8, 5, arch.Ring(8), strat, sim.Options{Iters: iters})
		if err != nil {
			return 0, err
		}
		_, reinit := byPhase(results, res)
		if len(reinit) == 0 {
			return 0, fmt.Errorf("harness: no reinit iterations under %v", strat)
		}
		return mean(reinit), nil
	}
	st, err := measure(syndex.Structured)
	if err != nil {
		return nil, err
	}
	ls, err := measure(syndex.ListSched)
	if err != nil {
		return nil, err
	}
	out := &E10Result{
		StructuredMS: st * 1000,
		ListSchedMS:  ls * 1000,
		AdvantagePct: (ls - st) / st * 100,
	}
	fmt.Fprintf(w, "E10 (ablation): distribution strategy, tracking reinit on ring(8)\n")
	fmt.Fprintf(w, "  structured (skeleton-aware): %7.1f ms\n", out.StructuredMS)
	fmt.Fprintf(w, "  list scheduling (generic):   %7.1f ms\n", out.ListSchedMS)
	fmt.Fprintf(w, "  structured advantage:        %7.1f %%\n", out.AdvantagePct)
	return out, nil
}

// ---------------------------------------------------------------------------
// E11 — topology sensitivity: the same application on the physical
// topologies Transvision "can be configured according to" (paper §4/ref 8).

// E11Row is one topology's result.
type E11Row struct {
	Topology string
	ReinitMS float64
}

// E11 measures the reinitialization latency of the tracking application on
// different 8-processor interconnects.
func E11(w io.Writer, iters int) ([]E11Row, error) {
	topos := []*arch.Arch{
		arch.Ring(8), arch.Chain(8), arch.Star(8), arch.Hypercube(3),
		arch.Torus(4, 2), arch.Full(8),
	}
	fmt.Fprintf(w, "E11: topology sensitivity (tracking reinit, 8 processors)\n")
	fmt.Fprintf(w, "  topology       reinit\n")
	var rows []E11Row
	for _, a := range topos {
		res, results, err := simTracking(8, 5, a, syndex.Structured, sim.Options{Iters: iters})
		if err != nil {
			return nil, err
		}
		_, reinit := byPhase(results, res)
		row := E11Row{Topology: a.Name, ReinitMS: mean(reinit) * 1000}
		rows = append(rows, row)
		fmt.Fprintf(w, "  %-13s %7.1f ms\n", row.Topology, row.ReinitMS)
	}
	return rows, nil
}
