package sim

import (
	"math"
	"strings"
	"testing"

	"skipper/internal/arch"
	"skipper/internal/dsl/parser"
	"skipper/internal/dsl/types"
	"skipper/internal/exec"
	"skipper/internal/expand"
	"skipper/internal/syndex"
	"skipper/internal/value"
)

// heavyRegistry: square costs 1M cycles (50 ms at 20 MHz), everything else
// is cheap — a farm-bound workload.
func heavyRegistry(costPerTask int64) *value.Registry {
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "source", Sig: "int -> int list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			n := a[0].(int)
			out := make(value.List, n)
			for i := range out {
				out[i] = i + 1
			}
			return out
		}})
	r.Register(&value.Func{Name: "square", Sig: "int -> int", Arity: 1,
		Fn:   func(a []value.Value) value.Value { x := a[0].(int); return x * x },
		Cost: func([]value.Value) int64 { return costPerTask }})
	r.Register(&value.Func{Name: "add", Sig: "int -> int -> int", Arity: 2,
		Fn:   func(a []value.Value) value.Value { return a[0].(int) + a[1].(int) },
		Cost: func([]value.Value) int64 { return 500 }})
	return r
}

const farmSrc = `
extern source : int -> int list;;
extern square : int -> int;;
extern add : int -> int -> int;;
let main = df NW square add 0 (source 16);;
`

func compileFarm(t *testing.T, reg *value.Registry, workers int, a *arch.Arch) *syndex.Schedule {
	t.Helper()
	src := ""
	for _, c := range farmSrc {
		src += string(c)
	}
	src = replaceNW(src, workers)
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := expand.Expand(prog, info, reg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := syndex.Map(res.Graph, a, reg, syndex.Structured)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func replaceNW(src string, n int) string {
	out := ""
	for i := 0; i < len(src); i++ {
		if i+1 < len(src) && src[i] == 'N' && src[i+1] == 'W' {
			out += itoa(n)
			i++
			continue
		}
		out += string(src[i])
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	s := ""
	for n > 0 {
		s = string(rune('0'+n%10)) + s
		n /= 10
	}
	return s
}

func TestSimFunctionalResultMatchesExecutive(t *testing.T) {
	reg := heavyRegistry(100_000)
	s := compileFarm(t, reg, 4, arch.Ring(4))
	simRes, err := Run(s, heavyRegistry(100_000), Options{Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	execRes, err := exec.NewMachine(s, heavyRegistry(100_000)).Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(simRes.Outputs) != 1 || len(execRes.Outputs) != 1 {
		t.Fatalf("outputs: sim %v exec %v", simRes.Outputs, execRes.Outputs)
	}
	if !value.Equal(simRes.Outputs[0], execRes.Outputs[0]) {
		t.Fatalf("sim %v != exec %v", simRes.Outputs[0], execRes.Outputs[0])
	}
	// Sum of squares 1..16 = 1496.
	if simRes.Outputs[0] != 1496 {
		t.Fatalf("value = %v", simRes.Outputs[0])
	}
}

func TestFarmSpeedupWithProcessors(t *testing.T) {
	// 16 tasks x 1M cycles = 16M cycles = 800 ms sequential at 20 MHz.
	const cost = 1_000_000
	lat := map[int]float64{}
	for _, n := range []int{1, 2, 4, 8} {
		reg := heavyRegistry(cost)
		s := compileFarm(t, reg, n, arch.Ring(n))
		res, err := Run(s, reg, Options{Iters: 1})
		if err != nil {
			t.Fatal(err)
		}
		lat[n] = res.Total
	}
	if !(lat[1] > lat[2] && lat[2] > lat[4] && lat[4] > lat[8]) {
		t.Fatalf("no speedup: %v", lat)
	}
	// Near-linear at this granularity: 8 procs at least 4x faster than 1.
	if lat[1]/lat[8] < 4 {
		t.Fatalf("8-proc speedup only %.2fx", lat[1]/lat[8])
	}
}

func TestSequentialBaselineTime(t *testing.T) {
	// On 1 processor the farm degenerates to sequential execution: total
	// ≈ 16 tasks × 1M cycles / 20 MHz = 800 ms plus overheads.
	reg := heavyRegistry(1_000_000)
	s := compileFarm(t, reg, 1, arch.Ring(1))
	res, err := Run(s, reg, Options{Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total < 0.8 || res.Total > 0.9 {
		t.Fatalf("sequential total = %v, want ≈0.8s", res.Total)
	}
}

func TestTransferModel(t *testing.T) {
	a := arch.Ring(8)
	sm := &simulator{a: a, linkFree: map[arch.LinkID]float64{},
		procClock: make([]float64, 8), busy: make([]float64, 8)}
	// Local delivery is free.
	if got := sm.transfer(3, 3, 1_000_000, 1.0); got != 1.0 {
		t.Fatalf("local transfer = %v", got)
	}
	// One hop: latency + bytes/bandwidth.
	oneHop := sm.transfer(0, 1, 100_000, 0)
	want := a.LinkLatency + 100_000/a.LinkBytesPerSec
	if math.Abs(oneHop-want) > 1e-12 {
		t.Fatalf("one hop = %v, want %v", oneHop, want)
	}
	// Four hops cost four times as much (fresh links).
	sm2 := &simulator{a: a, linkFree: map[arch.LinkID]float64{},
		procClock: make([]float64, 8), busy: make([]float64, 8)}
	fourHops := sm2.transfer(0, 4, 100_000, 0)
	if math.Abs(fourHops-4*want) > 1e-12 {
		t.Fatalf("four hops = %v, want %v", fourHops, 4*want)
	}
	// Link contention: a second message on the same busy link waits.
	sm3 := &simulator{a: a, linkFree: map[arch.LinkID]float64{},
		procClock: make([]float64, 8), busy: make([]float64, 8)}
	first := sm3.transfer(0, 1, 100_000, 0)
	second := sm3.transfer(0, 1, 100_000, 0)
	if math.Abs(second-(first+want)) > 1e-12 {
		t.Fatalf("contended transfer = %v, want %v", second, first+want)
	}
}

func TestFramePacingEveryFrame(t *testing.T) {
	// Fast pipeline: latency far below the 40 ms period -> no skipping.
	reg := heavyRegistry(10_000)
	s := compileFarmStream(t, reg, 4)
	res, err := Run(s, reg, Options{Iters: 10, FramePeriod: VideoPeriod})
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesSkipped != 0 {
		t.Fatalf("skipped %d frames", res.FramesSkipped)
	}
	// Consecutive frames.
	for i, it := range res.Iters {
		if it.Frame != i {
			t.Fatalf("iteration %d consumed frame %d", i, it.Frame)
		}
	}
}

func TestFramePacingSkipsWhenSlow(t *testing.T) {
	// ~100 ms of work per frame on 4 procs ≈ 2 frame periods -> skips.
	reg := heavyRegistry(2_000_000)
	s := compileFarmStream(t, reg, 4)
	res, err := Run(s, reg, Options{Iters: 10, FramePeriod: VideoPeriod})
	if err != nil {
		t.Fatal(err)
	}
	if res.FramesSkipped == 0 {
		t.Fatal("slow pipeline should skip frames")
	}
	// Frames strictly increasing.
	for i := 1; i < len(res.Iters); i++ {
		if res.Iters[i].Frame <= res.Iters[i-1].Frame {
			t.Fatalf("frames not increasing: %+v", res.Iters)
		}
	}
}

// compileFarmStream wraps the farm in an itermem loop.
func compileFarmStream(t *testing.T, reg *value.Registry, workers int) *syndex.Schedule {
	t.Helper()
	if _, ok := reg.Lookup("grab"); !ok {
		reg.Register(&value.Func{Name: "grab", Sig: "unit -> int list", Arity: 1,
			Fn: func([]value.Value) value.Value {
				out := make(value.List, 16)
				for i := range out {
					out[i] = i + 1
				}
				return out
			},
			Cost: func([]value.Value) int64 { return 10_000 }})
		reg.Register(&value.Func{Name: "show", Sig: "int -> unit", Arity: 1,
			Fn: func([]value.Value) value.Value { return value.Unit{} }})
		reg.Register(&value.Func{Name: "carry", Sig: "int * int -> int * int", Arity: 1,
			Fn: func(a []value.Value) value.Value {
				pr := a[0].(value.Tuple)
				return value.Tuple{pr[0], pr[1]}
			}})
	}
	src := `
extern grab : unit -> int list;;
extern square : int -> int;;
extern add : int -> int -> int;;
extern show : int -> unit;;
extern carry : int * int -> int * int;;
let loop (z, xs) =
  let s = df ` + itoa(workers) + ` square add 0 xs in
  carry (z, s);;
let main = itermem grab loop show 0 ();;
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := expand.Expand(prog, info, reg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := syndex.Map(res.Graph, arch.Ring(4), reg, syndex.Structured)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStreamLatencyStatsAndUtilization(t *testing.T) {
	reg := heavyRegistry(500_000)
	s := compileFarmStream(t, reg, 4)
	res, err := Run(s, reg, Options{Iters: 8, FramePeriod: VideoPeriod})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iters) != 8 {
		t.Fatalf("iters = %d", len(res.Iters))
	}
	mean := res.MeanLatency(2)
	if mean <= 0 {
		t.Fatalf("mean latency = %v", mean)
	}
	if res.MaxLatency(2) < mean {
		t.Fatal("max < mean")
	}
	util := res.Utilization()
	if len(util) != 4 {
		t.Fatalf("util = %v", util)
	}
	for p, u := range util {
		if u < 0 || u > 1.0001 {
			t.Fatalf("processor %d utilization %v", p, u)
		}
	}
}

func TestLoadBalancingBeatsStaticOnSkewedTasks(t *testing.T) {
	// Skewed task costs: one huge task plus many small. df's dynamic
	// dispatch overlaps the big task with the small ones; a static
	// round-robin (modelled by scm with fixed chunks) cannot. We verify
	// the df farm's makespan is close to the big task's cost, not the sum.
	big := int64(5_000_000)
	small := int64(100_000)
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "source", Sig: "int -> int list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			out := make(value.List, 8)
			for i := range out {
				out[i] = i
			}
			return out
		}})
	r.Register(&value.Func{Name: "square", Sig: "int -> int", Arity: 1,
		Fn: func(a []value.Value) value.Value { return a[0] },
		Cost: func(a []value.Value) int64 {
			if a[0].(int) == 0 {
				return big
			}
			return small
		}})
	r.Register(&value.Func{Name: "add", Sig: "int -> int -> int", Arity: 2,
		Fn:   func(a []value.Value) value.Value { return a[0].(int) + a[1].(int) },
		Cost: func([]value.Value) int64 { return 200 }})
	s := compileFarm(t, r, 4, arch.Ring(4))
	res, err := Run(s, r, Options{Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	bigSec := float64(big) / arch.TransputerHz // 0.25 s
	if res.Total > bigSec*1.3 {
		t.Fatalf("dynamic farm makespan %v should approach big-task bound %v",
			res.Total, bigSec)
	}
}

func TestMemCarriesAcrossIterations(t *testing.T) {
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "grab", Sig: "unit -> int", Arity: 1,
		Fn: func([]value.Value) value.Value { return 1 }})
	r.Register(&value.Func{Name: "step", Sig: "int * int -> int * int", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			pr := a[0].(value.Tuple)
			z := pr[0].(int) + pr[1].(int)
			return value.Tuple{z, z}
		}})
	r.Register(&value.Func{Name: "show", Sig: "int -> unit", Arity: 1,
		Fn: func([]value.Value) value.Value { return value.Unit{} }})
	src := `
extern grab : unit -> int;;
extern step : int * int -> int * int;;
extern show : int -> unit;;
let main = itermem grab step show 0 ();;
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	eres, err := expand.Expand(prog, info, r)
	if err != nil {
		t.Fatal(err)
	}
	s, err := syndex.Map(eres.Graph, arch.Ring(2), r, syndex.Structured)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, r, Options{Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 5}
	for i, w := range want {
		if res.Outputs[i] != w {
			t.Fatalf("outputs = %v", res.Outputs)
		}
	}
}

func TestLatencyMonotoneInTaskCost(t *testing.T) {
	prev := 0.0
	for _, cost := range []int64{10_000, 100_000, 1_000_000} {
		reg := heavyRegistry(cost)
		s := compileFarm(t, reg, 4, arch.Ring(4))
		res, err := Run(s, reg, Options{Iters: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Total <= prev {
			t.Fatalf("latency not monotone at cost %d: %v <= %v", cost, res.Total, prev)
		}
		prev = res.Total
	}
}

func TestMeanLatencyEmptyAndWarmupClamp(t *testing.T) {
	r := &Result{Iters: []IterStats{{Latency: 2}, {Latency: 4}}}
	if got := r.MeanLatency(0); math.Abs(got-3) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	// Warmup beyond length falls back to all iterations.
	if got := r.MeanLatency(10); math.Abs(got-3) > 1e-12 {
		t.Fatalf("mean = %v", got)
	}
	empty := &Result{}
	if empty.MeanLatency(0) != 0 || empty.MaxLatency(0) != 0 {
		t.Fatal("empty stats should be zero")
	}
}

func TestChronogram(t *testing.T) {
	reg := heavyRegistry(500_000)
	s := compileFarm(t, reg, 4, arch.Ring(4))
	res, err := Run(s, reg, Options{Iters: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("no spans recorded")
	}
	// Worker compute spans appear on processors other than 0.
	remote := false
	for _, sp := range res.Spans {
		if sp.Proc != 0 && sp.Label == "square" {
			remote = true
		}
		if sp.End <= sp.Start {
			t.Fatalf("degenerate span %+v", sp)
		}
		if sp.End > res.Total+1e-9 {
			t.Fatalf("span beyond total: %+v (total %v)", sp, res.Total)
		}
	}
	if !remote {
		t.Fatal("no remote worker spans")
	}
	art := res.Chronogram(60)
	if !strings.Contains(art, "P0") || !strings.Contains(art, "P3") {
		t.Fatalf("chronogram malformed:\n%s", art)
	}
	if !strings.Contains(art, "s") { // 'square' glyph on worker rows
		t.Fatalf("worker activity missing:\n%s", art)
	}
}

func TestChronogramWithoutTrace(t *testing.T) {
	reg := heavyRegistry(10_000)
	s := compileFarm(t, reg, 2, arch.Ring(2))
	res, err := Run(s, reg, Options{Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) != 0 {
		t.Fatal("spans recorded without Trace")
	}
	if got := res.Chronogram(40); !strings.Contains(got, "no trace") {
		t.Fatalf("got %q", got)
	}
}

func TestChronogramSVG(t *testing.T) {
	reg := heavyRegistry(500_000)
	s := compileFarm(t, reg, 4, arch.Ring(4))
	res, err := Run(s, reg, Options{Iters: 1, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	svg := res.ChronogramSVG(400, 14)
	for _, want := range []string{"<svg", "</svg>", "P0", "P3", "<title>square", "ms</text>"} {
		if !strings.Contains(svg, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// No trace: placeholder.
	empty := &Result{Busy: make([]float64, 2)}
	if !strings.Contains(empty.ChronogramSVG(200, 10), "no trace") {
		t.Fatal("placeholder missing")
	}
}

func TestSimulationDeterministic(t *testing.T) {
	// Two runs of the same schedule produce bit-identical timing: the
	// virtual-time model must not depend on map iteration order or any
	// other nondeterminism.
	run := func() *Result {
		reg := heavyRegistry(321_000)
		s := compileFarm(t, reg, 4, arch.Ring(4))
		res, err := Run(s, reg, Options{Iters: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Total != b.Total {
		t.Fatalf("totals differ: %v vs %v", a.Total, b.Total)
	}
	for i := range a.Busy {
		if a.Busy[i] != b.Busy[i] {
			t.Fatalf("busy[%d] differs: %v vs %v", i, a.Busy[i], b.Busy[i])
		}
	}
}
