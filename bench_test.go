package skipper

// One testing.B benchmark per experiment of the paper's evaluation (see
// DESIGN.md §4 and EXPERIMENTS.md), plus microbenchmarks for the core
// stages (compiler, skeleton library, executive). Kernel and transport
// benchmarks live beside their code: internal/vision, internal/video,
// internal/harness (farm round trip), internal/exec (straggler farm).
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"testing"

	"skipper/internal/harness"
	"skipper/internal/skel"
	"skipper/internal/track"
	"skipper/internal/video"
)

// --- E1: tracking/reinit latency table -------------------------------------

func BenchmarkE1_TrackingLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E1(io.Discard, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: scaling with processor count ---------------------------------------

func BenchmarkE2_Scaling(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.E2(io.Discard, 10, []int{p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E3: skeleton vs hand-crafted -------------------------------------------

func BenchmarkE3_SkeletonVsHandcraft(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E3(io.Discard, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: emulation ≡ executive ≡ simulator ----------------------------------

func BenchmarkE4_PathEquivalence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.E4(io.Discard, 10)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Identical {
			b.Fatal("paths diverged")
		}
	}
}

// --- E5: dynamic load balancing vs static split -----------------------------

func BenchmarkE5_LoadBalancing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E5(io.Discard, 32, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: itermem frame pacing ------------------------------------------------

func BenchmarkE6_FramePacing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E6(io.Discard, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: scm labelling speedup -----------------------------------------------

func BenchmarkE7_LabellingSpeedup(b *testing.B) {
	for _, p := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := harness.E7(io.Discard, []int{p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: tf divide-and-conquer -------------------------------------------------

func BenchmarkE8_TaskFarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E8(io.Discard, []int{4}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: programmability accounting (compiler throughput) ---------------------

func BenchmarkE9_Programmability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E9(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- core microbenchmarks ------------------------------------------------------

// BenchmarkCompile measures the full front end + expansion + mapping on the
// paper's application (the paper's programmability story rests on this
// being fast: "almost instantaneous to get variant versions").
func BenchmarkCompile(b *testing.B) {
	scene := video.NewScene(512, 512, 3, 1)
	for i := 0; i < b.N; i++ {
		reg, _ := track.NewRegistry(scene, nil)
		prog, err := Compile(track.ProgramSource(8, 512, 512), reg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := prog.MapOnto(Ring(8), Structured); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecutiveIteration measures one iteration of the tracking
// application on the goroutine backend (real parallelism, host time).
func BenchmarkExecutiveIteration(b *testing.B) {
	scene := video.NewScene(256, 256, 2, 1)
	reg, _ := track.NewRegistry(scene, nil)
	prog, err := Compile(track.ProgramSource(8, 256, 256), reg)
	if err != nil {
		b.Fatal(err)
	}
	dep, err := prog.MapOnto(Ring(8), Structured)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if _, err := dep.Run(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEmulationIteration measures the sequential emulation path.
func BenchmarkEmulationIteration(b *testing.B) {
	scene := video.NewScene(256, 256, 2, 1)
	reg, _ := track.NewRegistry(scene, nil)
	prog, err := Compile(track.ProgramSource(8, 256, 256), reg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := prog.Emulate(b.N); err != nil {
		b.Fatal(err)
	}
}

// Skeleton library: operational vs declarative df on a host-parallel
// workload.
func benchDFWorkload() ([]int, func(int) int, func(int, int) int) {
	xs := make([]int, 512)
	for i := range xs {
		xs[i] = i
	}
	comp := func(x int) int {
		s := 0
		for k := 0; k < 2000; k++ {
			s += (x + k) % 7
		}
		return s
	}
	acc := func(a, b int) int { return a + b }
	return xs, comp, acc
}

func BenchmarkSkelDFSeq(b *testing.B) {
	xs, comp, acc := benchDFWorkload()
	for i := 0; i < b.N; i++ {
		skel.DFSeq(8, comp, acc, 0, xs)
	}
}

func BenchmarkSkelDFPar(b *testing.B) {
	xs, comp, acc := benchDFWorkload()
	for i := 0; i < b.N; i++ {
		skel.DFPar(8, comp, acc, 0, xs)
	}
}

func BenchmarkSkelSCMPar(b *testing.B) {
	xs, comp, acc := benchDFWorkload()
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
			s += comp(x)
		}
		return s
	}
	merge := func(v []int) int {
		s := 0
		for _, x := range v {
			s += acc(0, x)
		}
		return s
	}
	for i := 0; i < b.N; i++ {
		skel.SCMPar(8, split, sum, merge, xs)
	}
}

// Pool-backed df vs the per-call shared-pool wrapper on the same workload:
// the pool variant reuses persistent workers instead of spawning per call.
func BenchmarkSkelDFPool(b *testing.B) {
	xs, comp, acc := benchDFWorkload()
	pool := skel.NewPool(8)
	defer pool.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skel.DFOn(pool, 8, comp, acc, 0, xs)
	}
}

// --- E10: mapping strategy ablation -----------------------------------------

func BenchmarkE10_StrategyAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E10(io.Discard, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: topology sensitivity ------------------------------------------------

func BenchmarkE11_Topologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.E11(io.Discard, 8); err != nil {
			b.Fatal(err)
		}
	}
}
