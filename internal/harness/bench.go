package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"skipper/internal/exec/transport"
	"skipper/internal/obsv"
	"skipper/internal/skel"
	"skipper/internal/track"
	"skipper/internal/video"
	"skipper/internal/vision"
)

// BenchSchema versions the BENCH_N.json format so the tier-1 guard test and
// future PRs can parse perf snapshots defensively.
const BenchSchema = "skipper-bench/v1"

// BenchEntry is one benchmark measurement in machine-readable form.
type BenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Iterations  int     `json:"iterations"`
}

// BenchReport is the perf snapshot written to BENCH_1.json: wall-clock and
// allocation figures for the headline experiments (E1, E5, E7) plus the
// hot-path micro-benchmarks, and the E1 latency table in simulated time so
// the envelope guard can keep the calibration honest.
type BenchReport struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	E1         *E1Result    `json:"e1"`
	Results    []BenchEntry `json:"results"`
}

// RunBenchReport measures the benchmark suite and returns the report.
// Progress lines go to w (one per benchmark). iters is the stream length
// used by the simulation-backed experiments. A non-empty filter restricts
// the run to benchmarks whose name contains any of its comma-separated
// substrings and skips the E1 latency table — the shape CI smoke jobs use
// to get a quick transport snapshot without paying for the full suite;
// full (unfiltered) runs are what BENCH_<pr>.json snapshots and the
// envelope guard need.
func RunBenchReport(w io.Writer, iters int, filter string) (*BenchReport, error) {
	rep := &BenchReport{
		Schema:     BenchSchema,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	if filter == "" {
		// E1 latency table (simulated time) for the envelope guard.
		e1, err := E1(io.Discard, iters)
		if err != nil {
			return nil, err
		}
		rep.E1 = e1
	}

	var filters []string
	if filter != "" {
		filters = strings.Split(filter, ",")
	}
	matches := func(name string) bool {
		if len(filters) == 0 {
			return true
		}
		for _, f := range filters {
			if strings.Contains(name, f) {
				return true
			}
		}
		return false
	}

	var firstErr error
	record := func(name string, fn func(b *testing.B)) {
		if firstErr != nil {
			return
		}
		if !matches(name) {
			return
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		e := BenchEntry{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Iterations:  r.N,
		}
		rep.Results = append(rep.Results, e)
		fmt.Fprintf(w, "  %-28s %12.0f ns/op %10d B/op %8d allocs/op\n",
			e.Name, e.NsPerOp, e.BytesPerOp, e.AllocsPerOp)
	}

	// Experiment-level benchmarks (host wall-clock of the full pipeline).
	record("E1_TrackingLatency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := E1(io.Discard, iters); err != nil {
				firstErr = err
				b.Skip(err)
			}
		}
	})
	record("E5_LoadBalancing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := E5(io.Discard, 32, 8); err != nil {
				firstErr = err
				b.Skip(err)
			}
		}
	})
	record("E7_Labelling_P8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := E7(io.Discard, []int{8}); err != nil {
				firstErr = err
				b.Skip(err)
			}
		}
	})

	// Hot-path micro-benchmarks: the kernels the tentpole optimizations
	// target, measured with and without scratch/buffer reuse.
	scene := video.NewScene(512, 512, 3, 1)
	frame := scene.Next()
	record("Label512", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vision.Label(frame, video.DetectThreshold)
		}
	})
	record("Label512_Scratch", func(b *testing.B) {
		var s vision.LabelScratch
		for i := 0; i < b.N; i++ {
			s.Label(frame, video.DetectThreshold)
		}
	})
	record("Components512_Scratch", func(b *testing.B) {
		var s vision.LabelScratch
		for i := 0; i < b.N; i++ {
			s.Components(frame, video.DetectThreshold, track.MinMarkArea)
		}
	})
	record("ThresholdInto512", func(b *testing.B) {
		dst := vision.NewImage(frame.W, frame.H)
		for i := 0; i < b.N; i++ {
			vision.ThresholdInto(dst, frame, video.DetectThreshold)
		}
	})
	record("DetectMarks512Band", func(b *testing.B) {
		win := vision.Extract(frame, vision.Rect{X0: 0, Y0: 0, X1: 512, Y1: 64})
		for i := 0; i < b.N; i++ {
			track.DetectMarks(win)
		}
	})
	record("SceneNextInto512", func(b *testing.B) {
		s := video.NewScene(512, 512, 3, 2)
		buf := vision.NewImage(512, 512)
		for i := 0; i < b.N; i++ {
			s.NextInto(buf)
		}
	})

	// Tiled vs naive morphology (DESIGN.md §14): the separable, cache-tiled
	// 3×3 dilate against the straightforward 9-tap loop, same frame. The
	// naive figure is the reference the BENCH_7 guard prices the tiling
	// against — the ratio must hold even on a single CPU, where only the
	// separability and the flat row addressing help.
	record("Dilate512_naive", func(b *testing.B) {
		dst := vision.NewImage(frame.W, frame.H)
		for i := 0; i < b.N; i++ {
			naiveDilate3(dst, frame)
		}
	})
	record("Dilate512_tiled", func(b *testing.B) {
		dst := vision.NewImage(frame.W, frame.H)
		for i := 0; i < b.N; i++ {
			vision.Dilate3Into(dst, frame)
		}
	})

	// Skeleton pool vs per-call goroutine spawning, 8-window frame shape.
	pool := skel.NewPool(8)
	defer pool.Close()
	windows := make([]int, 8)
	for i := range windows {
		windows[i] = 40_000 + i*1_000
	}
	comp := func(n int) int {
		s := 0
		for k := 0; k < n; k++ {
			s += k % 7
		}
		return s
	}
	acc := func(a, b int) int { return a + b }
	record("SkelDF_Pool8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skel.DFOn(pool, 8, comp, acc, 0, windows)
		}
	})

	// Transport backends: one farm task/reply round trip, in-process vs a
	// real localhost TCP hub/client pair, shipping the 512×64 window band
	// the tracking schedule sends per df window. The delta is the
	// per-window price of running the executive as OS processes.
	for _, tr := range Transports {
		tr := tr
		record("Transport_"+tr+"_FarmRoundTrip", func(b *testing.B) {
			pair, err := NewTransportPair(tr)
			if err != nil {
				firstErr = err
				b.Skip(err)
			}
			defer pair.Close()
			BenchFarmRoundTrip(b, pair, BenchWindowPayload())
		})
	}

	// Tracing overhead: the identical scalar round trip with the event
	// recorder disarmed vs armed. The "off" figure is the hot path with the
	// nil-recorder branches compiled in (the price every untraced run pays —
	// pinned at ~0 by the memtransport alloc guard) and the on/off delta is
	// the cost of actually recording send/recv/enqueue/park/wake events.
	for _, mode := range []string{"off", "on"} {
		mode := mode
		record("Trace_mem_FarmRoundTrip_"+mode, func(b *testing.B) {
			pair, err := NewTransportPair("mem")
			if err != nil {
				firstErr = err
				b.Skip(err)
			}
			defer pair.Close()
			if mode == "on" {
				pair.Master.(transport.TraceSink).SetTrace(obsv.NewRecorder(2, 1<<12))
			}
			BenchFarmRoundTrip(b, pair, BenchScalarPayload())
		})
	}

	// Always-on recorder overhead on the real data plane: the same window-band
	// farm round trip over the shm transport with the flight-sized ring
	// disarmed vs armed on both ends. This is exactly what every fleet worker
	// pays for the flight recorder, so bench_guard_test.go holds the on/off
	// delta to a couple of allocs and a thin latency margin.
	for _, mode := range []string{"off", "on"} {
		mode := mode
		record("Trace_shm_FarmRoundTrip_"+mode, func(b *testing.B) {
			pair, err := NewTransportPair("shm")
			if err != nil {
				firstErr = err
				b.Skip(err)
			}
			defer pair.Close()
			if mode == "on" {
				pair.Master.(transport.TraceSink).SetTrace(obsv.NewRecorder(2, obsv.FlightRingSize))
				pair.Worker.(transport.TraceSink).SetTrace(obsv.NewRecorder(2, obsv.FlightRingSize))
			}
			BenchFarmRoundTrip(b, pair, BenchWindowPayload())
		})
	}

	// Software-pipelined itermem (DESIGN.md §12): the per-frame period of a
	// blocking-grab itermem loop with the pipeline off vs on. Off is the
	// sequential executive (grab + farm per frame); on overlaps frame k+1's
	// grab wait with frame k's farm, so the on/off ratio is the measured
	// pipeline speedup the tier-1 guard keeps honest.
	for _, mode := range []string{"off", "on"} {
		mode := mode
		record("ItermemPipelined_"+mode, func(b *testing.B) {
			BenchItermemPipelined(b, mode == "on")
		})
	}

	// Deep pipelining (DESIGN.md §14): the per-frame period of a three-farm
	// itermem loop at the historical two-stage split vs cut at every farm
	// boundary. The delta is what MEM-read sinking buys: at depth 2 the
	// whole farm chain serializes inside one stage; at full depth
	// consecutive frames occupy consecutive farms.
	for _, depth := range []string{"2", "Full"} {
		depth := depth
		record("ItermemDepth"+depth, func(b *testing.B) {
			d := 0
			if depth == "2" {
				d = 2
			}
			BenchItermemDepth(b, d)
		})
	}

	// Straggler-fleet farm (DESIGN.md §16): one ring(8) worker's replies are
	// scripted 10x slower than the speculation threshold. Off, every
	// iteration's fold gates on the straggler; on, the master duplicates the
	// stalled task onto an idle worker and folds the duplicate's reply. The
	// off/on period ratio is the measured speculation speedup, held >= 1.5x
	// by checkSpeculation in bench_guard_test.go.
	for _, mode := range []string{"off", "on"} {
		mode := mode
		record("StragglerFarm_"+mode, func(b *testing.B) {
			BenchStragglerFarm(b, mode == "on")
		})
	}

	// Skipper-as-a-service scheduler overhead (DESIGN.md §13): one tiny job
	// through the whole control-plane path — Submit, FIFO queue, dispatch,
	// in-process run, terminal status. Guarded by a generous ceiling in
	// bench_guard_test.go so scheduler regressions fail tier-1.
	record("ServeJobThroughput", func(b *testing.B) {
		srv, err := NewBenchServer()
		if err != nil {
			firstErr = err
			b.Skip(err)
		}
		defer srv.Close()
		BenchServeJobThroughput(b, srv)
	})

	if firstErr != nil {
		return nil, firstErr
	}
	return rep, nil
}

// WriteBenchJSON marshals the report and writes it to path.
func WriteBenchJSON(rep *BenchReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// ReadBenchJSON loads a BENCH_N.json snapshot.
func ReadBenchJSON(path string) (*BenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	if rep.Schema != BenchSchema {
		return nil, fmt.Errorf("harness: unsupported bench schema %q (want %q)", rep.Schema, BenchSchema)
	}
	return &rep, nil
}

// naiveDilate3 is the textbook 3x3 dilation — a bounds-checked 9-tap max
// per pixel — kept as the pricing reference for Dilate512_tiled. It must
// stay deliberately artless: any cleverness here silently shrinks the
// speedup the BENCH_7 guard asserts.
func naiveDilate3(dst, im *vision.Image) {
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			var m uint8
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if v := im.At(x+dx, y+dy); v > m {
						m = v
					}
				}
			}
			dst.Pix[y*im.W+x] = m
		}
	}
}
