// Command bench is the repository's benchmark: whole applications written
// against the system the way a SKiPPER user writes them, run wall-clock on
// every transport and measured from outside. See README.md in this
// directory; BENCHMARK.json at the repository root is its contract.
//
//	go run ./bench                       # every workload, untraced + traced
//	go run ./bench -workload label512_shm -trace 1
//	go run ./bench -selfcheck            # two full sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// result is what one workload run reports. The last line of standard
// output is exactly {correct, attempted, failed, metrics{value, unit}}.
type result struct {
	Workload  string             `json:"workload"`
	Trace     int                `json:"trace"`
	Scene     int64              `json:"scene"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]summary `json:"metrics"`
}

// options are the settings of one workload run.
type options struct {
	scene, seed int64
	seconds     float64
	trace       bool
	outDir      string
}

func (o options) result(workload string) *result {
	r := &result{Workload: workload, Scene: o.scene, Seed: o.seed, Seconds: o.seconds}
	if o.trace {
		r.Trace = 1
	}
	return r
}

func defaultProcs() int { return min(runtime.NumCPU(), 4) }

// workloads lists the streaming workloads; serve_jobs is run by runServe.
func workloads() []*frameWorkload {
	return []*frameWorkload{
		{name: "track512_mem", app: trackingApp(512, 512, 3), transport: "mem", rate: 2000},
		{name: "label512_mem", app: labelApp(512, 512, 3), transport: "mem", rate: 1500},
		{name: "label512_mem_p1", app: labelApp(512, 512, 3), transport: "mem", rate: 1500, gomaxprocs: 1},
		{name: "label512_shm", app: labelApp(512, 512, 3), transport: "shm", rate: 1500},
		{name: "quad256_tcp", app: quadApp(256, 256, 2), transport: "tcp", rate: 1000},
		{name: "track512_paced_unix", app: trackingApp(512, 512, 3), transport: "unix", rate: 250,
			pipeline: true, every: 4_000_000},
	}
}

const serveName = "serve_jobs"

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return append(names, serveName)
}

// Share of -seconds each of the two windows of a traced run gets; the rest
// is left to the layer probes.
const tracedShare = 0.35

// runFrames measures one streaming workload.
func runFrames(w *frameWorkload, o options) (*result, error) {
	runtime.GOMAXPROCS(gomaxprocs(w))
	ring := renderRing(w.app.w, w.app.h, w.app.vehicles, o.scene, o.seed)
	setupSecs, setups, err := bringUps(w, ring)
	if err != nil {
		return nil, err
	}
	res := o.result(w.name)
	var windows []*window
	if !o.trace {
		segs, per := planSegments(int(w.rate * o.seconds))
		win, _, err := runWindow(w, ring, plan{segs, per}, false)
		if err != nil {
			return nil, err
		}
		windows = []*window{win}
		res.Metrics = win.endToEnd(ring.bytes())
	} else {
		per := max(int(w.rate*o.seconds*tracedShare)/3/period, 1) * period
		ref, _, err := runWindow(w, ring, plan{3, per}, false)
		if err != nil {
			return nil, err
		}
		tw, tr, err := runWindow(w, ring, plan{3, per}, true)
		if err != nil {
			return nil, err
		}
		windows = []*window{ref, tw}
		m, err := layerMetrics(w, ring, setups, ref, tw, tr)
		if err != nil {
			return nil, err
		}
		m["distrib.job_compile_ms"] = jobCompileMS()
		if res.Metrics, err = complete(perLayerDefs(), m); err != nil {
			return nil, err
		}
		path, err := tr.write(o.outDir, w.name)
		if err != nil {
			return nil, err
		}
		fmt.Printf("spans: %s (%d dropped)\n", path, tr.dropped.Load())
	}
	// Every displayed frame of every window is checked against the emulator.
	longest := 0
	for _, win := range windows {
		longest = max(longest, win.plan.total())
	}
	or, err := emulate(w.app, ring, longest)
	if err != nil {
		return nil, err
	}
	for _, win := range windows {
		res.Attempted += win.plan.total()
		res.Failed += or.verify(win.res.Outputs)
	}
	res.Correct = res.Failed == 0
	if !o.trace {
		// The second batch of set-ups, as far from the first as the run
		// allows (see setupTime).
		again, _, err := bringUps(w, ring)
		if err != nil {
			return nil, err
		}
		res.Metrics["setup_s"] = setupTime(append(setupSecs, again...))
		if res.Metrics, err = complete(endToEndDefs, res.Metrics); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// jobCompileMS times distrib.Job.Compile on the stock service job.
func jobCompileMS() summary {
	ms := make([]float64, setupRuns)
	for i := range ms {
		t0 := time.Now()
		if _, _, _, err := sutJobCompile(stockJob(0)); err != nil {
			panic("bench: stock job does not compile: " + err.Error())
		}
		ms[i] = float64(time.Since(t0)) / 1e6
	}
	return overSegments("ms", ms)
}

// runServe measures the service workload.
func runServe(o options) (*result, error) {
	runtime.GOMAXPROCS(defaultProcs())
	want, err := jobOracle(o.scene)
	if err != nil {
		return nil, err
	}
	setupSecs, err := serveBringUps(want)
	if err != nil {
		return nil, err
	}
	svc, err := startService()
	if err != nil {
		return nil, err
	}
	defer svc.closeFn()
	res := o.result(serveName)
	clk := newClock()
	budget := serveRate * o.seconds
	if !o.trace {
		win := runServeWindow(svc, clk, planJobs(int(budget), 10), o.seed, want, nil)
		res.Failed, res.Attempted = win.failed()
		res.Metrics = win.endToEnd()
		again, err := serveBringUps(want) // the second batch, see setupTime
		if err != nil {
			return nil, err
		}
		res.Metrics["setup_s"] = setupTime(append(setupSecs, again...))
		res.Metrics, err = complete(endToEndDefs, res.Metrics)
	} else {
		p := planJobs(int(budget*tracedShare), 3)
		ref := runServeWindow(svc, clk, p, o.seed, want, nil)
		tr := newTracer(clk, nil)
		tw := runServeWindow(svc, clk, p, o.seed, want, tr)
		tr.finish(serveWarmup, len(tw.jobs), func(k int) (int64, int64) { return tw.jobs[k].submit, tw.jobs[k].done })
		f1, a1 := ref.failed()
		f2, a2 := tw.failed()
		res.Failed, res.Attempted = f1+f2, a1+a2
		m := serveLayerMetrics(ref, tw)
		m["distrib.job_compile_ms"] = jobCompileMS()
		if res.Metrics, err = complete(perLayerDefs(), m); err != nil {
			return nil, err
		}
		var path string
		if path, err = tr.write(o.outDir, serveName); err == nil {
			fmt.Printf("spans: %s (%d dropped)\n", path, tr.dropped.Load())
		}
	}
	res.Correct = res.Failed == 0
	return res, err
}

// runOne runs the named workload in this process.
func runOne(name string, o options) (*result, error) {
	if name == serveName {
		return runServe(o)
	}
	for _, w := range workloads() {
		if w.name == name {
			return runFrames(w, o)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

// print writes the human-readable table and, last, the driver's line.
func (r *result) print() {
	names := sortedKeys(r.Metrics)
	fmt.Printf("%s  trace=%d scene=%d seed=%d seconds=%g  GOMAXPROCS=%d\n",
		r.Workload, r.Trace, r.Scene, r.Seed, r.Seconds, runtime.GOMAXPROCS(0))
	for _, n := range names {
		s := r.Metrics[n]
		if s.Samples == 0 {
			continue // a layer this workload does not exercise
		}
		fmt.Printf("  %-36s %14.4f %-6s min %.4f max %.4f n=%d\n", n, s.Value, s.Unit, s.Min, s.Max, s.Samples)
	}
	fmt.Printf("  %-36s %14.6f %-6s %d of %d\n", "fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Failed, r.Attempted)
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]vu{}}
	for n, s := range r.Metrics {
		line.Metrics[n] = vu{s.Value, s.Unit}
	}
	out, _ := json.Marshal(line)
	fmt.Println(string(out))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSet runs every workload, each in its own child process so no
// workload inherits another's heap, untraced then traced.
func runSet(o options, traces []int) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var all []*result
	for _, name := range workloadNames() {
		for _, t := range traces {
			tmp := filepath.Join(o.outDir, fmt.Sprintf("%s.trace%d.json", name, t))
			cmd := exec.Command(self, "-workload", name, "-scene", fmt.Sprint(o.scene), "-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(t), "-json", tmp, "-out", o.outDir)
			cmd.Stderr = os.Stderr
			out, runErr := cmd.Output()
			// The child's last line is for the driver; show the table only.
			lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
			fmt.Println(strings.Join(lines[:max(len(lines)-1, 0)], "\n"))
			data, err := os.ReadFile(tmp)
			if err != nil {
				return nil, fmt.Errorf("%s trace=%d: no result (%v)", name, t, runErr)
			}
			var r result
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, err
			}
			os.Remove(tmp)
			all = append(all, &r)
		}
	}
	return all, nil
}

func main() {
	workload := flag.String("workload", "", "run one workload in this process (default: all, each in a child process)")
	scene := flag.Int64("scene", 5, "what the video shows (video.NewScene seed); 11 is the hold-out scene kept for validating claims")
	seed := flag.Int64("seed", 5, "where in the replay cycle a run starts and the order jobs are submitted in")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets and compare them against the bounds in BENCHMARK.json")
	jsonOut := flag.String("json", "", "also write the machine-readable result to this file")
	outDir := flag.String("out", filepath.Join("bench", "out"), "directory for span files")
	flag.Parse()
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	o := options{scene: *scene, seed: *seed, seconds: *seconds, outDir: *outDir}
	traces := []int{0, 1}
	if *trace >= 0 {
		traces = []int{*trace}
	}

	if *workload != "" {
		if len(traces) != 1 {
			fail(fmt.Errorf("-workload needs -trace 0 or -trace 1"))
		}
		o.trace = traces[0] == 1
		r, err := runOne(*workload, o)
		if err != nil {
			fail(err)
		}
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, r); err != nil {
				fail(err)
			}
		}
		r.print()
		if !r.Correct {
			os.Exit(1)
		}
		return
	}

	sets := 1
	if *selfcheck {
		sets = 2
	}
	var runs [][]*result
	failed := false
	for i := 0; i < sets; i++ {
		set, err := runSet(o, traces)
		if err != nil {
			fail(err)
		}
		for _, r := range set {
			failed = failed || !r.Correct
		}
		runs = append(runs, set)
	}
	if *jsonOut != "" {
		doc := map[string]any{
			"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": defaultProcs(),
			"scene": *scene, "seed": *seed, "seconds": *seconds, "sets": runs, "claim": nil,
		}
		if err := writeJSON(*jsonOut, doc); err != nil {
			fail(err)
		}
		fmt.Println("wrote", *jsonOut)
	}
	if len(traces) == 2 {
		explainShm(runs[0])
	}
	if *selfcheck && !compareSets(runs[0], runs[1]) {
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// explainShm checks that what the traced run says the shm plane adds —
// codec time plus wire time for the values that cross processors —
// accounts for the latency label512_shm shows over label512_mem. The
// serial figure assumes every encode, decode and round trip of a frame sits
// on the blocking chain; the parallel one spreads them over the usable
// cores. A gap outside that range (by more than 25 %) is unattributed.
func explainShm(set []*result) {
	get := func(workload string, trace int, metric string) float64 {
		for _, r := range set {
			if r.Workload == workload && r.Trace == trace {
				return r.Metrics[metric].Value
			}
		}
		return 0
	}
	gap := (get("label512_shm", 0, "frame_latency_p50_ms") - get("label512_mem", 0, "frame_latency_p50_ms")) * 1e3
	codec := get("label512_shm", 1, "value.codec_us_per_frame")
	calls := get("label512_shm", 1, "fn.label_band.calls_per_frame")
	// The round-trip probe encodes and decodes its payload too, so the wire
	// share of one round trip is what remains after the codec's.
	wire := max(calls*get("label512_shm", 1, "transport.roundtrip_us")-codec, 0)
	serial, parallel := codec+wire, (codec+wire)/float64(defaultProcs())
	verdict := "attributed"
	if gap < 0.75*parallel || gap > 1.25*serial {
		verdict = fmt.Sprintf("UNATTRIBUTED: %.0f us outside the explained range", gap-min(max(gap, parallel), serial))
	}
	fmt.Printf("\nlabel512_shm - label512_mem frame_latency_p50: %.0f us; codec %.0f us + wire %.0f us per frame explain %.0f (spread over %d cores) to %.0f us (serial): %s\n",
		gap, codec, wire, parallel, defaultProcs(), serial, verdict)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
