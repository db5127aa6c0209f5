package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The service workload: a control plane with a fleet of in-process workers,
// driven over HTTP by closed-loop clients that each POST the stock tracking
// job and poll it to a terminal state before sending the next.
const (
	serveWorkers  = 4
	serveClients  = 2
	serveRate     = 120 // nominal jobs/s turning -seconds into a job count, see frameWorkload.rate
	serveSeeds    = 8   // distinct scenes, so jobs are not all the same job
	serveIters    = 20
	servePoll     = time.Millisecond
	serveWarmup   = 2 * serveSeeds
	serveJobLimit = 60 * time.Second
)

// stockJob is the tracking job every client submits; only the scene
// varies. Deterministic because the tracking accumulator is order-sensitive
// in its last bit (see trackingApp) and the oracle compares digests.
func stockJob(seed int64) sutJob {
	return sutJob{Topology: "ring", Procs: 4, Width: 128, Height: 128,
		Vehicles: 2, Seed: seed, Iters: serveIters, Deterministic: true}
}

// jobOracle returns the digest the service must report for each of the
// serveSeeds scenes starting at scene: the stock application run through
// the sequential emulator on the same scene.
func jobOracle(scene int64) ([]jobWant, error) {
	want := make([]jobWant, serveSeeds)
	for i := range want {
		job := stockJob(scene + int64(i))
		reg, rec := sutTrackRegistry(sutNewScene(job.Width, job.Height, job.Vehicles, job.Seed), nil)
		prog, err := sutParse(sutTrackSource(job.Procs, job.Width, job.Height))
		if err != nil {
			return nil, err
		}
		if _, err := sutCheck(prog); err != nil {
			return nil, err
		}
		if _, err := sutEmulator(reg, sutEmuOptions{MaxIters: job.Iters}).Run(prog); err != nil {
			return nil, err
		}
		want[i] = jobWant{job, fmt.Sprintf("%016x", sutJobDigest(rec.Results))}
	}
	return want, nil
}

// jobWant is a job and the digest a correct service reports for it.
type jobWant struct {
	job    sutJob
	digest string
}

// service is a running control plane with its fleet.
type service struct {
	base    string // http://host:port
	client  *http.Client
	closeFn func()
}

// startService brings up serve.New plus serveWorkers joined fleet workers.
func startService() (*service, error) {
	srv, err := sutServe(sutServeConfig{JobTimeout: serveJobLimit})
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}
	var wg sync.WaitGroup
	var leave []func() error
	// Workers leave before the control plane closes: a worker that is only
	// told to stop keeps its connection, and Close then waits out a 2 s timer.
	closeFn := func() {
		tr.CloseIdleConnections()
		for _, l := range leave {
			l()
		}
		wg.Wait()
		srv.Close()
	}
	for i := 0; i < serveWorkers; i++ {
		w, err := sutJoinFleet(srv.FleetAddr(), fmt.Sprintf("w%d", i), 10*time.Second)
		if err != nil {
			closeFn()
			return nil, err
		}
		leave = append(leave, w.Leave)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Serve() // returns once the worker has left
		}()
	}
	return &service{
		base:    "http://" + srv.Addr(),
		client:  &http.Client{Transport: tr, Timeout: serveJobLimit},
		closeFn: closeFn,
	}, nil
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	submit, done int64 // clock ns: POST sent, terminal state observed
	ok           bool  // accepted, finished "done", digest matches the oracle
	elapsedMS    int64 // the job's own started → finished span
	cycle        int64 // since the same client's previous job was done
}

// runJob submits one job and polls it to a terminal state.
func (s *service) runJob(clk clock, want jobWant, tr *tracer, idx int32) jobRecord {
	rec := jobRecord{submit: clk.now()}
	body, _ := json.Marshal(want.job)
	var accepted struct{ ID string }
	code, err := s.call(clk, tr, idx, "http.post_job", http.MethodPost, "/jobs", body, &accepted)
	if err != nil || code != http.StatusAccepted {
		rec.done = clk.now()
		return rec
	}
	for {
		var view sutJobView
		code, err := s.call(clk, tr, idx, "http.poll_job", http.MethodGet, "/jobs/"+accepted.ID, nil, &view)
		if err != nil || code != http.StatusOK {
			rec.done = clk.now()
			return rec
		}
		switch view.Status {
		case "done", "failed", "cancelled":
			rec.done = clk.now()
			rec.ok = view.Status == "done" && view.Digest == want.digest
			rec.elapsedMS = view.ElapsedMS
			return rec
		}
		time.Sleep(servePoll)
	}
}

// call performs one HTTP request and decodes a JSON reply into out.
func (s *service) call(clk clock, tr *tracer, job int32, span, method, path string, body []byte, out any) (int, error) {
	t0 := clk.now()
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if tr != nil && tr.active.Load() {
		tr.record(tr.nameID(span), job, -1, t0, clk.now())
	}
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 && out != nil {
		err = json.Unmarshal(data, out)
	}
	return resp.StatusCode, err
}

// scrape reads one counter or histogram series from /metrics.
func (s *service) scrape(names ...string) (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		for _, n := range names {
			if rest, ok := strings.CutPrefix(line, n+" "); ok {
				out[n], _ = strconv.ParseFloat(strings.TrimSpace(rest), 64)
			}
		}
	}
	return out, nil
}

// serveWindow is one measured stretch of jobs against one service.
type serveWindow struct {
	plan    plan // segments of framesPerSegment jobs
	jobs    []jobRecord
	order   []int32 // job indices in completion order
	start   []int64
	mem     []runtime.MemStats
	heap    uint64                // live heap once the last job is done
	metrics [2]map[string]float64 // /metrics at the first and last boundary
}

var serveSeries = []string{
	"skipper_serve_queue_wait_seconds_sum", "skipper_serve_queue_wait_seconds_count",
	"skipper_serve_jobs_rejected_total", "skipper_serve_job_requeues_total",
}

// runServeWindow drives the clients through warm-up, then p.segments
// segments of p.framesPerSegment jobs (a multiple of serveSeeds, so every
// segment submits the same mix); the seed decides which scene goes first.
// The window opens with no job in flight: the clients finish the warm-up
// and stop. heap_live_mb is read when the last job is done: the live heap
// of the idle service after a fixed number of jobs (it keeps every job's
// record and results, about 30 KB each). Read at the opening it was
// whatever buffers of the warm-up jobs the service's pools happened to
// keep, 1.4-2.7 MB between identical runs.
func runServeWindow(s *service, clk clock, p plan, seed int64, want []jobWant, tr *tracer) *serveWindow {
	total := serveWarmup + p.segments*p.framesPerSegment
	w := &serveWindow{plan: p, jobs: make([]jobRecord, total), order: make([]int32, total),
		start: make([]int64, p.segments+1), mem: make([]runtime.MemStats, p.segments+1)}
	var next, completed atomic.Int64
	var mu sync.Mutex // a boundary is taken by whichever client completes its last job
	seg := 0
	boundary := func() {
		runtime.ReadMemStats(&w.mem[seg])
		if seg == 0 || seg == p.segments {
			w.metrics[min(seg, 1)], _ = s.scrape(serveSeries...)
		}
		if tr != nil {
			tr.active.Store(seg < p.segments)
		}
		w.start[seg] = clk.now()
		seg++
	}
	// drive runs the clients until job number `until` has been handed out.
	drive := func(until int) {
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				last := clk.now()
				for {
					i := int(next.Add(1) - 1)
					if i >= until {
						next.Add(-1)
						return
					}
					w.jobs[i] = s.runJob(clk, want[(uint64(seed)+uint64(i))%serveSeeds], tr, int32(i))
					w.jobs[i].cycle, last = w.jobs[i].done-last, w.jobs[i].done
					n := int(completed.Add(1))
					w.order[n-1] = int32(i)
					mu.Lock()
					if n > serveWarmup && n == serveWarmup+seg*p.framesPerSegment {
						boundary()
					}
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
	drive(serveWarmup)
	boundary()
	drive(total)
	w.heap = liveHeap()
	return w
}

// segment returns the records of segment i in completion order and the
// segment's wall time in seconds.
func (w *serveWindow) segment(i int) ([]jobRecord, float64) {
	lo := serveWarmup + i*w.plan.framesPerSegment
	hi := lo + w.plan.framesPerSegment
	recs := make([]jobRecord, 0, hi-lo)
	for _, j := range w.order[lo:hi] {
		recs = append(recs, w.jobs[j])
	}
	return recs, float64(recs[len(recs)-1].done-w.start[i]) / 1e9
}

// perJob computes, one value per segment each: jobs/s over the segment's
// wall time, the jobs/s the median client cycle sustains (the stall-robust
// rate, see window.typical), latency percentiles and allocations per job.
func (w *serveWindow) perJob() (rate, steady, p50, p95, allocs, kb []float64) {
	for i := 0; i < w.plan.segments; i++ {
		recs, secs := w.segment(i)
		lat, cycle := make([]float64, len(recs)), make([]float64, len(recs))
		for k, r := range recs {
			lat[k] = float64(r.done-r.submit) / 1e6
			cycle[k] = float64(r.cycle) / 1e9
		}
		n := float64(len(recs))
		rate = append(rate, n/secs)
		steady = append(steady, serveClients/median(cycle))
		p50 = append(p50, percentile(lat, 0.50))
		p95 = append(p95, percentile(lat, 0.95))
		allocs = append(allocs, float64(w.mem[i+1].Mallocs-w.mem[i].Mallocs)/n)
		kb = append(kb, float64(w.mem[i+1].TotalAlloc-w.mem[i].TotalAlloc)/1024/n)
	}
	return
}

// failed counts the measured jobs that were refused, did not finish "done"
// or reported a digest other than the oracle's.
func (w *serveWindow) failed() (failed, attempted int) {
	for _, j := range w.order[serveWarmup:] {
		attempted++
		if !w.jobs[j].ok {
			failed++
		}
	}
	return
}

// scale divides every value of a per-job series to express it per frame.
func scale(xs []float64, by float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * by
	}
	return out
}

// serveBlock is the number of consecutive completions timed together for
// the end-to-end metrics: a few rounds of the serveSeeds scenes, a quarter
// of a second on the reference box.
const serveBlock = 5 * serveSeeds

// perBlock computes jobs/s over wall time and the median job latency (ms)
// for each block of serveBlock jobs in completion order.
func (w *serveWindow) perBlock() (rate, p50 []float64) {
	measured := w.order[serveWarmup:]
	t0 := w.start[0]
	for lo := 0; lo+serveBlock <= len(measured); lo += serveBlock {
		lat := make([]float64, serveBlock)
		for k, j := range measured[lo : lo+serveBlock] {
			lat[k] = float64(w.jobs[j].done-w.jobs[j].submit) / 1e6
		}
		t1 := w.jobs[measured[lo+serveBlock-1]].done
		rate = append(rate, serveBlock*1e9/float64(t1-t0))
		p50 = append(p50, percentile(lat, 0.50))
		t0 = t1
	}
	return
}

// endToEnd expresses the window in the benchmark's common end-to-end
// metrics. A served job is serveIters frames, so frames/s is jobs/s times
// that, and the frame latency is the job latency amortized over its frames:
// what one frame costs a client of the service, compile, placement and
// session bring-up included.
//
// Like window.endToEnd the two timings say what the service does while the
// host leaves it alone, but not from each job's shortest repetition: two
// clients' jobs overlap, and a job's shortest repetition is the one that
// met no other job. The window is cut into blocks of serveBlock
// completions instead, and the values are those of the best tenth of the
// blocks: the 90th percentile of their wall-clock rates, the 10th of their
// median latencies.
func (w *serveWindow) endToEnd() map[string]summary {
	_, _, _, _, allocs, kb := w.perJob()
	rate, p50 := w.perBlock()
	rate, p50 = scale(rate, serveIters), scale(p50, 1.0/serveIters)
	return map[string]summary{
		"frames_per_s":         quiet("1/s", percentile(rate, 0.90), rate),
		"frame_latency_p50_ms": quiet("ms", percentile(p50, 0.10), p50),
		"allocs_per_frame":     overSegments("count", scale(allocs, 1.0/serveIters)),
		"alloc_kb_per_frame":   overSegments("KB", scale(kb, 1.0/serveIters)),
		"heap_live_mb":         single("MB", float64(w.heap)/(1<<20)),
	}
}

// serveLayerMetrics assembles the service's per-layer metrics from an
// untraced reference window and a traced one of the same shape.
func serveLayerMetrics(ref, tw *serveWindow) map[string]summary {
	rate, steady, p50, p95, allocs, _ := ref.perJob()
	m := map[string]summary{
		"serve.jobs_per_s":         overSegments("1/s", rate),
		"serve.job_latency_p50_ms": overSegments("ms", p50),
		"serve.job_latency_p95_ms": overSegments("ms", p95),
		"serve.allocs_per_job":     overSegments("count", allocs),
		"frame.median_rate_per_s":  overSegments("1/s", scale(steady, serveIters)),
		"frame.latency_p50_ms":     overSegments("ms", scale(p50, 1.0/serveIters)),
	}
	// Counters the service itself exports, over the window.
	d := func(name string) float64 { return ref.metrics[1][name] - ref.metrics[0][name] }
	if n := d("skipper_serve_queue_wait_seconds_count"); n > 0 {
		m["serve.queue_wait_ms_mean"] = single("ms", d("skipper_serve_queue_wait_seconds_sum")/n*1e3)
	}
	m["serve.rejected_429"] = single("count", d("skipper_serve_jobs_rejected_total"))
	m["serve.requeues"] = single("count", d("skipper_serve_job_requeues_total"))
	// What the control plane adds around a job: client-seen latency minus
	// the job's own started → finished span (reported in whole ms, rounded
	// down, hence the half).
	var over []float64
	for _, j := range ref.order[serveWarmup:] {
		if r := ref.jobs[j]; r.ok {
			over = append(over, float64(r.done-r.submit)/1e6-(float64(r.elapsedMS)+0.5))
		}
	}
	m["serve.sched_overhead_ms"] = single("ms", median(over))
	_, tracedSteady, _, _, _, _ := tw.perJob()
	m["bench.trace_overhead_ratio"] = single("ratio", median(steady)/median(tracedSteady)-1)
	return m
}

// serveBringUps measures set-up repeatedly: control plane up, workers
// joined, first job done, teardown.
func serveBringUps(want []jobWant) ([]float64, error) {
	return repeatSetup(func() (time.Duration, error) {
		t0 := time.Now()
		s, err := startService()
		if err != nil {
			return 0, err
		}
		rec := s.runJob(newClock(), want[0], nil, 0)
		s.closeFn()
		if !rec.ok {
			return 0, fmt.Errorf("serve_jobs: bring-up job failed")
		}
		return time.Since(t0), nil
	})
}

// planJobs sizes a serve window: segments of a whole number of seed mixes.
func planJobs(budget, segments int) plan {
	per := max(budget/segments/serveSeeds, 1) * serveSeeds
	return plan{segments: segments, framesPerSegment: per}
}
