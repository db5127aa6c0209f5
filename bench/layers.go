package main

import (
	"sort"
	"sync"
	"time"
)

// framePeriodNS is the paper's 25 Hz camera period, the deadline a closed
// loop frame is held to (an open-loop workload is held to its own period).
const framePeriodNS int64 = 40_000_000

// layerMetrics assembles the per-layer metrics of a streaming workload from
// its set-up runs, an untraced reference window, a traced window of the
// same shape and direct probes of the layers under it.
func layerMetrics(w *frameWorkload, ring *frameRing, setups []*window, ref, tw *window, tr *tracer) (map[string]summary, error) {
	m := map[string]summary{}

	// Compiler and bring-up layers: medians over the set-up runs.
	col := func(f func(*window) float64) []float64 {
		xs := make([]float64, len(setups))
		for i, s := range setups {
			xs[i] = f(s)
		}
		return xs
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	m["dsl.parse_check_ms"] = overSegments("ms", col(func(s *window) float64 { return ms(s.first.parseCheck) }))
	m["expand.expand_ms"] = overSegments("ms", col(func(s *window) float64 { return ms(s.first.expand) }))
	m["syndex.map_ms"] = overSegments("ms", col(func(s *window) float64 { return ms(s.first.mapping) }))
	ops := 0
	for _, prog := range tw.first.sched.Programs {
		ops += len(prog)
	}
	m["syndex.ops_total"] = single("count", float64(ops))
	if w.transport != "mem" {
		m["nettransport.bringup_ms"] = overSegments("ms", col(func(s *window) float64 { return ms(s.bringup) }))
	}

	// Registered functions: calls and busy time per frame of the traced
	// window, and the frame budget they leave.
	frames := float64(tw.plan.segments * tw.plan.framesPerSegment)
	par := float64(min(nproc, gomaxprocs(w)))
	var serialUS, farmUS float64
	for name, st := range tr.fns {
		busy := float64(st.busyNS.Load()) / 1e3 / frames
		m["fn."+name+".calls_per_frame"] = single("count", float64(st.calls.Load())/frames)
		m["fn."+name+".busy_us_per_frame"] = single("us", busy)
		if st.farm {
			farmUS += busy
		} else {
			serialUS += busy
		}
	}
	// The budget is built on the median frame of this very run (typical),
	// not on the quiet-host figures of the end-to-end metrics: busy times
	// are means over the same frames.
	refRate, refP50 := ref.typical()
	_, tracedP50 := tw.typical()
	tracedUS := tracedP50.Value * 1e3
	m["exec.residual_us_per_frame"] = single("us", tracedUS-serialUS-farmUS/par)
	// What tracing adds it adds to every frame, so the two windows are
	// compared on their quiet-host rates, which the host does not move.
	m["bench.trace_overhead_ratio"] = single("ratio",
		ref.endToEnd(0)["frames_per_s"].Value/tw.endToEnd(0)["frames_per_s"].Value-1)

	// Transport counters over the traced window.
	m["transport.messages_per_frame"] = single("count", float64(tw.traffic.messages)/frames)
	m["transport.direct_per_frame"] = single("count", float64(tw.traffic.direct)/frames)
	m["transport.bytes_sent_per_frame"] = single("B", float64(tw.traffic.bytesSent)/frames)

	// What crosses processors: exact encoded sizes, then the codec and the
	// wire timed on a sample of those very values.
	var task, reply sutValue
	for _, st := range tr.fns {
		if !st.farm {
			continue
		}
		calls := float64(st.calls.Load()) / frames
		m["value.task_bytes_per_frame"] = single("B", float64(st.taskBytes.Load())/frames)
		m["value.reply_bytes_per_frame"] = single("B", float64(st.replyBytes.Load())/frames)
		n := int(min(st.sampleN.Load(), sampleCap))
		if n == 0 {
			continue
		}
		task, reply = medianSized(st.tasks[:n]), medianSized(st.replies[:n])
		if w.transport == "mem" {
			continue // the in-process transport passes values by reference
		}
		var codecNS int64
		for i := 0; i < n; i++ {
			t, r := sutTask{Idx: i, Gen: 1, V: st.tasks[i]}, sutReply{Widx: 1, Task: i, Gen: 1, V: st.replies[i]}
			codecNS += tr.probe("value.codec", func() { codecRoundTrip(t); codecRoundTrip(r) })
		}
		m["value.codec_us_per_frame"] = single("us", float64(codecNS)/1e3/float64(n)*calls)
	}
	if task != nil {
		rt, err := roundTrip(w.transport, sutTask{Idx: 0, Gen: 1, V: task}, sutReply{Gen: 1, V: reply}, tr)
		if err != nil {
			return nil, err
		}
		m["transport.roundtrip_us"] = single("us", rt)
	}

	// Kernels under the farm functions, on the workload's own frames.
	px := float64(w.app.w * w.app.h)
	dst := sutNewImage(w.app.w, w.app.h)
	var scratch sutLabelScratch
	bands := sutSplitGrid(w.app.w, w.app.h, nproc)
	kernel := func(name string, f func(im *sutImage)) {
		ns := make([]float64, 16)
		for i := range ns {
			im := ring.at(i * 8)
			ns[i] = float64(tr.probe(name, func() { f(im) })) / px
		}
		m[name+"_ns_per_px"] = overSegments("ns/px", ns)
	}
	kernel("vision.threshold", func(im *sutImage) { sutThresholdInto(dst, im, sutDetectThreshold) })
	kernel("vision.label", func(im *sutImage) { scratch.Label(im, sutDetectThreshold) })
	kernel("vision.extract", func(im *sutImage) {
		for _, r := range bands {
			sutExtract(im, r)
		}
	})
	kernel("vision.dilate", func(im *sutImage) { sutDilateInto(dst, im) })
	m["skel.pool_dispatch_us"] = single("us", poolDispatch(tr))

	// The tail of the untraced reference window. A closed-loop frame misses
	// its deadline when it takes longer than the paper's camera period; the
	// open loop misses one for every tick it had to drop.
	var lat, lag []float64
	missed := 0
	for k := ref.plan.boundary(0); k < ref.plan.boundary(ref.plan.segments); k++ {
		l := ref.sink.done[k] - ref.src.grab[k]
		lat = append(lat, float64(l)/1e6)
		if w.every == 0 && l > framePeriodNS {
			missed++
		}
		if ref.src.lag != nil {
			lag = append(lag, float64(ref.src.lag[k])/1e6)
		}
	}
	ticks := len(lat)
	if w.every > 0 {
		missed = int(ref.src.dropped)
		ticks += missed
	}
	p95 := make([]float64, ref.plan.segments)
	for i := range p95 {
		p95[i] = percentile(ref.latenciesMS(i), 0.95)
	}
	m["frame.median_rate_per_s"] = refRate
	m["frame.latency_p50_ms"] = refP50
	m["frame.latency_p95_ms"] = overSegments("ms", p95)
	m["frame.mean_rate_per_s"] = single("1/s", ref.meanRate())
	m["frame.stall_ratio"] = single("ratio", 1-ref.meanRate()/refRate.Value)
	m["frame.latency_p99_ms"] = single("ms", percentile(lat, 0.99))
	m["frame.latency_max_ms"] = single("ms", percentile(lat, 1))
	m["frame.deadline_miss_ratio"] = single("ratio", float64(missed)/float64(ticks))
	m["frame.generator_lag_p95_ms"] = single("ms", percentile(lag, 0.95))
	a, b := &ref.sink.mem[0], &ref.sink.mem[ref.plan.segments]
	refFrames := float64(ref.plan.segments * ref.plan.framesPerSegment)
	secs := refFrames / ref.meanRate()
	m["runtime.gc_cycles_per_s"] = single("1/s", float64(b.NumGC-a.NumGC)/secs)
	m["runtime.gc_pause_ms_per_s"] = single("ms/s", float64(b.PauseTotalNs-a.PauseTotalNs)/1e6/secs)
	m["runtime.heap_growth_kb_per_kframe"] = single("KB",
		(float64(ref.sink.heapEnd)-float64(ref.sink.heapStart))/1024/refFrames*1000)

	// The timing simulator's view of the same schedule.
	if err := simMetrics(w, ring, farmUS/par/tracedUS, m); err != nil {
		return nil, err
	}
	return m, nil
}

func gomaxprocs(w *frameWorkload) int {
	if w.gomaxprocs > 0 {
		return w.gomaxprocs
	}
	return defaultProcs()
}

// codecRoundTrip encodes and decodes one value through the public codec.
func codecRoundTrip(v sutValue) {
	buf, err := sutEncode(make([]byte, 0, max(sutEncodeSize(v), 0)), v)
	if err == nil {
		_, err = sutDecode(buf)
	}
	if err != nil {
		panic("bench: codec probe: " + err.Error())
	}
}

// medianSized returns the value whose encoding has the median size.
func medianSized(vs []sutValue) sutValue {
	s := append([]sutValue(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return sutEncodeSize(s[i]) < sutEncodeSize(s[j]) })
	return s[len(s)/2]
}

// roundTrip ping-pongs a task out and a reply back between two processors
// over a fresh transport of the workload's kind, through the public Send
// and Recv, and returns the median round trip in µs.
func roundTrip(kind string, task, reply sutValue, tr *tracer) (float64, error) {
	a2 := sutRing(2)
	var near, far sutTransport
	cleanup := func() {}
	if kind == "mem" {
		t := sutMemNet(a2)
		near, far = t, t
	} else {
		listen, rm, err := sutHubAddr(kind)
		if err != nil {
			return 0, err
		}
		cleanup = rm
		hub, err := sutHub(listen, a2, 1, []sutProc{0}, sutDataPlane(kind))
		if err != nil {
			rm()
			return 0, err
		}
		cl, err := sutDial(hub.Addr(), 1, []sutProc{1}, 30*time.Second, sutDataPlane(kind))
		if err != nil {
			hub.Close()
			rm()
			return 0, err
		}
		if err := hub.WaitReady(30 * time.Second); err != nil {
			cl.Close()
			hub.Close()
			rm()
			return 0, err
		}
		near, far = hub, cl
	}
	out, back := sutEdgeKey(1), sutEdgeKey(2)
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			if _, ok := far.Recv(1, out); !ok {
				return
			}
			far.Send(1, 0, back, reply)
		}
	}()
	const warm, reps = 50, 300
	us := make([]float64, 0, reps)
	for i := 0; i < warm+reps; i++ {
		ns := tr.probe("transport.roundtrip", func() {
			near.Send(0, 1, out, task)
			near.Recv(0, back)
		})
		if i >= warm {
			us = append(us, float64(ns)/1e3)
		}
	}
	err := near.Err()
	if far != near {
		far.Close()
	}
	near.Close()
	echo.Wait()
	cleanup()
	return median(us), err
}

// poolDispatch times fanning nproc empty tasks out on a skel.Pool and
// waiting for them: the fixed cost under every farm dispatch. Median µs.
func poolDispatch(tr *tracer) float64 {
	pool := sutNewPool(nproc)
	defer pool.Close()
	var wg sync.WaitGroup
	us := make([]float64, 200)
	for i := range us {
		us[i] = float64(tr.probe("skel.pool_dispatch", func() {
			wg.Add(nproc)
			for j := 0; j < nproc; j++ {
				pool.Go(wg.Done)
			}
			wg.Wait()
		})) / 1e3
	}
	return median(us)
}

// simMetrics runs the timing simulator on the workload's schedule and
// compares the farm stage's share of the frame with the measured one.
func simMetrics(w *frameWorkload, ring *frameRing, measuredShare float64, m map[string]summary) error {
	const iters, skip = 48, 16
	c, err := compile(w.app, &frameSource{ring: ring})
	if err != nil {
		return err
	}
	res, err := sutSimulate(c.sched, c.reg, sutSimOptions{Iters: iters, Trace: true})
	if err != nil {
		return err
	}
	var latency float64
	from := res.Iters[skip].Start
	for _, it := range res.Iters[skip:] {
		latency += it.Latency
	}
	farmProcs := map[sutProc]bool{}
	var farm float64
	for _, s := range res.Spans {
		for _, name := range w.app.farmFns {
			if s.Label == name && s.Start >= from {
				farm += s.End - s.Start
				farmProcs[s.Proc] = true
			}
		}
	}
	m["sim.predicted_frame_ms"] = single("ms", latency/float64(iters-skip)*1e3)
	if farm > 0 && latency > 0 {
		predicted := farm / float64(len(farmProcs)) / latency
		m["sim.skew_ratio"] = single("ratio", measuredShare/predicted)
	}
	return nil
}
