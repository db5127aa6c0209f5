package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// maxSpans bounds the in-memory span buffer (24 B each). A traced window of
// a fast workload records a few hundred thousand; past the bound spans are
// counted as dropped, never reallocated, so recording stays allocation-free.
const maxSpans = 1 << 19

// span is one timed call at a layer boundary. parent is the index of the
// span that caused it (-1 for a root); frame is the identifier every span
// of one frame shares (-1 outside the frame loop, e.g. layer probes).
type span struct {
	name       int32
	frame      int32
	parent     int32
	start, end int64
}

// tracer records spans and per-function counts during a traced window.
// Recording is lock-free and allocation-free: a span is one atomic slot
// claim in a preallocated buffer.
type tracer struct {
	clk     clock
	namesMu sync.Mutex
	names   []string
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	active  atomic.Bool  // only the measured window is recorded
	frames  *frameSource // for the id of the frame in flight; nil outside frame loops
	fns     map[string]*fnStat
}

// fnStat accumulates one registered function's calls over the window.
type fnStat struct {
	id                    int32
	farm                  bool
	calls, busyNS         atomic.Int64
	taskBytes, replyBytes atomic.Int64
	// Sample of the values that cross processors, for the codec and
	// round-trip probes: the first few task arguments and results.
	sampleN        atomic.Int32
	tasks, replies [sampleCap]sutValue
}

const sampleCap = 64

func newTracer(clk clock, src *frameSource) *tracer {
	t := &tracer{clk: clk, frames: src, fns: map[string]*fnStat{}, spans: make([]span, maxSpans)}
	t.n.Store(1) // slot 0 is the "no span" sentinel
	t.names = []string{"frame"}
	return t
}

func (t *tracer) nameID(name string) int32 {
	t.namesMu.Lock()
	defer t.namesMu.Unlock()
	for i, n := range t.names {
		if n == name {
			return int32(i)
		}
	}
	t.names = append(t.names, name)
	return int32(len(t.names) - 1)
}

// record stores one span and returns its index (0 when dropped).
func (t *tracer) record(name, frame, parent int32, start, end int64) int32 {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return 0
	}
	t.spans[i] = span{name: name, frame: frame, parent: parent, start: start, end: end}
	return int32(i)
}

// wrapRegistry instruments the application's functions that have per-layer
// metrics (fnNames: everything called per frame except read_img, which is
// the load generator, not the system). Each call becomes a span whose frame
// is the latest frame grabbed (under the pipelined executive a late call of
// frame k can therefore carry k+1; totals per window are unaffected).
func (t *tracer) wrapRegistry(a *app) func(*sutRegistry) {
	// Register names and stats once, before any goroutine records.
	probe := a.newRegistry(&frameSource{})
	for _, name := range fnNames {
		if _, ok := probe.Lookup(name); !ok {
			continue
		}
		st := &fnStat{id: t.nameID("fn." + name)}
		for _, farm := range a.farmFns {
			st.farm = st.farm || farm == name
		}
		t.fns[name] = st
	}
	return func(reg *sutRegistry) {
		for name, st := range t.fns {
			f, _ := reg.Lookup(name)
			f.Fn = t.wrapFn(st, f.Fn)
		}
	}
}

func (t *tracer) wrapFn(st *fnStat, fn func([]sutValue) sutValue) func([]sutValue) sutValue {
	return func(args []sutValue) sutValue {
		if !t.active.Load() {
			return fn(args)
		}
		frame := int32(t.frames.next.Load() - 1)
		t0 := t.clk.now()
		v := fn(args)
		t1 := t.clk.now()
		st.calls.Add(1)
		st.busyNS.Add(t1 - t0)
		t.record(st.id, frame, -1, t0, t1)
		if st.farm {
			st.taskBytes.Add(int64(sutEncodeSize(args[0])))
			st.replyBytes.Add(int64(sutEncodeSize(v)))
			if i := st.sampleN.Add(1) - 1; i < sampleCap {
				st.tasks[i], st.replies[i] = args[0], v
			}
		}
		return v
	}
}

// probe times one call into a layer as a root span with no frame.
func (t *tracer) probe(name string, f func()) (ns int64) {
	t0 := t.clk.now()
	f()
	t1 := t.clk.now()
	t.record(t.nameID(name), -1, -1, t0, t1)
	return t1 - t0
}

// finish adds one root span per frame (or job) lo..hi-1 of the window,
// from its start to its end, and points every span recorded with that
// frame's id at it.
func (t *tracer) finish(lo, hi int, bounds func(k int) (start, end int64)) {
	root := make(map[int32]int32, hi-lo)
	for k := lo; k < hi; k++ {
		start, end := bounds(k)
		root[int32(k)] = t.record(0, int32(k), -1, start, end)
	}
	n := min(int(t.n.Load()), len(t.spans))
	for i := 1; i < n; i++ {
		if s := &t.spans[i]; s.name != 0 && s.frame >= 0 {
			if r, ok := root[s.frame]; ok && r != 0 {
				s.parent = r
			}
		}
	}
}

// covered returns how much of [start,end) the given intervals cover: the
// parent's self time is its duration minus this, so children that ran in
// parallel are not subtracted twice.
func covered(start, end int64, children [][2]int64) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i][0] < children[j][0] })
	var total int64
	at := start
	for _, c := range children {
		lo, hi := max(c[0], at), min(c[1], end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// write stores the spans as JSON, one object per span with its self time.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	n := min(int(t.n.Load()), len(t.spans))
	kids := map[int32][][2]int64{}
	for i := 1; i < n; i++ {
		if s := t.spans[i]; s.parent > 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 256)
	w.WriteString(`{"workload":"` + workload + `","dropped":` + strconv.FormatInt(t.dropped.Load(), 10) + `,"unit":"ns","spans":[`)
	for i := 1; i < n; i++ {
		s := t.spans[i]
		buf = buf[:0]
		if i > 1 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n{\"id\":"...)
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ",\"name\":\""...)
		buf = append(buf, t.names[s.name]...)
		buf = append(buf, "\",\"frame\":"...)
		buf = strconv.AppendInt(buf, int64(s.frame), 10)
		buf = append(buf, ",\"parent\":"...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, ",\"start\":"...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, ",\"end\":"...)
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, ",\"self\":"...)
		buf = strconv.AppendInt(buf, s.end-s.start-covered(s.start, s.end, kids[int32(i)]), 10)
		buf = append(buf, '}')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
