package obsv

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Flight is the always-on flight recorder: it owns a bounded Recorder ring
// that instrumented code writes into at all times, and when a fault-kind
// event lands (peer-down, redispatch, degrade, cancel, requeue, abort) it
// dumps the ring's last-Window worth of events to disk as a trace artifact
// — the raw trace JSON, the Chrome trace, and the measured chronogram SVG —
// so every failure ships with its timeline attached, without anyone having
// restarted the process with tracing flags.
//
// Dumps run on a dedicated goroutine (the recording hot path only does a
// non-blocking channel send) and are rate-limited: at most one dump per
// MinInterval, so a fault storm produces one artifact, not thousands.
type Flight struct {
	rec  *Recorder
	dir  string
	name string

	// Window trims the dump to the trailing window of the ring (0 keeps
	// everything the ring still holds).
	window time.Duration
	// minInterval rate-limits dumping (default 5s).
	minInterval time.Duration

	// extra, when set, is invoked at dump time to collect companion traces
	// (e.g. the serve hub attaching the per-attempt session recorders) to
	// merge into the artifact alongside the flight ring.
	extra func() []*Trace

	trigger  chan EventKind
	done     chan struct{}
	stopped  chan struct{} // closed when the dump goroutine has exited
	lastDump atomic.Int64  // unix nanos of the last dump
	seq      atomic.Int64  // artifact sequence number

	mu        sync.Mutex
	lastPaths []string
	closed    bool
}

// FlightOptions tunes a flight recorder; the zero value is usable.
type FlightOptions struct {
	// Procs/RingSize size the underlying Recorder. Procs <= 0 defaults to
	// 1; RingSize <= 0 defaults to 1<<12 (a bounded always-on cost, much
	// smaller than DefaultRingSize).
	Procs    int
	RingSize int
	// Window trims dumps to the trailing window (default 10s; negative
	// keeps the whole ring).
	Window time.Duration
	// MinInterval rate-limits dumps (default 5s).
	MinInterval time.Duration
	// Extra collects companion traces to merge into each dump.
	Extra func() []*Trace
}

// DefaultFlightWindow is the trailing window a dump is trimmed to unless
// FlightOptions.Window says otherwise; companion-trace callbacks use it to
// decide how stale a settled timeline may be and still be worth attaching.
const DefaultFlightWindow = 10 * time.Second

// FlightRingSize is the default per-processor ring capacity of an
// always-on flight recorder: big enough for several seconds of executive
// traffic, small enough (96B * 4096 per proc) to leave resident.
const FlightRingSize = 1 << 12

// NewFlight creates the flight recorder, arms its fault hook and starts
// the dump goroutine. dir is created on demand at the first dump; name
// tags artifact filenames (e.g. the worker name or "serve").
func NewFlight(dir, name string, opt FlightOptions) *Flight {
	procs := opt.Procs
	if procs <= 0 {
		procs = 1
	}
	ring := opt.RingSize
	if ring <= 0 {
		ring = FlightRingSize
	}
	window := opt.Window
	if window == 0 {
		window = DefaultFlightWindow
	}
	minInt := opt.MinInterval
	if minInt <= 0 {
		minInt = 5 * time.Second
	}
	f := &Flight{
		rec:         NewRecorder(procs, ring),
		dir:         dir,
		name:        name,
		window:      window,
		minInterval: minInt,
		extra:       opt.Extra,
		trigger:     make(chan EventKind, 1),
		done:        make(chan struct{}),
		stopped:     make(chan struct{}),
	}
	f.rec.SetFaultHook(f.Trigger)
	go f.loop()
	return f
}

// Trigger requests an asynchronous, rate-limited dump, exactly as if a
// fault-kind event had landed in the flight ring. Companion recorders (a
// traced job's dedicated ring) route their fault hooks here so their
// faults also produce artifacts. Cheap and non-blocking.
func (f *Flight) Trigger(k EventKind) {
	select {
	case f.trigger <- k:
	default: // a dump is already pending; coalesce
	}
}

// Recorder exposes the underlying ring for instrumented code to arm
// (transport TraceSink, Machine.Trace). Never nil.
func (f *Flight) Recorder() *Recorder { return f.rec }

// Dump forces an artifact dump now (bypassing the rate limit) and returns
// the paths written. Used by tests and by operators poking a live process.
func (f *Flight) Dump(reason EventKind) ([]string, error) {
	return f.dump(reason, true)
}

// LastDump returns the file paths of the most recent artifact (nil if no
// dump has fired yet).
func (f *Flight) LastDump() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.lastPaths...)
}

// Close stops the dump goroutine and waits for a dump in progress to finish
// writing, so the caller may remove the directory afterwards. Pending
// triggers are dropped.
func (f *Flight) Close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.done)
	}
	f.mu.Unlock()
	<-f.stopped
}

func (f *Flight) loop() {
	defer close(f.stopped)
	for {
		select {
		case <-f.done:
			return
		case k := <-f.trigger:
			f.dump(k, false)
		}
	}
}

// dump snapshots the ring (plus companion traces), trims to the window and
// writes the three artifact files. force bypasses the rate limit.
func (f *Flight) dump(reason EventKind, force bool) ([]string, error) {
	now := time.Now().UnixNano()
	if !force {
		last := f.lastDump.Load()
		if last != 0 && now-last < int64(f.minInterval) {
			return nil, nil
		}
	}
	f.lastDump.Store(now)

	traces := []*Trace{f.rec.Snapshot()}
	if f.extra != nil {
		for _, t := range f.extra() {
			if t != nil {
				traces = append(traces, t)
			}
		}
	}
	tr := Merge(traces)
	if tr == nil {
		return nil, nil
	}
	if f.window > 0 {
		trimTrailing(tr, f.window)
	}
	if tr.Meta == nil {
		tr.Meta = map[string]string{}
	}
	tr.Meta["flight_reason"] = reason.String()
	tr.Meta["flight_name"] = f.name

	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return nil, err
	}
	seq := f.seq.Add(1)
	stem := filepath.Join(f.dir, fmt.Sprintf("flight-%s-%03d-%s", f.name, seq, reason))
	var paths []string

	if err := tr.WriteFile(stem + ".json"); err != nil {
		return nil, err
	}
	paths = append(paths, stem+".json")
	if data, err := tr.ChromeJSON(); err == nil {
		if err := os.WriteFile(stem+".chrome.json", data, 0o644); err == nil {
			paths = append(paths, stem+".chrome.json")
		}
	}
	if err := os.WriteFile(stem+".svg", []byte(tr.ChronogramSVG(1200, 22)), 0o644); err == nil {
		paths = append(paths, stem+".svg")
	}

	f.mu.Lock()
	f.lastPaths = paths
	f.mu.Unlock()
	return paths, nil
}

// trimTrailing drops events older than window before the trace's last
// event, keeping the artifact to the fault's immediate past.
func trimTrailing(t *Trace, window time.Duration) {
	if len(t.Events) == 0 {
		return
	}
	cut := t.Events[len(t.Events)-1].TS - int64(window)
	if cut <= t.Events[0].TS {
		return
	}
	// Events are sorted by TS; find the first survivor.
	lo, hi := 0, len(t.Events)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.Events[mid].TS < cut {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	t.Events = append([]Event(nil), t.Events[lo:]...)
}
