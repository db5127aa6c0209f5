package obsv

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
)

// TraceSchema versions the on-disk trace format. Events carry their kind as
// a number, so removing a kind is a new version: v2 dropped the
// batch-flush, ring-occ and doorbell kinds, and every later kind moved down.
const TraceSchema = "skipper-trace/v2"

// Trace is a recorder snapshot in exportable form: the event stream of one
// process (or, after Merge, a whole deployment) plus everything needed to
// interpret it — the label table, the wall-clock epoch and the clock
// offset that aligns this process's monotonic timeline with the
// coordinator's.
type Trace struct {
	Schema string `json:"schema"`
	// NProcs is the architecture size; Procs lists the processors this
	// process hosted (all of them after a merge).
	NProcs int   `json:"nprocs"`
	Procs  []int `json:"procs,omitempty"`
	// EpochUnixNano anchors event timestamps (nanoseconds since epoch on
	// the local monotonic clock) to the local wall clock.
	EpochUnixNano int64 `json:"epoch_unix_nano"`
	// ClockOffsetNS, added to a local wall-clock instant, yields the
	// coordinator's wall clock: the NTP-style offset each node estimates
	// from its hub handshake (0 on the coordinator itself). Merge uses it
	// to place every process's events on one timeline.
	ClockOffsetNS int64             `json:"clock_offset_ns"`
	Dropped       int64             `json:"dropped"`
	Labels        []string          `json:"labels"`
	Meta          map[string]string `json:"meta,omitempty"`
	Events        []Event           `json:"events"`
}

// Label resolves an event's label id.
func (t *Trace) Label(id uint32) string {
	if int(id) < len(t.Labels) {
		return t.Labels[id]
	}
	return fmt.Sprintf("label(%d)", id)
}

// WriteFile marshals the trace as JSON to path.
func (t *Trace) WriteFile(path string) error {
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads one trace file.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("obsv: %s: %w", path, err)
	}
	if t.Schema != TraceSchema {
		return nil, fmt.Errorf("obsv: %s: unsupported trace schema %q (want %q)", path, t.Schema, TraceSchema)
	}
	return &t, nil
}

// LoadDir reads every per-process trace file ("trace-*.json") in dir and
// merges them onto the coordinator's timeline.
func LoadDir(dir string) (*Trace, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "trace-*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("obsv: no trace-*.json files in %s", dir)
	}
	sort.Strings(paths)
	traces := make([]*Trace, 0, len(paths))
	for _, p := range paths {
		t, err := ReadFile(p)
		if err != nil {
			return nil, err
		}
		traces = append(traces, t)
	}
	return Merge(traces), nil
}

// Merge combines per-process traces into one deployment-wide trace.
// Every event timestamp is rebased onto a shared timeline: local monotonic
// time is anchored to the local wall clock via EpochUnixNano, shifted onto
// the coordinator's wall clock via ClockOffsetNS, and finally rebased so
// the earliest aligned epoch is 0.
func Merge(traces []*Trace) *Trace {
	if len(traces) == 0 {
		return nil
	}
	if len(traces) == 1 && traces[0].ClockOffsetNS == 0 {
		return traces[0]
	}
	base := traces[0].EpochUnixNano + traces[0].ClockOffsetNS
	for _, t := range traces[1:] {
		if e := t.EpochUnixNano + t.ClockOffsetNS; e < base {
			base = e
		}
	}
	out := &Trace{Schema: TraceSchema, EpochUnixNano: base}
	procSet := map[int]bool{}
	labelID := map[string]uint32{}
	out.Labels = []string{""}
	labelID[""] = 0
	intern := func(s string) uint32 {
		if id, ok := labelID[s]; ok {
			return id
		}
		id := uint32(len(out.Labels))
		out.Labels = append(out.Labels, s)
		labelID[s] = id
		return id
	}
	for _, t := range traces {
		if t.NProcs > out.NProcs {
			out.NProcs = t.NProcs
		}
		out.Dropped += t.Dropped
		for _, p := range t.Procs {
			procSet[p] = true
		}
		if out.Meta == nil && len(t.Meta) > 0 {
			// A copy: callers tag the merged trace's meta (flight dumps, job
			// traces) while the input may be a sealed trace others still read.
			out.Meta = maps.Clone(t.Meta)
		}
		shift := t.EpochUnixNano + t.ClockOffsetNS - base
		for _, ev := range t.Events {
			ev.TS += shift
			ev.Label = intern(t.Label(ev.Label))
			out.Events = append(out.Events, ev)
		}
	}
	for p := range procSet {
		out.Procs = append(out.Procs, p)
	}
	sort.Ints(out.Procs)
	sort.SliceStable(out.Events, func(a, b int) bool { return out.Events[a].TS < out.Events[b].TS })
	return out
}

// OpSpan is one completed op interval reconstructed from an
// EvOpStart/EvOpEnd pair.
type OpSpan struct {
	Proc       int32
	Label      string
	Start, End int64 // ns on the trace timeline
	Arg        int64 // iteration / task index from the start event
}

// Dur returns the span length in nanoseconds.
func (s OpSpan) Dur() int64 { return s.End - s.Start }

type spanKey struct {
	proc  int32
	label uint32
}

// OpSpans pairs the trace's op-start/op-end events into spans, ordered by
// start time. Starts without a matching end (a processor cut down
// mid-operation) are dropped.
func (t *Trace) OpSpans() []OpSpan {
	open := map[spanKey][]Event{}
	var spans []OpSpan
	for _, ev := range t.Events {
		switch ev.Kind {
		case EvOpStart:
			k := spanKey{ev.Proc, ev.Label}
			open[k] = append(open[k], ev)
		case EvOpEnd:
			k := spanKey{ev.Proc, ev.Label}
			st := open[k]
			if len(st) == 0 {
				continue // end without start (start fell out of the ring)
			}
			s := st[len(st)-1]
			open[k] = st[:len(st)-1]
			spans = append(spans, OpSpan{
				Proc: ev.Proc, Label: t.Label(ev.Label),
				Start: s.TS, End: ev.TS, Arg: s.Arg,
			})
		}
	}
	sort.SliceStable(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
	return spans
}

// ChromeEvent is one entry of a Chrome trace_event JSON file
// (chrome://tracing, Perfetto). Timestamps and durations are microseconds.
type ChromeEvent struct {
	Name  string           `json:"name"`
	Cat   string           `json:"cat,omitempty"`
	Ph    string           `json:"ph"`
	TS    float64          `json:"ts"`
	Dur   float64          `json:"dur,omitempty"`
	PID   int              `json:"pid"`
	TID   int              `json:"tid"`
	Scope string           `json:"s,omitempty"`
	Args  map[string]int64 `json:"args,omitempty"`
}

// ChromeTrace is the JSON-object envelope Chrome's trace viewer loads.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// ChromeJSON renders the trace in Chrome trace_event format: complete "X"
// events for op spans (tid = processor) and instant "i" events for sends,
// receives, enqueues and aborts, with byte sizes in args.
func (t *Trace) ChromeJSON() ([]byte, error) {
	ct := t.chrome()
	data, err := json.Marshal(ct)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ChromeJSONAttempts renders several traces — the per-attempt timelines of
// one serve job — into a single Chrome trace file, one process row (pid)
// per attempt, so a requeued job shows both its timelines side by side.
// Nil entries (attempts that produced no trace) are skipped but keep their
// pid slot, so pid always equals the attempt index.
func ChromeJSONAttempts(attempts []*Trace) ([]byte, error) {
	ct := &ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []ChromeEvent{}}
	for i, t := range attempts {
		if t == nil {
			continue
		}
		t.chromeInto(ct, i)
	}
	data, err := json.Marshal(ct)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func (t *Trace) chrome() *ChromeTrace {
	ct := &ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []ChromeEvent{}}
	t.chromeInto(ct, 0)
	return ct
}

// chromeInto appends this trace's events to ct under the given chrome
// process id (one pid per job attempt in the multi-attempt export).
func (t *Trace) chromeInto(ct *ChromeTrace, pid int) {
	for _, sp := range t.OpSpans() {
		ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
			Name: sp.Label, Cat: "op", Ph: "X",
			TS: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
			PID: pid, TID: int(sp.Proc),
		})
	}
	for _, ev := range t.Events {
		var cat string
		args := map[string]int64{}
		switch ev.Kind {
		case EvSend:
			cat = "comm"
			args["bytes"] = ev.Arg
			args["dst"] = int64(ev.Peer)
		case EvRecv:
			cat = "comm"
			args["bytes"] = ev.Arg
		case EvEnqueue:
			cat = "mailbox"
			args["depth"] = ev.Arg
		case EvAbort:
			cat = "abort"
		case EvPeerDown:
			cat = "fault"
		case EvRedispatch:
			cat = "fault"
			args["task"] = ev.Arg
		case EvDegrade:
			cat = "fault"
			args["task"] = ev.Arg
		case EvCancel:
			cat = "fault"
		case EvRequeue:
			cat = "fault"
			args["attempt"] = ev.Arg
		case EvStageHand:
			cat = "pipeline"
			args["stage"] = int64(ev.Peer)
			args["iter"] = ev.Arg
		case EvSpeculate:
			cat = "speculation"
			args["task"] = ev.Arg
			args["dup_on"] = int64(ev.Peer)
		case EvSpecWin:
			cat = "speculation"
			args["task"] = ev.Arg
			args["winner"] = int64(ev.Peer)
		default:
			continue
		}
		ct.TraceEvents = append(ct.TraceEvents, ChromeEvent{
			Name: ev.Kind.String() + " " + t.Label(ev.Label), Cat: cat, Ph: "i",
			TS: float64(ev.TS) / 1e3, PID: pid, TID: int(ev.Proc), Scope: "t",
			Args: args,
		})
	}
}

// ParseChromeJSON loads a Chrome trace_event JSON file back into its
// envelope form (for round-trip validation).
func ParseChromeJSON(data []byte) (*ChromeTrace, error) {
	var ct ChromeTrace
	if err := json.Unmarshal(data, &ct); err != nil {
		return nil, fmt.Errorf("obsv: chrome trace: %w", err)
	}
	return &ct, nil
}
