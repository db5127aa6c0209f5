package obsv

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// waitDump polls until the flight recorder reports a dump or the deadline
// passes (dumps happen on the flight's own goroutine).
func waitDump(t *testing.T, f *Flight) []string {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if paths := f.LastDump(); len(paths) > 0 {
			return paths
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("flight recorder never dumped")
	return nil
}

// TestFlightAutoDumpOnFault pins the tentpole behavior: a fault-kind event
// landing in the always-on ring auto-dumps a trace artifact — raw JSON,
// Chrome JSON and chronogram SVG — with the fault's immediate past in it,
// no restart, no tracing flag.
func TestFlightAutoDumpOnFault(t *testing.T) {
	dir := t.TempDir()
	f := NewFlight(dir, "w1", FlightOptions{Procs: 2, MinInterval: time.Hour})
	defer f.Close()
	rec := f.Recorder()

	lbl := rec.Intern("grab")
	for i := 0; i < 50; i++ {
		rec.Record(0, EvOpStart, lbl, -1, int64(i))
		rec.Record(0, EvOpEnd, lbl, -1, int64(i))
	}
	rec.Record(1, EvPeerDown, 0, 0, 0) // fault: must trigger the dump

	paths := waitDump(t, f)
	if len(paths) != 3 {
		t.Fatalf("dump wrote %d artifacts (%v), want raw+chrome+svg", len(paths), paths)
	}
	var raw, chrome, svg string
	for _, p := range paths {
		switch {
		case strings.HasSuffix(p, ".chrome.json"):
			chrome = p
		case strings.HasSuffix(p, ".json"):
			raw = p
		case strings.HasSuffix(p, ".svg"):
			svg = p
		}
	}
	if raw == "" || chrome == "" || svg == "" {
		t.Fatalf("artifact set incomplete: %v", paths)
	}

	tr, err := ReadFile(raw)
	if err != nil {
		t.Fatalf("raw artifact unreadable: %v", err)
	}
	if tr.Meta["flight_reason"] != "peer-down" || tr.Meta["flight_name"] != "w1" {
		t.Fatalf("artifact meta %v missing flight tags", tr.Meta)
	}
	var sawFault, sawOp bool
	for _, ev := range tr.Events {
		if ev.Kind == EvPeerDown {
			sawFault = true
		}
		if ev.Kind == EvOpStart {
			sawOp = true
		}
	}
	if !sawFault || !sawOp {
		t.Fatalf("artifact lost events: fault=%v ops=%v", sawFault, sawOp)
	}

	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	var ct map[string]any
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatalf("chrome artifact is not JSON: %v", err)
	}
	if svgData, err := os.ReadFile(svg); err != nil || !strings.Contains(string(svgData), "<svg") {
		t.Fatalf("svg artifact bad: err=%v", err)
	}
}

// TestFlightRateLimit pins that a fault storm produces one artifact per
// MinInterval, not one per fault.
func TestFlightRateLimit(t *testing.T) {
	f := NewFlight(t.TempDir(), "w1", FlightOptions{MinInterval: time.Hour})
	defer f.Close()
	rec := f.Recorder()

	rec.Record(0, EvAbort, 0, -1, 0)
	first := waitDump(t, f)

	for i := 0; i < 20; i++ {
		rec.Record(0, EvPeerDown, 0, -1, int64(i))
	}
	time.Sleep(50 * time.Millisecond)
	after := f.LastDump()
	if len(after) != len(first) || after[0] != first[0] {
		t.Fatalf("fault storm broke the rate limit: %v then %v", first, after)
	}
	if f.seq.Load() != 1 {
		t.Fatalf("rate-limited storm wrote %d dumps", f.seq.Load())
	}
}

// TestFlightExtraMergesCompanions pins that companion traces (a traced
// job's recorder on the same process) ride along in the artifact.
func TestFlightExtraMergesCompanions(t *testing.T) {
	comp := NewRecorder(1, 0)
	f := NewFlight(t.TempDir(), "serve", FlightOptions{
		Extra: func() []*Trace { return []*Trace{comp.Snapshot()} },
	})
	defer f.Close()

	lbl := comp.Intern("track")
	comp.Record(0, EvOpStart, lbl, -1, 7)
	comp.Record(0, EvOpEnd, lbl, -1, 7)

	paths, err := f.Dump(EvRequeue) // forced dump, no fault needed
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range tr.Events {
		if ev.Kind == EvOpStart && tr.Label(ev.Label) == "track" {
			found = true
		}
	}
	if !found {
		t.Fatal("companion trace's events missing from the artifact")
	}
}

// TestFlightWindowTrims pins that dumps keep only the trailing window.
func TestFlightWindowTrims(t *testing.T) {
	f := NewFlight(t.TempDir(), "w1", FlightOptions{Window: 10 * time.Millisecond})
	defer f.Close()
	rec := f.Recorder()

	rec.Record(0, EvOpStart, 0, -1, 1)
	time.Sleep(50 * time.Millisecond)
	rec.Record(0, EvOpEnd, 0, -1, 1)
	rec.Record(0, EvPeerDown, 0, -1, 0)

	paths := waitDump(t, f)
	tr, err := ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events {
		if ev.Kind == EvOpStart {
			t.Fatal("event older than the window survived the trim")
		}
	}
}

// TestFaultHookFiresOnFaultKindsOnly pins the Recorder-side trigger: the
// hook must fire for every kind in the fault range and never otherwise.
func TestFaultHookFiresOnFaultKindsOnly(t *testing.T) {
	rec := NewRecorder(1, 64)
	var got []EventKind
	rec.SetFaultHook(func(k EventKind) { got = append(got, k) })

	rec.Record(0, EvOpStart, 0, -1, 0)
	rec.Record(0, EvSend, 0, 1, 8)
	rec.Record(0, EvEnqueue, 0, -1, 3)
	rec.Record(0, EvStageHand, 0, 1, 5)
	if len(got) != 0 {
		t.Fatalf("hook fired on non-fault kinds: %v", got)
	}
	faults := []EventKind{EvAbort, EvPeerDown, EvRedispatch, EvDegrade, EvCancel, EvRequeue}
	for _, k := range faults {
		rec.Record(0, k, 0, -1, 0)
	}
	if len(got) != len(faults) {
		t.Fatalf("hook fired %d times for %d fault kinds", len(got), len(faults))
	}
	rec.SetFaultHook(nil)
	rec.Record(0, EvAbort, 0, -1, 0)
	if len(got) != len(faults) {
		t.Fatal("cleared hook still fired")
	}
}
