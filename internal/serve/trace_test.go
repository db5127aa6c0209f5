package serve

import (
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"skipper/internal/distrib"
	"skipper/internal/obsv"
)

// TestServeTracedJobSurvivesWorkerKill is the observability acceptance
// drill: a job submitted with "trace":true loses a worker mid-run, and
// without any restart or flag change the control plane yields (a) a
// fault-triggered flight-recorder artifact on disk, (b) a merged
// GET /jobs/{id}/trace covering both attempts, (c) the chronogram SVG, and
// (d) per-stage latency histograms plus queue-wait on /metrics.
func TestServeTracedJobSurvivesWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet kill drill")
	}
	flightDir := t.TempDir()
	s, err := New(Config{JobRequeues: 3, JobTimeout: 30 * time.Second, FlightDir: flightDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	startWorker(t, s, "w1")
	victim := startWorker(t, s, "w2")

	job := distrib.Job{Topology: "ring", Procs: 4, Width: 64, Height: 64,
		Vehicles: 1, Seed: 2, Iters: 4000, Deterministic: true,
		Pipeline: true, Trace: true}
	id := postJob(t, base, job)
	waitStatus(t, base, id, StatusRunning, 10*time.Second)
	waitFramesFlowing(t, s, id)
	victim.Kill()

	// The attempt settles, the job re-queues onto the survivor and finishes.
	if err := s.Wait(id, time.Minute); err != nil {
		t.Fatal(err)
	}
	v := getJob(t, base, id)
	if v.Status != StatusDone {
		t.Fatalf("traced job = %q (err %q), want done", v.Status, v.Error)
	}
	if v.Requeues < 1 {
		t.Fatalf("kill did not force a re-queue (requeues=%d)", v.Requeues)
	}

	// (a) The fault auto-dumped a flight artifact — no restart, no flag.
	var dump []string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if dump = s.Flight().LastDump(); len(dump) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(dump) == 0 {
		t.Fatal("worker kill never triggered a flight-recorder dump")
	}
	for _, p := range dump {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("flight artifact %s: %v", p, err)
		}
	}
	ftr, err := obsv.ReadFile(dump[0])
	if err != nil {
		t.Fatalf("flight artifact unreadable: %v", err)
	}
	if len(ftr.Events) == 0 {
		t.Fatal("flight artifact is empty")
	}
	var sawFault bool
	for _, ev := range ftr.Events {
		if ev.Kind.IsFault() {
			sawFault = true
			break
		}
	}
	if !sawFault {
		t.Fatal("flight artifact records no fault event")
	}

	// (b) The merged job trace covers both attempts, one chrome pid each.
	attempts, ok := s.JobTrace(id)
	if !ok {
		t.Fatal("job vanished")
	}
	if len(attempts) < 2 {
		t.Fatalf("job trace has %d attempts, want >= 2 (one per dispatch)", len(attempts))
	}
	resp, err := http.Get(base + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s/trace = %d: %s", id, resp.StatusCode, body)
	}
	ct, err := obsv.ParseChromeJSON(body)
	if err != nil {
		t.Fatalf("job trace does not parse: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range ct.TraceEvents {
		pids[ev.PID] = true
	}
	if len(pids) < 2 {
		t.Fatalf("job trace spans %d pids, want one per attempt (>= 2)", len(pids))
	}

	// (c) The chronogram endpoint renders.
	resp, err = http.Get(base + "/jobs/" + id + "/trace.svg")
	if err != nil {
		t.Fatal(err)
	}
	svg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(svg), "<svg") {
		t.Fatalf("GET trace.svg = %d, body %.60s", resp.StatusCode, svg)
	}

	// (d) Stage-level telemetry reached /metrics.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"skipper_pipeline_stage",
		"skipper_serve_queue_wait_seconds",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// waitFramesFlowing blocks until the traced job's running attempt has taken
// replies from its workers for a few iterations: every assigned processor
// has attached and the kill that follows lands mid-run, not on a session
// still filling (which re-queues for free and proves nothing).
func waitFramesFlowing(t *testing.T, s *Server, id string) {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		recvs := 0
		if attempts, _ := s.JobTrace(id); len(attempts) > 0 {
			for _, ev := range attempts[len(attempts)-1].Events {
				if ev.Kind == obsv.EvRecv {
					recvs++
				}
			}
		}
		if recvs >= 64 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: only %d frames received at the hub after 15s", id, recvs)
		}
	}
}

// TestServeUntracedJobHasNoTrace pins the opt-in: a plain job yields 409 on
// the trace endpoint, and tracing one job does not leak into another.
func TestServeUntracedJobHasNoTrace(t *testing.T) {
	s, err := New(Config{InProcess: true, JobTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	plain := postJob(t, base, tinyJob(2))
	traced := tinyJob(2)
	traced.Trace = true
	tracedID := postJob(t, base, traced)
	for _, id := range []string{plain, tracedID} {
		if err := s.Wait(id, time.Minute); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(base + "/jobs/" + plain + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("untraced job trace = %d, want 409", resp.StatusCode)
	}

	attempts, ok := s.JobTrace(tracedID)
	if !ok || len(attempts) != 1 {
		t.Fatalf("traced in-process job: attempts=%d ok=%v, want 1", len(attempts), ok)
	}
	if len(attempts[0].Events) == 0 {
		t.Fatal("traced in-process job recorded no events")
	}
	if resp, err = http.Get(base + "/jobs/" + tracedID + "/trace"); err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced job trace = %d: %s", resp.StatusCode, body)
	}
	if _, err := obsv.ParseChromeJSON(body); err != nil {
		t.Fatal(err)
	}

	// Unknown sub-resources still 404.
	if resp, err = http.Get(base + "/jobs/" + tracedID + "/bogus"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bogus sub-resource = %d, want 404", resp.StatusCode)
	}
}

// TestFlightDumpCarriesSealedAttempt pins the companion-trace callback
// against the dump's asynchrony: a fault recorded in a traced attempt's own
// ring triggers the dump, but the attempt seals (recorder gone, job
// re-queued) before the dump goroutine collects the companion traces. The
// artifact must still carry the attempt's timeline — the flight ring itself
// is empty — or the rate-limited artifact of that fault is written blank.
func TestFlightDumpCarriesSealedAttempt(t *testing.T) {
	s, err := New(Config{InProcess: true, FlightDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rec := obsv.NewRecorder(2, 0)
	rec.SetFaultHook(s.flight.Trigger)
	att := &jobAttempt{salt: 1, rec: rec}
	st := &jobState{id: "j1", status: StatusRunning, attempts: []*jobAttempt{att}}

	// The dump goroutine needs s.mu to collect companions, so holding it
	// orders the seal between the trigger and the collection whichever way
	// the scheduler interleaves the two goroutines.
	s.mu.Lock()
	s.jobs[st.id] = st
	rec.Record(0, obsv.EvOpStart, rec.Intern("grab"), -1, 0)
	rec.Record(0, obsv.EvPeerDown, 0, 1, 0) // fault: triggers the asynchronous dump
	att.hub, att.rec = rec.Snapshot(), nil
	st.status = StatusQueued
	s.mu.Unlock()

	var dump []string
	for deadline := time.Now().Add(5 * time.Second); len(dump) == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		dump = s.flight.LastDump()
	}
	if len(dump) == 0 {
		t.Fatal("the fault never triggered a flight dump")
	}
	tr, err := obsv.ReadFile(dump[0])
	if err != nil {
		t.Fatal(err)
	}
	var sawFault bool
	for _, ev := range tr.Events {
		sawFault = sawFault || ev.Kind == obsv.EvPeerDown
	}
	if !sawFault {
		t.Fatalf("flight artifact has %d events and no fault: the sealed attempt's timeline was dropped", len(tr.Events))
	}
}
