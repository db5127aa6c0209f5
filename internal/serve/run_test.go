package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"skipper/internal/distrib"
	"skipper/internal/exec/faulttransport"
	"skipper/internal/exec/nettransport"
	"skipper/internal/leakcheck"
	"skipper/internal/syndex"
)

// TestRunPinsClassicPlacement: with every worker joined before the
// submission and named WorkerName(k), worker k hosts exactly processor k,
// one processor each, whatever order the workers joined in — the measured
// topology of a one-job run is that of one OS process per processor.
func TestRunPinsClassicPlacement(t *testing.T) {
	s, err := New(Config{JobRequeues: -1, JobTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Twelve processors: names of unequal width would sort node10 before node2.
	job := distrib.Job{Topology: "ring", Procs: 12, Width: 64, Height: 64,
		Vehicles: 1, Seed: 3, Iters: 3, Trace: true}
	// The workers join after spawn returns, the way worker processes do, and
	// in reverse order: placement follows names, not arrival.
	spawn := func(addr string, fail func(error)) error {
		go func() {
			for p := job.Procs - 1; p >= 1; p-- {
				w, err := distrib.JoinFleet(addr, WorkerName(p), 5*time.Second)
				if err != nil {
					fail(err)
					return
				}
				go w.Serve()
				time.Sleep(time.Millisecond)
			}
		}()
		return nil
	}
	if _, _, _, err := s.runOne(job, spawn); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	hosted := s.jobs["j1"].attempts[0].workers // one trace per worker, each listing its processors
	s.mu.Unlock()
	if len(hosted) != job.Procs-1 {
		t.Fatalf("%d workers reported, want %d", len(hosted), job.Procs-1)
	}
	for _, tr := range hosted {
		if len(tr.Procs) != 1 || tr.Meta["worker"] != WorkerName(tr.Procs[0]) {
			t.Errorf("worker %s hosted processors %v, want only its own", tr.Meta["worker"], tr.Procs)
		}
	}
}

// TestRunReclaimsGoroutines: a one-job run leaves nothing running — once Run
// has returned, the goroutine count is back at its baseline within a
// second, in process and over unix sockets with goroutine workers.
func TestRunReclaimsGoroutines(t *testing.T) {
	for _, transport := range []string{"mem", "unix"} {
		t.Run(transport, func(t *testing.T) {
			run := func() {
				cfg := Config{JobTimeout: time.Minute}
				cleanup, err := cfg.OnTransport(transport)
				if err != nil {
					t.Fatal(err)
				}
				defer cleanup()
				job := tinyJob(4)
				if _, _, _, err := Run(cfg, job, InProcessWorkers(job.Procs, nil)); err != nil {
					t.Fatal(err)
				}
			}
			run() // the first run starts the runtime's and net's lazy goroutines
			reclaimed := leakcheck.Goroutines(t)
			run()
			reclaimed()
		})
	}
}

// TestFTSeriesCountLive: the fault-tolerance series count the running
// machines, not only settled attempts — a straggler's speculation shows on
// /metrics while its job still runs, which is how CI's straggler drill reads
// it. The job runs hundreds of frames past its first speculation (at about
// 30 ms), so the scrape loop has a live window to look in.
func TestFTSeriesCountLive(t *testing.T) {
	job := distrib.Job{Topology: "ring", Procs: 8, Width: 128, Height: 128,
		Vehicles: 2, Seed: 21, Iters: 400, Deterministic: true}
	sched, _, _, err := job.Compile()
	if err != nil {
		t.Fatal(err)
	}
	victim := 0 // the first processor that only hosts farm workers
	for p := job.Procs - 1; p >= 1; p-- {
		only := len(sched.Programs[p]) > 0
		for _, op := range sched.Programs[p] {
			only = only && op.Kind == syndex.OpWorker
		}
		if only {
			victim = p
		}
	}
	if victim == 0 {
		t.Fatal("no worker-only processor to slow down")
	}
	s, err := New(Config{JobRequeues: -1, JobTimeout: time.Minute,
		Tuning: distrib.Tuning{MaxRetries: 2, SpeculateAfter: 30 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spawn := InProcessWorkers(job.Procs, func(p int) distrib.Node {
		if p != victim {
			return distrib.Node{}
		}
		return distrib.Node{Chaos: faulttransport.Fault{SlowEveryNth: 1, SlowFor: 600 * time.Millisecond}}
	})
	if err := spawn(s.FleetAddr(), func(err error) { t.Error(err) }); err != nil {
		t.Fatal(err)
	}
	if err := s.awaitWorkers(job.Procs-1, nil); err != nil {
		t.Fatal(err)
	}
	id, err := s.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	for {
		var scrape bytes.Buffer
		s.metrics.WritePrometheus(&scrape)
		s.mu.Lock()
		st := s.jobs[id]
		running, status := st.mach != nil, st.status // a machine is dropped once its attempt settles
		s.mu.Unlock()
		if running && strings.Contains(scrape.String(), "\nskipper_task_speculations_total 1\n") {
			return
		}
		if status != StatusQueued && status != StatusRunning {
			t.Fatalf("job %s %s before a scrape counted its speculation live", id, status)
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzFleetMsg feeds arbitrary member frames into the control plane's
// member loop over net.Pipe, after a join through the hub's handshake: each
// line of the input is one frame's payload. serveWorker must neither panic
// nor hang, and the member is gone once its connection drops. Done messages
// may name a traced job the server holds.
func FuzzFleetMsg(f *testing.F) {
	for _, seed := range []string{
		`{"type":"done","job":"j1","salt":1,"error":"boom"}`,
		`{"type":"done","job":"j1","salt":1,"trace":{"schema":"skipper-trace/v2","nprocs":2,"procs":[1],"events":[{"kind":3}]}}`,
		`{"type":"done","job":"j9","salt":7}` + "\n" + `{"type":"done","job":"j1"}`,
		`{"type":"stop"}` + "\n" + `{"type":"done","job":"j1","salt":1}`,
		`{"type":"run","spec":{"procs":0}}`,
		`{"type":`,
		"\x00\xff[]{}",
		"", // an empty member frame
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	att := &jobAttempt{salt: 1}
	s.mu.Lock()
	s.jobs["j1"] = &jobState{id: "j1", status: StatusRunning, done: make(chan struct{}), attempts: []*jobAttempt{att}}
	s.mu.Unlock()

	f.Fuzz(func(t *testing.T, lines []byte) {
		srv, cl := net.Pipe()
		go s.hub.ServeConn(srv)
		m, err := nettransport.Join(cl, "fuzz")
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(lines, []byte("\n")) {
			if m.Send(line) != nil {
				break // the server dropped the member
			}
		}
		m.Close()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			s.mu.Lock()
			_, live := s.workers["fuzz"]
			att.workers = nil
			s.mu.Unlock()
			if !live {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("member still joined 10s after its connection dropped (input %q)", lines)
			}
		}
	})
}

// FuzzJobBody posts arbitrary bodies to POST /jobs: each gets 202 or 400,
// never a panic, and every accepted job compiles. The server dispatches
// nothing, so accepted jobs only queue, and each is forgotten again.
func FuzzJobBody(f *testing.F) {
	for _, seed := range []string{
		`{"topology":"ring","procs":3,"width":48,"height":48,"vehicles":1,"seed":1,"iters":2}`,
		`{"topology":"star","procs":1,"width":8,"height":8,"iters":1,"deterministic":true,"pipeline":true,"trace":true,"speculateAfterMs":-1}`,
		`{"topology":"ring","procs":0,"width":64,"height":64,"iters":1}`,
		`{"topology":"ring","procs":3,"width":48,"height":48,"iters":1099511627776}`,
		`{"topology":"ring","procs":3,"width":48,"height":48,"iters":2,"pipelineDepth":2}`,
		`{"topology":"ring","procs":3,"width":48,"height":48,"iters":2} trailing`,
		`[]`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	s.mu.Lock()
	s.cfg.MaxRunning = 0 // nothing is ever dispatched
	s.mu.Unlock()

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.handleJobs(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusAccepted:
			var reply struct{ ID string }
			if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			job := s.jobs[reply.ID].job
			s.jobs, s.queue, s.order = map[string]*jobState{}, nil, nil
			s.mu.Unlock()
			if _, _, _, err := job.Compile(); err != nil {
				t.Fatalf("accepted %q, which does not compile: %v", body, err)
			}
		default:
			t.Fatalf("POST %q = %d (%s), want 202 or 400", body, rec.Code, rec.Body)
		}
	})
}
