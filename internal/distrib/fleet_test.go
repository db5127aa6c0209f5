package distrib

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"skipper/internal/exec/nettransport"
)

// TestWorkerAnswersInvalidRunAndStaysJoined: a run message whose job no
// deployment could run — "procs": 0 — is answered with a done message that
// carries the error, and the worker stays joined: it answers a second one
// the same way and leaves only when told to stop.
func TestWorkerAnswersInvalidRunAndStaysJoined(t *testing.T) {
	joined := make(chan *nettransport.Member, 1)
	hub, err := nettransport.NewFleetHub("127.0.0.1:0", func(m *nettransport.Member) error {
		joined <- m
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	served := make(chan error, 1)
	go func() {
		w, err := JoinFleet(hub.Addr(), "w1", 5*time.Second)
		if err != nil {
			served <- err
			return
		}
		served <- w.Serve()
	}()
	var m *nettransport.Member
	select {
	case m = <-joined:
	case err := <-served:
		t.Fatalf("join: %v", err)
	}
	defer m.Close()
	if m.Name() != "w1" {
		t.Fatalf("member joined as %q, want w1", m.Name())
	}

	job := Job{Topology: "ring", Procs: 0, Width: 64, Height: 64, Iters: 1}
	for i := 1; i <= 2; i++ {
		id := fmt.Sprintf("j%d", i)
		if err := SendFleetMsg(m, FleetMsg{Type: MsgRun, JobID: id, Procs: []int{1}, Job: &job}); err != nil {
			t.Fatal(err)
		}
		done, err := RecvFleetMsg(m)
		if err != nil {
			t.Fatalf("run %s: no done message: %v", id, err)
		}
		if done.Type != MsgDone || done.JobID != id || !strings.Contains(done.Error, "procs") {
			t.Fatalf("run %s answered %+v, want done with the procs error", id, done)
		}
	}
	SendFleetMsg(m, FleetMsg{Type: MsgStop})
	if err := <-served; err != nil {
		t.Fatalf("worker after stop: %v", err)
	}
	if _, err := RecvFleetMsg(m); err != io.EOF {
		t.Fatalf("worker after stop left with %v, want a detach (io.EOF)", err)
	}
}

// FuzzFleetMsg feeds arbitrary member-frame payloads, unmarshalled the way
// RecvFleetMsg does, into a worker's checks on a run message — every one it
// makes before it dials. None may panic, and a message they pass names a
// valid job and remote processors only.
func FuzzFleetMsg(f *testing.F) {
	const job = `"spec":{"topology":"ring","procs":3,"width":48,"height":48,"iters":2}`
	for _, seed := range []string{
		`{"type":"run","job":"j1","procs":[1,2],` + job + `}`,
		`{"type":"run","job":"j1","procs":[0],` + job + `}`,
		`{"type":"run","procs":[1],"spec":{"topology":"ring","procs":0,"width":64,"height":64,"iters":1}}`,
		`{"type":"run","procs":[1],"spec":{"topology":"star","procs":2,"width":8,"height":8,"iters":1,"vehicles":-3}}`,
		`{"type":"run","procs":[],` + job + `}`,
		`{"type":"run"}`,
		`{"type":"done","error":"x","trace":{"nprocs":-1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var m FleetMsg
		if json.Unmarshal(payload, &m) != nil {
			return
		}
		dep, err := m.deploy()
		if err != nil {
			return
		}
		if err := m.Job.Validate(); err != nil {
			t.Fatalf("checks passed an invalid job: %v", err)
		}
		for _, p := range m.Procs {
			if p < 1 || p >= dep.Sched.Arch.N {
				t.Fatalf("checks passed processor %d of %d", p, dep.Sched.Arch.N)
			}
		}
	})
}
