package distrib

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// TestWorkerAnswersInvalidRunAndStaysJoined: a run message whose job no
// deployment could run — "procs": 0 — is answered with a done message that
// carries the error, and the worker stays joined: it answers a second one
// the same way and leaves only when told to stop.
func TestWorkerAnswersInvalidRunAndStaysJoined(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		w, err := JoinFleet(ln.Addr().String(), "w1", 5*time.Second)
		if err != nil {
			served <- err
			return
		}
		served <- w.Serve()
	}()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(30 * time.Second))
	dec, enc := json.NewDecoder(c), json.NewEncoder(c)
	var join FleetMsg
	if err := dec.Decode(&join); err != nil || join.Type != MsgJoin {
		t.Fatalf("join = %+v, %v", join, err)
	}
	enc.Encode(FleetMsg{Type: MsgWelcome})

	job := Job{Topology: "ring", Procs: 0, Width: 64, Height: 64, Iters: 1}
	for i := 1; i <= 2; i++ {
		id := fmt.Sprintf("j%d", i)
		enc.Encode(FleetMsg{Type: MsgRun, JobID: id, HubAddr: "127.0.0.1:1", Procs: []int{1}, Job: &job})
		var done FleetMsg
		for done.Type != MsgDone { // pings may come first
			if err := dec.Decode(&done); err != nil {
				t.Fatalf("run %s: no done message: %v", id, err)
			}
		}
		if done.JobID != id || !strings.Contains(done.Error, "procs") {
			t.Fatalf("run %s answered %+v, want done with the procs error", id, done)
		}
	}
	enc.Encode(FleetMsg{Type: MsgStop})
	if err := <-served; err != nil {
		t.Fatalf("worker after stop: %v", err)
	}
}

// FuzzFleetMsg feeds arbitrary run messages into a worker's checks — every
// one it makes before it dials. None may panic, and a message they pass
// names a valid job and remote processors only.
func FuzzFleetMsg(f *testing.F) {
	const job = `"spec":{"topology":"ring","procs":3,"width":48,"height":48,"iters":2}`
	for _, seed := range []string{
		`{"type":"run","job":"j1","procs":[1,2],"hub":"127.0.0.1:9",` + job + `}`,
		`{"type":"run","job":"j1","procs":[0],"hub":"127.0.0.1:9",` + job + `}`,
		`{"type":"run","procs":[1],"hub":"h","spec":{"topology":"ring","procs":0,"width":64,"height":64,"iters":1}}`,
		`{"type":"run","procs":[1],"hub":"h","spec":{"topology":"star","procs":2,"width":8,"height":8,"iters":1,"vehicles":-3}}`,
		`{"type":"run","procs":[],"hub":"h",` + job + `}`,
		`{"type":"run","hub":"h"}`,
		`{"type":"done","error":"x","trace":{"nprocs":-1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var m FleetMsg
		if json.Unmarshal(line, &m) != nil {
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
