package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/distrib"
	"skipper/internal/exec/nettransport"
	"skipper/internal/track"
)

// resultsIdentical mirrors the harness E4 comparator: field-by-field
// equality of the tracking traces.
func resultsIdentical(a, b []track.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Tracking != y.Tracking || x.Vehicles != y.Vehicles || len(x.Marks) != len(y.Marks) {
			return false
		}
		for j := range x.Marks {
			if x.Marks[j] != y.Marks[j] {
				return false
			}
		}
	}
	return true
}

// startWorker joins an in-process fleet worker and serves assignments in
// the background, returning the handle (for Kill) and a done channel.
func startWorker(t *testing.T, s *Server, name string) *distrib.Worker {
	t.Helper()
	w, err := distrib.JoinFleet(s.FleetAddr(), name, 5*time.Second)
	if err != nil {
		t.Fatalf("worker %s join: %v", name, err)
	}
	go w.Serve()
	return w
}

// postJob submits a job over the real HTTP API and returns the assigned id.
func postJob(t *testing.T, baseURL string, job distrib.Job) string {
	t.Helper()
	body, _ := json.Marshal(job)
	resp, err := http.Post(baseURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs = %d: %s", resp.StatusCode, b)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func getJob(t *testing.T, baseURL, id string) JobView {
	t.Helper()
	resp, err := http.Get(baseURL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// waitStatus polls the HTTP API until the job reaches status (or any
// terminal one, if status is terminal and the job went elsewhere the caller
// sees it) or the deadline passes.
func waitStatus(t *testing.T, baseURL, id, status string, d time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(d)
	for {
		v := getJob(t, baseURL, id)
		if v.Status == status {
			return v
		}
		switch v.Status {
		case StatusDone, StatusFailed, StatusCancelled:
			t.Fatalf("job %s reached %q (err %q) while waiting for %q", id, v.Status, v.Error, status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v, want %q", id, v.Status, d, status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeEquivalenceElasticFleet is the acceptance drill of the control
// plane: two jobs with different topologies share one fleet, a worker joins
// mid-run and another is killed mid-run, and both jobs still finish with
// tracking output bit-identical to solo in-process runs of the same specs.
func TestServeEquivalenceElasticFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-job fleet run")
	}
	// Enough frames (most of a second each) that both attempts are still
	// mid-run when the join and the kill land, tens of milliseconds after
	// they are seen running.
	jobA := distrib.Job{Topology: "ring", Procs: 6, Width: 128, Height: 128,
		Vehicles: 2, Seed: 5, Iters: 1200, Deterministic: true}
	jobB := distrib.Job{Topology: "star", Procs: 4, Width: 96, Height: 96,
		Vehicles: 1, Seed: 9, Iters: 1200, Deterministic: true}

	// Solo references first: fresh scenes, plain in-process executive.
	recA, _, err := distrib.RunInProcess(distrib.Spec{Job: jobA}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	recB, _, err := distrib.RunInProcess(distrib.Spec{Job: jobB}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	s, err := New(Config{JobTimeout: 30 * time.Second, JobRequeues: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	startWorker(t, s, "w1")
	w2 := startWorker(t, s, "w2")
	startWorker(t, s, "w3")

	idA := postJob(t, base, jobA)
	idB := postJob(t, base, jobB)
	waitStatus(t, base, idA, StatusRunning, 10*time.Second)
	waitStatus(t, base, idB, StatusRunning, 10*time.Second)

	// Elasticity, both directions: a fourth worker joins the live fleet and
	// an original member dies abruptly (severed sockets, no detach).
	startWorker(t, s, "w4")
	w2.Kill()

	if err := s.Wait(idA, time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(idB, time.Minute); err != nil {
		t.Fatal(err)
	}
	vA, vB := getJob(t, base, idA), getJob(t, base, idB)
	if vA.Status != StatusDone {
		t.Fatalf("job A = %q (err %q), want done", vA.Status, vA.Error)
	}
	if vB.Status != StatusDone {
		t.Fatalf("job B = %q (err %q), want done", vB.Status, vB.Error)
	}
	if !resultsIdentical(recA.Results, s.Results(idA)) {
		t.Fatalf("job A results differ from solo in-process run (frames %d vs %d)",
			len(recA.Results), len(s.Results(idA)))
	}
	if !resultsIdentical(recB.Results, s.Results(idB)) {
		t.Fatalf("job B results differ from solo in-process run (frames %d vs %d)",
			len(recB.Results), len(s.Results(idB)))
	}
	if want := fmt.Sprintf("%016x", Digest(recA.Results)); vA.Digest != want {
		t.Fatalf("job A digest %s, want %s", vA.Digest, want)
	}
	if want := fmt.Sprintf("%016x", Digest(recB.Results)); vB.Digest != want {
		t.Fatalf("job B digest %s, want %s", vB.Digest, want)
	}

	// The fleet metrics saw the churn: one worker dead, jobs done.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"skipper_serve_jobs_done_total 2",
		"skipper_serve_workers_dead_total 1",
		"skipper_serve_workers_live 3",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// w2 hosted processors of both jobs. A re-queue (charged, or free when
	// the attempt was still attaching) proves the kill landed on a dispatched
	// attempt rather than after the jobs had finished.
	if strings.Contains(string(metrics), "\nskipper_serve_job_requeues_total 0\n") {
		t.Error("the kill forced no re-queue: it never hit a running job")
	}
}

func tinyJob(iters int) distrib.Job {
	return distrib.Job{Topology: "ring", Procs: 3, Width: 48, Height: 48,
		Vehicles: 1, Seed: 1, Iters: iters}
}

// TestServeBackpressureFIFO pins the queue semantics: a fleet with no
// workers parks every job in the queue (the deterministic way to fill it),
// submissions beyond QueueLimit get 429, and once a worker joins, dispatch
// order is strictly first-in-first-out.
func TestServeBackpressureFIFO(t *testing.T) {
	s, err := New(Config{MaxRunning: 1, QueueLimit: 3, JobTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	// No workers yet: all three sit queued, filling the FIFO.
	id1 := postJob(t, base, tinyJob(2))
	id2 := postJob(t, base, tinyJob(2))
	id3 := postJob(t, base, tinyJob(2))
	for _, id := range []string{id1, id2, id3} {
		if v := getJob(t, base, id); v.Status != StatusQueued {
			t.Fatalf("job %s = %q with no workers, want queued", id, v.Status)
		}
	}

	body, _ := json.Marshal(tinyJob(2))
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	over, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST beyond QueueLimit = %d (%s), want 429", resp.StatusCode, over)
	}

	// One worker drains the queue, one job at a time, in order.
	startWorker(t, s, "w1")
	for _, id := range []string{id1, id2, id3} {
		if err := s.Wait(id, time.Minute); err != nil {
			t.Fatal(err)
		}
		if v := getJob(t, base, id); v.Status != StatusDone {
			t.Fatalf("job %s = %q (err %q), want done", id, v.Status, v.Error)
		}
	}
	// With one slot, FIFO means start times follow submission order.
	var starts []time.Time
	for _, id := range []string{id1, id2, id3} {
		st, err := time.Parse(time.RFC3339Nano, getJob(t, base, id).Started)
		if err != nil {
			t.Fatal(err)
		}
		starts = append(starts, st)
	}
	if !starts[0].Before(starts[1]) || !starts[1].Before(starts[2]) {
		t.Fatalf("dispatch order not FIFO: %v", starts)
	}
}

// TestServeRejectsOversizedJob: a job past the admission bounds gets 400 and
// is never queued — admitted, its run would allocate every output (iters), a
// frame (width) or an architecture (procs) at that size and take the server
// down. A job naming the deleted pipelineDepth knob is refused too.
func TestServeRejectsOversizedJob(t *testing.T) {
	s, err := New(Config{MaxRunning: 1, QueueLimit: 8, JobTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const job = `"topology":"ring","vehicles":1,"seed":1`
	for _, body := range []string{
		`{` + job + `,"procs":3,"width":48,"height":48,"iters":1099511627776}`,
		`{` + job + `,"procs":3,"width":1000000,"height":48,"iters":2}`,
		`{` + job + `,"procs":1048576,"width":48,"height":48,"iters":2}`,
		`{` + job + `,"procs":3,"width":48,"height":48,"iters":2,"pipelineDepth":2}`,
	} {
		resp, err := http.Post("http://"+s.Addr()+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s = %d (%s), want 400", body, resp.StatusCode, msg)
		}
	}
	if jobs := s.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused submissions left %d job(s) behind", len(jobs))
	}
}

// TestServeCancel pins both cancellation paths: a queued job leaves the
// queue without ever running, a running one is aborted through the
// executive and reports cancelled — and the freed slot dispatches the next
// job.
func TestServeCancel(t *testing.T) {
	s, err := New(Config{InProcess: true, MaxRunning: 1, JobTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	id1 := postJob(t, base, tinyJob(100000)) // ~5s: still mid-run when the DELETE lands
	waitStatus(t, base, id1, StatusRunning, 10*time.Second)
	id2 := postJob(t, base, tinyJob(2))

	del := func(id string) JobView {
		req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v JobView
		json.NewDecoder(resp.Body).Decode(&v)
		return v
	}
	if v := del(id2); v.Status != StatusCancelled {
		t.Fatalf("queued job after DELETE = %q, want cancelled", v.Status)
	}
	del(id1)
	if err := s.Wait(id1, time.Minute); err != nil {
		t.Fatal(err)
	}
	if v := getJob(t, base, id1); v.Status != StatusCancelled {
		t.Fatalf("running job after DELETE = %q (err %q), want cancelled", v.Status, v.Error)
	}

	// The slot is free again: a fresh job runs to completion.
	id3 := postJob(t, base, tinyJob(2))
	if err := s.Wait(id3, time.Minute); err != nil {
		t.Fatal(err)
	}
	if v := getJob(t, base, id3); v.Status != StatusDone {
		t.Fatalf("job after cancels = %q (err %q), want done", v.Status, v.Error)
	}
}

// TestServeRequeueBudgetExhausted: when every attempt dies (a worker that
// joins, receives the assignment and is killed each time), the job fails
// after JobRequeues re-runs instead of looping forever.
func TestServeRequeueBudgetExhausted(t *testing.T) {
	s, err := New(Config{JobRequeues: 1, JobTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	id := postJob(t, base, distrib.Job{Topology: "ring", Procs: 3, Width: 64,
		Height: 64, Vehicles: 1, Seed: 2, Iters: 5000})
	// Attempt 1 and the single re-queue both lose their worker mid-run.
	for i := 0; i < 2; i++ {
		w := startWorker(t, s, fmt.Sprintf("doomed%d", i))
		waitStatus(t, base, id, StatusRunning, 15*time.Second)
		time.Sleep(50 * time.Millisecond) // let frames start flowing
		w.Kill()
		deadline := time.Now().Add(15 * time.Second)
		for getJob(t, base, id).Status == StatusRunning {
			if time.Now().After(deadline) {
				t.Fatal("attempt never settled after worker kill")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if err := s.Wait(id, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	v := getJob(t, base, id)
	if v.Status != StatusFailed {
		t.Fatalf("job = %q (err %q), want failed after exhausted re-queues", v.Status, v.Error)
	}
	if v.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", v.Requeues)
	}
}

// TestServeRestartsOnStaleFleetSocket: a skipper-serve killed with SIGKILL
// leaves its unix fleet socket file behind; the next start on the same path
// must reclaim it (nobody is listening) instead of failing with "address
// already in use", the way the hub listener already does.
func TestServeRestartsOnStaleFleetSocket(t *testing.T) {
	path := nettransport.ShortSockPath("skipper-fleet-test")
	defer os.Remove(path)
	ln, err := net.ListenUnix("unix", &net.UnixAddr{Name: path, Net: "unix"})
	if err != nil {
		t.Fatal(err)
	}
	ln.SetUnlinkOnClose(false) // what SIGKILL leaves: no listener, file still there
	ln.Close()

	s, err := New(Config{FleetAddr: "unix:" + path})
	if err != nil {
		t.Fatalf("restart on a stale fleet socket: %v", err)
	}
	defer s.Close()
	if got := s.FleetAddr(); got != "unix:"+path {
		t.Fatalf("FleetAddr = %q, want %q", got, "unix:"+path)
	}
	w := startWorker(t, s, "w1")
	defer w.Leave()
}

// TestServeDropsHostileMember: a member that sends what no worker sends — a
// frame declaring more than the frame limit, or a payload that is no fleet
// message — is dropped as one dead worker. The job it was placed on
// re-queues and finishes on the other members, and the server carries on.
// The oversized frame is refused from its header, never allocated.
func TestServeDropsHostileMember(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(c net.Conn, m *nettransport.Member) error
	}{
		{"oversized frame", func(c net.Conn, _ *nettransport.Member) error {
			// A whole frame header: a 4 GiB length, then destination and key.
			_, err := c.Write(append([]byte{0xff, 0xff, 0xff, 0xff}, make([]byte, 17)...))
			return err
		}},
		{"no fleet message", func(_ net.Conn, m *nettransport.Member) error {
			return m.Send([]byte(`[1,2,3]`))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{JobTimeout: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			base := "http://" + s.Addr()
			startWorker(t, s, "w1")
			startWorker(t, s, "w2")
			c, err := nettransport.DialHub(s.FleetAddr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			m, err := nettransport.Join(c, "a-hostile") // first in name order: it hosts processor 1
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()

			id := postJob(t, base, tinyJob(20))
			if run, err := distrib.RecvFleetMsg(m); err != nil || run.Type != distrib.MsgRun || run.JobID != id {
				t.Fatalf("hostile member's first message = %+v, %v; want the run for %s", run, err, id)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := tc.send(c, m); err != nil {
				t.Fatal(err)
			}
			if err := s.Wait(id, time.Minute); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if v := getJob(t, base, id); v.Status != StatusDone {
				t.Fatalf("job = %q (err %q), want done on the remaining members", v.Status, v.Error)
			}
			if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<20 {
				t.Errorf("the server allocated %d MB while dropping the member", grown>>20)
			}
			var scrape bytes.Buffer
			s.metrics.WritePrometheus(&scrape)
			for _, want := range []string{
				"\nskipper_serve_workers_dead_total 1\n",
				"\nskipper_serve_workers_live 2\n",
				"\nskipper_serve_job_requeues_total 1\n",
			} {
				if !strings.Contains(scrape.String(), want) {
					t.Errorf("/metrics missing %q", strings.TrimSpace(want))
				}
			}
		})
	}
}

// TestJoinRefusalsReachJoinFleet: when a hub refuses a join, JoinFleet
// returns the hub's own refusal text — for a name already joined, for a
// join hello of another wire version, and for a hub that takes no members.
func TestJoinRefusalsReachJoinFleet(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := startWorker(t, s, "w1")
	defer w.Leave()
	single, err := nettransport.NewHub("127.0.0.1:0", arch.Ring(2), 7, []arch.ProcID{0})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, tc := range []struct{ name, addr, want string }{
		{"duplicate name", s.FleetAddr(), `serve: worker "w1" already joined`},
		{"another wire version", restampedProxy(t, s.FleetAddr(), 8), "wire version 8, want "},
		{"single-session hub", single.Addr(), "this hub takes no fleet members"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := distrib.JoinFleet(tc.addr, "w1", 5*time.Second)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("JoinFleet = %v, want the refusal %q", err, tc.want)
			}
		})
	}
}

// restampedProxy forwards one connection to addr with its hello restamped
// as wire version v — the u16 after the 4-byte magic — the way a worker
// built at another version sends it; the hub's reply comes back unchanged.
func restampedProxy(t *testing.T, addr string, v uint16) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		hub, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer hub.Close()
		buf := make([]byte, 64)
		n, err := io.ReadAtLeast(c, buf, 7) // magic, version and hello kind: enough for the hub's verdict
		if err != nil {
			return
		}
		binary.BigEndian.PutUint16(buf[4:], v)
		hub.Write(buf[:n])
		io.Copy(c, hub)
	}()
	return ln.Addr().String()
}
