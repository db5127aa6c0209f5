// Fleet protocol: the control channel between skipper-serve's scheduler and
// its workers. It is deliberately not the frame wire — newline-delimited
// JSON over one TCP (or unix-domain) connection per worker, a few messages
// per job — because fleet membership changes at human timescales while
// frames move at microsecond ones. A worker joins once and then serves any
// number of job assignments; each assignment makes the worker dial the
// fleet hub's *data* listener under the job's salted fingerprint, so job
// traffic rides the existing nettransport sessions and never touches this
// channel.
//
//	worker → serve: {"type":"join","name":"w1"}
//	serve  → worker: {"type":"welcome"}
//	serve  → worker: {"type":"run","job":"j3","salt":...,"procs":[2,5],
//	                  "hub":"127.0.0.1:9000","spec":{...Job...},...}
//	worker → serve: {"type":"done","job":"j3","error":""}
//	worker → serve: {"type":"ping"}        (liveness, every second)
//	worker → serve: {"type":"leave"}       (clean departure)
//	serve  → worker: {"type":"stop"}       (control plane shutting down)
package distrib

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"skipper/internal/exec"
	"skipper/internal/exec/nettransport"
	"skipper/internal/obsv"
)

// Fleet message types.
const (
	MsgJoin    = "join"
	MsgWelcome = "welcome"
	MsgRun     = "run"
	MsgDone    = "done"
	MsgPing    = "ping"
	MsgLeave   = "leave"
	MsgStop    = "stop"
)

// FleetPingInterval is how often an idle worker proves liveness.
const FleetPingInterval = time.Second

// FleetMsg is one line of the fleet protocol. The channel is internal: both
// ends ship from this repository and no outside tool speaks it, so the
// tuning travels as the Tuning struct itself, durations as plain
// time.Duration nanoseconds, rather than as a per-field wire format.
type FleetMsg struct {
	Type string `json:"type"`
	// Name identifies the worker (join/leave).
	Name string `json:"name,omitempty"`
	// JobID names the job an assignment or completion belongs to.
	JobID string `json:"job,omitempty"`
	// Salt XORs into the schedule fingerprint to namespace the job's
	// session on the shared fleet hub.
	Salt uint64 `json:"salt,omitempty"`
	// Procs are the deployment processors this worker must host for the job.
	Procs []int `json:"procs,omitempty"`
	// HubAddr is the fleet hub's data/control listener the worker dials.
	HubAddr string `json:"hub,omitempty"`
	// Job is the deployment agreement, shipped verbatim from the submitter.
	Job *Job `json:"spec,omitempty"`
	// Tuning is the executive tuning the whole deployment must agree on;
	// Timeout the per-attempt dial + run watchdog (run messages).
	Tuning  Tuning        `json:"tuning"`
	Timeout time.Duration `json:"timeout,omitempty"`
	// Error reports a failed assignment (done messages).
	Error string `json:"error,omitempty"`
	// Trace is a traced assignment's event snapshot, shipped back with the
	// done message (Job.Trace set) so the control plane can merge every
	// worker's timeline into the job's clock-aligned trace. Done messages
	// echo Salt so the control plane can attribute the snapshot to the
	// right attempt of a requeued job.
	Trace *obsv.Trace `json:"trace,omitempty"`
}

// Worker is one fleet member: a process (or goroutine, in tests) that has
// joined a skipper-serve control plane and executes job assignments in a
// loop — the long-lived counterpart of the one-shot RunNode. Assignments
// run concurrently: a worker hosts processors of several jobs at once, each
// over its own fingerprint-salted session.
type Worker struct {
	name string
	conn net.Conn
	dec  *json.Decoder

	encMu sync.Mutex
	enc   *json.Encoder

	mu     sync.Mutex
	active map[string]*assignment // job id → the assignment running it
	killed bool
	// ended is the sealed trace of the traced assignment that ended last:
	// a fault that aborts an assignment triggers a flight dump which
	// usually collects its companions after the assignment has left active.
	ended *obsv.Trace

	// flight, when armed (EnableFlight), is the worker's always-on flight
	// recorder: untraced assignments record into its bounded ring, and any
	// fault auto-dumps a trace artifact.
	flight *obsv.Flight

	closing  atomic.Bool
	jobWG    sync.WaitGroup
	pingStop chan struct{}
	pingOnce sync.Once
}

// assignment is what the worker tracks per running job, guarded by Worker.mu:
// the session transport once dialed (so Kill can sever it mid-run) and a
// traced job's own recorder (so a flight dump can carry its timeline).
type assignment struct {
	cl  *nettransport.Client
	rec *obsv.Recorder
}

// JoinFleet dials the control plane at addr, retrying until d elapses
// (workers may start before skipper-serve binds), and registers under name
// (defaulting to host-pid). The returned worker serves assignments once
// Serve is called.
func JoinFleet(addr, name string, d time.Duration) (*Worker, error) {
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	network, address := nettransport.SplitNetAddr(addr)
	deadline := time.Now().Add(d)
	var c net.Conn
	var err error
	for {
		c, err = net.DialTimeout(network, address, time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("distrib: joining fleet %s: %w", addr, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	w := &Worker{
		name:     name,
		conn:     c,
		dec:      json.NewDecoder(c),
		enc:      json.NewEncoder(c),
		active:   map[string]*assignment{},
		pingStop: make(chan struct{}),
	}
	if err := w.send(FleetMsg{Type: MsgJoin, Name: name}); err != nil {
		c.Close()
		return nil, fmt.Errorf("distrib: fleet join: %w", err)
	}
	var welcome FleetMsg
	if err := w.dec.Decode(&welcome); err != nil {
		c.Close()
		return nil, fmt.Errorf("distrib: fleet join: %w", err)
	}
	if welcome.Type != MsgWelcome {
		c.Close()
		if welcome.Error != "" {
			return nil, fmt.Errorf("distrib: fleet join rejected: %s", welcome.Error)
		}
		return nil, fmt.Errorf("distrib: fleet join: unexpected %q reply", welcome.Type)
	}
	return w, nil
}

// Name is the worker's fleet registration name.
func (w *Worker) Name() string { return w.name }

// EnableFlight arms the worker's always-on flight recorder: every
// assignment's executive and transport events land in a bounded ring at all
// times, and any fault — peer-down, redispatch, degrade, cancel, abort —
// auto-dumps the last few seconds as a trace artifact under dir. Idempotent;
// an empty dir leaves the flight unarmed.
func (w *Worker) EnableFlight(dir string) {
	if dir == "" || w.flight != nil {
		return
	}
	w.flight = obsv.NewFlight(dir, w.name, obsv.FlightOptions{
		Procs: 16, // spread arbitrary assignments' proc IDs across rings
		Extra: w.activeTraces,
	})
}

// Flight exposes the worker's flight recorder (nil unless EnableFlight ran).
func (w *Worker) Flight() *obsv.Flight { return w.flight }

// flightRecorder is the ring untraced assignments record into.
func (w *Worker) flightRecorder() *obsv.Recorder {
	if w.flight == nil {
		return nil
	}
	return w.flight.Recorder()
}

// flightTrigger routes a traced assignment's fault hook into the flight's
// rate-limited dump path, so faults auto-dump even when the assignment
// records into its own dedicated ring instead of the flight ring.
func (w *Worker) flightTrigger(k obsv.EventKind) {
	if w.flight != nil {
		w.flight.Trigger(k)
	}
}

// activeTraces collects the traced assignments' timelines at dump time so a
// fault artifact carries them alongside the flight ring: the sealed trace of
// the one that ended last (the dump trims it away once it is older than its
// window) and best-effort mid-run snapshots of the running ones — an event
// being stored concurrently may be missed, which is fine for a post-mortem
// artifact.
func (w *Worker) activeTraces() []*obsv.Trace {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []*obsv.Trace
	if w.ended != nil {
		out = append(out, w.ended)
	}
	for _, a := range w.active {
		if a.rec != nil {
			out = append(out, a.rec.Snapshot())
		}
	}
	return out
}

func (w *Worker) send(msg FleetMsg) error {
	w.encMu.Lock()
	defer w.encMu.Unlock()
	return w.enc.Encode(msg)
}

func (w *Worker) stopPing() {
	w.pingOnce.Do(func() { close(w.pingStop) })
}

func (w *Worker) pingLoop() {
	t := time.NewTicker(FleetPingInterval)
	defer t.Stop()
	for {
		select {
		case <-w.pingStop:
			return
		case <-t.C:
		}
		if w.closing.Load() {
			return
		}
		w.send(FleetMsg{Type: MsgPing, Name: w.name})
	}
}

// Serve executes job assignments until the control plane sends stop, Leave
// or Kill is called, or the connection drops (a dead control plane). Each
// run message starts a goroutine: assignments for different jobs overlap.
func (w *Worker) Serve() error {
	go w.pingLoop()
	for {
		var msg FleetMsg
		if err := w.dec.Decode(&msg); err != nil {
			w.stopPing()
			w.jobWG.Wait()
			if w.closing.Load() {
				return nil
			}
			return fmt.Errorf("distrib: fleet connection lost: %w", err)
		}
		switch msg.Type {
		case MsgRun:
			w.jobWG.Add(1)
			go func(m FleetMsg) {
				defer w.jobWG.Done()
				w.runAssignment(m)
			}(msg)
		case MsgStop:
			w.closing.Store(true)
			w.stopPing()
			w.jobWG.Wait()
			return nil
		}
	}
}

// Leave departs cleanly: the control plane unregisters the worker instead
// of declaring it dead.
func (w *Worker) Leave() error {
	w.closing.Store(true)
	w.stopPing()
	w.send(FleetMsg{Type: MsgLeave, Name: w.name})
	return w.conn.Close()
}

// Kill tears the worker down the way kill -9 would: the fleet connection
// and every active job session are severed abruptly, no detach, no done
// messages — the in-process stand-in for killing a worker process in
// chaos and equivalence tests.
func (w *Worker) Kill() {
	w.closing.Store(true)
	w.stopPing()
	w.mu.Lock()
	w.killed = true
	cls := make([]*nettransport.Client, 0, len(w.active))
	for _, a := range w.active {
		if a.cl != nil {
			cls = append(cls, a.cl)
		}
	}
	w.mu.Unlock()
	w.conn.Close()
	for _, cl := range cls {
		cl.Sever()
	}
}

// runAssignment executes one job assignment and reports the outcome. The
// done message echoes the assignment's salt (attempt identity) and, for a
// traced job, carries the worker's event snapshot home.
func (w *Worker) runAssignment(m FleetMsg) {
	tr, err := w.execute(m)
	done := FleetMsg{Type: MsgDone, JobID: m.JobID, Name: w.name, Salt: m.Salt, Trace: tr}
	if err != nil {
		done.Error = err.Error()
	}
	w.send(done) // best effort: the control plane may be gone
}

// execute is the worker-side job lifecycle: compile the shipped Job and run
// the assigned processors in the node role on the fleet hub, under the
// job's salt. A traced job records into its own full-size ring, whose sealed
// snapshot is returned to ship home; an untraced one records into the
// bounded always-on flight ring (nil unless armed). Either way faults route
// through the flight's dump path.
func (w *Worker) execute(m FleetMsg) (*obsv.Trace, error) {
	if m.Job == nil {
		return nil, errors.New("distrib: run message without job spec")
	}
	if m.HubAddr == "" {
		return nil, errors.New("distrib: run message without hub address")
	}
	dep, err := Spec{Job: *m.Job, Tuning: m.Tuning}.Deploy()
	if err != nil {
		return nil, err
	}
	timeout := m.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	a := &assignment{}
	rec := w.flightRecorder()
	if dep.Trace {
		a.rec = obsv.NewRecorder(dep.Sched.Arch.N, 0)
		a.rec.SetFaultHook(w.flightTrigger)
		rec = a.rec
	}
	w.mu.Lock()
	w.active[m.JobID] = a
	w.mu.Unlock()
	_, tr, err := dep.RunNode(m.HubAddr, m.Salt, m.Procs, rec, timeout,
		func(_ *exec.Machine, cl *nettransport.Client) error {
			w.mu.Lock()
			defer w.mu.Unlock()
			if w.killed {
				cl.Sever()
				return errors.New("distrib: worker killed")
			}
			a.cl = cl // from here on Kill severs the session mid-run
			return nil
		})
	if a.rec == nil {
		tr = nil // untraced: the flight ring's snapshot is not the job's to ship
	} else if tr != nil { // nil when the run never reached its transport
		tr.Meta["worker"] = w.name
	}
	w.retire(m.JobID, tr)
	return tr, err
}

// retire drops an ended assignment from the active set. A traced one's
// sealed timeline (tr; nil for an untraced job) becomes w.ended.
func (w *Worker) retire(jobID string, tr *obsv.Trace) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.active, jobID)
	if tr != nil {
		w.ended = tr
	}
}

// RunWorker is the whole lifecycle of one fleet worker process: join the
// control plane at addr and serve job assignments until it stops or
// disappears. The long-lived sibling of RunNode, used by
// `skipper-node -fleet`. flightDir arms the always-on flight recorder
// (empty disables it); fault artifacts land there.
func RunWorker(addr, name string, d time.Duration, flightDir string) error {
	w, err := JoinFleet(addr, name, d)
	if err != nil {
		return err
	}
	w.EnableFlight(flightDir)
	if w.flight != nil {
		defer w.flight.Close()
	}
	return w.Serve()
}
