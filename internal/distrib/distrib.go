// Package distrib runs the built-in tracking application as a multi-process
// deployment: one coordinator process hosting processor 0 (and the TCP hub)
// plus one skipper-node process per remaining processor. Every process
// compiles the same specification from the same Spec — the hub's handshake
// fingerprint check proves they agree — and then runs its share of the
// executive over the nettransport backend. The stateful extern functions
// (frame grabber, recorder) are instantiated per process but each is only
// ever invoked on the processor hosting its node, so the distributed run is
// bit-identical to the in-process one.
package distrib

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"skipper/internal/arch"
	"skipper/internal/dsl/parser"
	"skipper/internal/dsl/types"
	"skipper/internal/exec"
	"skipper/internal/exec/faulttransport"
	"skipper/internal/exec/memtransport"
	"skipper/internal/exec/nettransport"
	"skipper/internal/exec/transport"
	"skipper/internal/expand"
	"skipper/internal/obsv"
	"skipper/internal/syndex"
	"skipper/internal/track"
	"skipper/internal/value"
	"skipper/internal/video"
)

// Job is the deployment agreement: everything every process of one
// deployment must hold identically, and nothing else. The schedule
// fingerprint covers the compiled program and architecture; the scene
// parameters are carried alongside so every process synthesizes the same
// video stream. Job is also the wire currency of the service control plane
// — a `POST /jobs` body on skipper-serve is exactly this struct, and the
// scheduler ships it verbatim to the workers it places the job on — hence
// the JSON tags.
type Job struct {
	Topology string `json:"topology"` // ring, chain, star or full
	Procs    int    `json:"procs"`
	Width    int    `json:"width"`
	Height   int    `json:"height"`
	Vehicles int    `json:"vehicles"`
	Seed     int64  `json:"seed"`
	Iters    int    `json:"iters"`
	// Deterministic selects order-insensitive df accumulation buffering.
	Deterministic bool `json:"deterministic,omitempty"`
	// Pipeline software-pipelines the itermem loop (DESIGN.md §7): frame
	// k+1's grab/preprocessing overlaps frame k's farm and merge on
	// processors whose program splits cleanly. Outputs stay bit-identical,
	// so it is executive tuning like Deterministic: not part of the
	// schedule fingerprint, but every process of a deployment must run the
	// same value so the chronograms line up — which is what makes it job
	// description rather than per-process config.
	Pipeline bool `json:"pipeline,omitempty"`
	// PipelineDepth caps the pipeline's stage count (DESIGN.md §7):
	// 0 or 1 cuts at every farm boundary, 2 restores the historical
	// front/back split. Job description for the same reason Pipeline is.
	PipelineDepth int `json:"pipelineDepth,omitempty"`
	// Trace arms job-scoped event tracing on every process of the
	// deployment: workers record their assignment's executive and
	// transport events into a dedicated full-size ring and ship the
	// snapshot back with the done message, and the serve hub keeps its own
	// per-attempt recorder, so `GET /jobs/{id}/trace` serves the merged
	// clock-aligned timeline. Executive tuning like Pipeline: not part of
	// the schedule fingerprint.
	Trace bool `json:"trace,omitempty"`
	// SpeculateAfterMS overrides the fleet's straggler-speculation threshold
	// (DESIGN.md §11) for this job, in milliseconds: positive duplicates a
	// task onto an idle worker once it has sat unanswered that long,
	// negative disables speculation for the job, zero inherits the fleet
	// default (the -speculate-after flag, or TaskDeadline/2). Executive
	// tuning like Pipeline: not part of the schedule fingerprint, but the
	// master's dispatch behavior, hence job description.
	SpeculateAfterMS int64 `json:"speculateAfterMs,omitempty"`
}

// Spec is one process's full view of a deployment: the shared Job plus the
// fleet/runtime configuration that is free to differ per process (tracing,
// debug endpoints) or that tunes the executive fleet-wide (Tuning) without
// entering the job description.
type Spec struct {
	Job

	// TraceDir and DebugAddr are per-process local configuration, not part
	// of the deployment agreement: they do not enter the schedule
	// fingerprint, and each process of one deployment may set them
	// differently (or not at all). TraceDir, when non-empty, arms event
	// tracing and writes this process's trace file there after the run;
	// DebugAddr, when non-empty, serves /metrics, /healthz and /varz on
	// that address for the run's duration.
	TraceDir  string
	DebugAddr string

	// Tuning is the fleet-wide executive tuning; it does not enter the
	// schedule fingerprint.
	Tuning

	// DieAfterSends is the chaos knob: when positive on a node process,
	// its transport is severed — no detach, sockets torn mid-frame, the
	// observable signature of kill -9 — once the node has sent that many
	// frames. The node's run then fails with ErrChaosKilled while the rest
	// of the cluster must carry on (or abort cleanly, without MaxRetries).
	DieAfterSends int

	// SlowEveryNth/SlowFor are the straggler chaos knobs: every Nth frame
	// this node process sends is delayed by SlowFor on the sending
	// goroutine — scripted slow compute, the scenario speculation exists
	// for. Unlike DieAfterSends the node stays alive and must finish clean.
	SlowEveryNth int
	SlowFor      time.Duration

	// DataPlane pins the node-side data plane ("tcp", "unix", "shm";
	// empty = the transport's "auto" inference). "shm" is the same-host
	// shared-memory slab ring (DESIGN.md §9): frames move through mmap'd
	// per-connection rings and the sockets degrade to doorbells. Not part
	// of the schedule fingerprint — it tunes how frames travel, never what
	// they say.
	DataPlane string
}

// Tuning is the executive tuning a whole deployment (or a whole serve fleet)
// shares: the fault-tolerance policy of DESIGN.md §11. It is set
// once — by the shared command-line flags or serve.Config — and travels as
// one value: embedded in Spec and serve.Config, carried by FleetMsg. None of
// it enters the schedule fingerprint: it tunes the executive, not the
// compiled deployment.
type Tuning struct {
	// MaxRetries > 0 enables farm task re-dispatch: a worker processor's
	// death re-enqueues its in-flight tasks on survivors, each task
	// surviving at most MaxRetries losses.
	MaxRetries int
	// TaskDeadline, when positive, additionally declares a worker dead when
	// a task sits unanswered that long (catching hangs no transport error
	// reveals).
	TaskDeadline time.Duration
	// Heartbeat arms control-plane liveness probes at that interval — the
	// same value on every process, like the topology.
	Heartbeat time.Duration
	// SpeculateAfter is the straggler-speculation threshold: positive
	// duplicates a task onto an idle worker once it has sat unanswered that
	// long, zero defaults to TaskDeadline/2 when a deadline is armed,
	// negative disables. Job.SpeculateAfterMS, when non-zero, overrides it
	// per job.
	SpeculateAfter time.Duration
}

// ErrChaosKilled marks a node run that ended because its own DieAfterSends
// trigger fired — the expected casualty of a chaos drill, not a fault.
var ErrChaosKilled = errors.New("distrib: node severed by chaos injection")

// HubListenAddr returns a hub bind address for the named multi-process
// transport kind: "tcp" picks a free localhost port, "unix" and "shm" a
// fresh unix-domain socket path (on the shm plane the socket remains the
// handshake/doorbell channel; the rings are minted per connection). The
// path comes from nettransport.ShortSockPath, never a MkdirTemp tree: a
// deep $TMPDIR used to push the path past the kernel's 104/108-byte
// sun_path limit and the bind failed (or silently truncated) — hashed
// short basenames keep it in bounds regardless of environment. The
// cleanup func removes anything the address reserved on disk; call it
// after the hub has closed.
func HubListenAddr(transport string) (listen string, cleanup func(), err error) {
	switch transport {
	case "tcp":
		return "127.0.0.1:0", func() {}, nil
	case "unix", "shm":
		path := nettransport.ShortSockPath("skipper-hub")
		return "unix:" + path, func() { os.Remove(path) }, nil
	}
	return "", nil, fmt.Errorf("distrib: unknown transport %q", transport)
}

// Validate rejects job descriptions no deployment could run — the
// admission check the service control plane applies before queueing.
func (j Job) Validate() error {
	switch j.Topology {
	case "ring", "chain", "star", "full":
	default:
		return fmt.Errorf("distrib: unknown topology %q", j.Topology)
	}
	if j.Procs < 1 {
		return fmt.Errorf("distrib: procs %d, want >= 1", j.Procs)
	}
	if j.Width < 8 || j.Height < 8 {
		return fmt.Errorf("distrib: frame %dx%d too small (want >= 8x8)", j.Width, j.Height)
	}
	if j.Iters < 1 {
		return fmt.Errorf("distrib: iters %d, want >= 1", j.Iters)
	}
	return nil
}

// Arch builds the architecture graph the job names.
func (j Job) Arch() (*arch.Arch, error) {
	switch j.Topology {
	case "ring":
		return arch.Ring(j.Procs), nil
	case "chain":
		return arch.Chain(j.Procs), nil
	case "star":
		return arch.Star(j.Procs), nil
	case "full":
		return arch.Full(j.Procs), nil
	}
	return nil, fmt.Errorf("distrib: unknown topology %q", j.Topology)
}

// Compile builds this process's instance of the deployment: a fresh scene
// and registry plus the mapped schedule. Every process of a deployment
// calls this with the same Job and obtains a schedule with the same
// fingerprint.
func (j Job) Compile() (*syndex.Schedule, *value.Registry, *track.Recorder, error) {
	a, err := j.Arch()
	if err != nil {
		return nil, nil, nil, err
	}
	scene := video.NewScene(j.Width, j.Height, j.Vehicles, j.Seed)
	reg, rec := track.NewRegistry(scene, nil)
	prog, err := parser.Parse(track.ProgramSource(j.Procs, j.Width, j.Height))
	if err != nil {
		return nil, nil, nil, err
	}
	info, err := types.Check(prog)
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := expand.Expand(prog, info, reg)
	if err != nil {
		return nil, nil, nil, err
	}
	s, err := syndex.Map(res.Graph, a, reg, syndex.Structured)
	if err != nil {
		return nil, nil, nil, err
	}
	return s, reg, rec, nil
}

// Configure copies the spec's executive knobs onto a machine — the one place
// a Spec becomes machine settings, so a knob added here reaches every launch.
// The fault-tolerance policy is the fleet's tuning, with the job's own
// speculation override winning when set.
func (sp Spec) Configure(m *exec.Machine) {
	speculate := sp.SpeculateAfter
	if ms := sp.Job.SpeculateAfterMS; ms != 0 {
		speculate = time.Duration(ms) * time.Millisecond
	}
	m.DeterministicFarm = sp.Deterministic
	m.FT = exec.FaultTolerance{
		MaxRetries:     sp.MaxRetries,
		TaskDeadline:   sp.TaskDeadline,
		SpeculateAfter: speculate,
	}
	m.Pipeline = sp.Pipeline
	m.PipelineDepth = sp.PipelineDepth
}

// Deployment is a compiled Spec: the mapped schedule, this process's
// registry and the recorder its display node fills. Every launch — one-shot
// node, coordinator, in-process run, fleet assignment, serve attempt — is a
// Deployment attached to a transport by one of the three roles below
// (RunMem, RunHost, RunNode), which all end in the same run.
type Deployment struct {
	Spec
	Sched *syndex.Schedule
	Reg   *value.Registry
	// Results holds the per-iteration tracking results once the run is over;
	// only the process hosting processor 0 (display node) sees any.
	Results *track.Recorder
}

// Deploy compiles the spec into this process's Deployment.
func (sp Spec) Deploy() (*Deployment, error) {
	s, reg, rec, err := sp.Compile()
	if err != nil {
		return nil, err
	}
	return &Deployment{Spec: sp, Sched: s, Reg: reg, Results: rec}, nil
}

// run is the one way a deployment's processors start running in this
// process: build the machine over t, configure it from the spec, arm rec
// (nil = untraced), hand the machine to the caller's hook, run it under the
// timeout watchdog, and seal rec's events into the run's trace — best
// effort even after a failed run, since a partial trace is exactly what a
// post-mortem needs. The hook is where callers differ: the classic paths
// bring up the debug endpoint (and the coordinator spawns its nodes), a
// fleet worker registers the session for Kill, serve publishes the machine
// for Cancel and dispatches the assignments; an error from it skips the run
// and becomes the run's error. clockOff is the process's estimated offset
// onto the coordinator's wall clock (0 on the coordinator itself).
func (d *Deployment) run(t transport.Transport, local []arch.ProcID, clockOff int64,
	rec *obsv.Recorder, timeout time.Duration, started func(*exec.Machine) error) (*exec.RunResult, *obsv.Trace, error) {
	m := exec.NewMachineOn(d.Sched, d.Reg, t, local)
	d.Configure(m)
	m.Trace = rec
	var res *exec.RunResult
	err := started(m)
	if err == nil {
		res, err = m.RunWithTimeout(d.Iters, timeout)
	}
	if rec == nil {
		return res, nil, err
	}
	var tr *obsv.Trace
	if res != nil && res.Trace != nil {
		tr = res.Trace // carries the hosted-processor list
	} else {
		tr = rec.Snapshot()
		for _, p := range local {
			tr.Procs = append(tr.Procs, int(p))
		}
	}
	tr.ClockOffsetNS = clockOff
	tr.Meta = d.TraceMeta()
	return res, tr, err
}

// RunMem is the mem role: every processor of the deployment in this
// process, over a fresh in-process transport.
func (d *Deployment) RunMem(rec *obsv.Recorder, timeout time.Duration,
	started func(*exec.Machine, transport.Transport) error) (*exec.RunResult, *obsv.Trace, error) {
	t := memtransport.New(d.Sched.Arch)
	defer t.Close()
	local := make([]arch.ProcID, d.Sched.Arch.N)
	for i := range local {
		local[i] = arch.ProcID(i)
	}
	return d.run(t, local, 0, rec, timeout, func(m *exec.Machine) error { return started(m, t) })
}

// RunHost is the host role: processor 0 (input, output and farm masters)
// on a hub session the remaining processors attach to over the network —
// the classic coordinator's single session or one of a fleet hub's many.
// The caller opened sess under the deployment's (salted) fingerprint and
// closes it. rec is armed on the session before the hook runs, so it is
// live before the hook lets any node attach.
func (d *Deployment) RunHost(sess *nettransport.Session, rec *obsv.Recorder, timeout time.Duration,
	started func(*exec.Machine) error) (*exec.RunResult, *obsv.Trace, error) {
	if rec != nil {
		sess.SetTrace(rec)
	}
	return d.run(sess, []arch.ProcID{0}, 0, rec, timeout, started)
}

// netOptions collects the transport options the spec implies. The recorder
// rides the dial/bind (WithTrace) so it is armed before the first inbound
// frame — armed after the fact it can miss the initial task dispatch, which
// the completeness suite rejects as unpaired sends.
func (sp Spec) netOptions(rec *obsv.Recorder) []nettransport.Option {
	opts := []nettransport.Option{nettransport.WithTrace(rec)}
	if sp.Heartbeat > 0 {
		opts = append(opts, nettransport.WithHeartbeat(sp.Heartbeat))
	}
	if sp.DataPlane != "" {
		opts = append(opts, nettransport.WithDataPlane(sp.DataPlane))
	}
	return opts
}

// RunNode is the node role: processors procs (any subset of 1..N-1 — an
// elastic fleet runs an 8-processor schedule at 2 processors per worker)
// attached to the hub at hubAddr under the schedule fingerprint XOR salt.
// The salt is a scheduler's session namespace — it lets two concurrent
// submissions of an identical job hold distinct sessions on one fleet hub —
// and is 0 for classic one-job deployments, where the fingerprint alone is
// the agreement. The spec's chaos knobs, when set, wrap the connection in
// scripted faults; a fired DieAfterSends trigger ends the run with
// ErrChaosKilled. timeout bounds the dial retries and then the run.
func (d *Deployment) RunNode(hubAddr string, salt uint64, procs []int, rec *obsv.Recorder, timeout time.Duration,
	started func(*exec.Machine, *nettransport.Client) error) (*exec.RunResult, *obsv.Trace, error) {
	if len(procs) == 0 {
		return nil, nil, errors.New("distrib: no processors to host")
	}
	local := make([]arch.ProcID, len(procs))
	for i, p := range procs {
		if p <= 0 || p >= d.Sched.Arch.N {
			return nil, nil, fmt.Errorf("distrib: node processor %d outside 1..%d (0 is the coordinator)", p, d.Sched.Arch.N-1)
		}
		local[i] = arch.ProcID(p)
	}
	cl, err := nettransport.Dial(hubAddr, d.Sched.Fingerprint()^salt, local, timeout, d.netOptions(rec)...)
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	var tr transport.Transport = cl
	var killed atomic.Bool
	fault := faulttransport.Fault{KillAfterSends: d.DieAfterSends}
	if d.SlowEveryNth > 0 && d.SlowFor > 0 {
		fault.SlowEveryNth = d.SlowEveryNth
		fault.SlowFor = d.SlowFor
	}
	if fault != (faulttransport.Fault{}) {
		cfg := faulttransport.Config{
			Faults: map[arch.ProcID]faulttransport.Fault{local[0]: fault},
		}
		if d.DieAfterSends > 0 {
			// Sever, not Close: the cluster must see a death (EOF without
			// detach, sockets torn mid-frame), not a clean shutdown.
			cfg.OnKill = func(arch.ProcID) { killed.Store(true); cl.Sever() }
		}
		tr = faulttransport.New(cl, cfg)
	}
	res, trace, err := d.run(tr, local, cl.ClockOffsetNS(), rec, timeout,
		func(m *exec.Machine) error { return started(m, cl) })
	if killed.Load() {
		err = ErrChaosKilled
	}
	return res, trace, err
}

// RunNode is the whole lifecycle of one classic node process: compile the
// spec, dial the hub claiming proc, run the processor's program and detach.
// Used by cmd/skipper-node and, in-process, by tests.
func RunNode(sp Spec, proc int, hubAddr string, d time.Duration) error {
	dep, err := sp.Deploy()
	if err != nil {
		return err
	}
	var ob observer
	defer ob.close()
	_, tr, err := dep.RunNode(hubAddr, 0, []int{proc}, dep.newRecorder(), d,
		func(m *exec.Machine, cl *nettransport.Client) error { return ob.start(sp, cl, m, nil) })
	if err = sp.writeTrace(tr, fmt.Sprintf("trace-node%d.json", proc), err); err != nil {
		return fmt.Errorf("distrib: node %d: %w", proc, err)
	}
	return nil
}

// RunCoordinator hosts processor 0 and the hub. listen is the hub bind
// address ("127.0.0.1:0" picks a free port); spawn is called once with the
// bound address and must arrange for processors 1..N-1 to attach (OS
// processes, goroutines — the coordinator does not care). A node that fails
// before the run is over — a child that exits non-zero after a handshake
// rejection or a bad flag — is reported through fail, which ends the run at
// once with that error instead of leaving it to the watchdog. It returns the
// coordinator's recorder (which holds the per-iteration tracking results,
// since processor 0 hosts the input/output nodes) and the run result.
func RunCoordinator(sp Spec, listen string, spawn func(addr string, fail func(error)) error, d time.Duration) (*track.Recorder, *exec.RunResult, error) {
	dep, err := sp.Deploy()
	if err != nil {
		return nil, nil, err
	}
	rec := dep.newRecorder()
	hub, err := nettransport.NewHub(listen, dep.Sched.Arch, dep.Sched.Fingerprint(), []arch.ProcID{0}, sp.netOptions(rec)...)
	if err != nil {
		return nil, nil, err
	}
	defer hub.Close()
	var ob observer
	defer ob.close()
	res, tr, err := dep.RunHost(hub, rec, d, func(m *exec.Machine) error {
		// The debug server comes up before the nodes are spawned, so health
		// and metrics are scrapeable while the cluster is attaching.
		if err := ob.start(sp, hub, m, hub); err != nil {
			return err
		}
		if spawn != nil {
			if err := spawn(hub.Addr(), hub.Fail); err != nil {
				return fmt.Errorf("distrib: spawning nodes: %w", err)
			}
		}
		return nil
	})
	return dep.finish(res, tr, err)
}

// RunInProcess executes the spec on the plain in-process executive — the
// reference the distributed run must match bit for bit.
func RunInProcess(sp Spec, d time.Duration) (*track.Recorder, *exec.RunResult, error) {
	dep, err := sp.Deploy()
	if err != nil {
		return nil, nil, err
	}
	var ob observer
	defer ob.close()
	res, tr, err := dep.RunMem(dep.newRecorder(), d,
		func(m *exec.Machine, t transport.Transport) error { return ob.start(sp, t, m, nil) })
	return dep.finish(res, tr, err)
}

// finish is the epilogue of the two classic runs that host processor 0:
// write the trace, then hand back the tracking results and the run result.
func (d *Deployment) finish(res *exec.RunResult, tr *obsv.Trace, err error) (*track.Recorder, *exec.RunResult, error) {
	if err = d.writeTrace(tr, "trace-coord.json", err); err != nil {
		return nil, nil, err
	}
	return d.Results, res, nil
}
