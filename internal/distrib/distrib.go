// Package distrib is the deployment layer of the built-in tracking
// application: the job every process of a deployment agrees on (Job), its
// compilation (Deployment), the three roles a process plays in a run
// (RunMem, RunHost, RunNode) and the fleet worker (Worker) that plays the
// node role. Every multi-process run is a serve job (internal/serve): the
// control plane hosts processor 0 on a fleet-hub session and its workers —
// skipper-node -fleet processes or goroutines — host the rest. Every process
// compiles the same Job, and the hub's handshake fingerprint check proves
// they agree. The stateful extern functions (frame grabber, recorder) are
// instantiated per process but each is only ever invoked on the processor
// hosting its node, so the distributed run is bit-identical to the
// in-process one.
package distrib

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"skipper/internal/arch"
	"skipper/internal/compile"
	"skipper/internal/exec"
	"skipper/internal/exec/faulttransport"
	"skipper/internal/exec/memtransport"
	"skipper/internal/exec/nettransport"
	"skipper/internal/exec/transport"
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

// Spec is one deployment as a process runs it: the shared Job plus the
// fleet-wide executive tuning (Tuning), which does not enter the job
// description.
type Spec struct {
	Job

	// Tuning is the fleet-wide executive tuning; it does not enter the
	// schedule fingerprint.
	Tuning
}

// Node is one worker process's own settings. They apply to every
// assignment the worker runs and are no part of any job: they tune how its
// frames travel, or script its failure in a drill.
type Node struct {
	// DataPlane pins the node data plane ("tcp", "unix", "shm"; empty = the
	// transport's "auto" inference). "shm" is the same-host shared-memory
	// slab ring (DESIGN.md §9): frames move through mmap'd per-connection
	// rings and the sockets degrade to doorbells.
	DataPlane string
	// Chaos scripts faults into the sends of an assignment's first hosted
	// processor. KillAfterSends severs the assignment's session once it has
	// sent that many frames — no detach, sockets torn mid-frame, the
	// observable signature of kill -9 — and ends the assignment with
	// ErrChaosKilled while the worker stays joined; SlowEveryNth/SlowFor
	// delay its sends instead, the straggler speculation exists for.
	Chaos faulttransport.Fault
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

// ErrChaosKilled marks a node run that ended because its own
// Chaos.KillAfterSends trigger fired — the expected casualty of a chaos
// drill, not a fault.
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

// Upper bounds on a job's size, far above any in-tree job (16 processors,
// 512x512 frames, 4 000 iterations): a run allocates its architecture and
// program per processor, a frame per width x height and its outputs per
// iteration up front, so an unbounded job description takes the server
// down before the first frame. Processors are bounded by arch.MaxProcs.
const (
	maxJobSide  = 4096
	maxJobIters = 1_000_000
)

// Validate rejects job descriptions no deployment could run — the
// admission check the service control plane applies before queueing.
func (j Job) Validate() error {
	switch j.Topology {
	case "ring", "chain", "star", "full":
	default:
		return fmt.Errorf("distrib: unknown topology %q", j.Topology)
	}
	if j.Procs < 1 || j.Procs > arch.MaxProcs {
		return fmt.Errorf("distrib: procs %d, want 1..%d", j.Procs, arch.MaxProcs)
	}
	if j.Width < 8 || j.Height < 8 || j.Width > maxJobSide || j.Height > maxJobSide {
		return fmt.Errorf("distrib: frame %dx%d, want 8x8..%dx%d", j.Width, j.Height, maxJobSide, maxJobSide)
	}
	if j.Iters < 1 || j.Iters > maxJobIters {
		return fmt.Errorf("distrib: iters %d, want 1..%d", j.Iters, maxJobIters)
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

// Compile builds a fresh instance of the deployment: a fresh scene and
// registry plus the mapped schedule, through the whole compiler chain
// (internal/compile) every time (Deploy memoizes the schedule). Every
// process of a deployment compiles the same Job to a schedule with the same
// fingerprint. It
// validates the job first: a job no deployment could run is an error, never
// a panic in the compiler chain.
func (j Job) Compile() (*syndex.Schedule, *value.Registry, *track.Recorder, error) {
	if err := j.Validate(); err != nil {
		return nil, nil, nil, err
	}
	a, err := j.Arch()
	if err != nil {
		return nil, nil, nil, err
	}
	scene := video.NewScene(j.Width, j.Height, j.Vehicles, j.Seed)
	reg, rec := track.NewRegistry(scene, nil)
	s, err := compile.Schedule(track.ProgramSource(j.Procs, j.Width, j.Height), reg, a, syndex.Structured)
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
}

// Deployment is a compiled Spec: the mapped schedule, this process's
// registry and the recorder its display node fills. Every launch — serve
// attempt, fleet assignment, in-process reference run — is a Deployment
// attached to a transport by one of the three roles below (RunMem, RunHost,
// RunNode), which all end in the same run.
type Deployment struct {
	Spec
	// Sched is shared, read-only, by every deployment of the same shape in
	// this process (see scheduleMemo); Fingerprint is its fingerprint.
	Sched       *syndex.Schedule
	Fingerprint uint64
	Reg         *value.Registry
	// Results holds the per-iteration tracking results once the run is over;
	// only the process hosting processor 0 (display node) sees any.
	Results *track.Recorder
}

// Deploy builds this process's Deployment of the spec. The schedule comes
// from the process's memo of compiled job shapes (compiled with Job.Compile
// on the shape's first deployment); the scene, registry and recorder are
// this attempt's own.
func (sp Spec) Deploy() (*Deployment, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	c, err := schedules.get(shapeOf(sp.Job), func() (*syndex.Schedule, error) {
		s, _, _, err := sp.Compile()
		return s, err
	})
	if err != nil {
		return nil, err
	}
	reg, rec := track.NewRegistry(video.NewScene(sp.Width, sp.Height, sp.Vehicles, sp.Seed), nil)
	return &Deployment{Spec: sp, Sched: c.sched, Fingerprint: c.fp, Reg: reg, Results: rec}, nil
}

// run is the one way a deployment's processors start running in this
// process: build the machine over t, configure it from the spec, arm rec
// (nil = untraced), hand the machine to the caller's hook, run it under the
// timeout watchdog, and seal rec's events into the run's trace — best
// effort even after a failed run, since a partial trace is exactly what a
// post-mortem needs. The hook is where callers differ: a fleet worker
// registers the session for Kill, serve publishes the machine for Cancel and
// dispatches the assignments; an error from it skips the run and becomes the
// run's error. clockOff is the process's estimated offset onto the hub's
// wall clock (0 on the hub itself).
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
// one of a fleet hub's sessions.
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

// RunNode is the node role: processors procs (any subset of 1..N-1 — an
// elastic fleet runs an 8-processor schedule at 2 processors per worker)
// attached to the hub at hubAddr under the schedule fingerprint XOR salt.
// The salt is a scheduler's session namespace: it lets two concurrent
// submissions of an identical job hold distinct sessions on one fleet hub.
// node pins the data plane and, when it scripts chaos, wraps the connection
// in those faults; a fired KillAfterSends trigger ends the run with
// ErrChaosKilled. The recorder rides the dial (WithTrace) so it is armed
// before the first inbound frame. timeout bounds the dial retries and then
// the run.
func (d *Deployment) RunNode(hubAddr string, salt uint64, procs []int, node Node, rec *obsv.Recorder, timeout time.Duration,
	started func(*exec.Machine, *nettransport.Client) error) (*exec.RunResult, *obsv.Trace, error) {
	local, err := d.hosted(procs)
	if err != nil {
		return nil, nil, err
	}
	opts := []nettransport.Option{nettransport.WithTrace(rec)}
	if d.Heartbeat > 0 {
		opts = append(opts, nettransport.WithHeartbeat(d.Heartbeat))
	}
	if node.DataPlane != "" {
		opts = append(opts, nettransport.WithDataPlane(node.DataPlane))
	}
	cl, err := nettransport.Dial(hubAddr, d.Fingerprint^salt, local, timeout, opts...)
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	var tr transport.Transport = cl
	var killed atomic.Bool
	if node.Chaos != (faulttransport.Fault{}) {
		cfg := faulttransport.Config{
			Faults: map[arch.ProcID]faulttransport.Fault{local[0]: node.Chaos},
		}
		if node.Chaos.KillAfterSends > 0 {
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

// hosted checks the processors a node is asked to host: at least one, and
// each a remote one (1..N-1; processor 0 belongs to the hub).
func (d *Deployment) hosted(procs []int) ([]arch.ProcID, error) {
	if len(procs) == 0 {
		return nil, errors.New("distrib: no processors to host")
	}
	local := make([]arch.ProcID, len(procs))
	for i, p := range procs {
		if p <= 0 || p >= d.Sched.Arch.N {
			return nil, fmt.Errorf("distrib: node processor %d outside 1..%d (0 is the hub's)", p, d.Sched.Arch.N-1)
		}
		local[i] = arch.ProcID(p)
	}
	return local, nil
}

// RunInProcess executes the spec on the plain in-process executive — the
// reference the distributed run must match bit for bit.
func RunInProcess(sp Spec, d time.Duration) (*track.Recorder, *exec.RunResult, error) {
	dep, err := sp.Deploy()
	if err != nil {
		return nil, nil, err
	}
	res, _, err := dep.RunMem(nil, d, func(*exec.Machine, transport.Transport) error { return nil })
	if err != nil {
		return nil, nil, err
	}
	return dep.Results, res, nil
}
