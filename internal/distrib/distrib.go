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
	// Pipeline software-pipelines the itermem loop (DESIGN.md §12): frame
	// k+1's grab/preprocessing overlaps frame k's farm and merge on
	// processors whose program splits cleanly. Outputs stay bit-identical,
	// so it is executive tuning like Deterministic: not part of the
	// schedule fingerprint, but every process of a deployment must run the
	// same value so the chronograms line up — which is what makes it job
	// description rather than per-process config.
	Pipeline bool `json:"pipeline,omitempty"`
	// PipelineDepth caps the pipeline's stage count (DESIGN.md §14):
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
	// (DESIGN.md §16) for this job, in milliseconds: positive duplicates a
	// task onto an idle worker once it has sat unanswered that long,
	// negative disables speculation for the job, zero inherits the fleet
	// default (the -speculate-after flag, or TaskDeadline/2). Executive
	// tuning like Pipeline: not part of the schedule fingerprint, but the
	// master's dispatch behavior, hence job description.
	SpeculateAfterMS int64 `json:"speculateAfterMs,omitempty"`
}

// Spec is one process's full view of a deployment: the shared Job plus the
// fleet/runtime configuration that is free to differ per process (tracing,
// debug endpoints) or that tunes the executive fleet-wide (fault tolerance,
// heartbeats) without entering the job description.
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

	// Fault tolerance (DESIGN.md §11). MaxRetries > 0 enables farm task
	// re-dispatch: a worker processor's death re-enqueues its in-flight
	// tasks on survivors, each task surviving at most MaxRetries losses.
	// TaskDeadline, when positive, additionally declares a worker dead when
	// a task sits unanswered that long (catching hangs no transport error
	// reveals). Heartbeat arms control-plane liveness probes at that
	// interval — pass the same value to every process, like the topology.
	// SpeculateAfter is the fleet-wide straggler-speculation threshold
	// (DESIGN.md §16): positive duplicates a task onto an idle worker once
	// it has sat unanswered that long, zero defaults to TaskDeadline/2 when
	// a deadline is armed, negative disables. Job.SpeculateAfterMS, when
	// non-zero, overrides it per job.
	// None of these enter the schedule fingerprint: they tune the
	// executive, not the compiled deployment.
	MaxRetries     int
	TaskDeadline   time.Duration
	Heartbeat      time.Duration
	SpeculateAfter time.Duration

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
	// shared-memory slab ring (DESIGN.md §14): frames move through mmap'd
	// per-connection rings and the sockets degrade to doorbells. Not part
	// of the schedule fingerprint — it tunes how frames travel, never what
	// they say.
	DataPlane string
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

// netOptions collects the transport options the spec implies.
func (sp Spec) netOptions() []nettransport.Option {
	var opts []nettransport.Option
	if sp.Heartbeat > 0 {
		opts = append(opts, nettransport.WithHeartbeat(sp.Heartbeat))
	}
	if sp.DataPlane != "" {
		opts = append(opts, nettransport.WithDataPlane(sp.DataPlane))
	}
	return opts
}

// Configure copies the spec's executive knobs onto a machine — the one place
// a launch path (node, coordinator, in-process, fleet worker, serve) turns a
// Spec into machine settings, so a knob added here reaches all of them. The
// fault-tolerance policy is the fleet's flags, with the job's own
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

// RunNode is the whole lifecycle of one node process: compile the spec,
// dial the hub claiming proc, run the processor's program and detach. Used
// by cmd/skipper-node and, in-process, by tests.
func RunNode(sp Spec, proc int, hubAddr string, d time.Duration) error {
	return RunProcs(sp, []int{proc}, hubAddr, 0, d)
}

// RunProcs is RunNode generalized for an elastic fleet: one worker process
// hosting any subset of a deployment's processors (a 4-worker fleet can run
// an 8-processor schedule at 2 processors per worker), attaching under the
// schedule fingerprint XOR salt. The salt is the scheduler's session
// namespace — it lets two concurrent submissions of an identical job hold
// distinct sessions on one fleet hub — and must be 0 for classic one-job
// deployments, where the fingerprint alone is the agreement.
func RunProcs(sp Spec, procs []int, hubAddr string, salt uint64, d time.Duration) error {
	s, reg, _, err := sp.Compile()
	if err != nil {
		return err
	}
	if len(procs) == 0 {
		return fmt.Errorf("distrib: no processors to host")
	}
	local := make([]arch.ProcID, len(procs))
	for i, p := range procs {
		if p <= 0 || p >= s.Arch.N {
			return fmt.Errorf("distrib: node processor %d outside 1..%d (0 is the coordinator)", p, s.Arch.N-1)
		}
		local[i] = arch.ProcID(p)
	}
	trec := sp.newRecorder()
	cl, err := nettransport.Dial(hubAddr, s.Fingerprint()^salt, local, d,
		append(sp.netOptions(), nettransport.WithTrace(trec))...)
	if err != nil {
		return err
	}
	defer cl.Close()
	var tr transport.Transport = cl
	var killed atomic.Bool
	fault := faulttransport.Fault{KillAfterSends: sp.DieAfterSends}
	if sp.SlowEveryNth > 0 && sp.SlowFor > 0 {
		fault.SlowEveryNth = sp.SlowEveryNth
		fault.SlowFor = sp.SlowFor
	}
	if fault != (faulttransport.Fault{}) {
		cfg := faulttransport.Config{
			Faults: map[arch.ProcID]faulttransport.Fault{local[0]: fault},
		}
		if sp.DieAfterSends > 0 {
			// Sever, not Close: the cluster must see a death (EOF without
			// detach, sockets torn mid-frame), not a clean shutdown.
			cfg.OnKill = func(arch.ProcID) { killed.Store(true); cl.Sever() }
		}
		tr = faulttransport.New(cl, cfg)
	}
	m := exec.NewMachineOn(s, reg, tr, local)
	sp.Configure(m)
	ob, err := sp.observe(tr, m, nil, trec)
	if err != nil {
		return err
	}
	defer ob.close()
	res, runErr := m.RunWithTimeout(sp.Iters, d)
	if killed.Load() {
		runErr = ErrChaosKilled
	}
	// Best effort even after a failed run: a partial trace is exactly what a
	// post-mortem needs.
	if werr := ob.writeTrace(sp, fmt.Sprintf("trace-node%d.json", procs[0]), res,
		procs, cl.ClockOffsetNS()); werr != nil && runErr == nil {
		runErr = werr
	}
	if runErr != nil {
		return fmt.Errorf("distrib: node %v: %w", procs, runErr)
	}
	return nil
}

// RunCoordinator hosts processor 0 and the hub. listen is the hub bind
// address ("127.0.0.1:0" picks a free port); spawn is called once with the
// bound address and must arrange for processors 1..N-1 to attach (OS
// processes, goroutines — the coordinator does not care). It returns the
// coordinator's recorder (which holds the per-iteration tracking results,
// since processor 0 hosts the input/output nodes) and the run result.
func RunCoordinator(sp Spec, listen string, spawn func(addr string) error, d time.Duration) (*track.Recorder, *exec.RunResult, error) {
	s, reg, rec, err := sp.Compile()
	if err != nil {
		return nil, nil, err
	}
	trec := sp.newRecorder()
	hub, err := nettransport.NewHub(listen, s.Arch, s.Fingerprint(), []arch.ProcID{0},
		append(sp.netOptions(), nettransport.WithTrace(trec))...)
	if err != nil {
		return nil, nil, err
	}
	defer hub.Close()
	m := exec.NewMachineOn(s, reg, hub, []arch.ProcID{0})
	sp.Configure(m)
	// The debug server comes up before the nodes are spawned and before the
	// run starts, so health and metrics are scrapeable while the cluster is
	// attaching and mid-run.
	ob, err := sp.observe(hub, m, hub, trec)
	if err != nil {
		return nil, nil, err
	}
	defer ob.close()
	if spawn != nil {
		if err := spawn(hub.Addr()); err != nil {
			return nil, nil, fmt.Errorf("distrib: spawning nodes: %w", err)
		}
	}
	res, runErr := m.RunWithTimeout(sp.Iters, d)
	if werr := ob.writeTrace(sp, "trace-coord.json", res, []int{0}, 0); werr != nil && runErr == nil {
		runErr = werr
	}
	if runErr != nil {
		return nil, nil, runErr
	}
	return rec, res, nil
}

// RunInProcess executes the spec on the plain in-process executive — the
// reference the distributed run must match bit for bit.
func RunInProcess(sp Spec, d time.Duration) (*track.Recorder, *exec.RunResult, error) {
	s, reg, rec, err := sp.Compile()
	if err != nil {
		return nil, nil, err
	}
	if sp.TraceDir == "" && sp.DebugAddr == "" {
		m := exec.NewMachine(s, reg)
		sp.Configure(m)
		res, err := m.RunWithTimeout(sp.Iters, d)
		if err != nil {
			return nil, nil, err
		}
		return rec, res, nil
	}
	// Observability needs the transport before the run (metrics bind to its
	// Stats, the recorder must be armed first), so host every processor on
	// an explicit mem transport instead of the machine's per-run one.
	t := memtransport.New(s.Arch)
	defer t.Close()
	local := make([]arch.ProcID, s.Arch.N)
	for i := range local {
		local[i] = arch.ProcID(i)
	}
	m := exec.NewMachineOn(s, reg, t, local)
	sp.Configure(m)
	ob, err := sp.observe(t, m, nil, sp.newRecorder())
	if err != nil {
		return nil, nil, err
	}
	defer ob.close()
	procs := make([]int, s.Arch.N)
	for i := range procs {
		procs[i] = i
	}
	res, runErr := m.RunWithTimeout(sp.Iters, d)
	if werr := ob.writeTrace(sp, "trace-coord.json", res, procs, 0); werr != nil && runErr == nil {
		runErr = werr
	}
	if runErr != nil {
		return nil, nil, runErr
	}
	return rec, res, nil
}
