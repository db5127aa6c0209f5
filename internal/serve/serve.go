// Package serve is skipper-as-a-service: the long-lived control plane that
// turns the one-deployment-per-process executive into a multi-job scheduler
// over an elastic worker fleet. One Server owns two listeners — the HTTP
// API clients submit jobs to, and a shared nettransport.FleetHub that
// workers join (distrib.FleetMsg member frames) and that carries every
// job's frame traffic in fingerprint-salted sessions. Jobs queue
// FIFO, run concurrently up to MaxRunning, survive worker deaths by
// re-running from scratch under a fresh session salt (deterministic specs
// therefore reproduce bit-identical results), and cancel cleanly through
// the executive's abort path.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"skipper/internal/arch"
	"skipper/internal/distrib"
	"skipper/internal/exec"
	"skipper/internal/exec/nettransport"
	"skipper/internal/exec/transport"
	"skipper/internal/obsv"
	"skipper/internal/track"
)

// Job statuses, in lifecycle order. A job is terminal in done, failed or
// cancelled; queued→running can repeat (re-queue after a worker death).
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// ErrQueueFull rejects a submission when the FIFO queue is at QueueLimit;
// the HTTP layer maps it to 429.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrClosed rejects submissions to a control plane that is shutting down.
var ErrClosed = errors.New("serve: server closed")

// Config tunes a Server. The zero value works: both listeners pick a free
// loopback port and the queue/concurrency limits take their defaults.
type Config struct {
	// HTTPAddr is the job API bind address (default "127.0.0.1:0"). The
	// observability endpoints (/metrics, /healthz, /varz) share it.
	HTTPAddr string
	// FleetAddr is the fleet hub's bind address, which workers join and
	// their job sessions attach to (default "127.0.0.1:0"; "unix:" paths
	// work). Not bound in InProcess mode.
	FleetAddr string
	// QueueLimit bounds the FIFO queue (default 64); submissions beyond it
	// are rejected with ErrQueueFull.
	QueueLimit int
	// MaxRunning caps concurrently executing jobs (default 8).
	MaxRunning int
	// JobRequeues is how many times one job may be re-run from scratch
	// after a worker death before it is declared failed (default 2).
	JobRequeues int
	// JobTimeout is the per-attempt executive watchdog (default 2m).
	JobTimeout time.Duration
	// Tuning is the deployment-wide executive tuning applied to every job. A
	// job may override SpeculateAfter via its speculateAfterMs field.
	distrib.Tuning
	// InProcess runs jobs on the in-process executive instead of the fleet:
	// no workers, no network, every processor hosted by the server. The
	// scheduler (queue, limits, cancellation, statuses) is exercised
	// unchanged.
	InProcess bool
	// FlightDir arms the control plane's always-on flight recorder: hub-side
	// executive and transport events land in a bounded ring at all times, and
	// any fault — worker death, job re-queue, cancel, abort — auto-dumps the
	// last few seconds as a trace artifact (raw JSON, Chrome JSON, SVG) under
	// this directory. Empty disables it (library/test default); skipper-serve
	// defaults it on.
	FlightDir string
}

func (c *Config) fillDefaults() {
	if c.HTTPAddr == "" {
		c.HTTPAddr = "127.0.0.1:0"
	}
	if c.FleetAddr == "" {
		c.FleetAddr = "127.0.0.1:0"
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.MaxRunning <= 0 {
		c.MaxRunning = 8
	}
	if c.JobRequeues < 0 {
		c.JobRequeues = 0
	} else if c.JobRequeues == 0 {
		c.JobRequeues = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
}

// jobState is one job's full scheduler record.
type jobState struct {
	id       string
	job      distrib.Job
	status   string
	err      string
	salt     uint64
	requeues int
	workers  []string
	results  []track.Result
	digest   uint64
	// mach is the running attempt's machine, nil once it settles; res keeps
	// the settled attempt's counters (not its outputs or trace) for Run.
	mach *exec.Machine
	res  *exec.RunResult
	// cancelled marks a user DELETE; workerDied marks a fleet-member death
	// observed on its member connection. Both abort the run through
	// Machine.Cancel — the flags decide whether the outcome is "cancelled"
	// or "re-queue/fail". placementFailed marks an attempt whose assignment
	// never reached its worker (dead before the run started): it re-queues
	// without burning the requeue budget.
	cancelled       bool
	workerDied      bool
	placementFailed bool
	freeRequeues    int
	done            chan struct{} // closed when the job reaches a terminal status
	submitted       time.Time
	enqueued        time.Time // last time the job (re-)entered the queue
	started         time.Time
	finished        time.Time
	// attempts collects a traced job's per-attempt timelines (nil for
	// untraced jobs); a re-queued job grows one record per dispatch.
	attempts []*jobAttempt
}

// jobAttempt is one traced attempt of a job: the hub-side recorder (live
// while the attempt runs, sealed into hub when it settles) plus whatever
// worker snapshots came home on done messages carrying the attempt's salt.
// Guarded by the server mu.
type jobAttempt struct {
	salt    uint64
	rec     *obsv.Recorder // live hub-side recorder, nil once sealed
	hub     *obsv.Trace    // sealed hub-side snapshot
	workers []*obsv.Trace  // per-worker snapshots, arrival order
}

// workerState is one fleet member as the control plane sees it.
type workerState struct {
	name string
	m    *nettransport.Member
	jobs map[string]bool // job ids with assignments on this worker; guarded by the server mu
}

func (w *workerState) send(msg distrib.FleetMsg) error { return distrib.SendFleetMsg(w.m, msg) }

// Server is the control plane. Build with New, stop with Close.
type Server struct {
	cfg Config

	hub     *nettransport.FleetHub // nil in InProcess mode
	httpLn  net.Listener
	httpSrv *http.Server

	mu      sync.Mutex
	workers map[string]*workerState
	jobs    map[string]*jobState
	order   []string // job ids in submission order, for GET /jobs
	queue   []*jobState
	running int
	seq     uint64
	saltSeq uint64
	closing bool

	kick chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup

	metrics       *obsv.Metrics
	mSubmitted    *obsv.Counter
	mDone         *obsv.Counter
	mFailed       *obsv.Counter
	mCancelled    *obsv.Counter
	mRejected     *obsv.Counter
	mRequeues     *obsv.Counter
	mJoined       *obsv.Counter
	mWorkersDead  *obsv.Counter
	mWorkerErrors *obsv.Counter
	hJobSeconds   *obsv.Histogram
	hQueueWait    *obsv.Histogram
	stageLat      func(stage int, seconds float64)
	// ftSettled sums each ftSeries counter over the settled attempts.
	ftSettled [len(ftSeries)]int64

	// flight is the always-on flight recorder (nil unless Config.FlightDir).
	flight *obsv.Flight
}

// New builds and starts a control plane: listeners bound, scheduler
// running, ready for workers and submissions.
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	s := &Server{
		cfg:     cfg,
		workers: map[string]*workerState{},
		jobs:    map[string]*jobState{},
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	s.initMetrics()
	if cfg.FlightDir != "" {
		s.flight = obsv.NewFlight(cfg.FlightDir, "serve", obsv.FlightOptions{
			Procs: 16,
			Extra: s.attemptTraces,
		})
	}

	if !cfg.InProcess {
		var hubOpts []nettransport.Option
		if cfg.Heartbeat > 0 {
			hubOpts = append(hubOpts, nettransport.WithHeartbeat(cfg.Heartbeat))
		}
		hub, err := nettransport.NewFleetHub(cfg.FleetAddr, s.join, hubOpts...)
		if err != nil {
			return nil, fmt.Errorf("serve: fleet hub: %w", err)
		}
		s.hub = hub
	}

	if err := s.startHTTP(); err != nil {
		s.shutdownListeners()
		return nil, err
	}

	s.wg.Add(1)
	go s.scheduler()
	return s, nil
}

func (s *Server) initMetrics() {
	m := obsv.NewMetrics()
	s.metrics = m
	s.mSubmitted = m.Counter("skipper_serve_jobs_submitted_total", "jobs accepted into the queue")
	s.mDone = m.Counter("skipper_serve_jobs_done_total", "jobs completed successfully")
	s.mFailed = m.Counter("skipper_serve_jobs_failed_total", "jobs that exhausted their re-queues or hit a non-recoverable error")
	s.mCancelled = m.Counter("skipper_serve_jobs_cancelled_total", "jobs cancelled by DELETE")
	s.mRejected = m.Counter("skipper_serve_jobs_rejected_total", "submissions refused because the queue was full")
	s.mRequeues = m.Counter("skipper_serve_job_requeues_total", "job re-runs triggered by worker deaths")
	s.mJoined = m.Counter("skipper_serve_workers_joined_total", "workers that completed the fleet join handshake")
	s.mWorkersDead = m.Counter("skipper_serve_workers_dead_total", "workers whose member connection ended without a detach")
	s.mWorkerErrors = m.Counter("skipper_serve_assignment_errors_total", "failed assignment completions reported by workers")
	for i, c := range ftSeries {
		m.CounterFunc(c.name, c.help, func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := s.ftSettled[i]
			for _, st := range s.jobs {
				if st.mach != nil {
					n += c.count(st.mach)
				}
			}
			return n
		})
	}
	s.hJobSeconds = m.Histogram("skipper_serve_job_seconds", "wall-clock duration of successful jobs",
		[]float64{0.01, 0.05, 0.25, 1, 5, 30, 120})
	s.hQueueWait = m.Histogram("skipper_serve_queue_wait_seconds",
		"time jobs spent queued before each dispatch",
		[]float64{0.001, 0.01, 0.05, 0.25, 1, 5, 30})
	s.stageLat = m.StageObserver("skipper_pipeline_stage",
		"Pipelined itermem stage busy time per frame in seconds.")
	m.GaugeFunc("skipper_serve_jobs_queued", "jobs waiting in the FIFO queue", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.queue))
	})
	m.GaugeFunc("skipper_serve_jobs_running", "jobs currently executing", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.running)
	})
	m.GaugeFunc("skipper_serve_workers_live", "fleet members currently joined", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.workers))
	})
	m.GaugeFunc("skipper_serve_hub_sessions", "active frame-traffic sessions on the fleet hub", func() float64 {
		return float64(s.hubSessions())
	})
}

// ftSeries are the executive's fault-tolerance counters as serve exports
// them: each sums the settled attempts and the running machines' live
// counts, so a scrape mid-run sees a straggler's speculations as they
// happen. Speculation and failure detection run on the farm masters, which
// the hub hosts, so the hub machine holds the whole deployment's counts.
var ftSeries = [...]struct {
	name, help string
	count      func(*exec.Machine) int64
}{
	{"skipper_peer_failures_total", "processors declared dead by failure detection (heartbeat, EOF or task deadline), summed over job attempts", (*exec.Machine).FTFailures},
	{"skipper_task_redispatches_total", "farm tasks re-dispatched onto surviving workers after their worker died, summed over job attempts", (*exec.Machine).FTRedispatches},
	{"skipper_task_speculations_total", "straggler tasks speculatively duplicated onto idle workers, summed over job attempts", (*exec.Machine).FTSpeculations},
	{"skipper_speculation_wins_total", "speculative duplicates whose reply beat the original worker's, summed over job attempts", (*exec.Machine).FTSpeculationWins},
	{"skipper_false_suspicions_total", "deadline-suspected workers whose reply later arrived, summed over job attempts", (*exec.Machine).FTFalseSuspicions},
}

// settleLocked retires an attempt whose run has returned: its machine's
// fault-tolerance counts move into the settled totals, and the run's
// counters are kept for Run. Called under s.mu.
func (s *Server) settleLocked(st *jobState, res *exec.RunResult) {
	if st.mach != nil {
		for i, c := range ftSeries {
			s.ftSettled[i] += c.count(st.mach)
		}
		st.mach = nil
	}
	if res != nil {
		kept := *res
		kept.Outputs, kept.Trace = nil, nil
		st.res = &kept
	}
}

// Addr returns the HTTP API address.
func (s *Server) Addr() string { return s.httpLn.Addr().String() }

// FleetAddr is the bound fleet hub address workers join at, scheme-prefixed
// when unix ("" in InProcess mode).
func (s *Server) FleetAddr() string {
	if s.hub == nil {
		return ""
	}
	return s.hub.Addr()
}

// hubSessions counts the open job sessions on the fleet hub.
func (s *Server) hubSessions() int {
	if s.hub == nil {
		return 0
	}
	return s.hub.SessionCount()
}

func (s *Server) kickScheduler() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Flight exposes the control plane's flight recorder (nil unless armed).
func (s *Server) Flight() *obsv.Flight { return s.flight }

// flightRecord lands a scheduler-level event in the flight ring; fault
// kinds trigger an auto-dump through the recorder's hook.
func (s *Server) flightRecord(kind obsv.EventKind, peer int32, arg int64) {
	if s.flight != nil {
		s.flight.Recorder().Record(-1, kind, 0, peer, arg)
	}
}

// attemptTraces collects the traced jobs' newest hub-side timelines at
// flight-dump time, so a fault artifact carries the job timelines alongside
// the scheduler's own ring: a best-effort mid-run snapshot of a running
// attempt, or the sealed snapshot of one that settled in the meantime — the
// dump is asynchronous, and the attempt whose fault triggered it has often
// sealed (and its job re-queued or finished) by the time it runs. Jobs that
// finished longer ago than a dump's trailing window are skipped.
func (s *Server) attemptTraces() []*obsv.Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*obsv.Trace
	for _, st := range s.jobs {
		if len(st.attempts) == 0 || (!st.finished.IsZero() && time.Since(st.finished) > obsv.DefaultFlightWindow) {
			continue
		}
		switch att := st.attempts[len(st.attempts)-1]; {
		case att.rec != nil:
			out = append(out, att.rec.Snapshot())
		case att.hub != nil:
			out = append(out, att.hub)
		}
	}
	return out
}

// Submit validates and enqueues a job, returning its id. ErrQueueFull when
// the FIFO is at QueueLimit, ErrClosed during shutdown.
func (s *Server) Submit(job distrib.Job) (string, error) {
	if err := job.Validate(); err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return "", ErrClosed
	}
	if len(s.queue) >= s.cfg.QueueLimit {
		s.mu.Unlock()
		s.mRejected.Inc()
		return "", ErrQueueFull
	}
	s.seq++
	now := time.Now()
	st := &jobState{
		id:        fmt.Sprintf("j%d", s.seq),
		job:       job,
		status:    StatusQueued,
		done:      make(chan struct{}),
		submitted: now,
		enqueued:  now,
	}
	s.jobs[st.id] = st
	s.order = append(s.order, st.id)
	s.queue = append(s.queue, st)
	s.mu.Unlock()
	s.mSubmitted.Inc()
	s.kickScheduler()
	return st.id, nil
}

// Cancel aborts a job: a queued one leaves the queue immediately, a running
// one is aborted through the executive (every blocked communication
// unblocks, fleet workers see the abort broadcast). Terminal jobs are left
// untouched (reported by the bool).
func (s *Server) Cancel(id string) (bool, error) {
	s.mu.Lock()
	st, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false, fmt.Errorf("serve: no job %q", id)
	}
	switch st.status {
	case StatusQueued:
		for i, q := range s.queue {
			if q == st {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		st.cancelled = true
		st.status = StatusCancelled
		st.finished = time.Now()
		close(st.done)
		s.mu.Unlock()
		s.mCancelled.Inc()
		s.kickScheduler()
		return true, nil
	case StatusRunning:
		st.cancelled = true
		mach := st.mach
		s.mu.Unlock()
		s.flightRecord(obsv.EvCancel, -1, 0)
		if mach != nil {
			mach.Cancel()
		}
		return true, nil
	}
	s.mu.Unlock()
	return false, nil
}

// Wait blocks until the job reaches a terminal status or d elapses.
func (s *Server) Wait(id string, d time.Duration) error {
	s.mu.Lock()
	st, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("serve: no job %q", id)
	}
	select {
	case <-st.done:
		return nil
	case <-time.After(d):
		return fmt.Errorf("serve: job %s still %s after %v", id, s.snapshotJob(st).Status, d)
	}
}

// Results returns a terminal job's tracking results (nil while running) —
// the in-process channel equivalence tests compare bit for bit.
func (s *Server) Results(id string) []track.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.jobs[id]
	if !ok {
		return nil
	}
	return st.results
}

// scheduler is the dispatch loop: every kick (submission, worker join, job
// completion, cancellation) drains the queue as far as limits and fleet
// capacity allow.
func (s *Server) scheduler() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kick:
		}
		for s.dispatchOne() {
		}
	}
}

// dispatchOne starts the queue head if a slot and (fleet mode) at least one
// live worker are available. FIFO is strict: a head job that cannot place
// blocks the queue rather than being overtaken.
func (s *Server) dispatchOne() bool {
	s.mu.Lock()
	if s.closing || len(s.queue) == 0 || s.running >= s.cfg.MaxRunning {
		s.mu.Unlock()
		return false
	}
	st := s.queue[0]
	var placement map[*workerState][]int
	if !s.cfg.InProcess && st.job.Procs > 1 {
		live := make([]*workerState, 0, len(s.workers))
		for _, w := range s.workers {
			live = append(live, w)
		}
		if len(live) == 0 {
			s.mu.Unlock()
			return false
		}
		// Deterministic worker order (map iteration is not), so placement
		// depends only on fleet membership.
		for i := 1; i < len(live); i++ {
			for j := i; j > 0 && live[j-1].name > live[j].name; j-- {
				live[j-1], live[j] = live[j], live[j-1]
			}
		}
		placement = map[*workerState][]int{}
		for p := 1; p < st.job.Procs; p++ {
			w := live[(p-1)%len(live)]
			placement[w] = append(placement[w], p)
		}
		st.workers = st.workers[:0]
		for w := range placement {
			st.workers = append(st.workers, w.name)
			w.jobs[st.id] = true
		}
	}
	s.queue = s.queue[1:]
	st.status = StatusRunning
	st.started = time.Now()
	wait := st.started.Sub(st.enqueued)
	st.workerDied = false
	st.placementFailed = false
	s.saltSeq++
	st.salt = s.saltSeq
	s.running++
	s.mu.Unlock()
	s.hQueueWait.Observe(wait.Seconds())

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runJob(st, placement)
	}()
	return true
}

// runJob executes one attempt of a job and settles its outcome: done,
// cancelled, re-queued (worker death, budget left) or failed.
func (s *Server) runJob(st *jobState, placement map[*workerState][]int) {
	results, err := s.executeJob(st, placement)

	s.mu.Lock()
	cancelled := st.cancelled
	workerDied := st.workerDied
	placementFailed := st.placementFailed
	for _, name := range st.workers {
		if w, ok := s.workers[name]; ok {
			delete(w.jobs, st.id)
		}
	}
	s.mu.Unlock()

	switch {
	case err == nil:
		s.finish(st, StatusDone, "", results)
		s.mDone.Inc()
		s.hJobSeconds.Observe(time.Since(st.started).Seconds())
	case cancelled || (errors.Is(err, exec.ErrCancelled) && !workerDied):
		s.finish(st, StatusCancelled, exec.ErrCancelled.Error(), nil)
		s.mCancelled.Inc()
	default:
		// Worker death or any other mid-run failure: deterministic re-run
		// from scratch under a fresh salt, up to the budget. A failed
		// placement re-queues for free — the run never started.
		s.mu.Lock()
		requeue := !s.closing && (placementFailed || st.requeues < s.cfg.JobRequeues)
		var attempt int
		if requeue {
			if !placementFailed {
				st.requeues++
			}
			attempt = st.requeues
			st.status = StatusQueued
			st.err = err.Error()
			st.workers = nil
			st.enqueued = time.Now()
			s.queue = append(s.queue, st)
			s.running--
		}
		s.mu.Unlock()
		if requeue {
			s.mRequeues.Inc()
			// A fault kind: the flight recorder auto-dumps the scheduler's
			// last few seconds (plus in-flight attempt timelines) on re-queue.
			s.flightRecord(obsv.EvRequeue, -1, int64(attempt))
			s.kickScheduler()
			return
		}
		s.finish(st, StatusFailed, err.Error(), nil)
		s.mFailed.Inc()
	}
	s.kickScheduler()
}

// executeJob runs one attempt: compile, then either host every processor
// in process or open the job's salted session on the shared hub, assign the
// remote processors to the fleet and host processor 0.
func (s *Server) executeJob(st *jobState, placement map[*workerState][]int) ([]track.Result, error) {
	dep, err := distrib.Spec{Job: st.job, Tuning: s.cfg.Tuning}.Deploy()
	if err != nil {
		return nil, err
	}

	var sess *nettransport.Session
	if !s.cfg.InProcess && st.job.Procs > 1 {
		sess, err = s.hub.OpenSession(dep.Sched.Arch, dep.Fingerprint^st.salt, []arch.ProcID{0})
		if err != nil {
			return nil, err
		}
		defer sess.Close()
	}

	// A traced job records the hub-side attempt into its own full-size ring,
	// live in the attempt record while it runs; worker snapshots merge in as
	// their done messages arrive. Faults route through the flight recorder's
	// dump path either way.
	var att *jobAttempt
	var rec *obsv.Recorder
	if st.job.Trace {
		rec = obsv.NewRecorder(dep.Sched.Arch.N, 0)
		if s.flight != nil {
			rec.SetFaultHook(s.flight.Trigger)
		}
		att = &jobAttempt{salt: st.salt, rec: rec}
		s.mu.Lock()
		st.attempts = append(st.attempts, att)
		s.mu.Unlock()
	}

	// started publishes the machine for Cancel and, on the fleet, ships the
	// assignments: from here on the attempt is abortable and attachable.
	started := func(mach *exec.Machine) error {
		mach.StageLatency = s.stageLat
		s.mu.Lock()
		if st.cancelled {
			s.mu.Unlock()
			return exec.ErrCancelled
		}
		st.mach = mach
		s.mu.Unlock()
		s.assign(st, placement, mach)
		return nil
	}

	var res *exec.RunResult
	var tr *obsv.Trace
	if sess == nil {
		res, tr, err = dep.RunMem(rec, s.cfg.JobTimeout,
			func(mach *exec.Machine, _ transport.Transport) error { return started(mach) })
	} else {
		res, tr, err = dep.RunHost(sess, rec, s.cfg.JobTimeout, started)
	}
	s.mu.Lock()
	s.settleLocked(st, res)
	if att != nil {
		// Seal the hub-side snapshot into the attempt record (before the
		// deferred Close tears the session down).
		tr.Meta["job"] = st.id
		tr.Meta["role"] = "hub"
		att.hub, att.rec = tr, nil
	}
	s.mu.Unlock()
	if err != nil {
		// A failed attempt whose deployment never became ready — the
		// assigned workers died before attaching — never actually started,
		// so it re-queues without burning the budget (up to a hard cap, so
		// a pathologically broken fleet cannot loop the job forever).
		if sess != nil && !sess.Ready() {
			s.mu.Lock()
			if !st.cancelled && st.freeRequeues < maxFreeRequeues {
				st.freeRequeues++
				st.placementFailed = true
			}
			s.mu.Unlock()
		}
		return nil, err
	}
	return dep.Results.Results, nil
}

// assign ships an attempt's run messages to the workers it was placed on.
func (s *Server) assign(st *jobState, placement map[*workerState][]int, mach *exec.Machine) {
	for w, procs := range placement {
		msg := distrib.FleetMsg{
			Type:    distrib.MsgRun,
			JobID:   st.id,
			Salt:    st.salt,
			Procs:   procs,
			Job:     &st.job,
			Tuning:  s.cfg.Tuning,
			Timeout: s.cfg.JobTimeout,
		}
		if err := w.send(msg); err != nil {
			// The worker died between placement and assignment (its member
			// connection's teardown races this dispatch). Evict it now,
			// mark the attempt as a free re-queue — the run never started,
			// so it must not burn the budget — and abort so this attempt
			// does not wait out the whole watchdog.
			s.mu.Lock()
			st.workerDied = true
			st.placementFailed = true
			s.mu.Unlock()
			s.removeWorker(w, false)
			mach.Cancel()
			break
		}
	}
}

// maxFreeRequeues bounds never-became-ready re-queues per job.
const maxFreeRequeues = 8

// finish settles a terminal status under the lock and wakes waiters.
func (s *Server) finish(st *jobState, status, errMsg string, results []track.Result) {
	s.mu.Lock()
	st.status = status
	st.err = errMsg
	st.results = results
	if results != nil {
		st.digest = Digest(results)
	}
	st.finished = time.Now()
	s.running--
	close(st.done)
	s.mu.Unlock()
}

// join is the fleet hub's join handler: it refuses a member while the
// server closes or under a name already joined, and otherwise registers it
// and starts its message loop.
func (s *Server) join(m *nettransport.Member) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrClosed
	}
	if _, dup := s.workers[m.Name()]; dup {
		return fmt.Errorf("serve: worker %q already joined", m.Name())
	}
	w := &workerState{name: m.Name(), m: m, jobs: map[string]bool{}}
	s.workers[w.name] = w
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serveWorker(w)
	}()
	return nil
}

// serveWorker reads one fleet member's messages for its lifetime. It ends
// in a clean leave (a detach frame) or a death — any other end of the
// connection, or a frame that holds no fleet message — which marks every
// job with an assignment on the worker for abort-and-re-queue.
func (s *Server) serveWorker(w *workerState) {
	s.mJoined.Inc()
	s.kickScheduler()
	for {
		msg, err := distrib.RecvFleetMsg(w.m)
		if err != nil {
			s.removeWorker(w, err == io.EOF)
			w.m.Close()
			return
		}
		if msg.Type != distrib.MsgDone {
			continue
		}
		if msg.Error != "" {
			s.mWorkerErrors.Inc()
		}
		s.mu.Lock()
		delete(w.jobs, msg.JobID)
		// A traced assignment ships its event snapshot home; attach it to
		// the attempt whose salt it echoes (a requeued job has several).
		if msg.Trace != nil {
			if st, ok := s.jobs[msg.JobID]; ok {
				for _, att := range st.attempts {
					if att.salt == msg.Salt {
						att.workers = append(att.workers, msg.Trace)
						break
					}
				}
			}
		}
		s.mu.Unlock()
	}
}

// removeWorker unregisters a fleet member. A death (clean=false) marks its
// assigned jobs and aborts their machines so the scheduler re-queues them
// now instead of waiting out the watchdog; the data-plane failure (EOF on
// the job session) races this and either one settles the attempt.
func (s *Server) removeWorker(w *workerState, clean bool) {
	s.mu.Lock()
	if s.workers[w.name] != w {
		s.mu.Unlock()
		return
	}
	delete(s.workers, w.name)
	var aborts []*exec.Machine
	if !clean {
		for id := range w.jobs {
			if st, ok := s.jobs[id]; ok && st.status == StatusRunning {
				st.workerDied = true
				if st.mach != nil {
					aborts = append(aborts, st.mach)
				}
			}
		}
	}
	s.mu.Unlock()
	if !clean {
		s.mWorkersDead.Inc()
		// A fault kind: auto-dumps the flight ring with the death on record.
		s.flightRecord(obsv.EvPeerDown, -1, int64(len(aborts)))
		for _, m := range aborts {
			m.Cancel()
		}
	}
	s.kickScheduler()
}

// shutdownListeners closes the fleet hub; safe to call repeatedly.
func (s *Server) shutdownListeners() {
	if s.hub != nil {
		s.hub.Close()
	}
}

// Close drains the control plane: no new submissions, running jobs
// aborted, workers told to stop, listeners released.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil
	}
	s.closing = true
	// Queued jobs will never run now.
	for _, st := range s.queue {
		st.status = StatusCancelled
		st.err = ErrClosed.Error()
		st.finished = time.Now()
		close(st.done)
	}
	s.queue = nil
	var aborts []*exec.Machine
	var ws []*workerState
	for _, st := range s.jobs {
		if st.status == StatusRunning && st.mach != nil {
			aborts = append(aborts, st.mach)
		}
	}
	for _, w := range s.workers {
		ws = append(ws, w)
	}
	s.mu.Unlock()

	for _, m := range aborts {
		m.Cancel()
	}
	for _, w := range ws {
		w.send(distrib.FleetMsg{Type: distrib.MsgStop})
	}
	close(s.stop)
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	s.shutdownListeners()
	// Workers leave once the stop lands and their assignments are done, a
	// traced one's done message carrying its timeline home; nudge the
	// stragglers.
	nudge := time.AfterFunc(2*time.Second, func() {
		s.mu.Lock()
		for _, w := range s.workers {
			w.m.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	nudge.Stop()
	if s.flight != nil {
		s.flight.Close()
	}
	return nil
}

// Digest folds tracking results into one FNV-1a value — the cheap
// bit-identity token /jobs responses and the CI smoke test compare, exactly
// the fields resultsIdentical checks.
func Digest(rs []track.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(rs)))
	for _, r := range rs {
		put(uint64(int64(r.Frame)))
		if r.Tracking {
			put(1)
		} else {
			put(0)
		}
		put(uint64(int64(r.Vehicles)))
		put(uint64(len(r.Marks)))
		for _, mk := range r.Marks {
			put(math.Float64bits(mk.CX))
			put(math.Float64bits(mk.CY))
			put(uint64(int64(mk.Area)))
			put(uint64(int64(mk.BBox.X0)))
			put(uint64(int64(mk.BBox.Y0)))
			put(uint64(int64(mk.BBox.X1)))
			put(uint64(int64(mk.BBox.Y1)))
		}
	}
	return h.Sum64()
}
