package serve

import (
	"errors"
	"fmt"
	"time"

	"skipper/internal/distrib"
	"skipper/internal/exec"
	"skipper/internal/obsv"
	"skipper/internal/track"
)

// Run runs one job on a private server: a skipper-run is a one-job fleet.
// In order it binds the server (cfg), calls spawn with the fleet address so
// that job.Procs-1 workers join (not for an in-process run), waits until
// they have, submits the job and waits for it, closes the server, and
// returns the job's results, the settled attempt's run accounting and, for a
// traced job, its merged trace. A spawned worker that fails before the job
// is done reports through fail, which ends the run at once with that error.
//
// Placement is pinned: the scheduler puts processor p on live worker
// (p-1) mod n in name order, so with every worker joined before the
// submission and named WorkerName(k), worker k hosts exactly processor k.
func Run(cfg Config, job distrib.Job, spawn func(fleetAddr string, fail func(error)) error) ([]track.Result, *exec.RunResult, *obsv.Trace, error) {
	if err := job.Validate(); err != nil {
		return nil, nil, nil, err
	}
	s, err := New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	defer s.Close()
	return s.runOne(job, spawn)
}

// runOne is Run on a server already bound.
func (s *Server) runOne(job distrib.Job, spawn func(string, func(error)) error) ([]track.Result, *exec.RunResult, *obsv.Trace, error) {
	failed := make(chan error, 1)
	fail := func(err error) {
		select {
		case failed <- err:
		default:
		}
	}
	if !s.cfg.InProcess {
		if err := spawn(s.FleetAddr(), fail); err != nil {
			return nil, nil, nil, fmt.Errorf("serve: spawning workers: %w", err)
		}
		if err := s.awaitWorkers(job.Procs-1, failed); err != nil {
			return nil, nil, nil, err
		}
	}
	id, err := s.Submit(job)
	if err != nil {
		return nil, nil, nil, err
	}
	s.mu.Lock()
	st := s.jobs[id]
	s.mu.Unlock()
	select {
	case <-st.done:
	case err := <-failed:
		return nil, nil, nil, err
	}
	// Closing waits for every worker to leave, so the done messages carrying
	// a traced job's worker timelines have all been taken in.
	s.Close()
	var tr *obsv.Trace
	if attempts, _ := s.JobTrace(id); len(attempts) > 0 {
		tr = attempts[len(attempts)-1]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st.status != StatusDone {
		return nil, nil, nil, errors.New(st.err)
	}
	return st.results, st.res, tr, nil
}

// awaitWorkers waits until n workers have joined, a spawned one has failed
// or the job timeout has passed.
func (s *Server) awaitWorkers(n int, failed <-chan error) error {
	deadline := time.Now().Add(s.cfg.JobTimeout)
	for {
		s.mu.Lock()
		joined := len(s.workers)
		s.mu.Unlock()
		if joined >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: %d of %d workers joined in %v", joined, n, s.cfg.JobTimeout)
		}
		select {
		case err := <-failed:
			return err
		case <-time.After(time.Millisecond):
		}
	}
}

// OnTransport sets c up for a one-job run over the named transport: "mem"
// runs every processor in process, and tcp, unix and shm bind the fleet hub
// at distrib.HubListenAddr. A one-job run is never re-run. cleanup removes
// what the address reserved on disk; call it once the run is over.
func (c *Config) OnTransport(transport string) (cleanup func(), err error) {
	c.JobRequeues = -1
	if transport == "mem" {
		c.InProcess = true
		return func() {}, nil
	}
	c.FleetAddr, cleanup, err = distrib.HubListenAddr(transport)
	return cleanup, err
}

// WorkerName is the fleet name of the worker that hosts processor p in a
// one-job run: zero-padded, so the scheduler's name order is processor
// order.
func WorkerName(p int) string { return fmt.Sprintf("node%03d", p) }

// InProcessWorkers is a spawn hook for Run that joins a job's procs-1
// workers as goroutines of this process, over real sockets, each with the
// settings node returns for the processor it hosts (nil: none). It stands in
// for skipper-node children in tests and the harness.
func InProcessWorkers(procs int, node func(p int) distrib.Node) func(string, func(error)) error {
	return func(addr string, fail func(error)) error {
		for p := 1; p < procs; p++ {
			w, err := distrib.JoinFleet(addr, WorkerName(p), 10*time.Second)
			if err != nil {
				return err
			}
			if node != nil {
				w.Node = node(p)
			}
			go func() {
				if err := w.Serve(); err != nil {
					fail(err)
				}
			}()
		}
		return nil
	}
}
