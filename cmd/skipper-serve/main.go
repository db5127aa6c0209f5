// Command skipper-serve runs SKiPPER as a service: a long-lived control
// plane that schedules many tracking jobs over an elastic fleet of
// skipper-node workers (DESIGN.md §12). It binds two addresses: the HTTP
// API, and the fleet hub, which workers join and their job sessions attach
// to.
//
//	skipper-serve -http 127.0.0.1:8080 -fleet 127.0.0.1:7070
//
// Workers join and leave at any time:
//
//	skipper-node -fleet 127.0.0.1:7070 -name w1
//
// Clients submit jobs over HTTP — the body is the deployment agreement
// (distrib.Job):
//
//	curl -X POST localhost:8080/jobs -d '{"topology":"ring","procs":6,
//	     "width":256,"height":256,"vehicles":3,"seed":3,"iters":50}'
//	curl localhost:8080/jobs/j1          # status, digest, placement
//	curl -X DELETE localhost:8080/jobs/j1  # cancel
//
// Jobs queue FIFO (429 beyond -queue-limit), run concurrently up to
// -max-running, each in its own fingerprint-salted session on one shared
// fleet hub, and survive worker deaths by re-running from scratch under a
// fresh salt. /metrics, /healthz and /varz ride the HTTP address.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"skipper/internal/distrib"
	"skipper/internal/serve"
)

func main() {
	httpAddr := flag.String("http", "127.0.0.1:8080", "job API bind address (also serves /metrics, /healthz, /varz)")
	fleetAddr := flag.String("fleet", "127.0.0.1:7070", "fleet hub bind address, which workers join and job sessions attach to (unix: paths work)")
	queueLimit := flag.Int("queue-limit", 64, "FIFO queue bound; submissions beyond it get 429")
	maxRunning := flag.Int("max-running", 8, "concurrently executing jobs")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "per-attempt executive watchdog")
	jobRequeues := flag.Int("job-requeues", 2, "re-runs granted per job after worker deaths")
	inProcess := flag.Bool("in-process", false, "run jobs on the in-process executive (no fleet; scheduler benchmarking)")
	flightDir := flag.String("flight", "skipper-flight", "directory for the always-on flight recorder's fault artifacts (empty disables)")
	tuning := distrib.ExecFlagSet(flag.CommandLine)
	flag.Parse()

	s, err := serve.New(serve.Config{
		HTTPAddr:    *httpAddr,
		FleetAddr:   *fleetAddr,
		QueueLimit:  *queueLimit,
		MaxRunning:  *maxRunning,
		JobTimeout:  *jobTimeout,
		JobRequeues: *jobRequeues,
		InProcess:   *inProcess,
		FlightDir:   *flightDir,
		Tuning:      *tuning,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "skipper-serve:", err)
		os.Exit(1)
	}
	fmt.Printf("skipper-serve: jobs API on http://%s\n", s.Addr())
	if fa := s.FleetAddr(); fa != "" {
		fmt.Printf("skipper-serve: fleet join address %s (skipper-node -fleet %s)\n", fa, fa)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "skipper-serve: shutting down")
	s.Close()
}
