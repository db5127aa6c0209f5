// Command skipper-node runs processors of a distributed SKiPPER executive
// in its own OS process, in one of two modes.
//
// Classic one-shot mode hosts ONE processor of ONE deployment: it compiles
// the same tracking deployment as the coordinator (the hub rejects the
// connection if the schedule fingerprints differ), dials the hub, claims
// its processor and interprets that processor's op program over the TCP
// transport. The hub connection is control plane only (handshake, abort,
// detach, frames to coordinator-hosted processors); once every processor
// has attached, the hub broadcasts the cluster address map and node↔node
// frames travel one TCP hop over the peer-to-peer data mesh (DESIGN.md §9).
// Node processes are normally spawned by `skipper-run -transport=tcp`,
// which passes matching deployment flags; the command line mirrors the
// manifest.json `launch` entry written by skipperc -outdir:
//
//	skipper-node -hub 127.0.0.1:7000 -proc 3 \
//	             -procs 8 -size 512 -vehicles 3 -seed 3 -iters 50
//
// Fleet mode (-fleet) turns the process into a long-lived worker of a
// skipper-serve control plane: it joins the fleet, then executes any
// number of job assignments — hosting whatever processors of whatever
// deployments the scheduler hands it, several jobs concurrently — until
// the control plane stops or disappears. Deployment flags are ignored in
// this mode; each assignment ships its own spec (DESIGN.md §12):
//
//	skipper-node -fleet 127.0.0.1:7070 -name w1
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"skipper/internal/distrib"
)

func main() {
	shared := distrib.FlagSet(flag.CommandLine)
	hub := flag.String("hub", "", "coordinator hub address (host:port), required unless -fleet")
	proc := flag.Int("proc", -1, "processor id this node hosts (1..N-1), required unless -fleet")
	fleet := flag.String("fleet", "", "skipper-serve fleet address: join as a long-lived worker instead of running one processor")
	name := flag.String("name", "", "with -fleet: worker name (default host-pid)")
	timeout := flag.Duration("timeout", 2*time.Minute, "dial + run watchdog (with -fleet: how long to keep retrying the join)")
	flight := flag.String("flight", "skipper-flight", "with -fleet: directory for the always-on flight recorder's fault artifacts (empty disables)")
	dieAfterSends := flag.Int("die-after-sends", 0, "chaos: sever this node's transport after it has sent this many frames (0 disables)")
	slowEveryNth := flag.Int("slow-every-nth", 0, "chaos: delay every Nth frame this node sends by -slow-for (0 disables)")
	slowFor := flag.Duration("slow-for", 0, "chaos: how long -slow-every-nth delays a send")
	flag.Parse()

	if *fleet != "" {
		if err := distrib.RunWorker(*fleet, *name, *timeout, *flight); err != nil {
			fmt.Fprintln(os.Stderr, "skipper-node:", err)
			os.Exit(1)
		}
		return
	}

	if *hub == "" || *proc < 0 {
		fmt.Fprintln(os.Stderr, "skipper-node: -hub and -proc are required (or -fleet for worker mode)")
		flag.Usage()
		os.Exit(2)
	}
	sp := shared.Spec()
	sp.DieAfterSends = *dieAfterSends
	sp.SlowEveryNth = *slowEveryNth
	sp.SlowFor = *slowFor
	if err := distrib.RunNode(sp, *proc, *hub, *timeout); err != nil {
		fmt.Fprintln(os.Stderr, "skipper-node:", err)
		// A fired chaos trigger is the drill working as scripted, not a
		// fault of this node; exit distinctly so the spawner can tell.
		if errors.Is(err, distrib.ErrChaosKilled) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}
