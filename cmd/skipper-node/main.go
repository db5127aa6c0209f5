// Command skipper-node is a fleet worker: it turns its OS process into a
// long-lived worker of a serve control plane — skipper-serve, or the
// private one-job server of a skipper-run over tcp, unix or shm. It joins
// the fleet hub at -fleet, then executes any number of job assignments,
// hosting whatever processors of whatever deployments the scheduler hands
// it, several jobs concurrently, until the control plane stops or
// disappears. Each assignment ships its own job (DESIGN.md §12): the worker
// compiles it, dials the same hub again under the job's salted fingerprint
// (the hub rejects the connection if the schedule fingerprints differ) and
// interprets its processors' op programs; node↔node frames travel one hop
// over the peer-to-peer data mesh (DESIGN.md §9).
//
//	skipper-node -fleet 127.0.0.1:7070 -name w1
//
// -data-plane and the chaos flags (-die-after-sends, -slow-every-nth,
// -slow-for) are this process's own settings and apply to every assignment
// it runs; skipper-run passes the chaos flags to the one worker that hosts
// its drill's victim processor.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"skipper/internal/distrib"
)

func main() {
	fleet := flag.String("fleet", "", "serve fleet hub address to join as a worker (required)")
	name := flag.String("name", "", "worker name (default host-pid)")
	timeout := flag.Duration("timeout", 2*time.Minute, "how long to keep retrying the join")
	flight := flag.String("flight", "skipper-flight", "directory for the always-on flight recorder's fault artifacts (empty disables)")
	var node distrib.Node
	flag.StringVar(&node.DataPlane, "data-plane", "", "node data plane: tcp, unix or shm (default: inferred from the control connection's locality)")
	flag.IntVar(&node.Chaos.KillAfterSends, "die-after-sends", 0, "chaos: sever an assignment's session after it has sent this many frames (0 disables)")
	flag.IntVar(&node.Chaos.SlowEveryNth, "slow-every-nth", 0, "chaos: delay every Nth frame an assignment sends by -slow-for (0 disables)")
	flag.DurationVar(&node.Chaos.SlowFor, "slow-for", 0, "chaos: how long -slow-every-nth delays a send")
	flag.Parse()

	if *fleet == "" {
		fmt.Fprintln(os.Stderr, "skipper-node: -fleet is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := distrib.RunWorker(*fleet, *name, *timeout, *flight, node); err != nil {
		fmt.Fprintln(os.Stderr, "skipper-node:", err)
		os.Exit(1)
	}
}
