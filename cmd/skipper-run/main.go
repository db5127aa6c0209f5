// Command skipper-run executes the built-in vehicle tracking application
// (paper §4) through the full SKiPPER pipeline, on either the goroutine
// executive (real parallel execution) or the Transvision timing simulator.
//
// Usage:
//
//	skipper-run [-backend exec|sim] [-transport mem|tcp|unix|shm] [-procs 8]
//	            [-iters 50] [-size 512] [-vehicles 3] [-seed 3]
//	            [-topology ring] [-pipeline] [-trace dir]
//	            [-debug-addr host:port]
//	            [-max-retries n] [-task-deadline d] [-heartbeat d]
//	            [-speculate-after d]
//	            [-chaos-kill-proc p] [-chaos-kill-after n]
//	            [-chaos-slow-proc p] [-chaos-slow-every n] [-chaos-slow-for d]
//	            [topology(procs)]
//
// The optional positional argument names the architecture compactly:
// "ring(8)" is shorthand for -topology ring -procs 8.
//
// Every -backend exec run is a one-job fleet: skipper-run submits its job
// to a private serve control plane in this process (serve.Run) and prints,
// once the run is over, one display line per frame, the run's accounting
// and the summary. -transport mem runs every processor in this process.
//
// With -transport=tcp, unix or shm the executive really runs as N OS
// processes: this process hosts the control plane, the fleet hub and
// processor 0, and one skipper-node -fleet worker process is spawned per
// remaining processor (the skipper-node binary is looked up next to
// skipper-run, then on PATH); worker k hosts exactly processor k. tcp
// talks over localhost sockets; unix uses unix-domain sockets for hub and
// peer mesh — the same-host fast path (DESIGN.md §9); shm upgrades every
// peer connection to an mmap'd slab ring and keeps the sockets as
// doorbells (DESIGN.md §9).
//
// -pipeline software-pipelines the itermem loop: frame k+1's grab and
// preprocessing overlap frame k's farm and merge, with bit-identical
// outputs (DESIGN.md §7).
//
// -trace=<dir> submits the job traced: every process records its events,
// the workers ship theirs home, and afterwards the merged trace is written
// into dir as trace-run.json and exported as chrome-trace.json (load it in
// chrome://tracing or Perfetto) and chronogram-measured.svg — the measured
// counterpart of the simulator's predicted chronogram (compare them with
// skipper-trace -compare). With -backend=sim the predicted chronogram SVG
// is written there instead.
//
// -debug-addr is the control plane's HTTP address: /metrics (Prometheus
// text), /healthz and /varz for the duration of the run.
//
// -max-retries enables farm fault tolerance (DESIGN.md §11): when a node
// hosting only farm workers dies mid-run, its in-flight tasks are
// re-dispatched on the survivors and the run completes without it.
// -task-deadline additionally catches workers that hang without dying;
// -heartbeat arms control-plane liveness probes. -speculate-after arms
// straggler speculation (DESIGN.md §11): a task unanswered that long is
// duplicated onto an idle worker and the first reply wins, without
// declaring the slow worker dead. -chaos-kill-proc runs a fault-injection
// drill: the named node process severs itself mid-run (after
// -chaos-kill-after sends) exactly like a crash. -chaos-slow-proc runs the
// straggler drill instead: the named node stays alive but delays every
// -chaos-slow-every'th send by -chaos-slow-for.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"skipper/internal/distrib"
	"skipper/internal/obsv"
	"skipper/internal/serve"
	"skipper/internal/sim"
	"skipper/internal/track"
)

// chaos is the scripted fault-injection drill, if any: killProc severs
// itself after killAfter sends; slowProc delays every slowEvery'th send by
// slowFor. A zero processor disables that drill.
type chaos struct {
	killProc, killAfter int
	slowProc, slowEvery int
	slowFor             time.Duration
}

func main() {
	// The executive-tuning flags are declared once in distrib, for
	// skipper-run and skipper-serve alike.
	shared := distrib.FlagSet(flag.CommandLine)
	backend := flag.String("backend", "exec", "execution backend: exec (goroutines) or sim (timing model)")
	transportFlag := flag.String("transport", "mem", "with -backend exec: mem (in-process), tcp, unix or shm (one OS process per processor)")
	svgPath := flag.String("svg", "", "with -backend sim -trace: also write the predicted SVG chronogram to this file")
	var c chaos
	flag.IntVar(&c.killProc, "chaos-kill-proc", 0, "chaos drill, with -transport tcp: sever this node processor mid-run (0 disables)")
	flag.IntVar(&c.killAfter, "chaos-kill-after", 2, "chaos drill: how many frames the victim sends before it is severed")
	flag.IntVar(&c.slowProc, "chaos-slow-proc", 0, "chaos drill, with -transport tcp/unix/shm: make this node processor a straggler (0 disables)")
	flag.IntVar(&c.slowEvery, "chaos-slow-every", 1, "chaos drill: delay every Nth frame the straggler sends")
	flag.DurationVar(&c.slowFor, "chaos-slow-for", 200*time.Millisecond, "chaos drill: how long the straggler delays each scripted send")
	flag.Parse()

	// The positional architecture is set as the flags it abbreviates.
	if flag.NArg() > 0 {
		if err := setTopologyArg(flag.Arg(0)); err != nil {
			fatal(err)
		}
	}

	sp := shared.Spec()
	var err error
	switch *backend {
	case "exec":
		err = runExec(sp, shared, *transportFlag, c)
	case "sim":
		err = runSim(sp, *shared.Trace, *svgPath)
	default:
		err = fmt.Errorf("unknown backend %q", *backend)
	}
	if err != nil {
		fatal(err)
	}
}

// setTopologyArg accepts "ring(8)" or plain "ring" and sets the
// -topology/-procs flags accordingly.
func setTopologyArg(arg string) error {
	name := arg
	if i := strings.IndexByte(arg, '('); i >= 0 {
		if !strings.HasSuffix(arg, ")") {
			return fmt.Errorf("malformed topology %q (want e.g. ring(8))", arg)
		}
		procs := arg[i+1 : len(arg)-1]
		if n, err := strconv.Atoi(procs); err != nil || n < 1 {
			return fmt.Errorf("malformed processor count in %q", arg)
		}
		flag.Set("procs", procs)
		name = arg[:i]
	}
	switch name {
	case "ring", "chain", "star", "full":
		return flag.Set("topology", name)
	}
	return fmt.Errorf("unknown topology %q", name)
}

// runExec executes the deployment on the goroutine executive as a one-job
// serve — in this process (mem) or with one skipper-node worker process per
// remaining processor — and prints the one exec epilogue: the per-frame
// display lines, the run's accounting, the tracking summary.
func runExec(sp distrib.Spec, f *distrib.Flags, transport string, c chaos) error {
	if transport == "mem" && (c.killProc != 0 || c.slowProc != 0) {
		return fmt.Errorf("-chaos-kill-proc and -chaos-slow-proc need a real node process (use -transport tcp, unix or shm)")
	}
	for name, p := range map[string]int{"-chaos-kill-proc": c.killProc, "-chaos-slow-proc": c.slowProc} {
		if p != 0 && (p < 1 || p >= sp.Procs) {
			return fmt.Errorf("%s %d outside node range 1..%d", name, p, sp.Procs-1)
		}
	}
	cfg := serve.Config{HTTPAddr: *f.DebugAddr, JobTimeout: 5 * time.Minute, Tuning: sp.Tuning}
	cleanup, err := cfg.OnTransport(transport)
	if err != nil {
		return err
	}
	// The plane must reach every worker: one left on "auto" would negotiate
	// plain unix while its peers offer rings.
	plane := *f.DataPlane
	if transport == "shm" && plane == "" {
		plane = "shm"
	}
	var nodes nodeProcs
	results, res, tr, err := serve.Run(cfg, sp.Job, nodes.spawn(sp.Procs, plane, c))
	if werr := nodes.wait(err != nil); err == nil {
		err = werr // a child that failed after the run was over
	}
	cleanup()
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Println(track.Display(r))
	}
	if *f.Trace != "" {
		exportTrace(*f.Trace, tr)
	}
	if transport != "mem" {
		fmt.Printf("%d processors as OS processes over %s, %d messages from coordinator\n",
			sp.Procs, transport, res.Messages)
		if sp.MaxRetries > 0 || c.killProc != 0 {
			fmt.Printf("fault tolerance: %d peer failure(s), %d task re-dispatch(es)\n",
				res.Failures, res.Redispatches)
		}
		if res.Speculations > 0 || c.slowProc != 0 {
			fmt.Printf("speculation: %d duplicate(s), %d win(s), %d false suspicion(s)\n",
				res.Speculations, res.SpeculationWins, res.FalseSuspicions)
		}
	}
	printTrackingSummary(results)
	return nil
}

// runSim runs the deployment on the Transvision timing simulator: the job
// compiles (and validates) as it does for the exec backend, and the display
// lines print once the simulation is over.
func runSim(sp distrib.Spec, traceDir, svgPath string) error {
	s, reg, rec, err := sp.Compile()
	if err != nil {
		return err
	}
	doTrace := traceDir != "" || svgPath != ""
	res, err := sim.Run(s, reg, sim.Options{
		Iters: sp.Iters, FramePeriod: sim.VideoPeriod, Trace: doTrace,
	})
	if err != nil {
		return err
	}
	for _, r := range rec.Results {
		fmt.Println(track.Display(r))
	}
	fmt.Printf("\n%s, %d iterations at 25 Hz:\n", s.Arch.Name, sp.Iters)
	fmt.Printf("  mean latency : %6.1f ms\n", res.MeanLatency(2)*1000)
	fmt.Printf("  max latency  : %6.1f ms\n", res.MaxLatency(2)*1000)
	fmt.Printf("  frames skipped: %d\n", res.FramesSkipped)
	if doTrace {
		fmt.Println()
		fmt.Print(res.Chronogram(100))
		svg := res.ChronogramSVG(900, 16)
		if traceDir != "" {
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				return err
			}
			out := filepath.Join(traceDir, "chronogram-predicted.svg")
			if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
				return err
			}
			fmt.Printf("predicted chronogram written to %s\n", out)
		}
		if svgPath != "" {
			if err := os.WriteFile(svgPath, []byte(svg), 0o644); err != nil {
				return err
			}
			fmt.Printf("chronogram written to %s\n", svgPath)
		}
	}
	printTrackingSummary(rec.Results)
	return nil
}

func printTrackingSummary(results []track.Result) {
	locked := 0
	for _, r := range results {
		if r.Tracking {
			locked++
		}
	}
	fmt.Printf("\n%d iterations, %d in tracking phase (%.0f%%)\n",
		len(results), locked, 100*float64(locked)/float64(max(len(results), 1)))
}

// exportTrace writes the run's merged trace into dir as trace-run.json —
// the file obsv.LoadDir and skipper-trace -compare read — and exports it as
// the Chrome trace and measured-chronogram artifacts.
func exportTrace(dir string, tr *obsv.Trace) {
	if tr == nil {
		fatal(errors.New("the traced run recorded no trace"))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	if err := tr.WriteFile(filepath.Join(dir, "trace-run.json")); err != nil {
		fatal(err)
	}
	data, err := tr.ChromeJSON()
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "chrome-trace.json"), data, 0o644); err != nil {
		fatal(err)
	}
	svg := tr.ChronogramSVG(900, 16)
	if err := os.WriteFile(filepath.Join(dir, "chronogram-measured.svg"), []byte(svg), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("trace: %d events from %d processors in %s (chrome-trace.json, chronogram-measured.svg)\n",
		len(tr.Events), len(tr.Procs), dir)
}

// nodeProcs are the skipper-node worker processes of one run.
type nodeProcs struct {
	cmds  []*exec.Cmd
	exits chan error
}

// spawn is Run's spawn hook: one skipper-node -fleet child per remaining
// processor, named serve.WorkerName(p) so that child p hosts processor p,
// on the given data plane and with -flight= (no artifacts). c.killProc's
// child gets -die-after-sends: its assignment severs itself mid-run and the
// run must degrade (or, with -max-retries, finish) without it. c.slowProc's
// gets the straggler flags instead, the scenario -speculate-after exists
// for. Any other child that exits before the job is done fails the run at
// once.
func (np *nodeProcs) spawn(procs int, plane string, c chaos) func(string, func(error)) error {
	return func(addr string, fail func(error)) error {
		bin, err := findNodeBinary()
		if err != nil {
			return err
		}
		np.exits = make(chan error, procs)
		for p := 1; p < procs; p++ {
			args := []string{"-fleet", addr, "-name", serve.WorkerName(p), "-flight="}
			if plane != "" {
				args = append(args, "-data-plane", plane)
			}
			if p == c.killProc {
				args = append(args, "-die-after-sends", strconv.Itoa(c.killAfter))
			}
			if p == c.slowProc && c.slowEvery > 0 && c.slowFor > 0 {
				args = append(args,
					"-slow-every-nth", strconv.Itoa(c.slowEvery),
					"-slow-for", c.slowFor.String())
			}
			cmd := exec.Command(bin, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return err
			}
			np.cmds = append(np.cmds, cmd)
			go func(p int) {
				werr := cmd.Wait()
				if werr != nil {
					werr = fmt.Errorf("node process %s: %w", serve.WorkerName(p), werr)
				}
				if p == c.killProc {
					werr = nil // the scripted victim may die
				} else {
					fail(cmp.Or(werr, fmt.Errorf("node process %s exited", serve.WorkerName(p))))
				}
				np.exits <- werr
			}(p)
		}
		return nil
	}
}

// wait reaps every child, killing them first when the run has failed, and
// returns the first error a child other than the victim exited with.
func (np *nodeProcs) wait(kill bool) error {
	for _, cmd := range np.cmds {
		if kill {
			cmd.Process.Kill()
		}
	}
	var first error
	for range np.cmds {
		if err := <-np.exits; first == nil {
			first = err
		}
	}
	return first
}

// findNodeBinary locates skipper-node: next to this executable first, then
// on PATH.
func findNodeBinary() (string, error) {
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "skipper-node")
		if st, err := os.Stat(cand); err == nil && !st.IsDir() {
			return cand, nil
		}
	}
	if p, err := exec.LookPath("skipper-node"); err == nil {
		return p, nil
	}
	return "", fmt.Errorf("skipper-node binary not found next to skipper-run or on PATH (build it with: go build ./cmd/skipper-node)")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "skipper-run:", err)
	os.Exit(1)
}
