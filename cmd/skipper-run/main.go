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
// Every -backend exec run goes through internal/distrib (RunInProcess for
// -transport mem, RunCoordinator otherwise) and prints, once the run is
// over, one display line per frame, the run's accounting and the summary.
//
// With -transport=tcp, unix or shm the executive really runs as N
// OS processes: this process hosts processor 0 and the routing hub, and
// one skipper-node child process is spawned per remaining processor (the
// skipper-node binary is looked up next to skipper-run, then on PATH).
// tcp talks over localhost sockets; unix uses unix-domain sockets for hub
// and peer mesh — the same-host fast path (DESIGN.md §9); shm upgrades
// every peer connection to an mmap'd slab ring and keeps the sockets as
// doorbells (DESIGN.md §9).
//
// -pipeline software-pipelines the itermem loop: frame k+1's grab and
// preprocessing overlap frame k's farm and merge, with bit-identical
// outputs (DESIGN.md §7).
//
// -trace=<dir> records an event trace of the run: each process writes its
// trace-*.json file into dir, and afterwards the merged trace is exported
// as chrome-trace.json (load it in chrome://tracing or Perfetto) and
// chronogram-measured.svg — the measured counterpart of the simulator's
// predicted chronogram (compare them with skipper-trace -compare). With
// -backend=sim the predicted chronogram SVG is written there instead.
//
// -debug-addr serves /metrics (Prometheus text), /healthz and /varz for
// the duration of the run.
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
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"skipper"
	"skipper/internal/distrib"
	goexec "skipper/internal/exec"
	"skipper/internal/obsv"
	"skipper/internal/track"
	"skipper/internal/video"
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
	// Deployment and executive flags come from the shared distrib set, so
	// skipper-run, skipper-node and skipper-serve cannot drift apart again.
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

	// The positional architecture and the shm transport's data plane are set
	// as the shared flags they abbreviate, so they reach the node processes
	// (shared.Args) like anything typed out in full. The plane must reach
	// every process: a node left on "auto" would negotiate plain unix while
	// its peers offer rings.
	if flag.NArg() > 0 {
		if err := setTopologyArg(flag.Arg(0)); err != nil {
			fatal(err)
		}
	}
	if *transportFlag == "shm" && *shared.DataPlane == "" {
		flag.Set("data-plane", "shm")
	}

	sp := shared.Spec()
	switch *backend {
	case "exec":
		runExec(sp, shared.Args(), *transportFlag, c)
	case "sim":
		runSim(sp, *svgPath)
	default:
		fatal(fmt.Errorf("unknown backend %q", *backend))
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

// runExec executes the deployment on the goroutine executive — in this
// process (mem) or as N OS processes — and prints the one exec epilogue:
// the per-frame display lines, the run's accounting, the tracking summary.
func runExec(sp distrib.Spec, nodeArgs []string, transport string, c chaos) {
	var rec *track.Recorder
	var res *goexec.RunResult
	var err error
	if transport == "mem" {
		if c.killProc != 0 || c.slowProc != 0 {
			fatal(fmt.Errorf("-chaos-kill-proc and -chaos-slow-proc need a real node process (use -transport tcp, unix or shm)"))
		}
		rec, res, err = distrib.RunInProcess(sp, 5*time.Minute)
	} else {
		rec, res, err = runMulti(sp, nodeArgs, transport, c)
	}
	if err != nil {
		fatal(err)
	}
	for _, r := range rec.Results {
		fmt.Println(track.Display(r))
	}
	if sp.TraceDir != "" {
		exportTrace(sp.TraceDir)
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
	printTrackingSummary(rec)
}

// runSim runs the deployment on the Transvision timing simulator: a
// different backend, compiled through the public library API.
func runSim(sp distrib.Spec, svgPath string) {
	scene := video.NewScene(sp.Width, sp.Height, sp.Vehicles, sp.Seed)
	reg, rec := track.NewRegistry(scene, os.Stdout)
	prog, err := skipper.Compile(track.ProgramSource(sp.Procs, sp.Width, sp.Height), reg)
	if err != nil {
		fatal(err)
	}
	a, err := sp.Arch()
	if err != nil {
		fatal(err)
	}
	dep, err := prog.MapOnto(a, skipper.Structured)
	if err != nil {
		fatal(err)
	}
	doTrace := sp.TraceDir != "" || svgPath != ""
	res, err := dep.Simulate(skipper.SimOptions{
		Iters: sp.Iters, FramePeriod: skipper.VideoPeriod, Trace: doTrace,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s, %d iterations at 25 Hz:\n", a.Name, sp.Iters)
	fmt.Printf("  mean latency : %6.1f ms\n", res.MeanLatency(2)*1000)
	fmt.Printf("  max latency  : %6.1f ms\n", res.MaxLatency(2)*1000)
	fmt.Printf("  frames skipped: %d\n", res.FramesSkipped)
	if doTrace {
		fmt.Println()
		fmt.Print(res.Chronogram(100))
		svg := res.ChronogramSVG(900, 16)
		if sp.TraceDir != "" {
			if err := os.MkdirAll(sp.TraceDir, 0o755); err != nil {
				fatal(err)
			}
			out := filepath.Join(sp.TraceDir, "chronogram-predicted.svg")
			if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("predicted chronogram written to %s\n", out)
		}
		if svgPath != "" {
			if err := os.WriteFile(svgPath, []byte(svg), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("chronogram written to %s\n", svgPath)
		}
	}
	printTrackingSummary(rec)
}

func printTrackingSummary(rec *track.Recorder) {
	locked := 0
	for _, r := range rec.Results {
		if r.Tracking {
			locked++
		}
	}
	fmt.Printf("\n%d iterations, %d in tracking phase (%.0f%%)\n",
		len(rec.Results), locked, 100*float64(locked)/float64(max(len(rec.Results), 1)))
}

// exportTrace merges the per-process trace files in dir into the Chrome
// trace and measured-chronogram artifacts.
func exportTrace(dir string) {
	tr, err := obsv.LoadDir(dir)
	if err != nil {
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

// runMulti executes the tracking deployment as N communicating OS
// processes on this host — over localhost TCP or unix-domain sockets per
// transport — with processor 0 plus the hub here and one spawned
// skipper-node per remaining processor, each given nodeArgs (the shared
// flags as typed). c.killProc, when non-zero, scripts a chaos drill: that
// node process is spawned with -die-after-sends so it severs itself
// mid-run, and the run must degrade (or, with -max-retries, finish) without
// it. c.slowProc scripts the straggler drill instead: the node stays alive
// but delays its sends, the scenario -speculate-after exists for. Children
// are waited on as they run: any other child exiting non-zero fails the run
// at once with its error.
func runMulti(sp distrib.Spec, nodeArgs []string, transport string, c chaos) (*track.Recorder, *goexec.RunResult, error) {
	nodeBin, err := findNodeBinary()
	if err != nil {
		return nil, nil, err
	}
	listen, cleanup, err := distrib.HubListenAddr(transport)
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	for name, p := range map[string]int{"-chaos-kill-proc": c.killProc, "-chaos-slow-proc": c.slowProc} {
		if p != 0 && (p < 1 || p >= sp.Procs) {
			return nil, nil, fmt.Errorf("%s %d outside node range 1..%d", name, p, sp.Procs-1)
		}
	}
	spawned := 0
	exits := make(chan error, sp.Procs)
	spawn := func(addr string, fail func(error)) error {
		for p := 1; p < sp.Procs; p++ {
			args := append([]string{"-hub", addr, "-proc", strconv.Itoa(p)}, nodeArgs...)
			if p == c.killProc {
				args = append(args, "-die-after-sends", strconv.Itoa(c.killAfter))
			}
			if p == c.slowProc && c.slowEvery > 0 && c.slowFor > 0 {
				args = append(args,
					"-slow-every-nth", strconv.Itoa(c.slowEvery),
					"-slow-for", c.slowFor.String())
			}
			cmd := exec.Command(nodeBin, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return err
			}
			spawned++
			go func(p int) {
				werr := cmd.Wait()
				if werr != nil && p != c.killProc { // the scripted victim is supposed to die
					werr = fmt.Errorf("node process %v: %w", cmd.Args[3:5], werr)
					fail(werr)
				} else {
					werr = nil
				}
				exits <- werr
			}(p)
		}
		return nil
	}
	rec, res, err := distrib.RunCoordinator(sp, listen, spawn, 5*time.Minute)
	for ; spawned > 0; spawned-- {
		if werr := <-exits; werr != nil && err == nil {
			err = werr // a child that failed after the run was over
		}
	}
	return rec, res, err
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
