package distrib

import "flag"

// Flags is the one declaration of the deployment and runtime flags every
// skipper command shares. skipper-run, skipper-node and skipper-serve used
// to (or would) declare these independently, and the copies drifted —
// skipper-run lost -deterministic while skipper-node kept it. Each command
// calls FlagSet on its own flag.FlagSet, adds its command-specific flags
// (-transport, -hub, -proc, -fleet, ...) and assembles the Spec with Spec().
type Flags struct {
	Topology      *string
	Procs         *int
	Iters         *int
	Size          *int
	Vehicles      *int
	Seed          *int64
	Deterministic *bool
	Pipeline      *bool
	PipelineDepth *int
	DataPlane     *string
	Trace         *string
	DebugAddr     *string
	Tuning        *Tuning

	// shared holds exactly the flags declared here (the command's own set
	// shares their values), which is what Args walks.
	shared *flag.FlagSet
}

// ExecFlagSet declares the executive-tuning flags on fs — the subset every
// command shares, including skipper-serve (which takes no deployment flags:
// jobs arrive over HTTP) — and returns the Tuning they fill.
func ExecFlagSet(fs *flag.FlagSet) *Tuning {
	t := &Tuning{}
	fs.IntVar(&t.MaxRetries, "max-retries", 0, "farm fault tolerance: re-dispatch a dead worker's tasks up to this many times (0 disables)")
	fs.DurationVar(&t.TaskDeadline, "task-deadline", 0, "declare a worker dead when a farm task sits unanswered this long (0 disables)")
	fs.DurationVar(&t.Heartbeat, "heartbeat", 0, "control-plane liveness heartbeat interval, same value on every process (0 disables)")
	fs.DurationVar(&t.SpeculateAfter, "speculate-after", 0, "duplicate a farm task onto an idle worker when it sits unanswered this long (0 = task-deadline/2 when a deadline is set; negative disables; needs -max-retries > 0)")
	return t
}

// FlagSet declares the shared flags on fs and returns their destinations.
func FlagSet(fs *flag.FlagSet) *Flags {
	own := flag.NewFlagSet("shared", flag.ContinueOnError)
	f := &Flags{shared: own}
	f.Topology = own.String("topology", "ring", "ring, chain, star or full")
	f.Procs = own.Int("procs", 8, "number of processors (and df workers)")
	f.Iters = own.Int("iters", 50, "stream iterations")
	f.Size = own.Int("size", 512, "frame width and height")
	f.Vehicles = own.Int("vehicles", 3, "lead vehicles (1-3)")
	f.Seed = own.Int64("seed", 3, "synthetic scene seed")
	f.Deterministic = own.Bool("deterministic", false, "order-insensitive farm accumulation, same value on every process")
	f.Pipeline = own.Bool("pipeline", false, "software-pipeline the itermem loop (overlap frame k+1's grab with frame k's farm), same value on every process")
	f.PipelineDepth = own.Int("pipeline-depth", 0, "with -pipeline: cap the pipeline at this many stages (0 = cut at every farm boundary, 2 = the historical two-stage split)")
	f.DataPlane = own.String("data-plane", "", "node data plane: tcp, unix or shm (default: inferred from the control connection's locality)")
	f.Trace = own.String("trace", "", "trace directory: record an event trace and export its artifacts there")
	f.DebugAddr = own.String("debug-addr", "", "serve /metrics, /healthz and /varz on this address")
	f.Tuning = ExecFlagSet(own)
	own.VisitAll(func(fl *flag.Flag) { fs.Var(fl.Value, fl.Name, fl.Usage) })
	return f
}

// Spec assembles the parsed flag values into a deployment spec.
func (f *Flags) Spec() Spec {
	return Spec{
		Job: Job{
			Topology: *f.Topology, Procs: *f.Procs,
			Width: *f.Size, Height: *f.Size,
			Vehicles: *f.Vehicles, Seed: *f.Seed, Iters: *f.Iters,
			Deterministic: *f.Deterministic, Pipeline: *f.Pipeline,
			PipelineDepth: *f.PipelineDepth,
		},
		DataPlane: *f.DataPlane,
		TraceDir:  *f.Trace, DebugAddr: *f.DebugAddr,
		Tuning: *f.Tuning,
	}
}

// Args renders the shared flags as the command line of a child process that
// must run the same deployment (skipper-run's skipper-node children): every
// shared flag whose value differs from its default, so a flag added to
// FlagSet is forwarded without another edit — except -debug-addr, which is
// one process's listener, not part of what the deployment agrees on.
func (f *Flags) Args() []string {
	var args []string
	f.shared.VisitAll(func(fl *flag.Flag) {
		if fl.Name != "debug-addr" && fl.Value.String() != fl.DefValue {
			args = append(args, "-"+fl.Name+"="+fl.Value.String())
		}
	})
	return args
}
