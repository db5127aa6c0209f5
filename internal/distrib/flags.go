package distrib

import "flag"

// Flags is the declaration of skipper-run's deployment and runtime flags:
// the job, the executive tuning (shared with skipper-serve through
// ExecFlagSet) and the run's local settings (data plane, trace directory,
// debug address), which are no part of the Spec.
type Flags struct {
	Topology      *string
	Procs         *int
	Iters         *int
	Size          *int
	Vehicles      *int
	Seed          *int64
	Deterministic *bool
	Pipeline      *bool
	DataPlane     *string
	Trace         *string
	DebugAddr     *string
	Tuning        *Tuning
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

// FlagSet declares the flags on fs and returns their destinations.
func FlagSet(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	f.Topology = fs.String("topology", "ring", "ring, chain, star or full")
	f.Procs = fs.Int("procs", 8, "number of processors (and df workers)")
	f.Iters = fs.Int("iters", 50, "stream iterations")
	f.Size = fs.Int("size", 512, "frame width and height")
	f.Vehicles = fs.Int("vehicles", 3, "lead vehicles (1-3)")
	f.Seed = fs.Int64("seed", 3, "synthetic scene seed")
	f.Deterministic = fs.Bool("deterministic", false, "order-insensitive farm accumulation, same value on every process")
	f.Pipeline = fs.Bool("pipeline", false, "software-pipeline the itermem loop (overlap frame k+1's grab with frame k's farm), same value on every process")
	f.DataPlane = fs.String("data-plane", "", "node data plane: tcp, unix or shm (default: inferred from the control connection's locality)")
	f.Trace = fs.String("trace", "", "trace directory: record an event trace and export its artifacts there")
	f.DebugAddr = fs.String("debug-addr", "", "serve /metrics, /healthz and /varz on this address")
	f.Tuning = ExecFlagSet(fs)
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
			Trace: *f.Trace != "",
		},
		Tuning: *f.Tuning,
	}
}
