package main

import (
	"flag"
	"testing"

	"skipper/internal/distrib"
)

// TestBackendsRejectInvalidJobs checks that the sim backend refuses every job
// the exec backend refuses, with Job.Validate's message, before it runs.
func TestBackendsRejectInvalidJobs(t *testing.T) {
	for _, args := range [][]string{
		{"-iters", "0"}, {"-procs", "300"}, {"-size", "4"}, {"-size", "5000"},
	} {
		fs := flag.NewFlagSet("skipper-run", flag.ContinueOnError)
		f := distrib.FlagSet(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		sp := f.Spec()
		want := sp.Validate()
		if want == nil {
			t.Fatalf("%v: job validates", args)
		}
		if err := runSim(sp, "", ""); err == nil || err.Error() != want.Error() {
			t.Errorf("%v: sim backend: err = %v, want %v", args, err, want)
		}
		if err := runExec(sp, f, "mem", chaos{}); err == nil || err.Error() != want.Error() {
			t.Errorf("%v: exec backend: err = %v, want %v", args, err, want)
		}
	}
}
