package distrib

import (
	"strings"
	"testing"
	"time"

	goexec "skipper/internal/exec"
)

func trackingSpec(iters int) Spec {
	return Spec{Job: Job{
		Topology: "ring", Procs: 8,
		Width: 128, Height: 128,
		Vehicles: 2, Seed: 21, Iters: iters,
	}}
}

// TestNodeRejectsCoordinatorProcessor pins the processor-0 ownership rule:
// a node hosts remote processors only, and at least one of them. The check
// comes before the dial.
func TestNodeRejectsCoordinatorProcessor(t *testing.T) {
	dep, err := trackingSpec(1).Deploy()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range [][]int{{0}, {dep.Sched.Arch.N}, nil} {
		if _, _, err := dep.RunNode("127.0.0.1:1", 0, procs, Node{}, nil, time.Second, nil); err == nil {
			t.Fatalf("node accepted processors %v", procs)
		}
	}
}

// TestCompileRejectsInvalidJobs: a job nobody validated — a fleet run
// message is compiled as it arrives — is an error from Compile, never a
// panic in the compiler chain (arch.newArch panics on 0 processors).
func TestCompileRejectsInvalidJobs(t *testing.T) {
	ok := Job{Topology: "ring", Procs: 3, Width: 64, Height: 64, Iters: 1}
	for _, tc := range []struct {
		name string
		edit func(*Job)
	}{
		{"no procs", func(j *Job) { j.Procs = 0 }},
		{"negative procs", func(j *Job) { j.Procs = -4 }},
		{"too many procs", func(j *Job) { j.Procs = 257 }},
		{"no topology", func(j *Job) { j.Topology = "" }},
		{"empty frame", func(j *Job) { j.Width, j.Height = 0, 0 }},
		{"no iters", func(j *Job) { j.Iters = 0 }},
	} {
		j := ok
		tc.edit(&j)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: Compile panicked: %v", tc.name, r)
				}
			}()
			if _, _, _, err := j.Compile(); err == nil {
				t.Errorf("%s: Compile(%+v) succeeded", tc.name, j)
			}
		}()
	}
}

// TestJobValidateBounds pins the admission check at both ends of every
// size: a job past an upper bound would allocate its architecture, a frame
// or its outputs at that size before the first frame.
func TestJobValidateBounds(t *testing.T) {
	ok := Job{Topology: "ring", Procs: 3, Width: 48, Height: 48, Vehicles: 1, Seed: 1, Iters: 2}
	for _, tc := range []struct {
		name string
		edit func(*Job)
		want string // "" = valid
	}{
		{"in-tree job", func(*Job) {}, ""},
		{"largest job", func(j *Job) { j.Procs, j.Width, j.Height, j.Iters = 256, 4096, 4096, 1_000_000 }, ""},
		{"smallest job", func(j *Job) { j.Procs, j.Width, j.Height, j.Iters = 1, 8, 8, 1 }, ""},
		{"unknown topology", func(j *Job) { j.Topology = "torus" }, "topology"},
		{"no procs", func(j *Job) { j.Procs = 0 }, "procs"},
		{"too many procs", func(j *Job) { j.Procs = 257 }, "procs"},
		{"frame too narrow", func(j *Job) { j.Width = 7 }, "frame"},
		{"frame too wide", func(j *Job) { j.Width = 1_000_000 }, "frame"},
		{"frame too tall", func(j *Job) { j.Height = 4097 }, "frame"},
		{"no iters", func(j *Job) { j.Iters = 0 }, "iters"},
		{"too many iters", func(j *Job) { j.Iters = 1 << 40 }, "iters"},
	} {
		j := ok
		tc.edit(&j)
		err := j.Validate()
		if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSpecConfigureSetsEveryKnob pins the one place a Spec becomes machine
// settings: all three executive knobs land, and the job's own speculation
// threshold overrides the fleet's.
func TestSpecConfigureSetsEveryKnob(t *testing.T) {
	sp := trackingSpec(1)
	sp.Deterministic, sp.Pipeline = true, true
	sp.MaxRetries, sp.TaskDeadline, sp.SpeculateAfter = 3, time.Second, 200*time.Millisecond
	var m goexec.Machine
	sp.Configure(&m)
	want := goexec.FaultTolerance{MaxRetries: 3, TaskDeadline: time.Second, SpeculateAfter: 200 * time.Millisecond}
	if !m.DeterministicFarm || !m.Pipeline || m.FT != want {
		t.Fatalf("machine = {det %v pipe %v ft %+v}, want everything the spec sets",
			m.DeterministicFarm, m.Pipeline, m.FT)
	}
	sp.SpeculateAfterMS = -1
	sp.Configure(&m)
	if m.FT.SpeculateAfter != -time.Millisecond {
		t.Fatalf("SpeculateAfter = %v, want the job's -1ms override", m.FT.SpeculateAfter)
	}
}
