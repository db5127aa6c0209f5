package distrib

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"skipper/internal/exec"
	"skipper/internal/exec/transport"
	"skipper/internal/leakcheck"
	"skipper/internal/syndex"
	"skipper/internal/track"
)

// schedDigest renders everything a run reads of a schedule: the macro-code
// (graph structure, assignment, per-processor programs), the fingerprint and
// the graph's compile-time constants, which the macro-code leaves out.
func schedDigest(s *syndex.Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%016x\n%s", s.Fingerprint(), s.MacroCode())
	for _, n := range s.Graph.Nodes {
		if n.Const != nil {
			fmt.Fprintf(&b, "%s = %v\n", n.Name, n.Const)
		}
	}
	return b.String()
}

// forget empties the process's memo, so a test starts from a cold one.
func forget() {
	schedules.mu.Lock()
	defer schedules.mu.Unlock()
	schedules.entries = nil
}

func memoLen() int {
	schedules.mu.Lock()
	defer schedules.mu.Unlock()
	return len(schedules.entries)
}

// TestMemoKeyIsComplete: a deployment's memoized schedule equals an uncached
// Job.Compile of its own job whatever the job's other fields say, and the
// memo tells apart exactly the jobs whose schedules differ. Every Job field
// must be classified here, so a field added later has to be placed on one
// side of the key.
func TestMemoKeyIsComplete(t *testing.T) {
	base := Job{Topology: "ring", Procs: 4, Width: 128, Height: 96, Vehicles: 2, Seed: 5, Iters: 3}
	key := map[string]func(*Job){
		"Topology": func(j *Job) { j.Topology = "star" },
		"Procs":    func(j *Job) { j.Procs = 5 },
		"Width":    func(j *Job) { j.Width = 136 },
		"Height":   func(j *Job) { j.Height = 104 },
	}
	other := map[string]func(*Job){
		"Vehicles":         func(j *Job) { j.Vehicles = 3 },
		"Seed":             func(j *Job) { j.Seed = 99 },
		"Iters":            func(j *Job) { j.Iters = 7 },
		"Deterministic":    func(j *Job) { j.Deterministic = true },
		"Pipeline":         func(j *Job) { j.Pipeline = true },
		"Trace":            func(j *Job) { j.Trace = true },
		"SpeculateAfterMS": func(j *Job) { j.SpeculateAfterMS = 50 },
	}
	jt := reflect.TypeOf(Job{})
	for i := 0; i < jt.NumField(); i++ {
		name := jt.Field(i).Name
		if (key[name] == nil) == (other[name] == nil) {
			t.Errorf("Job.%s is not classified as exactly one of key and non-key", name)
		}
	}

	deploy := func(j Job) *Deployment {
		t.Helper()
		d, err := Spec{Job: j}.Deploy()
		if err != nil {
			t.Fatal(err)
		}
		uncached, _, _, err := j.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := schedDigest(d.Sched), schedDigest(uncached); got != want {
			t.Errorf("%+v: memoized schedule\n%s\nuncached compile\n%s", j, got, want)
		}
		if d.Fingerprint != uncached.Fingerprint() {
			t.Errorf("%+v: memoized fingerprint %016x, uncached %016x", j, d.Fingerprint, uncached.Fingerprint())
		}
		return d
	}
	ref := deploy(base)
	for name, edit := range other {
		j := base
		edit(&j)
		if d := deploy(j); d.Sched != ref.Sched {
			t.Errorf("varying %s compiled a second schedule", name)
		}
	}
	for name, edit := range key {
		j := base
		edit(&j)
		if d := deploy(j); schedDigest(d.Sched) == schedDigest(ref.Sched) {
			t.Errorf("varying %s left the schedule unchanged", name)
		}
	}
}

// TestMemoIsBounded: deploying ten times the memo's capacity in distinct
// shapes leaves it at capacity, holding the most recently used ones.
func TestMemoIsBounded(t *testing.T) {
	job := func(i int) Job {
		return Job{Topology: "chain", Procs: 1, Width: 8 + i, Height: 8, Iters: 1}
	}
	forget()
	for i := 0; i < 10*memoCap; i++ {
		if _, err := (Spec{Job: job(i)}).Deploy(); err != nil {
			t.Fatal(err)
		}
	}
	if n := memoLen(); n != memoCap {
		t.Fatalf("memo holds %d shapes after %d distinct deployments, want %d", n, 10*memoCap, memoCap)
	}
	// Using the oldest kept shape again saves it from the next eviction.
	oldest := job(9 * memoCap)
	if _, err := (Spec{Job: oldest}).Deploy(); err != nil {
		t.Fatal(err)
	}
	if _, err := (Spec{Job: job(10 * memoCap)}).Deploy(); err != nil {
		t.Fatal(err)
	}
	schedules.mu.Lock()
	defer schedules.mu.Unlock()
	for _, c := range schedules.entries {
		if c.key == shapeOf(job(9*memoCap+1)) {
			t.Errorf("the least recently used shape was kept")
		}
	}
	if _, ok := schedules.touchLocked(shapeOf(oldest)); !ok {
		t.Errorf("a shape used again was evicted")
	}
}

// TestMemoSkipsFailedCompiles: a compile that fails leaves nothing behind,
// so the next deployment of that shape compiles again; a job that fails
// validation never reaches the memo.
func TestMemoSkipsFailedCompiles(t *testing.T) {
	forget()
	k := shape{"full", 7, 40, 24}
	boom := errors.New("boom")
	if _, err := schedules.get(k, func() (*syndex.Schedule, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("get = %v, want the compile's error", err)
	}
	compiles := 0
	c, err := schedules.get(k, func() (*syndex.Schedule, error) {
		compiles++
		s, _, _, err := Job{Topology: "full", Procs: 7, Width: 40, Height: 24, Iters: 1}.Compile()
		return s, err
	})
	if err != nil || compiles != 1 || c.sched == nil {
		t.Fatalf("after a failed compile: get = %v, %d compiles, want one fresh compile", err, compiles)
	}

	n := memoLen()
	if _, err := (Spec{Job: Job{Topology: "full", Procs: 0, Width: 40, Height: 24, Iters: 1}}).Deploy(); err == nil {
		t.Fatal("Deploy accepted a job with no processors")
	}
	if _, err := (Spec{Job: Job{Topology: "full", Procs: 7, Width: 40, Height: 24}}).Deploy(); err == nil {
		t.Fatal("Deploy accepted a job with no iterations although its shape is memoized")
	}
	if memoLen() != n {
		t.Fatalf("invalid jobs changed the memo from %d to %d shapes", n, memoLen())
	}
}

// TestMemoSharedScheduleConcurrentRuns: eight attempts of one shape, each
// with its own seed, deploy and run at once on the one shared schedule
// (graph constants included). Run under -race, this pins the memo's
// read-only invariant; each run must still equal the in-process reference of
// its own seed, and leave no goroutine behind.
func TestMemoSharedScheduleConcurrentRuns(t *testing.T) {
	spec := func(seed int64) Spec {
		return Spec{Job: Job{Topology: "ring", Procs: 4, Width: 128, Height: 128,
			Vehicles: 2, Seed: seed, Iters: 12, Deterministic: true}}
	}
	const n = 8
	want := make([][]track.Result, n)
	for i := range want {
		rec, _, err := RunInProcess(spec(int64(i+1)), time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rec.Results
	}
	if reflect.DeepEqual(want[0], want[1]) {
		t.Fatal("two seeds tracked identically: the check below could not tell runs apart")
	}
	reclaimed := leakcheck.Goroutines(t)
	deps := make([]*Deployment, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range deps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := spec(int64(i + 1)).Deploy()
			if err == nil {
				_, _, err = d.RunMem(nil, time.Minute, func(*exec.Machine, transport.Transport) error { return nil })
			}
			deps[i], errs[i] = d, err
		}()
	}
	wg.Wait()
	reclaimed()
	for i, d := range deps {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", i+1, errs[i])
		}
		if d.Sched != deps[0].Sched {
			t.Errorf("seed %d ran on a schedule of its own", i+1)
		}
		if !reflect.DeepEqual(d.Results.Results, want[i]) {
			t.Errorf("seed %d: concurrent run diverged from its in-process reference", i+1)
		}
	}
}
