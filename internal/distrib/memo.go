package distrib

import (
	"sync"

	"skipper/internal/syndex"
)

// memoCap bounds the job shapes a process keeps compiled. A service admits
// up to 256 processors and 4096x4096 frames, so a flood of distinct shapes
// must not grow memory: past memoCap the least recently used shape is
// dropped and compiles again when it next comes.
const memoCap = 16

// shape is the part of a Job that reaches its compiled schedule: the
// architecture (Topology, Procs) and the program source and cost estimates
// (Procs, Width, Height). Vehicles, Seed, Iters and the executive tuning
// only reach the scene, the registry's closures and the machine, which every
// attempt builds afresh.
type shape struct {
	topology    string
	procs, w, h int
}

func shapeOf(j Job) shape { return shape{j.Topology, j.Procs, j.Width, j.Height} }

// compiled is one memoized shape: its schedule and the schedule's
// fingerprint, which renders the whole macro-code and so is computed once.
type compiled struct {
	key   shape
	sched *syndex.Schedule
	fp    uint64
}

// scheduleMemo holds the schedules this process compiled, most recently
// used first. The schedules are shared by every attempt of their shape, on
// as many goroutines as run them, so they are read-only once memoized:
// nothing may write a Schedule, its Graph (including the Const values folded
// from arity-0 externs at compile time, such as empty_list) or its Arch
// after Map returns. The executive, the transports, serve and the trace
// tooling only read them. A compile that fails is not kept.
type scheduleMemo struct {
	mu      sync.Mutex
	entries []compiled
}

// schedules is the process-wide memo every Deploy goes through.
var schedules scheduleMemo

// get returns key's schedule, calling compile on a miss. Two goroutines that
// miss the same shape at once both compile it, outside the lock; the first to
// finish is kept and both get it, so every attempt shares one schedule.
func (m *scheduleMemo) get(key shape, compile func() (*syndex.Schedule, error)) (compiled, error) {
	m.mu.Lock()
	c, ok := m.touchLocked(key)
	m.mu.Unlock()
	if ok {
		return c, nil
	}
	s, err := compile()
	if err != nil {
		return compiled{}, err
	}
	fp := s.Fingerprint()
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.touchLocked(key); ok {
		return c, nil
	}
	c = compiled{key: key, sched: s, fp: fp}
	m.entries = append([]compiled{c}, m.entries[:min(len(m.entries), memoCap-1)]...)
	return c, nil
}

// touchLocked finds key and moves it to the front.
func (m *scheduleMemo) touchLocked(key shape) (compiled, bool) {
	for i, c := range m.entries {
		if c.key == key {
			copy(m.entries[1:i+1], m.entries[:i])
			m.entries[0] = c
			return c, true
		}
	}
	return compiled{}, false
}
