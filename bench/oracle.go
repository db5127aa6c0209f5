package main

import (
	"fmt"
	"math"
)

// digest folds a program output into 64 bits (FNV-1a over the value's
// structure and the exact bits of every number), so two outputs digest
// equal only when they are bit-identical.
func digest(v sutValue) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	var walk func(v sutValue)
	mark := func(m sutMark) {
		mix(math.Float64bits(m.CX))
		mix(math.Float64bits(m.CY))
		mix(uint64(m.BBox.X0))
		mix(uint64(m.BBox.Y0))
		mix(uint64(m.BBox.X1))
		mix(uint64(m.BBox.Y1))
		mix(uint64(m.Area))
	}
	walk = func(v sutValue) {
		switch v := v.(type) {
		case nil:
			mix(0xdead)
		case int:
			mix(1)
			mix(uint64(v))
		case float64:
			mix(2)
			mix(math.Float64bits(v))
		case bool:
			mix(3)
			if v {
				mix(1)
			}
		case sutUnit:
			mix(4)
		case sutTuple:
			mix(5)
			mix(uint64(len(v)))
			for _, e := range v {
				walk(e)
			}
		case sutList:
			mix(6)
			mix(uint64(len(v)))
			for _, e := range v {
				walk(e)
			}
		case sutMark:
			mix(7)
			mark(v)
		case sutDetections:
			mix(8)
			mix(uint64(len(v)))
			for _, m := range v {
				mark(m)
			}
		default:
			panic(fmt.Sprintf("bench: no digest for output of type %T", v))
		}
	}
	walk(v)
	return h
}

// oracle holds the sequential emulator's per-frame output digests for the
// frame sequence a run replays. When the sequence was proven periodic only
// the first two periods are stored and later frames map onto the second.
type oracle struct {
	digests  []uint64
	periodic bool
}

// at returns the expected digest of frame k.
func (o *oracle) at(k int) uint64 {
	if k < len(o.digests) {
		return o.digests[k]
	}
	if !o.periodic {
		panic("bench: oracle asked for a frame it did not emulate")
	}
	return o.digests[period+(k-period)%period]
}

// emulate runs the application through the sequential emulator (dsl/eval)
// on the same ring for frames iterations, on a fresh registry.
//
// Emulating every frame of a labelling run would cost as much CPU as the
// run itself, so for applications whose displayed output contains the loop
// state (app.periodic) the oracle emulates two periods and proves the rest:
// inputs repeat with the period and the functions are pure, so if the last
// output of period 1 equals the last output of period 0 the loop state at
// the start of period 2 equals that at the start of period 1, and period 1
// repeats forever. The tracking state (an alpha-beta filter plus a frame
// counter) never repeats, and emulating it is cheap, so it runs in full.
func emulate(a *app, ring *frameRing, frames int) (*oracle, error) {
	o := &oracle{}
	n := frames
	if a.periodic && frames > 2*period {
		n, o.periodic = 2*period, true
	}
	o.digests = make([]uint64, 0, n)
	prog, err := sutParse(a.source)
	if err != nil {
		return nil, err
	}
	if _, err := sutCheck(prog); err != nil {
		return nil, err
	}
	reg := a.newRegistry(&frameSource{ring: ring})
	emu := sutEmulator(reg, sutEmuOptions{MaxIters: n, Trace: func(_ int, out sutValue) {
		o.digests = append(o.digests, digest(out))
	}})
	if _, err := emu.Run(prog); err != nil {
		return nil, fmt.Errorf("%s: emulator: %w", a.name, err)
	}
	if len(o.digests) != n {
		return nil, fmt.Errorf("%s: emulator displayed %d of %d frames", a.name, len(o.digests), n)
	}
	if o.periodic && o.digests[period-1] != o.digests[2*period-1] {
		return nil, fmt.Errorf("%s: output is not periodic; the oracle cannot extrapolate", a.name)
	}
	return o, nil
}

// verify compares a run's displayed outputs with the oracle and returns
// how many frames were not delivered or differ.
func (o *oracle) verify(outputs []sutValue) (failed int) {
	for k, out := range outputs {
		if out == nil || digest(out) != o.at(k) {
			failed++
		}
	}
	return failed
}
