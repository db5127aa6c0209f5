package main

import (
	"runtime"
	"sync/atomic"
	"time"
)

// ringFrames is the number of distinct pre-rendered frames.
const ringFrames = 128

// period is the length of the replayed sequence: the ring forwards then
// backwards, so vehicle motion stays continuous across the seam.
const period = 2 * ringFrames

// frameRing holds the workload's camera frames, rendered once in set-up so
// the generator costs nothing inside the timed path.
//
// The scene fixes what the video shows; the seed picks where in the replay
// cycle a run starts. A different scene is a different workload (vehicle
// distance and overlap decide window sizes and how often the tracker loses
// lock, which moves frames/s by 3x), so runs that must be comparable share
// the scene and differ in the seed: every whole period then holds the same
// frames, in an order and from a start that the seed decides.
type frameRing struct {
	frames []*sutImage
	phase  int
}

// renderRing renders ringFrames consecutive frames of the given scene.
func renderRing(w, h, vehicles int, scene, seed int64) *frameRing {
	sc := sutNewScene(w, h, vehicles, scene)
	r := &frameRing{frames: make([]*sutImage, ringFrames), phase: int(uint64(seed) % period)}
	for i := range r.frames {
		r.frames[i] = sc.Next()
	}
	return r
}

// palindrome maps a frame number onto the ring: 0..n-1, n-1..0, repeat.
func palindrome(k, n int) int {
	p := k % (2 * n)
	if p < n {
		return p
	}
	return 2*n - 1 - p
}

func (r *frameRing) at(k int) *sutImage { return r.frames[palindrome(k+r.phase, len(r.frames))] }

func (r *frameRing) bytes() int {
	n := 0
	for _, f := range r.frames {
		n += len(f.Pix)
	}
	return n
}

// clock is the benchmark's monotonic time base, in ns since its creation.
type clock struct{ base time.Time }

func newClock() clock      { return clock{base: time.Now()} }
func (c clock) now() int64 { return int64(time.Since(c.base)) }

// frameSource is the camera a run's read_img reads: it hands out ring
// frames in order and stamps each frame's start time. Closed loop (the
// default) stamps the moment read_img is called. Open loop is a camera with
// a fixed period: a frame is released at its due time and stamped with it,
// so a late release (lag) is charged to the frame. Like the paper's camera
// the open loop does not queue: when read_img is called after a frame's due
// time, the ticks that passed are dropped (counted, never delivered late)
// and the schedule resumes at the next tick. Dropping shifts the schedule
// only; the ring is still replayed frame by frame, so the input sequence
// and the oracle do not depend on timing.
type frameSource struct {
	ring *frameRing
	clk  clock
	next atomic.Int64 // frames handed out so far
	grab []int64      // grab[k]: start time of frame k (nil: not recording)

	// Open loop only.
	every    int64         // release period in ns; 0 = closed loop
	paceFrom int           // first paced frame (the warm-up runs unpaced)
	open     chan struct{} // closed by the sink when the window opens
	due      int64         // due time of the next paced frame
	dropped  int64         // ticks that passed before read_img was called
	lag      []int64       // lag[k]: how late the generator released frame k
}

// spinBefore is how long before a due time the generator stops sleeping and
// yields in a loop instead: timer wake-ups on the reference VM are late by
// a millisecond at the 95th percentile, which would be charged to the system.
const spinBefore = 300_000

// readImg is the read_img implementation: `int * int -> img`.
func (s *frameSource) readImg([]sutValue) sutValue {
	k := int(s.next.Load())
	im := s.ring.at(k)
	t := s.clk.now()
	if s.every > 0 && k >= s.paceFrom {
		if k == s.paceFrom {
			// The pipelined executive asks for this frame while the last
			// warm-up frames are still in flight; the open loop starts once
			// the window's opening snapshot (a forced collection) is over,
			// or that pause would be charged to the first frames.
			<-s.open
			t = s.clk.now()
			s.due = t + s.every
		}
		if late := t - s.due; late > 0 {
			missed := (late + s.every - 1) / s.every
			s.dropped += missed
			s.due += missed * s.every
		}
		if d := s.due - t - spinBefore; d > 0 {
			time.Sleep(time.Duration(d))
		}
		for s.clk.now() < s.due {
			runtime.Gosched()
		}
		if k < len(s.lag) {
			s.lag[k] = s.clk.now() - s.due
		}
		t = s.due
		s.due += s.every
	}
	if k < len(s.grab) {
		s.grab[k] = t
	}
	s.next.Store(int64(k + 1))
	return im
}
