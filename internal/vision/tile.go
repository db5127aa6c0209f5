package vision

import (
	"runtime"
	"sync"

	"skipper/internal/skel"
)

// Row-band cache tiling for the per-frame kernels (DESIGN.md §7). The
// in-place kernels (ThresholdInto, Dilate3Into, Erode3Into) process frames
// in horizontal bands sized so a band's working set — its source and
// destination rows — stays resident in L2 while the band is processed, and
// dispatch the bands across the shared skeleton pool. Band outputs are
// disjoint row ranges, so the kernels are bit-deterministic regardless of
// worker scheduling; on a single-worker host (or a frame too small to split)
// the band loop runs inline on the caller and costs nothing over the untiled
// loop.

const (
	// tileTargetBytes bounds a band's working set (one source plus one
	// destination row band) so both stay L2-resident while processed.
	tileTargetBytes = 64 << 10
	// tileMinRows is the smallest band worth handing to another worker;
	// below it the fan-out/fan-in handoff dominates the pixel work.
	tileMinRows = 32
)

// bandCuts returns the row cut points 0 = c[0] < c[1] < ... < c[n] = h
// splitting a w×h frame into cache-sized bands, or nil when the frame
// should be processed as a single band (small frame or single worker).
// The cut points depend only on the frame geometry and host parallelism —
// never on scheduling — so banded kernels stay deterministic.
func bandCuts(w, h int) []int {
	procs := runtime.GOMAXPROCS(0)
	if procs <= 1 || h < 2*tileMinRows || w <= 0 {
		return nil
	}
	rows := tileTargetBytes / (2 * w)
	if rows < tileMinRows {
		rows = tileMinRows
	}
	bands := (h + rows - 1) / rows
	// More bands than workers only adds handoffs once each band is already
	// cache-sized; twice the worker count keeps the tail balanced.
	if bands > 2*procs {
		bands = 2 * procs
	}
	if bands <= 1 {
		return nil
	}
	cuts := make([]int, bands+1)
	for b := 1; b < bands; b++ {
		cuts[b] = b * h / bands
	}
	cuts[bands] = h
	return cuts
}

// runBands dispatches f(band, y0, y1) over the cut points on the shared
// pool, keeping the final band on the calling goroutine.
func runBands(cuts []int, f func(b, y0, y1 int)) {
	bands := len(cuts) - 1
	var wg sync.WaitGroup
	wg.Add(bands - 1)
	pool := skel.Shared()
	for b := 0; b < bands-1; b++ {
		b := b
		pool.Go(func() {
			defer wg.Done()
			f(b, cuts[b], cuts[b+1])
		})
	}
	f(bands-1, cuts[bands-1], cuts[bands])
	wg.Wait()
}
