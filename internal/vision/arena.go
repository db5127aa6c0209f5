package vision

import (
	"sync"
	"sync/atomic"
)

// Frame-buffer arena. Per-frame vision pipelines allocate (and immediately
// discard) full-frame images on every iteration; at 512×512 @ 25 Hz that is
// 6.5 MB/s of garbage per stage. The arena recycles pixel buffers through a
// sync.Pool: GetImage is a drop-in replacement for NewImage (the returned
// image is zeroed) and PutImage returns a frame to the pool once the caller
// is done with it. Images that are never Put are simply collected by the
// GC, so the arena is safe to adopt incrementally. The codec decodes every
// image and window into arena buffers, and the executive puts them back once
// a decoded value is dead (the Release hook registered in codec.go).

var imagePool = sync.Pool{New: func() any { return &Image{} }}

// arenaHits counts Get calls satisfied by a pooled buffer of sufficient
// capacity; arenaMisses counts those that had to allocate. The ratio is the
// arena's effectiveness gauge on the debug /metrics endpoint.
var arenaHits, arenaMisses atomic.Int64

// ArenaStats reports how many image requests reused pooled pixel memory
// (hits) versus allocated fresh buffers (misses) since process start.
func ArenaStats() (hits, misses int64) {
	return arenaHits.Load(), arenaMisses.Load()
}

// GetImage returns a zeroed W×H image, reusing pooled pixel memory when a
// large-enough buffer is available. Semantics match NewImage exactly.
func GetImage(w, h int) *Image {
	im := getImageDirty(w, h)
	clear(im.Pix)
	return im
}

// getImageDirty returns a W×H image whose pixels may hold stale data. Used
// internally by the *Into kernels that overwrite every pixel anyway.
func getImageDirty(w, h int) *Image {
	if w < 0 || h < 0 {
		panic("vision: invalid image size")
	}
	need := w * h
	im := imagePool.Get().(*Image)
	if cap(im.Pix) < need {
		arenaMisses.Add(1)
		im.Pix = make([]uint8, need)
	} else {
		arenaHits.Add(1)
	}
	im.W, im.H = w, h
	im.Pix = im.Pix[:need]
	return im
}

// PutImage returns im's buffer to the arena. The caller must not use im (or
// any slice of its pixels) afterwards. PutImage of nil or of a view (whose
// pixels belong to a frame that may be live) is a no-op.
func PutImage(im *Image) {
	if im == nil || im.stride != 0 {
		return
	}
	imagePool.Put(im)
}
