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
// image and window into arena buffers, the stock camera grabs into one, and
// the executive puts them back once the value is dead (the Release hook
// registered in codec.go; DESIGN.md §7).
//
// An image remembers whether the arena handed it out, and PutImage recycles
// only those: an image made by NewImage, Clone or a caller's literal belongs
// to its maker, who may still hold it, so handing it to PutImage is a no-op.

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
// large-enough buffer is available. Its pixels match NewImage's; unlike
// NewImage's, the image is the arena's, and whoever holds it last hands it
// back with PutImage, once — a function that returns one hands it over to
// its caller and must not keep it, nor return it again.
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
	im.W, im.H, im.arena = w, h, true
	im.Pix = im.Pix[:need]
	return im
}

// PutImage returns im's buffer to the arena. The caller must not use im (or
// any slice of its pixels) afterwards. PutImage of nil, of an image the
// arena did not hand out, or of a view (whose pixels belong to a frame that
// may be live) is a no-op.
func PutImage(im *Image) {
	if im == nil || !im.arena || im.stride != 0 {
		return
	}
	if poisonRecycled.Load() {
		for i := range im.Pix {
			im.Pix[i] = poisonByte
		}
	}
	imagePool.Put(im)
}

// poisonRecycled is a test hook: while set, PutImage overwrites the pixels
// of every image it takes back, so a frame that something still reads after
// it was handed back shows up as wrong pixels, not as a silent stale copy.
var poisonRecycled atomic.Bool

// poisonByte is what a poisoned image reads: a flat gray below the marks'
// threshold, so a tracked frame read after its release loses its marks.
const poisonByte = 0xA5

// PoisonRecycledForTest makes PutImage poison every image it takes back
// until the returned restore is called. Tests only: it costs a pass over the
// pixels of every recycled image.
func PoisonRecycledForTest() (restore func()) {
	was := poisonRecycled.Swap(true)
	return func() { poisonRecycled.Store(was) }
}
