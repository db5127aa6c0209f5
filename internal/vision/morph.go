package vision

// Morphology primitives of the low-level image processing layer:
// erosion/dilation for mark cleanup.

// Dilate3 returns the 8-neighbourhood (3×3) morphological dilation of a
// binary or grayscale image: each output pixel is the maximum of its
// neighbourhood.
func Dilate3(im *Image) *Image {
	return Dilate3Into(getImageDirty(im.W, im.H), im)
}

// Dilate3Into writes the 3×3 dilation of im into dst (reshaped, buffer
// reused) and returns dst. dst must not alias im. With a reused dst this
// is allocation-free in steady state (the row scratch comes from the frame
// arena).
//
// The kernel is separable — max over a 3×3 window is the vertical 3-max of
// horizontal 3-maxes — so each output row costs 4 comparisons per pixel on
// flat slices instead of 9 bounds-checked At calls, and the image is
// processed as cache-sized row bands dispatched over the shared skeleton
// pool (tile.go). Bands only read the source and their private scratch and
// write disjoint destination rows: the output is identical at any
// parallelism.
func Dilate3Into(dst *Image, im *Image) *Image {
	dst.reset(im.W, im.H)
	if im.W == 0 || im.H == 0 {
		return dst
	}
	if cuts := bandCuts(im.W, im.H); cuts != nil {
		runBands(cuts, func(b, y0, y1 int) { dilateBand(dst, im, y0, y1) })
	} else {
		dilateBand(dst, im, 0, im.H)
	}
	return dst
}

// dilateBand computes dilation output rows [y0,y1). It keeps a rolling
// 3-row scratch of horizontal maxes covering rows y0-1..y1 (one overlap row
// recomputed per band seam — cheaper than any cross-band handoff).
func dilateBand(dst, im *Image, y0, y1 int) {
	w, h := im.W, im.H
	scratch := getImageDirty(w, 3)
	defer PutImage(scratch)
	row := func(y int) []uint8 { return scratch.Pix[(y%3)*w : (y%3)*w+w] }
	if y0 > 0 {
		hmax3(row(y0-1), im.Row(y0-1))
	}
	hmax3(row(y0), im.Row(y0))
	for y := y0; y < y1; y++ {
		if y+1 < h {
			hmax3(row(y+1), im.Row(y+1))
		}
		out := dst.Row(y)
		mid := row(y)
		copy(out, mid)
		if y > 0 {
			vmax(out, row(y-1))
		}
		if y+1 < h {
			vmax(out, row(y+1))
		}
	}
}

// hmax3 writes the horizontal 3-max of src into dst (same length); pixels
// outside the row are absent from the max (zero padding is a no-op for max).
func hmax3(dst, src []uint8) {
	w := len(src)
	if w == 1 {
		dst[0] = src[0]
		return
	}
	dst[0] = max8(src[0], src[1])
	for x := 1; x < w-1; x++ {
		dst[x] = max8(max8(src[x-1], src[x]), src[x+1])
	}
	dst[w-1] = max8(src[w-2], src[w-1])
}

// vmax folds src into dst elementwise: dst[i] = max(dst[i], src[i]).
func vmax(dst, src []uint8) {
	_ = dst[len(src)-1]
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

func max8(a, b uint8) uint8 {
	if a > b {
		return a
	}
	return b
}

// Erode3 returns the 8-neighbourhood (3×3) morphological erosion: each
// output pixel is the minimum of its neighbourhood. Pixels outside the
// frame are treated as 0, so the image border erodes (consistent with
// At's zero padding).
func Erode3(im *Image) *Image {
	return Erode3Into(getImageDirty(im.W, im.H), im)
}

// Erode3Into writes the 3×3 erosion of im into dst (reshaped, buffer
// reused) and returns dst. dst must not alias im. With a reused dst this
// is allocation-free in steady state.
//
// Zero padding makes every border pixel erode to 0 (its window reaches
// outside the frame), so the kernel writes the one-pixel frame border
// directly and runs the separable min — vertical 3-min of horizontal
// 3-mins — only over the interior, as cache-sized row bands on the shared
// skeleton pool (tile.go, same determinism argument as Dilate3Into).
func Erode3Into(dst *Image, im *Image) *Image {
	dst.reset(im.W, im.H)
	w, h := im.W, im.H
	if w == 0 || h == 0 {
		return dst
	}
	if w <= 2 || h <= 2 {
		// Every pixel's window leaves the frame: all-zero output.
		clear(dst.Pix)
		return dst
	}
	clear(dst.Pix[:w])       // top border row
	clear(dst.Pix[(h-1)*w:]) // bottom border row
	if cuts := bandCuts(w, h); cuts != nil {
		runBands(cuts, func(b, y0, y1 int) { erodeBand(dst, im, y0, y1) })
	} else {
		erodeBand(dst, im, 0, h)
	}
	return dst
}

// erodeBand computes erosion output rows [y0,y1) clipped to the interior
// rows [1,h-1); border columns of each row are written as 0.
func erodeBand(dst, im *Image, y0, y1 int) {
	w, h := im.W, im.H
	if y0 < 1 {
		y0 = 1
	}
	if y1 > h-1 {
		y1 = h - 1
	}
	if y0 >= y1 {
		return
	}
	scratch := getImageDirty(w, 3)
	defer PutImage(scratch)
	row := func(y int) []uint8 { return scratch.Pix[(y%3)*w : (y%3)*w+w] }
	hmin3(row(y0-1), im.Row(y0-1))
	hmin3(row(y0), im.Row(y0))
	for y := y0; y < y1; y++ {
		hmin3(row(y+1), im.Row(y+1))
		out := dst.Row(y)
		up, mid, down := row(y-1), row(y), row(y+1)
		out[0], out[w-1] = 0, 0
		for x := 1; x < w-1; x++ {
			out[x] = min8(min8(up[x], mid[x]), down[x])
		}
	}
}

// hmin3 writes the horizontal 3-min of src into dst for interior columns;
// the border entries are unspecified (erodeBand writes those outputs as 0).
func hmin3(dst, src []uint8) {
	w := len(src)
	for x := 1; x < w-1; x++ {
		dst[x] = min8(min8(src[x-1], src[x]), src[x+1])
	}
}

func min8(a, b uint8) uint8 {
	if a < b {
		return a
	}
	return b
}
