package vision

import "encoding/binary"

// Threshold returns a binary image: 255 where the source pixel is >= t,
// 0 elsewhere. "Marks are detected as connected groups of pixels with values
// above a given threshold" (paper §4).
func Threshold(im *Image, t uint8) *Image {
	return ThresholdInto(getImageDirty(im.W, im.H), im, t)
}

// ThresholdInto writes the thresholded image into dst (reshaped to im's
// geometry, reusing its pixel buffer when large enough) and returns dst.
// With a reused dst this is allocation-free — the in-place variant for
// per-frame hot loops. Large frames are processed as row bands across the
// shared skeleton pool (see tile.go); bands write disjoint output rows, so
// the result is identical at any parallelism.
func ThresholdInto(dst *Image, im *Image, t uint8) *Image {
	dst.reset(im.W, im.H)
	if cuts := bandCuts(im.W, im.H); cuts != nil {
		runBands(cuts, func(b, y0, y1 int) { thresholdRows(dst, im, t, y0, y1) })
	} else {
		thresholdRows(dst, im, t, 0, im.H)
	}
	return dst
}

// thresholdRows writes eight output pixels per step: the byte mask has 0x80
// where the pixel is >= t, and (m>>7)*0xff spreads each 0x01 over its byte.
func thresholdRows(dst, im *Image, t uint8, y0, y1 int) {
	ge := newSwarGE(t)
	for y := y0; y < y1; y++ {
		in := im.Row(y)
		out := dst.Row(y)[:len(in)]
		for ; len(in) >= 8; in, out = in[8:], out[8:] {
			m := ge.mask(binary.LittleEndian.Uint64(in))
			binary.LittleEndian.PutUint64(out, m>>7*0xff)
		}
		for i, p := range in {
			var v uint8
			if p >= t {
				v = 255
			}
			out[i] = v
		}
	}
}
