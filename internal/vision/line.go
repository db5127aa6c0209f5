package vision

import "math"

// Line is a 2D line in slope-intercept form x = A*y + B, i.e. parameterized
// by row. Road lane markings are near-vertical in the image, so expressing x
// as a function of y avoids infinite slopes.
type Line struct {
	A, B float64
	N    int // number of supporting points
}

// XAt returns the line's x coordinate at row y.
func (l Line) XAt(y float64) float64 { return l.A*y + l.B }

// FitLine computes the least-squares fit x = A*y + B through the given
// points. With fewer than 2 points (or degenerate geometry) it returns a
// vertical line through the mean x.
func FitLine(xs, ys []float64) Line {
	n := len(xs)
	if n == 0 {
		return Line{}
	}
	var sx, sy, sxy, syy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	fn := float64(n)
	den := fn*syy - sy*sy
	if n < 2 || math.Abs(den) < 1e-9 {
		return Line{A: 0, B: sx / fn, N: n}
	}
	a := (fn*sxy - sx*sy) / den
	b := (sx - a*sy) / fn
	return Line{A: a, B: b, N: n}
}

// RowMaxima scans each row of the band r in im and returns the column of the
// brightest pixel per row, provided it exceeds threshold t. It is the
// per-band feature extractor of the road-following (white line detection)
// application: one sample point per scanned row.
func RowMaxima(im *Image, r Rect, t uint8) (xs, ys []float64) {
	r = r.Intersect(Rect{0, 0, im.W, im.H})
	if r.Empty() { // its columns may lie outside the rows
		return nil, nil
	}
	for y := r.Y0; y < r.Y1; y++ {
		best, bestX := uint8(0), -1
		for x, p := range im.Row(y)[r.X0:r.X1] {
			if p > best {
				best, bestX = p, r.X0+x
			}
		}
		if bestX >= 0 && best >= t {
			xs = append(xs, float64(bestX))
			ys = append(ys, float64(y))
		}
	}
	return xs, ys
}

// MergeFits combines per-band line fits into a single global fit by
// refitting through the band fits' endpoints weighted by support count.
// It is the merge function of the scm-based road-following example.
func MergeFits(fits []Line, bands []Rect) Line {
	var xs, ys []float64
	for i, f := range fits {
		if f.N == 0 {
			continue
		}
		y0, y1 := float64(bands[i].Y0), float64(bands[i].Y1-1)
		for k := 0; k < f.N; k++ { // weight by support
			xs = append(xs, f.XAt(y0), f.XAt(y1))
			ys = append(ys, y0, y1)
		}
	}
	return FitLine(xs, ys)
}
