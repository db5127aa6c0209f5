package vision

import (
	"encoding/binary"
	"math/bits"
)

const (
	swarLo7  = 0x7f7f7f7f7f7f7f7f
	swarHi   = 0x8080808080808080
	swarOnes = 0x0101010101010101
)

// swarGE prepares the per-byte "b >= t" test on eight pixels at once. Split
// b and t into their low seven bits and their top bit: (b&0x7f)+(0x80-t&0x7f)
// carries into the byte's top bit exactly when the low bits compare >=, and
// never out of the byte; the top bits then decide — below 128 either one
// suffices, from 128 up both are needed. Eight pixels per mask is the exact
// step; background is passed 64 pixels per mask (none64, skipBelow).
type swarGE struct {
	add, either uint64
}

func newSwarGE(t uint8) swarGE {
	g := swarGE{add: (0x80 - uint64(t&0x7f)) * swarOnes}
	if t < 0x80 {
		g.either = ^uint64(0)
	}
	return g
}

// mask returns 0x80 in every byte of v that is >= t and 0 elsewhere.
func (g swarGE) mask(v uint64) uint64 {
	lo := v&swarLo7 + g.add
	return (v&lo | (v|lo)&g.either) & swarHi
}

// none64 reports that none of the 64 pixels b[:64] reaches t, with one mask:
// it ORs the eight words and tests the OR. Byte-wise a|b >= max(a,b), so a
// zero mask on the OR proves it of all 64 pixels. The converse fails
// (0x55|0xaa is 0xff under t=200): false only says the block may hold such a
// pixel, and the caller then takes the block a word at a time — an OR that
// lies costs time and never a wrong answer. On road texture it does not lie:
// the OR of bytes below 128 stays below 128. This is the one background test
// under the loops that look for pixels >= t; it fits the compiler's inlining
// budget, and has to, or each block pays a call.
func (g swarGE) none64(b []uint8) bool {
	return g.mask(binary.LittleEndian.Uint64(b)|binary.LittleEndian.Uint64(b[8:])|
		binary.LittleEndian.Uint64(b[16:])|binary.LittleEndian.Uint64(b[24:])|
		binary.LittleEndian.Uint64(b[32:])|binary.LittleEndian.Uint64(b[40:])|
		binary.LittleEndian.Uint64(b[48:])|binary.LittleEndian.Uint64(b[56:])) == 0
}

// skipBelow returns the first position x' = x + 8k at which the word
// row[x':x'+8] holds a pixel >= t, or the first with fewer than eight pixels
// left. It steps 64 pixels while none64 holds and walks a block none64 fails
// on a word at a time, so the result is exact whether or not the OR lied. A
// caller enters it standing on background (after a zero word): dense input
// never pays for a 64-pixel test.
func (g swarGE) skipBelow(row []uint8, x int) int {
	for ; x+64 <= len(row); x += 64 {
		b := row[x : x+64 : x+64]
		if g.none64(b) {
			continue
		}
		for k := 0; k < 64; k += 8 {
			if g.mask(binary.LittleEndian.Uint64(b[k:])) != 0 {
				return x + k
			}
		}
	}
	for ; x+8 <= len(row) && g.mask(binary.LittleEndian.Uint64(row[x:])) == 0; x += 8 {
	}
	return x
}

// CountAbove returns the number of pixels with value >= t. A 64-pixel block
// that none64 clears counts zero (see there for why that is sound); any
// other is eight byte masks, one bit a pixel, shifted into one word and
// counted once. Fewer than 64 pixels are counted eight per mask, then singly.
func CountAbove(im *Image, t uint8) int {
	ge := newSwarGE(t)
	n := 0
	for y := 0; y < im.H; y++ {
		pix := im.Row(y)
		for ; len(pix) >= 64; pix = pix[64:] {
			b := pix[:64:64]
			if ge.none64(b) {
				continue
			}
			n += bits.OnesCount64(ge.mask(binary.LittleEndian.Uint64(b))>>7 |
				ge.mask(binary.LittleEndian.Uint64(b[8:]))>>6 |
				ge.mask(binary.LittleEndian.Uint64(b[16:]))>>5 |
				ge.mask(binary.LittleEndian.Uint64(b[24:]))>>4 |
				ge.mask(binary.LittleEndian.Uint64(b[32:]))>>3 |
				ge.mask(binary.LittleEndian.Uint64(b[40:]))>>2 |
				ge.mask(binary.LittleEndian.Uint64(b[48:]))>>1 |
				ge.mask(binary.LittleEndian.Uint64(b[56:])))
		}
		for ; len(pix) >= 8; pix = pix[8:] {
			n += bits.OnesCount64(ge.mask(binary.LittleEndian.Uint64(pix)))
		}
		for _, p := range pix {
			if p >= t {
				n++
			}
		}
	}
	return n
}

// Histogram returns the 256-bin gray-level histogram of the image.
func Histogram(im *Image) [256]int {
	var h [256]int
	for y := 0; y < im.H; y++ {
		for _, p := range im.Row(y) {
			h[p]++
		}
	}
	return h
}

// Component is a connected group of bright pixels together with its first
// order statistics: pixel count, center of gravity and englobing frame
// (bounding box), exactly the per-mark characterization of paper §4.
type Component struct {
	Label  int
	Area   int
	CX, CY float64 // center of gravity
	BBox   Rect    // englobing frame
	SumVal int64   // sum of original gray values (weighted moments)
}

// labelUF is a union-find (disjoint-set) structure over provisional labels,
// with path halving and union by arbitrary order (smaller root wins, which
// keeps labels deterministic). The parent array is reused across frames by
// LabelScratch.
type labelUF struct {
	parent []int32
}

func (u *labelUF) reset() { u.parent = u.parent[:0] }

func (u *labelUF) fresh() int32 {
	l := int32(len(u.parent))
	u.parent = append(u.parent, l)
	return l
}

func (u *labelUF) find(x int32) int32 {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

func (u *labelUF) union(a, b int32) int32 {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return ra
	}
	if rb < ra {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	return ra
}

// LabelResult holds the dense labelling of an image: Labels[i] is 0 for
// background and 1..N for foreground components.
type LabelResult struct {
	W, H   int
	Labels []int32
	N      int
}

// run is a maximal horizontal stretch [x0,x1) of foreground pixels on row y,
// carrying the provisional label it was given when it was scanned.
type run struct {
	x0, x1, y, label int32
}

// labelStat accumulates one provisional label's share of its component:
// pixel count, coordinate and gray-value sums and englobing frame. After
// resolve, a root's entry holds the whole component and dense is the
// component's final label (for every provisional label, not only roots).
type labelStat struct {
	sx, sy, sum    int64
	area, dense    int32
	x0, y0, x1, y1 int32 // englobing frame
}

// labelHint is the provisional-label capacity a fresh scratch starts with:
// the workloads' windows hold a handful of convex marks (one provisional
// label each), so growth past it is the exception.
const labelHint = 32

// LabelScratch carries every buffer the labelling kernel needs — the
// union-find parent array, the foreground runs, the per-label statistics,
// the component list and (for Label only) the label plane — so a caller
// processing a frame stream can reuse one scratch across frames and run the
// whole threshold+label+moments pipeline without allocating. The zero value
// is ready to use. A scratch is not safe for concurrent use; results
// returned by its methods alias its buffers and are valid until the next
// call on the same scratch.
type LabelScratch struct {
	uf    labelUF
	runs  []run
	stats []labelStat
	res   LabelResult
	comps []Component
}

// scan is the labelling kernel: one pass over im that never looks at a
// background pixel individually. Per row it tests eight pixels per mask; on
// a word of background it lets skipBelow pass the rest of the stretch, 64
// pixels per mask where the OR of a block proves it background and a word at
// a time where it does not, so a row of road costs what reading it costs and
// a dense row never sees the wide test. It cuts the foreground into runs,
// gives each run the label of the previous row's runs it overlaps
// (4-connectivity is interval overlap; both rows are sorted, so a
// two-pointer walk finds the overlaps; several overlapped labels are united)
// or a fresh one, and adds the run's area, coordinate sums, gray sum and
// frame to that label in closed form. With keep the runs of every row stay
// in s.runs for Label to paint; without it only the previous and current
// rows are held.
func (s *LabelScratch) scan(im *Image, t uint8, keep bool) {
	w, h := im.W, im.H
	if cap(s.runs) < w+2 { // two rows of at most (w+1)/2 runs
		s.runs = make([]run, 0, w+2)
	}
	if cap(s.stats) < labelHint {
		s.stats = make([]labelStat, 0, labelHint)
		s.uf.parent = make([]int32, 0, labelHint)
	}
	s.uf.reset()
	uf := &s.uf
	runs, stats := s.runs[:0], s.stats[:0]
	ge := newSwarGE(t)
	p0, p1 := 0, 0 // previous row's runs are runs[p0:p1]
	for y := 0; y < h; y++ {
		row := im.Row(y)
		j := p0
		for x := 0; x < len(row); {
			if x+8 <= len(row) {
				m := ge.mask(binary.LittleEndian.Uint64(row[x:]))
				if m == 0 {
					x = ge.skipBelow(row, x+8)
					continue
				}
				x += bits.TrailingZeros64(m) >> 3
			} else if row[x] < t {
				x++
				continue
			}
			x0, sum := int32(x), int64(0)
			for x < len(row) && row[x] >= t {
				sum += int64(row[x])
				x++
			}
			x1 := int32(x)
			for j < p1 && runs[j].x1 <= x0 {
				j++
			}
			l := int32(-1)
			for k := j; k < p1 && runs[k].x0 < x1; k++ {
				if pl := runs[k].label; l < 0 {
					l = pl
				} else if pl != l {
					l = uf.union(l, pl)
				}
			}
			if l < 0 {
				l = uf.fresh()
				stats = append(stats, labelStat{})
				stats[l].x0, stats[l].y0 = x0, int32(y)
			}
			st := &stats[l]
			n := x1 - x0
			st.area += n
			st.sx += int64(n) * int64(x0+x1-1) / 2
			st.sy += int64(n) * int64(y)
			st.sum += sum
			st.x0 = min(st.x0, x0)
			st.x1 = max(st.x1, x1)
			st.y1 = int32(y) + 1
			runs = append(runs, run{x0: x0, x1: x1, y: int32(y), label: l})
		}
		if keep {
			p0, p1 = p1, len(runs)
		} else {
			p0, p1 = 0, copy(runs, runs[p1:])
			runs = runs[:p1]
		}
	}
	s.runs, s.stats = runs, stats
}

// resolve folds every provisional label into its root and numbers the roots
// 1..N, returning N. Smaller root wins in the union-find, so parent[p] <= p
// throughout: one ascending sweep flattens every chain (p's parent is final
// by the time p is reached), a component's root is its smallest label, and
// the smallest label is the one minted at the component's first pixel in
// raster order — ascending root order is raster order of first appearance.
func (s *LabelScratch) resolve() int {
	parent, stats := s.uf.parent, s.stats
	n := int32(0)
	for p := range parent {
		r := parent[parent[p]]
		parent[p] = r
		if int(r) == p {
			n++
			stats[p].dense = n
			continue
		}
		st, rs := &stats[p], &stats[r]
		rs.area += st.area
		rs.sx += st.sx
		rs.sy += st.sy
		rs.sum += st.sum
		rs.x0, rs.y0 = min(rs.x0, st.x0), min(rs.y0, st.y0)
		rs.x1, rs.y1 = max(rs.x1, st.x1), max(rs.y1, st.y1)
		st.dense = rs.dense
	}
	return int(n)
}

// Label performs 4-connected component labelling on the binary image
// produced by thresholding im at t. The returned labels are dense (1..N) in
// raster order of first appearance. The result aliases the scratch and is
// valid until the next call on s. It is the run scan Components uses,
// followed by painting every run with its component's label.
func (s *LabelScratch) Label(im *Image, t uint8) *LabelResult {
	w, h := im.W, im.H
	res := &s.res
	res.W, res.H = w, h
	if cap(res.Labels) < w*h {
		res.Labels = make([]int32, w*h)
	} else {
		res.Labels = res.Labels[:w*h]
		clear(res.Labels)
	}
	s.scan(im, t, true)
	res.N = s.resolve()
	for _, r := range s.runs {
		d := s.stats[r.label].dense
		px := res.Labels[int(r.y)*w:]
		for x := r.x0; x < r.x1; x++ {
			px[x] = d
		}
	}
	return res
}

// Label is the one-shot form: it labels im with a private scratch. Stream
// processing should hold a LabelScratch and call its Label method instead.
func Label(im *Image, t uint8) *LabelResult {
	var s LabelScratch
	return s.Label(im, t)
}

// Components labels im at threshold t and computes per-component
// statistics, ordered by label (raster order of first appearance). minArea
// filters out small noise blobs (components with Area < minArea are
// dropped; labels of surviving components are NOT renumbered). The returned
// slice aliases the scratch and is valid until the next call on s. The
// image is read once, a byte per pixel, and no label plane is written.
func (s *LabelScratch) Components(im *Image, t uint8, minArea int) []Component {
	s.scan(im, t, false)
	n := s.resolve()
	if n == 0 {
		return nil
	}
	if cap(s.comps) < n {
		s.comps = make([]Component, 0, n)
	}
	out := s.comps[:0]
	for p := range s.stats {
		st := &s.stats[p]
		if int(s.uf.parent[p]) != p || int(st.area) < minArea {
			continue
		}
		out = append(out, Component{
			Label: int(st.dense), Area: int(st.area),
			CX: float64(st.sx) / float64(st.area), CY: float64(st.sy) / float64(st.area),
			BBox:   Rect{int(st.x0), int(st.y0), int(st.x1), int(st.y1)},
			SumVal: st.sum,
		})
	}
	s.comps = out
	return out
}

// Components is the one-shot form of LabelScratch.Components; the returned
// slice is freshly allocated (safe for callers that retain or append).
func Components(im *Image, t uint8, minArea int) []Component {
	var s LabelScratch
	out := s.Components(im, t, minArea)
	if out == nil {
		return nil
	}
	res := make([]Component, len(out))
	copy(res, out)
	return res
}

// FloodComponents is a brute-force reference implementation of Components
// using BFS flood fill; used by tests to validate the union-find labelling.
func FloodComponents(im *Image, t uint8, minArea int) []Component {
	w, h := im.W, im.H
	seen := make([]bool, w*h)
	var comps []Component
	label := 0
	for y0 := 0; y0 < h; y0++ {
		for x0 := 0; x0 < w; x0++ {
			i0 := y0*w + x0
			if seen[i0] || im.Row(y0)[x0] < t {
				continue
			}
			label++
			c := Component{Label: label, BBox: Rect{x0, y0, x0 + 1, y0 + 1}}
			var sx, sy int64
			queue := []int{i0}
			seen[i0] = true
			for len(queue) > 0 {
				i := queue[0]
				queue = queue[1:]
				x, y := i%w, i/w
				c.Area++
				sx += int64(x)
				sy += int64(y)
				c.SumVal += int64(im.Row(y)[x])
				c.BBox = c.BBox.Union(Rect{x, y, x + 1, y + 1})
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := x+d[0], y+d[1]
					if nx < 0 || ny < 0 || nx >= w || ny >= h {
						continue
					}
					j := ny*w + nx
					if !seen[j] && im.Row(ny)[nx] >= t {
						seen[j] = true
						queue = append(queue, j)
					}
				}
			}
			if c.Area >= minArea {
				c.CX = float64(sx) / float64(c.Area)
				c.CY = float64(sy) / float64(c.Area)
				comps = append(comps, c)
			}
		}
	}
	return comps
}

// DrawRect paints the outline of r with gray value v (used by the display
// function of the tracking demo).
func DrawRect(im *Image, r Rect, v uint8) {
	for x := r.X0; x < r.X1; x++ {
		im.Set(x, r.Y0, v)
		im.Set(x, r.Y1-1, v)
	}
	for y := r.Y0; y < r.Y1; y++ {
		im.Set(r.X0, y, v)
		im.Set(r.X1-1, y, v)
	}
}

// FillRect paints the interior of r with gray value v.
func FillRect(im *Image, r Rect, v uint8) {
	r = r.Intersect(Rect{0, 0, im.W, im.H})
	if r.Empty() { // its columns may lie outside the rows
		return
	}
	for y := r.Y0; y < r.Y1; y++ {
		row := im.Row(y)[r.X0:r.X1]
		for i := range row {
			row[i] = v
		}
	}
}

// FillDisc paints a filled disc of radius rad centered at (cx, cy).
func FillDisc(im *Image, cx, cy, rad int, v uint8) {
	for y := cy - rad; y <= cy+rad; y++ {
		for x := cx - rad; x <= cx+rad; x++ {
			dx, dy := x-cx, y-cy
			if dx*dx+dy*dy <= rad*rad {
				im.Set(x, y, v)
			}
		}
	}
}
