// Package track implements the real-time vehicle detection and tracking
// application of paper §4: lead vehicles carry three bright visual marks;
// marks are detected as connected groups of pixels above a threshold and
// characterized by their center of gravity and englobing frame; vehicles are
// then tracked by a classical predict-then-verify method, with a set of
// rigidity criteria to resolve ambiguous cases and a full-image
// reinitialization phase when prediction fails.
//
// The package exposes exactly the sequential functions of the paper's C
// prototype list (read_img, init_state, get_windows, detect_mark,
// accum_marks, predict, display_marks), in Go, so they can be registered as
// extern functions of the SKiPPER DSL program or called directly through the
// skel package.
package track

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"skipper/internal/video"
	"skipper/internal/vision"
)

// Threshold is the mark detection threshold ("pixels with values above a
// given threshold", §4); it matches the synthetic video generator contract.
const Threshold = video.DetectThreshold

// MinMarkArea filters out sub-threshold noise blobs.
const MinMarkArea = 2

// MarksPerVehicle is fixed by the experimental setup: "three visual marks,
// placed on the top and at the back" of each lead vehicle.
const MarksPerVehicle = 3

// Mark is a detected visual mark: center of gravity plus englobing frame,
// in full-frame coordinates.
type Mark struct {
	CX, CY float64
	BBox   vision.Rect
	Area   int
}

// VehicleEst is the tracker's per-vehicle estimate. Positions and
// velocities are per-mark, in pixels/frame (an alpha-beta filter); Scale is
// the apparent mark spacing used by the rigidity criteria and as a proxy for
// the 3D distance of the paper's trajectory model.
type VehicleEst struct {
	Marks [MarksPerVehicle]Mark
	VX    [MarksPerVehicle]float64
	VY    [MarksPerVehicle]float64
	Scale float64
	Age   int // frames tracked continuously
}

// State is the inter-iteration memory value threaded through itermem. It
// contains "all the information required for positioning the windows".
type State struct {
	W, H      int  // frame geometry
	NVehicles int  // number of vehicles to track (1..3)
	Tracking  bool // false => reinitialization phase
	Vehicles  []VehicleEst
	Frame     int
}

// InitState returns the initial state value for initiating the prediction
// algorithm: no vehicle estimates yet, so the first iteration runs the
// reinitialization strategy.
func InitState(w, h, nVehicles int) *State {
	if nVehicles < 1 {
		nVehicles = 1
	}
	if nVehicles > 3 {
		nVehicles = 3
	}
	return &State{W: w, H: h, NVehicles: nVehicles}
}

// windowMargin computes the half-size of a window of interest around a
// predicted mark position. The window must cover one mark (diameter ≈
// scale/6, fixed by the mark/vehicle geometry) plus prediction error and
// inter-frame motion, so a fraction of the triangle base suffices — keeping
// the per-window detection work small, which is what makes the tracking
// phase an order of magnitude cheaper than reinitialization.
func windowMargin(scale float64) int {
	m := int(scale * 0.5)
	if m < 16 {
		m = 16
	}
	return m
}

// GetWindows extracts the windows of the current image. In tracking mode it
// returns one window of interest per predicted mark (3, 6 or 9 windows); in
// reinitialization mode it divides the whole image into np equally-sized
// sub-windows, "where n is typically taken equal to the total number of
// processors" (§4). The windows are views of im (vision.Window): im must not
// be rewritten while they are in use.
func GetWindows(np int, s *State, im *vision.Image) []vision.Window {
	var rects []vision.Rect
	if s.Tracking {
		for vi := range s.Vehicles {
			v := &s.Vehicles[vi]
			for mi := 0; mi < MarksPerVehicle; mi++ {
				m := v.Marks[mi]
				// Predict next position with current velocity, inflate by
				// margin to tolerate estimation error.
				px := m.CX + v.VX[mi]
				py := m.CY + v.VY[mi]
				d := windowMargin(v.Scale)
				r := vision.Rect{
					X0: int(px) - d, Y0: int(py) - d,
					X1: int(px) + d, Y1: int(py) + d,
				}.Intersect(vision.Rect{X0: 0, Y0: 0, X1: im.W, Y1: im.H})
				rects = append(rects, r)
			}
		}
	} else {
		rects = vision.SplitGrid(im.W, im.H, np)
	}
	windows := make([]vision.Window, 0, len(rects))
	for _, r := range rects {
		windows = append(windows, vision.Extract(im, r))
	}
	return windows
}

// detectScratch pools labelling scratch space across DetectMarks calls:
// detection runs once per window per frame (the paper's per-frame hot
// path), and the run/union-find/moments buffers never escape, so a
// sync.Pool removes all per-call labelling allocations while staying safe
// under the df skeleton's concurrent workers.
var detectScratch = sync.Pool{New: func() any { return new(vision.LabelScratch) }}

// DetectMarks detects the marks present in one window: connected groups of
// pixels above the threshold, each characterized by center of gravity and
// englobing frame (translated back to full-frame coordinates). It is the
// compute function handed to the df skeleton. (The paper's C prototype
// returns a single mark per window; the abstract DSL type "mark" is carried
// here as the list of blobs found in the window, which is the faithful
// functional content when a reinitialization band holds several marks.)
func DetectMarks(w vision.Window) []Mark {
	s := detectScratch.Get().(*vision.LabelScratch)
	comps := s.Components(w.Img, Threshold, MinMarkArea)
	marks := make([]Mark, 0, len(comps))
	for _, c := range comps {
		marks = append(marks, Mark{
			CX: c.CX + float64(w.Origin.X0),
			CY: c.CY + float64(w.Origin.Y0),
			BBox: vision.Rect{
				X0: c.BBox.X0 + w.Origin.X0, Y0: c.BBox.Y0 + w.Origin.Y0,
				X1: c.BBox.X1 + w.Origin.X0, Y1: c.BBox.Y1 + w.Origin.Y0,
			},
			Area: c.Area,
		})
	}
	detectScratch.Put(s) // comps aliases s; the marks are copies
	return marks
}

// AccumMarks is the df accumulating function: it merges the marks detected
// in one window into the running list. Duplicate detections of the same
// physical mark (a blob straddling two reinitialization bands is reported by
// both) are coalesced by bounding-box adjacency. The operation is
// commutative and associative up to mark ordering, which MergeDuplicates
// restores canonically; the tracker sorts before use.
func AccumMarks(acc []Mark, ms []Mark) []Mark {
	return append(acc, ms...)
}

// MergeDuplicates coalesces marks whose bounding boxes touch or overlap
// (split detections across window boundaries) and returns marks sorted in
// canonical (CY, CX) order, making the df accumulation order immaterial.
func MergeDuplicates(marks []Mark) []Mark {
	merged := make([]Mark, 0, len(marks))
	used := make([]bool, len(marks))
	for i := range marks {
		if used[i] {
			continue
		}
		cur := marks[i]
		used[i] = true
		for changed := true; changed; {
			changed = false
			for j := range marks {
				if used[j] {
					continue
				}
				if cur.BBox.Inflate(1, 1<<30, 1<<30).Intersect(marks[j].BBox).Area() > 0 {
					cur = fuse(cur, marks[j])
					used[j] = true
					changed = true
				}
			}
		}
		merged = append(merged, cur)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].CY != merged[j].CY {
			return merged[i].CY < merged[j].CY
		}
		return merged[i].CX < merged[j].CX
	})
	return merged
}

// fuse combines two detections of the same physical mark (area-weighted
// centroid, union bounding box).
func fuse(a, b Mark) Mark {
	ta := float64(a.Area)
	tb := float64(b.Area)
	tot := ta + tb
	return Mark{
		CX:   (a.CX*ta + b.CX*tb) / tot,
		CY:   (a.CY*ta + b.CY*tb) / tot,
		BBox: a.BBox.Union(b.BBox),
		Area: a.Area + b.Area,
	}
}

// Result is the per-iteration output handed to the display function: the
// marks retained for each vehicle this frame, plus phase bookkeeping used by
// the experiments.
type Result struct {
	Frame    int
	Tracking bool // phase that produced this result
	Marks    []Mark
	Vehicles int // vehicles currently locked
}

// Predict implements the predict-then-verify step: it takes the marks
// detected at iteration i, verifies them against the rigidity criteria,
// updates the per-vehicle trajectory estimates and decides the phase of
// iteration i+1 ("if less than three marks were detected, it is assumed that
// the prediction failed"). It returns the updated state and the display
// result, matching the paper's
//
//	predict : mark list -> state * mark list
func Predict(s *State, marks []Mark) (*State, Result) {
	ns := *s // copy; State itself is treated as immutable by the tracker
	ns.Vehicles = append([]VehicleEst(nil), s.Vehicles...)
	ns.Frame = s.Frame + 1

	clean := MergeDuplicates(marks)
	var groups [][]Mark
	if s.Tracking {
		groups = assignToVehicles(&ns, clean)
	} else {
		groups = clusterVehicles(clean, s.NVehicles)
	}

	var kept []Mark
	var vehicles []VehicleEst
	for gi, g := range groups {
		if len(g) != MarksPerVehicle || !rigid(g) {
			continue
		}
		est := updateEstimate(prevEstimate(s, gi), g)
		vehicles = append(vehicles, est)
		kept = append(kept, g...)
	}

	ns.Vehicles = vehicles
	ns.Tracking = len(vehicles) > 0
	return &ns, Result{
		Frame:    ns.Frame,
		Tracking: s.Tracking,
		Marks:    kept,
		Vehicles: len(vehicles),
	}
}

// prevEstimate returns the previous estimate for vehicle slot gi, if any.
func prevEstimate(s *State, gi int) *VehicleEst {
	if s.Tracking && gi < len(s.Vehicles) {
		return &s.Vehicles[gi]
	}
	return nil
}

// assignToVehicles matches detected marks to the vehicles of the current
// state by nearest predicted mark position (the "verify" part): each vehicle
// claims at most one mark per predicted position, within a gate radius.
func assignToVehicles(s *State, marks []Mark) [][]Mark {
	groups := make([][]Mark, len(s.Vehicles))
	taken := make([]bool, len(marks))
	for vi := range s.Vehicles {
		v := &s.Vehicles[vi]
		gate := float64(windowMargin(v.Scale)) * 1.5
		for mi := 0; mi < MarksPerVehicle; mi++ {
			px := v.Marks[mi].CX + v.VX[mi]
			py := v.Marks[mi].CY + v.VY[mi]
			best, bestD := -1, gate
			for j, m := range marks {
				if taken[j] {
					continue
				}
				d := math.Hypot(m.CX-px, m.CY-py)
				if d < bestD {
					best, bestD = j, d
				}
			}
			if best >= 0 {
				taken[best] = true
				groups[vi] = append(groups[vi], marks[best])
			}
		}
		groups[vi] = sortTriangle(groups[vi])
	}
	return groups
}

// clusterVehicles groups marks into up to n vehicles during
// reinitialization by searching for mark triples that satisfy the rigidity
// criteria and are mutually size-consistent (the three marks of one vehicle
// are at the same distance, hence the same apparent size — this is how the
// 3D model "resolves ambiguous cases" when vehicle projections overlap).
// Candidate triangles are scored by total area (nearer vehicles first) and
// selected greedily under mark disjointness.
func clusterVehicles(marks []Mark, n int) [][]Mark {
	type cand struct {
		g     []Mark
		used  [MarksPerVehicle]int
		score int
	}
	var cands []cand
	for i := 0; i < len(marks); i++ {
		for j := i + 1; j < len(marks); j++ {
			for k := j + 1; k < len(marks); k++ {
				g := sortTriangle([]Mark{marks[i], marks[j], marks[k]})
				if !rigid(g) || !sizeConsistent(g) {
					continue
				}
				score := g[0].Area + g[1].Area + g[2].Area
				cands = append(cands, cand{g: g, used: [3]int{i, j, k}, score: score})
			}
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].score > cands[b].score })
	taken := make([]bool, len(marks))
	var groups [][]Mark
	for _, c := range cands {
		if len(groups) == n {
			break
		}
		if taken[c.used[0]] || taken[c.used[1]] || taken[c.used[2]] {
			continue
		}
		for _, u := range c.used {
			taken[u] = true
		}
		groups = append(groups, c.g)
	}
	return groups
}

// sizeConsistent checks that a canonical triangle's marks have comparable
// apparent sizes and that the triangle base is in the proportion to the mark
// diameter fixed by the physical mark layout (marks ≈ 12 cm across, base
// ≈ 1.6 m, so base/diameter ≈ 6.7; a generous band absorbs rasterization).
func sizeConsistent(g []Mark) bool {
	amin, amax := g[0].Area, g[0].Area
	for _, m := range g[1:] {
		if m.Area < amin {
			amin = m.Area
		}
		if m.Area > amax {
			amax = m.Area
		}
	}
	if amax > 3*amin {
		return false
	}
	avgDiam := 2 * math.Sqrt(float64(amin+amax)/2/math.Pi)
	width := g[2].CX - g[1].CX
	ratio := width / avgDiam
	return ratio > 3 && ratio < 12
}

// sortTriangle orders a 3-mark group canonically: top mark first, then
// bottom-left, then bottom-right. Other group sizes are returned sorted by
// (CY, CX).
func sortTriangle(g []Mark) []Mark {
	sort.Slice(g, func(i, j int) bool {
		if g[i].CY != g[j].CY {
			return g[i].CY < g[j].CY
		}
		return g[i].CX < g[j].CX
	})
	if len(g) == MarksPerVehicle && g[1].CX > g[2].CX {
		g[1], g[2] = g[2], g[1]
	}
	return g
}

// rigid applies the rigidity criteria of the paper's 3D model to a
// canonical 3-mark group (top, bottom-left, bottom-right): the two bottom
// marks are at similar height, the top mark lies horizontally between them
// (with slack), and the triangle's aspect ratio is physically plausible.
func rigid(g []Mark) bool {
	if len(g) != MarksPerVehicle {
		return false
	}
	top, bl, br := g[0], g[1], g[2]
	width := br.CX - bl.CX
	if width <= 0 {
		return false
	}
	// Bottom marks roughly level.
	if math.Abs(bl.CY-br.CY) > 0.5*width+2 {
		return false
	}
	// Top mark above the bottom pair and horizontally between them (slack
	// of half the base on each side).
	if top.CY >= math.Min(bl.CY, br.CY) {
		return false
	}
	mid := (bl.CX + br.CX) / 2
	if math.Abs(top.CX-mid) > 0.75*width {
		return false
	}
	// Height/width ratio of the mark triangle is fixed by the vehicle
	// geometry (0.9m over 1.6m ≈ 0.56); accept a generous band.
	h := (bl.CY+br.CY)/2 - top.CY
	ratio := h / width
	return ratio > 0.2 && ratio < 1.5
}

// updateEstimate runs one alpha-beta filter step per mark.
func updateEstimate(prev *VehicleEst, g []Mark) VehicleEst {
	const alpha, beta = 0.7, 0.3
	var est VehicleEst
	if prev == nil {
		copy(est.Marks[:], g)
		est.Scale = triangleScale(g)
		est.Age = 1
		return est
	}
	est = *prev
	for i := 0; i < MarksPerVehicle; i++ {
		predX := prev.Marks[i].CX + prev.VX[i]
		predY := prev.Marks[i].CY + prev.VY[i]
		rx := g[i].CX - predX
		ry := g[i].CY - predY
		est.Marks[i] = g[i]
		est.Marks[i].CX = predX + alpha*rx
		est.Marks[i].CY = predY + alpha*ry
		est.VX[i] = prev.VX[i] + beta*rx
		est.VY[i] = prev.VY[i] + beta*ry
	}
	est.Scale = triangleScale(g)
	est.Age = prev.Age + 1
	return est
}

// triangleScale is the apparent base width of the mark triangle, the
// tracker's proxy for vehicle distance.
func triangleScale(g []Mark) float64 {
	if len(g) != MarksPerVehicle {
		return 16
	}
	s := g[2].CX - g[1].CX
	if s < 4 {
		s = 4
	}
	return s
}

// Display renders a Result into a human-readable line (the display_marks
// function of the paper, adapted to a console).
func Display(r Result) string {
	phase := "REINIT"
	if r.Tracking {
		phase = "TRACK "
	}
	return fmt.Sprintf("frame %4d  %s  vehicles=%d  marks=%d",
		r.Frame, phase, r.Vehicles, len(r.Marks))
}
