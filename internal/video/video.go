// Package video synthesizes the road-scene image stream that the Transvision
// platform acquired from a real camera in the paper. It renders 1–3 lead
// vehicles, each carrying three bright visual marks "placed on the top and
// at the back of it" (paper Fig. 3), against a textured road background,
// with a parametric longitudinal/lateral motion model and optional noise.
//
// The generator preserves the two properties the paper's evaluation depends
// on: the apparent mark size varies with distance to the lead vehicle (so
// window workloads are uneven, motivating the df skeleton), and marks can
// leave the tracked windows (forcing the reinitialization phase).
package video

import (
	"math"
	"math/rand"

	"skipper/internal/vision"
)

// Mark geometry: the three marks form a triangle at the back of the vehicle,
// two low outer marks and one high center mark.
const (
	// MarkGray is the rendered brightness of a visual mark.
	MarkGray = 250
	// RoadGrayMax bounds the background texture brightness, keeping a
	// comfortable margin below the detection threshold.
	RoadGrayMax = 120
	// DetectThreshold is the canonical threshold separating marks from road.
	DetectThreshold = 200
)

// Vehicle is the ground-truth state of one lead vehicle: longitudinal
// distance Z (meters ahead of the camera), lateral offset X (meters), and
// their velocities per frame.
type Vehicle struct {
	Z, X   float64 // position (m ahead, m lateral)
	VZ, VX float64 // per-frame deltas
}

// Scene drives a deterministic synthetic stream of frames.
type Scene struct {
	W, H     int
	Vehicles []Vehicle
	Noise    float64 // probability per pixel of a bright noise speck
	// Dropout is the per-mark probability of not being rendered in a
	// frame (glare, occlusion, mud): it stresses the tracker's
	// prediction-failed path and forces reinitialization phases.
	Dropout float64
	rng     *rand.Rand
	frame   int
	// road is the background every frame starts from, painted on the
	// first frame: it depends on the geometry alone, not on the frame or
	// the seed.
	road []uint8

	// Camera model constants.
	focal float64 // pixels-per-meter at 1 m
}

// NewScene builds a scene with n vehicles (clamped to 1..3, per the paper:
// "one to three, in practice") and deterministic pseudo-random motion
// derived from seed.
func NewScene(w, h, n int, seed int64) *Scene {
	if n < 1 {
		n = 1
	}
	if n > 3 {
		n = 3
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Scene{W: w, H: h, rng: rng, focal: float64(w) * 1.2}
	lateral := []float64{0, -2.5, 2.5}
	for i := 0; i < n; i++ {
		s.Vehicles = append(s.Vehicles, Vehicle{
			Z:  12 + 10*rng.Float64(),
			X:  lateral[i] + 0.5*rng.NormFloat64(),
			VZ: 0.04 * rng.NormFloat64(),
			VX: 0.01 * rng.NormFloat64(),
		})
	}
	return s
}

// Frame returns the current frame index (number of Next calls so far).
func (s *Scene) Frame() int { return s.frame }

// MarkTruth is the ground-truth projection of one mark (for test oracles).
type MarkTruth struct {
	Vehicle int
	CX, CY  float64
	Radius  int
}

// project maps a world point (x lateral, y height, z depth) to pixel
// coordinates with a simple pinhole model centered in the frame.
func (s *Scene) project(x, y, z float64) (px, py float64) {
	px = float64(s.W)/2 + s.focal*x/z
	py = float64(s.H)/2 - s.focal*y/z
	return px, py
}

// Truth returns the ground-truth mark projections for the current vehicle
// states (before any noise). Marks fully outside the frame are omitted.
func (s *Scene) Truth() []MarkTruth {
	var out []MarkTruth
	for vi, v := range s.Vehicles {
		for _, m := range markOffsets() {
			px, py := s.project(v.X+m[0], m[1], v.Z)
			r := markRadius(s.focal, v.Z)
			if px < -float64(r) || py < -float64(r) ||
				px > float64(s.W+r) || py > float64(s.H+r) {
				continue
			}
			out = append(out, MarkTruth{Vehicle: vi, CX: px, CY: py, Radius: r})
		}
	}
	return out
}

// markOffsets gives the three mark positions in vehicle coordinates
// (lateral, height): two low outer marks and one high center mark.
func markOffsets() [3][2]float64 {
	return [3][2]float64{{-0.8, 0.6}, {0.8, 0.6}, {0, 1.5}}
}

// markRadius is the apparent radius in pixels of a 12 cm mark at depth z.
func markRadius(focal, z float64) int {
	r := int(math.Round(focal * 0.12 / z))
	if r < 1 {
		r = 1
	}
	return r
}

// Next advances vehicle states and renders the next frame into a fresh
// image. Frame-loop callers that recycle buffers should use NextInto.
func (s *Scene) Next() *vision.Image {
	return s.NextInto(vision.NewImage(s.W, s.H))
}

// NextInto advances vehicle states and renders the next frame into im,
// which must be a W×H image (every pixel is overwritten, so im need not be
// cleared). It returns im, which stays the caller's: an arena image (the
// stock tracking registry's grab, vision.GetImage) is handed back by
// whoever holds it last, a caller-owned buffer is never recycled. Either
// way a 25 Hz frame loop stops allocating a frame per iteration.
func (s *Scene) NextInto(im *vision.Image) *vision.Image {
	if im.W != s.W || im.H != s.H {
		panic("video: NextInto image geometry does not match scene")
	}
	if s.road == nil {
		s.road = make([]uint8, s.W*s.H)
		s.renderBackground(s.road)
	}
	copy(im.Pix, s.road)
	for i := range s.Vehicles {
		s.stepVehicle(&s.Vehicles[i])
		s.renderVehicle(im, s.Vehicles[i])
	}
	if s.Noise > 0 {
		s.renderNoise(im)
	}
	s.frame++
	return im
}

func (s *Scene) stepVehicle(v *Vehicle) {
	// Smooth random walk on velocities, bounded positions.
	v.VZ += 0.01 * s.rng.NormFloat64()
	v.VX += 0.004 * s.rng.NormFloat64()
	v.VZ = clamp(v.VZ, -0.15, 0.15)
	v.VX = clamp(v.VX, -0.05, 0.05)
	v.Z = clamp(v.Z+v.VZ, 6, 60)
	v.X = clamp(v.X+v.VX, -4, 4)
}

func (s *Scene) renderBackground(pix []uint8) {
	// Horizontal gradient road texture plus lane-ish stripes, all below
	// RoadGrayMax so it never crosses the detection threshold.
	for y := 0; y < s.H; y++ {
		base := uint8(30 + 60*y/s.H)
		for x := 0; x < s.W; x++ {
			v := base
			if (x+y/3)%97 < 3 {
				v += 25
			}
			if v > RoadGrayMax {
				v = RoadGrayMax
			}
			pix[y*s.W+x] = v
		}
	}
}

func (s *Scene) renderVehicle(im *vision.Image, v Vehicle) {
	// Vehicle body: a dark rectangle (keeps marks isolated components).
	bw, bh := 1.8, 1.3
	x0, y1 := s.project(v.X-bw/2, 0.2, v.Z)
	x1, y0 := s.project(v.X+bw/2, 0.2+bh, v.Z)
	vision.FillRect(im, vision.Rect{X0: int(x0), Y0: int(y0), X1: int(x1), Y1: int(y1)}, 15)
	for _, m := range markOffsets() {
		if s.Dropout > 0 && s.rng.Float64() < s.Dropout {
			continue
		}
		px, py := s.project(v.X+m[0], m[1], v.Z)
		vision.FillDisc(im, int(math.Round(px)), int(math.Round(py)), markRadius(s.focal, v.Z), MarkGray)
	}
}

func (s *Scene) renderNoise(im *vision.Image) {
	n := int(s.Noise * float64(len(im.Pix)))
	for i := 0; i < n; i++ {
		im.Pix[s.rng.Intn(len(im.Pix))] = uint8(130 + s.rng.Intn(60))
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
