package track

import (
	"fmt"
	"io"

	"skipper/internal/value"
	"skipper/internal/video"
	"skipper/internal/vision"
)

// Detections is the carrier of the DSL's abstract `mark` type: the marks
// detected in one window. Its Bytes method feeds the communication cost
// model (centroid + bounding box + area per mark).
type Detections []Mark

// Bytes returns the transfer size of the detections.
func (d Detections) Bytes() int { return 8 + 40*len(d) }

// Timing calibration for the Transvision target (T9000 @ 20 MHz), expressed
// in processor cycles. See DESIGN.md §4 ("Timing calibration"): with these
// constants the tracking phase of the paper's application lands at ≈30 ms
// and the reinitialization phase at ≈110 ms on an 8-Transputer ring, the
// values reported in paper §4.
const (
	// CyclesPerPixelDetect covers threshold + labelling + moments per
	// window pixel in detect_mark. Recalibrated from 50 after the
	// allocation-free labelling rewrite (dense remap table, reused
	// scratch): the per-pixel cost no longer includes a hash-map update
	// and a per-frame allocation amortisation.
	CyclesPerPixelDetect = 40
	// CyclesPerPixelExtract covers copying one pixel into a window of
	// interest in get_windows (DMA-assisted on the real platform, where a
	// window leaves the processor's memory; on this host it is a view).
	CyclesPerPixelExtract = 1
	// ReadImgCycles is the frame acquisition overhead (the grabber writes
	// the frame concurrently; this is the synchronization cost).
	ReadImgCycles = 20_000
	// PredictCycles covers the 3D trajectory update and rigidity checks.
	PredictCycles = 40_000
	// AccumCycles covers merging one window's detections into the list.
	AccumCycles = 2_000
	// DisplayCycles covers formatting the result for the operator.
	DisplayCycles = 4_000
	// FixedDetectCycles is detect_mark's per-window fixed overhead.
	FixedDetectCycles = 80_000
	// FixedWindowCycles is get_windows' fixed overhead.
	FixedWindowCycles = 10_000
)

// Source is the paper's Caml specification of the vehicle tracking
// application (§4), with the extern declarations standing in for the C
// prototypes. ProgramSource fills in the worker count (%[1]d) and the frame
// geometry (%[2]d, %[3]d).
const sourceTemplate = `
(* Real-time vehicle detection and tracking -- paper section 4. *)
type img;;
type state;;
type window;;
type mark;;

extern read_img : int * int -> img;;
extern init_state : unit -> state;;
extern get_windows : int -> state -> img -> window list;;
extern detect_mark : window -> mark;;
extern accum_marks : mark list -> mark -> mark list;;
extern predict : mark list -> state * mark list;;
extern display_marks : mark list -> unit;;
extern empty_list : mark list;;

let nproc = %[1]d;;
let s0 = init_state ();;
let loop (state, im) =
  let ws = get_windows nproc state im in
  let marks = df nproc detect_mark accum_marks empty_list ws in
  predict marks;;
let main = itermem read_img loop display_marks s0 (%[2]d, %[3]d);;
`

// ProgramSource renders the tracking specification for a given worker count
// and frame geometry.
func ProgramSource(nproc, w, h int) string {
	return fmt.Sprintf(sourceTemplate, nproc, w, h)
}

// Recorder collects per-iteration results as the application's display
// function runs (the side channel the experiments read).
type Recorder struct {
	Results []Result
}

// NewRegistry builds the registry of sequential functions for the tracking
// application over the given synthetic scene. Every call produces fresh
// closures — the internal prediction state mirrors the static variables the
// paper's C predict function keeps — so each run (emulation, executive or
// simulation) must use its own registry.
//
// The returned Recorder accumulates the per-iteration Results; out, when
// non-nil, receives one display line per iteration.
func NewRegistry(scene *video.Scene, out io.Writer) (*value.Registry, *Recorder) {
	r := value.NewRegistry()
	rec := &Recorder{}
	state := InitState(scene.W, scene.H, len(scene.Vehicles))

	r.Register(&value.Func{
		Name: "read_img", Sig: "int * int -> img", Arity: 1,
		// The frame comes from the vision arena: the executive hands it back
		// when the frame's iteration ends, if nothing still holds it or a
		// view of it (DESIGN.md §7); otherwise the GC collects it.
		Fn: func(args []value.Value) value.Value {
			return scene.NextInto(vision.GetImage(scene.W, scene.H))
		},
		Cost:     func([]value.Value) int64 { return ReadImgCycles },
		EstCost:  ReadImgCycles,
		EstBytes: scene.W * scene.H,
	})
	r.Register(&value.Func{
		Name: "init_state", Sig: "unit -> state", Arity: 1,
		Fn: func([]value.Value) value.Value {
			return InitState(scene.W, scene.H, len(scene.Vehicles))
		},
		EstBytes: 256,
	})
	r.Register(&value.Func{
		Name: "get_windows", Sig: "int -> state -> img -> window list", Arity: 3,
		Fn: func(args []value.Value) value.Value {
			np := args[0].(int)
			s := args[1].(*State)
			im := args[2].(*vision.Image)
			ws := GetWindows(np, s, im)
			out := make(value.List, len(ws))
			for i, w := range ws {
				out[i] = w
			}
			return out
		},
		Cost: func(args []value.Value) int64 {
			s := args[1].(*State)
			im := args[2].(*vision.Image)
			px := 0
			if s.Tracking {
				for _, v := range s.Vehicles {
					d := 2 * windowMargin(v.Scale)
					px += MarksPerVehicle * d * d
				}
			} else {
				px = im.W * im.H
			}
			return FixedWindowCycles + int64(px)*CyclesPerPixelExtract
		},
		EstCost:  FixedWindowCycles + int64(scene.W*scene.H)*CyclesPerPixelExtract,
		EstBytes: scene.W * scene.H,
	})
	r.Register(&value.Func{
		Name: "detect_mark", Sig: "window -> mark", Arity: 1,
		Fn: func(args []value.Value) value.Value {
			w := args[0].(vision.Window)
			return Detections(DetectMarks(w))
		},
		Cost: func(args []value.Value) int64 {
			w := args[0].(vision.Window)
			return FixedDetectCycles + int64(w.Origin.Area())*CyclesPerPixelDetect
		},
		EstCost:  FixedDetectCycles + int64(scene.W*scene.H/8)*CyclesPerPixelDetect,
		EstBytes: 128,
	})
	r.Register(&value.Func{
		Name: "accum_marks", Sig: "mark list -> mark -> mark list", Arity: 2,
		Fn: func(args []value.Value) value.Value {
			acc := args[0].(value.List)
			m := args[1].(Detections)
			return append(append(value.List{}, acc...), m)
		},
		Cost:    func([]value.Value) int64 { return AccumCycles },
		EstCost: AccumCycles,
	})
	r.Register(&value.Func{
		Name: "predict", Sig: "mark list -> state * mark list", Arity: 1,
		Fn: func(args []value.Value) value.Value {
			var marks []Mark
			for _, d := range args[0].(value.List) {
				marks = append(marks, d.(Detections)...)
			}
			ns, res := Predict(state, marks)
			state = ns
			rec.Results = append(rec.Results, res)
			disp := make(value.List, len(res.Marks))
			for i, m := range res.Marks {
				disp[i] = m
			}
			return value.Tuple{ns, disp}
		},
		Cost:     func([]value.Value) int64 { return PredictCycles },
		EstCost:  PredictCycles,
		EstBytes: 256,
	})
	r.Register(&value.Func{
		Name: "display_marks", Sig: "mark list -> unit", Arity: 1,
		Fn: func(args []value.Value) value.Value {
			if out != nil && len(rec.Results) > 0 {
				fmt.Fprintln(out, Display(rec.Results[len(rec.Results)-1]))
			}
			return value.Unit{}
		},
		Cost:    func([]value.Value) int64 { return DisplayCycles },
		EstCost: DisplayCycles,
	})
	r.Register(&value.Func{
		Name: "empty_list", Sig: "mark list", Arity: 0,
		Fn: func([]value.Value) value.Value { return value.List{} },
	})
	return r, rec
}
