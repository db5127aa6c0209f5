package main

import "fmt"

// app is one application written the way a SKiPPER user writes it: a
// Caml-subset specification plus a registry of sequential functions. Every
// processor of a deployment (and the oracle) builds its own registry from
// newRegistry, exactly as every OS process of a real deployment would.
type app struct {
	name     string
	w, h     int
	vehicles int
	source   string
	// newRegistry builds a fresh registry whose read_img hands out the
	// frames of ring through src.
	newRegistry func(src *frameSource) *sutRegistry
	// farmFns run on the farm workers (their busy time is divided by the
	// usable parallelism in the frame budget, and their arguments and
	// results are what crosses processors); every other function is serial.
	farmFns []string
	// orderSensitive is set when the df accumulator is commutative only up
	// to floating-point rounding, so bit-identity with the emulator needs
	// the executive to fold farm results in input order (DeterministicFarm).
	orderSensitive bool
	// periodic is set when the loop state is part of the displayed output,
	// which lets the oracle prove the output sequence periodic instead of
	// emulating every frame (see oracle.go).
	periodic bool
}

const nproc = 8 // ring(8), the paper's machine

// trackingApp is paper §4: itermem around a df over detect_mark.
func trackingApp(w, h, vehicles int) *app {
	return &app{
		name: "tracking", w: w, h: h, vehicles: vehicles,
		source: sutTrackSource(nproc, w, h),
		newRegistry: func(src *frameSource) *sutRegistry {
			// The scene only tells the stock registry the geometry and the
			// vehicle count; its camera is replaced by the frame ring.
			reg, _ := sutTrackRegistry(sutNewScene(w, h, vehicles, 0), nil)
			replaceFn(reg, "read_img", src.readImg)
			return reg
		},
		farmFns: []string{"detect_mark"},
		// Two windows that see the same mark (vehicle projections overlap)
		// are fused by an area-weighted mean whose last bit depends on the
		// order the windows' results arrive in.
		orderSensitive: true,
	}
}

// labelApp is the E7 scm labelling application made a stream: every frame
// is cut into 8 bands, each band is labelled on a worker, the band results
// are merged, and the loop state is the previous frame's component count.
func labelApp(w, h, vehicles int) *app {
	src := fmt.Sprintf(`
type img;; type window;; type mark;;
extern read_img : int * int -> img;;
extern split_bands : img -> window list;;
extern label_band : window -> mark;;
extern merge_bands : mark list -> mark;;
extern note_labels : int -> mark -> int * (int * int * mark);;
extern display_labels : int * int * mark -> unit;;
let loop (prev, im) =
  let m = scm %d split_bands label_band merge_bands im in
  note_labels prev m;;
let main = itermem read_img loop display_labels 0 (%d, %d);;
`, nproc, w, h)
	return &app{
		name: "labelling", w: w, h: h, vehicles: vehicles, source: src,
		newRegistry: func(fs *frameSource) *sutRegistry {
			r := sutNewRegistry()
			r.Register(&sutFunc{Name: "read_img", Sig: "int * int -> img", Arity: 1,
				Fn: fs.readImg, EstBytes: w * h})
			r.Register(&sutFunc{Name: "split_bands", Sig: "img -> window list", Arity: 1,
				Fn: func(a []sutValue) sutValue {
					im := a[0].(*sutImage)
					out := make(sutList, 0, nproc)
					for _, rect := range sutSplitGrid(im.W, im.H, nproc) {
						out = append(out, sutExtract(im, rect))
					}
					return out
				},
				EstCost: 10_000 + int64(w*h), EstBytes: w * h})
			r.Register(&sutFunc{Name: "label_band", Sig: "window -> mark", Arity: 1,
				Fn: func(a []sutValue) sutValue {
					return sutDetections(sutDetectMarks(a[0].(sutWindow)))
				},
				Cost: func(a []sutValue) int64 {
					return sutFixedDetectCost + int64(a[0].(sutWindow).Origin.Area())*sutDetectCostPerPix
				},
				EstCost: sutFixedDetectCost + int64(w*h/nproc)*sutDetectCostPerPix, EstBytes: 128})
			r.Register(&sutFunc{Name: "merge_bands", Sig: "mark list -> mark", Arity: 1,
				Fn: func(a []sutValue) sutValue {
					var all []sutMark
					for _, d := range a[0].(sutList) {
						all = append(all, d.(sutDetections)...)
					}
					return sutDetections(sutMergeMarks(all))
				},
				EstCost: 50_000, EstBytes: 512})
			r.Register(&sutFunc{Name: "note_labels", Sig: "int -> mark -> int * (int * int * mark)", Arity: 2,
				Fn: func(a []sutValue) sutValue {
					prev, m := a[0].(int), a[1].(sutDetections)
					return sutTuple{len(m), sutTuple{len(m), len(m) - prev, m}}
				},
				EstBytes: 512})
			r.Register(&sutFunc{Name: "display_labels", Sig: "int * int * mark -> unit", Arity: 1,
				Fn: func([]sutValue) sutValue { return sutUnit{} }})
			return r
		},
		farmFns:  []string{"label_band"},
		periodic: true,
	}
}

// regionKey folds a leaf region's position into the tf accumulator, so a
// region cut from the wrong place changes the frame's output. Addition
// keeps the accumulator commutative, as tf requires.
func regionKey(r sutRect) int { return 1 + (r.X0+1)*(r.Y0+3)<<12 }

// quadApp is the E8 tf quadtree split made a stream. A region is a leaf
// when it is small or holds no bright pixel; otherwise the worker cuts four
// sub-windows out of the window it received and sends them back as tasks.
func quadApp(w, h, vehicles int) *app {
	src := fmt.Sprintf(`
type img;; type window;;
extern read_img : int * int -> img;;
extern whole : img -> window list;;
extern split_region : window -> window list * window list;;
extern count_region : int -> window -> int;;
extern note_regions : int -> int -> int * (int * int);;
extern display_regions : int * int -> unit;;
let loop (prev, im) =
  let n = tf %d split_region count_region 0 (whole im) in
  note_regions prev n;;
let main = itermem read_img loop display_regions 0 (%d, %d);;
`, nproc, w, h)
	return &app{
		name: "quadtree", w: w, h: h, vehicles: vehicles, source: src,
		newRegistry: func(fs *frameSource) *sutRegistry {
			r := sutNewRegistry()
			r.Register(&sutFunc{Name: "read_img", Sig: "int * int -> img", Arity: 1,
				Fn: fs.readImg, EstBytes: w * h})
			r.Register(&sutFunc{Name: "whole", Sig: "img -> window list", Arity: 1,
				Fn: func(a []sutValue) sutValue {
					im := a[0].(*sutImage)
					return sutList{sutExtract(im, sutRect{X0: 0, Y0: 0, X1: im.W, Y1: im.H})}
				},
				EstCost: 10_000 + int64(w*h), EstBytes: w * h})
			r.Register(&sutFunc{Name: "split_region", Sig: "window -> window list * window list", Arity: 1,
				Fn: func(a []sutValue) sutValue {
					win := a[0].(sutWindow)
					o := win.Origin
					if o.Area() <= 32*32 || sutCountAbove(win.Img, sutDetectThreshold) == 0 {
						return sutTuple{sutList{win}, sutList{}}
					}
					mx, my := o.W()/2, o.H()/2
					more := make(sutList, 0, 4)
					for _, q := range [4]sutRect{
						{X0: 0, Y0: 0, X1: mx, Y1: my}, {X0: mx, Y0: 0, X1: o.W(), Y1: my},
						{X0: 0, Y0: my, X1: mx, Y1: o.H()}, {X0: mx, Y0: my, X1: o.W(), Y1: o.H()},
					} {
						sub := sutExtract(win.Img, q)
						sub.Origin = sutRect{X0: o.X0 + q.X0, Y0: o.Y0 + q.Y0, X1: o.X0 + q.X1, Y1: o.Y0 + q.Y1}
						more = append(more, sub)
					}
					return sutTuple{sutList{}, more}
				},
				Cost: func(a []sutValue) int64 {
					return 10_000 + int64(a[0].(sutWindow).Origin.Area())*12
				},
				EstCost: 10_000 + int64(w*h/16)*12, EstBytes: w * h / 16})
			r.Register(&sutFunc{Name: "count_region", Sig: "int -> window -> int", Arity: 2,
				Fn: func(a []sutValue) sutValue {
					return a[0].(int) + regionKey(a[1].(sutWindow).Origin)
				}})
			r.Register(&sutFunc{Name: "note_regions", Sig: "int -> int -> int * (int * int)", Arity: 2,
				Fn: func(a []sutValue) sutValue {
					prev, n := a[0].(int), a[1].(int)
					return sutTuple{n, sutTuple{n, n - prev}}
				}})
			r.Register(&sutFunc{Name: "display_regions", Sig: "int * int -> unit", Arity: 1,
				Fn: func([]sutValue) sutValue { return sutUnit{} }})
			return r
		},
		farmFns:  []string{"split_region"},
		periodic: true,
	}
}

// replaceFn swaps the implementation of a registered function.
func replaceFn(reg *sutRegistry, name string, fn func([]sutValue) sutValue) {
	f, ok := reg.Lookup(name)
	if !ok {
		panic("bench: " + name + " is not registered")
	}
	f.Fn = fn
}
