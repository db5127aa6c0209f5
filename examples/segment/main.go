// Segment: divide-and-conquer region segmentation with the tf (task
// farming) skeleton — the skeleton the paper introduces for "so-called
// divide-and-conquer algorithms" in which "each worker can recursively
// generate new packets to be processed" (§2).
//
// A frame is segmented quadtree-style: a worker receiving a region either
// declares it homogeneous (below the brightness-variation threshold) and
// emits it as a result, or splits it into four quadrants that flow back to
// the master as new tasks. The output is the list of homogeneous regions —
// a coarse segmentation of the scene.
//
// Run with: go run ./examples/segment
package main

import (
	"fmt"
	"log"
	"sort"

	"skipper"
	"skipper/internal/video"
	"skipper/internal/vision"
)

const minRegion = 16 // stop splitting below 16x16

// region couples a rectangle with a homogeneity verdict.
type region struct {
	Rect vision.Rect
	Mean float64
}

func homogeneous(im *vision.Image, r vision.Rect) (bool, float64) {
	if r.Area() == 0 {
		return true, 0
	}
	var sum, sum2 int64
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			v := int64(im.At(x, y))
			sum += v
			sum2 += v * v
		}
	}
	n := int64(r.Area())
	mean := float64(sum) / float64(n)
	variance := float64(sum2)/float64(n) - mean*mean
	return variance < 200, mean
}

func registry(frame *vision.Image, nproc int) *skipper.Registry {
	reg := skipper.NewRegistry()
	reg.Register(&skipper.Func{
		Name: "whole_frame", Sig: "rect list", Arity: 0,
		Fn: func([]skipper.Value) skipper.Value {
			return skipper.List{vision.Rect{X0: 0, Y0: 0, X1: frame.W, Y1: frame.H}}
		},
	})
	reg.Register(&skipper.Func{
		Name: "split_region", Sig: "rect -> region list * rect list", Arity: 1,
		Fn: func(args []skipper.Value) skipper.Value {
			r := args[0].(vision.Rect)
			ok, mean := homogeneous(frame, r)
			if ok || r.W() <= minRegion || r.H() <= minRegion {
				return skipper.Tuple{
					skipper.List{region{Rect: r, Mean: mean}},
					skipper.List{},
				}
			}
			mx, my := (r.X0+r.X1)/2, (r.Y0+r.Y1)/2
			quads := skipper.List{
				vision.Rect{X0: r.X0, Y0: r.Y0, X1: mx, Y1: my},
				vision.Rect{X0: mx, Y0: r.Y0, X1: r.X1, Y1: my},
				vision.Rect{X0: r.X0, Y0: my, X1: mx, Y1: r.Y1},
				vision.Rect{X0: mx, Y0: my, X1: r.X1, Y1: r.Y1},
			}
			return skipper.Tuple{skipper.List{}, quads}
		},
		Cost: func(args []skipper.Value) int64 {
			r := args[0].(vision.Rect)
			return 10_000 + int64(r.Area())*12 // per-pixel variance analysis
		},
	})
	reg.Register(&skipper.Func{
		Name: "collect", Sig: "region list -> region -> region list", Arity: 2,
		Fn: func(args []skipper.Value) skipper.Value {
			acc := args[0].(skipper.List)
			return append(append(skipper.List{}, acc...), args[1])
		},
	})
	return reg
}

func spec(nproc int) string {
	return fmt.Sprintf(`
type rect;; type region;;
extern whole_frame  : rect list;;
extern split_region : rect -> region list * rect list;;
extern collect      : region list -> region -> region list;;
let main = tf %d split_region collect [] whole_frame;;
`, nproc)
}

func main() {
	scene := video.NewScene(256, 256, 2, 23)
	frame := scene.Next()

	const nproc = 4
	prog, err := skipper.Compile(spec(nproc), registry(frame, nproc))
	if err != nil {
		log.Fatal(err)
	}
	dep, err := prog.MapOnto(skipper.Ring(nproc), skipper.Structured)
	if err != nil {
		log.Fatal(err)
	}
	outs, err := dep.Run(1)
	if err != nil {
		log.Fatal(err)
	}
	regions := outs[0].(skipper.List)
	// The farm folds regions in arrival order: sort by a total key, largest
	// first, then top to bottom, then left to right.
	sort.Slice(regions, func(i, j int) bool {
		a, b := regions[i].(region).Rect, regions[j].(region).Rect
		if a.Area() != b.Area() {
			return a.Area() > b.Area()
		}
		if a.Y0 != b.Y0 {
			return a.Y0 < b.Y0
		}
		return a.X0 < b.X0
	})
	fmt.Printf("tf segmentation: %d homogeneous regions\n", len(regions))
	fmt.Println("largest regions:")
	for i := 0; i < len(regions) && i < 8; i++ {
		r := regions[i].(region)
		fmt.Printf("  %v  mean gray %.1f\n", r.Rect, r.Mean)
	}

	// Parallel scaling of the task farm on the timing model.
	fmt.Println("\nsimulated task-farm scaling:")
	fmt.Println("  P    makespan")
	for _, p := range []int{1, 2, 4, 8} {
		pr, err := skipper.Compile(spec(p), registry(frame, p))
		if err != nil {
			log.Fatal(err)
		}
		d, err := pr.MapOnto(skipper.Ring(p), skipper.Structured)
		if err != nil {
			log.Fatal(err)
		}
		res, err := d.Simulate(skipper.SimOptions{Iters: 1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-3d  %7.1f ms\n", p, res.Total*1000)
	}
}
