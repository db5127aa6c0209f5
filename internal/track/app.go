package track

import (
	"skipper/internal/skel"
	"skipper/internal/video"
	"skipper/internal/vision"
)

// App bundles the tracking application exactly as the paper's Caml
// specification composes it:
//
//	let loop (state, im) =
//	  let ws    = get_windows nproc state im in
//	  let marks = df nproc detect_mark accum_marks empty_list ws in
//	  predict marks;;
//	let main = itermem read_img loop display_marks s0 (512,512);;
//
// It is the direct-Go-API face of the case study; the same application also
// runs from its DSL source through the compiler pipeline.
type App struct {
	NProc    int
	Scene    *video.Scene
	Parallel bool // df/itermem operational (goroutines) vs declarative
	Results  []Result
}

// NewApp creates a tracking application over a synthetic scene.
func NewApp(w, h, nproc, nVehicles int, seed int64) *App {
	return &App{
		NProc: nproc,
		Scene: video.NewScene(w, h, nVehicles, seed),
	}
}

// Loop is the paper's loop function: windows, data farm over detect, predict.
func (a *App) Loop(s *State, im *vision.Image) (*State, Result) {
	ws := GetWindows(a.NProc, s, im)
	var marks []Mark
	if a.Parallel {
		marks = skel.DFPar(a.NProc, DetectMarks, AccumMarks, nil, ws)
	} else {
		marks = skel.DFSeq(a.NProc, DetectMarks, AccumMarks, nil, ws)
	}
	return Predict(s, marks)
}

// Run executes iters iterations of the itermem loop, collecting results.
// The frame buffer is reused across iterations: IterMem is strictly
// sequential and nothing downstream of the loop retains the image (windows
// are views of it that die inside Loop, before the next grab; marks are
// values), so one buffer serves the whole stream.
func (a *App) Run(iters int) *State {
	s0 := InitState(a.Scene.W, a.Scene.H, len(a.Scene.Vehicles))
	frame := vision.NewImage(a.Scene.W, a.Scene.H)
	inp := func(struct{}) *vision.Image { return a.Scene.NextInto(frame) }
	loop := func(s *State, im *vision.Image) (*State, Result) { return a.Loop(s, im) }
	out := func(r Result) bool {
		a.Results = append(a.Results, r)
		return true
	}
	return skel.IterMem(inp, loop, out, s0, struct{}{}, iters)
}

// LockRatio reports the fraction of iterations spent in tracking phase
// (vehicles locked), a quality metric used by the experiments.
func (a *App) LockRatio() float64 {
	if len(a.Results) == 0 {
		return 0
	}
	n := 0
	for _, r := range a.Results {
		if r.Tracking {
			n++
		}
	}
	return float64(n) / float64(len(a.Results))
}
