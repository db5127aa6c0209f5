package distrib

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/dsl/eval"
	"skipper/internal/dsl/parser"
	goexec "skipper/internal/exec"
	"skipper/internal/exec/faulttransport"
	"skipper/internal/exec/memtransport"
	"skipper/internal/track"
	"skipper/internal/value"
	"skipper/internal/video"
	"skipper/internal/vision"
)

// The itermem input's frame goes back to the vision arena when its
// iteration ends, unless something may still read it (DESIGN.md §7). The
// tests below run with every recycled image poisoned, so a frame handed back
// too early shows up as wrong pixels: in an output compared with the
// sequential emulator's, or in a worker that checks its window.

// frameCluster brings src up on ring(4) over kind, one processor a node on
// the socket transports. The in-process cluster sits behind a fault wrapper
// that scripts no fault: fault tolerance, and with it speculation, arms only
// on a transport that can report a peer's death.
func frameCluster(t *testing.T, kind, src string, mkReg func() *value.Registry) cluster {
	t.Helper()
	a := arch.Ring(4)
	if kind != "mem" {
		return newCluster(t, kind, src, mkReg, a, [][]arch.ProcID{{0}, {1}, {2}, {3}})
	}
	tr := faulttransport.New(memtransport.New(a), faulttransport.Config{})
	t.Cleanup(func() { tr.Close() })
	reg := mkReg()
	return cluster{{sched: compileSrc(t, src, reg, a), reg: reg, t: tr, local: []arch.ProcID{0, 1, 2, 3}}}
}

// emulate runs src on the sequential emulator and digests each frame's output.
func emulate(t *testing.T, src string, reg *value.Registry, iters int) []string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if _, err := eval.New(reg, eval.Options{MaxIters: iters,
		Trace: func(_ int, out value.Value) { want = append(want, digest(out)) }}).Run(prog); err != nil {
		t.Fatal(err)
	}
	if len(want) != iters {
		t.Fatalf("the emulator traced %d frames, want %d", len(want), iters)
	}
	return want
}

// matchEmulator requires every frame's output to digest as the emulator's.
func matchEmulator(t *testing.T, outs []value.Value, want []string) {
	t.Helper()
	for i := range want {
		if got := digest(outs[i]); got != want[i] {
			t.Fatalf("frame %d differs from the emulator:\n got %s\nwant %s", i, got, want[i])
		}
	}
}

// slowFirstTask makes reg's detect_mark a straggler on the first window of
// every third frame — the task a farm master hands first, to the worker on
// its own processor, which gets it by reference. The straggler holds its
// window past the moment the master, speculating, has folded a duplicate's
// reply and returned; it checks that the window's pixels did not change
// under it and counts the times they did.
func slowFirstTask(reg *value.Registry, hold time.Duration, changed *atomic.Int32) {
	var mu sync.Mutex
	var first vision.Rect
	var frame int
	slept := -1
	getWindows, _ := reg.Lookup("get_windows")
	stockGet := getWindows.Fn
	getWindows.Fn = func(args []value.Value) value.Value {
		ws := stockGet(args)
		mu.Lock()
		defer mu.Unlock()
		frame++
		if l := ws.(value.List); len(l) > 0 {
			first = l[0].(vision.Window).Origin
		}
		return ws
	}
	detect, _ := reg.Lookup("detect_mark")
	stockDetect := detect.Fn
	detect.Fn = func(args []value.Value) value.Value {
		w := args[0].(vision.Window)
		mu.Lock()
		straggle := frame%3 == 0 && w.Origin == first && slept != frame
		if straggle {
			slept = frame
		}
		mu.Unlock()
		if straggle {
			before := w.Img.Clone()
			time.Sleep(hold)
			for y := range w.Img.H {
				if !bytes.Equal(w.Img.Row(y), before.Row(y)) {
					changed.Add(1)
					break
				}
			}
		}
		return stockDetect(args)
	}
}

// TestRecycledFramesMatchEmulator runs the stock tracking application, whose
// camera grabs into arena frames, with every recycled image poisoned: plain,
// pipelined, and with speculation against a worker that straggles on its
// master's own processor, so that a duplicated task is still being read when
// the master returns. Every frame's output must match the emulator's
// (folding in input order: the stock accumulator is not commutative), and
// the straggler must never see its window change. Without a straggler the
// camera must grab into recycled frames: fewer distinct images than frames
// (not checked under the race detector, whose sync.Pool drops items at
// random).
func TestRecycledFramesMatchEmulator(t *testing.T) {
	defer vision.PoisonRecycledForTest()()
	const iters, size, vehicles, seed = 24, 128, 2, 5
	src := track.ProgramSource(4, size, size)
	stock := func() *value.Registry {
		reg, _ := track.NewRegistry(video.NewScene(size, size, vehicles, seed), nil)
		return reg
	}
	want := emulate(t, src, stock(), iters)
	modes := []struct {
		name      string
		configure func(*goexec.Machine)
		straggle  bool
	}{
		{"plain", func(m *goexec.Machine) { m.DeterministicFarm = true }, false},
		{"pipelined", func(m *goexec.Machine) { m.DeterministicFarm, m.Pipeline = true, true }, false},
		{"speculating", func(m *goexec.Machine) {
			m.DeterministicFarm = true
			m.FT = goexec.FaultTolerance{MaxRetries: 2, SpeculateAfter: 2 * time.Millisecond}
		}, true},
	}
	for _, kind := range []string{"mem", "unix", "tcp"} {
		for _, mode := range modes {
			t.Run(kind+"/"+mode.name, func(t *testing.T) {
				var changed atomic.Int32
				var mu sync.Mutex
				grabbed := map[*vision.Image]bool{}
				mkReg := func() *value.Registry {
					reg := stock()
					readImg, _ := reg.Lookup("read_img")
					grab := readImg.Fn
					readImg.Fn = func(args []value.Value) value.Value {
						im := grab(args)
						mu.Lock()
						grabbed[im.(*vision.Image)] = true
						mu.Unlock()
						return im
					}
					if mode.straggle {
						slowFirstTask(reg, 40*time.Millisecond, &changed)
					}
					return reg
				}
				c := frameCluster(t, kind, src, mkReg)
				matchEmulator(t, c.runWith(t, iters, mode.configure), want)
				if n := changed.Load(); n > 0 {
					t.Fatalf("a straggling worker's window changed under it %d times: its frame was recycled", n)
				}
				if !mode.straggle && !raceDetector() && len(grabbed) > iters/2 {
					t.Fatalf("%d frames grabbed into %d distinct images: the camera's frames are not recycled", iters, len(grabbed))
				}
			})
		}
	}
}

// viewSrc grabs arena frames and lets views of them leave the frame through
// a farm, or across processors by reference, in the ways that must keep the
// frame from being recycled: a. the workers return their window, and the
// accumulator keeps it (the farm's own verdict pins the frame); b. the
// windows go by reference to the compute processes of an scm 3, all three
// on other processors, whose results come back into the output (lowering
// never recycles this frame on the in-process transport).
const viewSrc = `
type img;; type window;;
extern grab : unit -> img;;
extern bands : img -> window list;;
extern thirds : img -> window list;;
extern keep : window -> window;;
extern gather : window list -> window list;;
extern insert : window list -> window -> window list;;
extern nowin : window list;;
extern show : window list -> unit;;
let loop (s, im) = (s, %s);;
let main = itermem grab loop show () ();;
`

// viewRegistry is escapeRegistry with a grab that draws its frames from the
// arena, a three-band split, and a show for viewSrc's output.
func viewRegistry() *value.Registry {
	r := escapeRegistry()
	grab, _ := r.Lookup("grab")
	frame := 0
	grab.Fn = func([]value.Value) value.Value {
		frame++
		im := vision.GetImage(32, 16)
		for y := 0; y < im.H; y++ {
			for x, row := 0, im.Row(y); x < im.W; x++ {
				row[x] = uint8(x*7 + y*13 + frame*29)
			}
		}
		return im
	}
	r.Register(&value.Func{Name: "thirds", Sig: "img -> window list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			im := a[0].(*vision.Image)
			var out value.List
			for _, rect := range vision.SplitGrid(im.W, im.H, 3) {
				out = append(out, vision.Extract(im, rect))
			}
			return out
		}})
	show, _ := r.Lookup("show")
	show.Sig = "window list -> unit"
	return r
}

// TestFrameViewsPinTheFrame runs viewSrc's two escapes on every transport
// with recycled images poisoned: every output, read after the run, must
// still hold the pixels the emulator saw.
func TestFrameViewsPinTheFrame(t *testing.T) {
	defer vision.PoisonRecycledForTest()()
	const iters = 24
	for name, body := range map[string]string{
		"accumulated": "df 4 keep insert nowin (bands im)",
		"sent":        "scm 3 thirds keep gather im",
	} {
		src := fmt.Sprintf(viewSrc, body)
		want := emulate(t, src, viewRegistry(), iters)
		for _, kind := range []string{"mem", "unix", "tcp"} {
			t.Run(name+"/"+kind, func(t *testing.T) {
				matchEmulator(t, frameCluster(t, kind, src, viewRegistry).run(t, iters), want)
			})
		}
	}
}

// TestKeptFramesAreNeverRecycled swaps the stock grab, through its Fn alone,
// for one that returns frames the caller rendered with Scene.Next and keeps
// (as bench's frame ring does): the executive must never hand those back,
// so after 1 000 frames every one is byte-identical to a copy taken before.
func TestKeptFramesAreNeverRecycled(t *testing.T) {
	defer vision.PoisonRecycledForTest()()
	const iters, size = 1000, 128
	scene := video.NewScene(size, size, 2, 5)
	ring := make([]*vision.Image, 8)
	kept := make([]*vision.Image, len(ring))
	for i := range ring {
		ring[i] = scene.Next()
		kept[i] = ring[i].Clone()
	}
	mkReg := func() *value.Registry {
		reg, _ := track.NewRegistry(video.NewScene(size, size, 2, 5), nil)
		readImg, _ := reg.Lookup("read_img")
		next := 0
		readImg.Fn = func([]value.Value) value.Value {
			next++
			return ring[next%len(ring)]
		}
		return reg
	}
	for _, kind := range []string{"mem", "unix"} {
		t.Run(kind, func(t *testing.T) {
			frameCluster(t, kind, track.ProgramSource(4, size, size), mkReg).run(t, iters)
			for i := range ring {
				if !slices.Equal(ring[i].Pix, kept[i].Pix) {
					t.Fatalf("ring frame %d changed: the executive recycled a frame it did not own", i)
				}
			}
		})
	}
}
