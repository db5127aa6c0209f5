package distrib

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/dsl/eval"
	"skipper/internal/dsl/parser"
	"skipper/internal/dsl/types"
	goexec "skipper/internal/exec"
	"skipper/internal/exec/memtransport"
	"skipper/internal/exec/nettransport"
	"skipper/internal/exec/transport"
	"skipper/internal/expand"
	"skipper/internal/syndex"
	"skipper/internal/track"
	"skipper/internal/value"
	"skipper/internal/video"
	"skipper/internal/vision"
)

// Receiver-side ownership (DESIGN.md §7): a value a transport decoded goes
// back to the vision arena once it is dead. The tests below pin both halves
// of that contract on real copying transports — nothing that escapes a frame
// is recycled, and what does not escape is.

// compileSrc takes src through the compiler chain and the structured mapping
// onto a.
func compileSrc(t testing.TB, src string, reg *value.Registry, a *arch.Arch) *syndex.Schedule {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := types.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	res, err := expand.Expand(prog, info, reg)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	s, err := syndex.Map(res.Graph, a, reg, syndex.Structured)
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	return s
}

// hostNode is one process of a cluster: its own compilation and registry,
// its transport endpoint and the processors it hosts.
type hostNode struct {
	sched *syndex.Schedule
	reg   *value.Registry
	t     transport.Transport
	local []arch.ProcID
}

// cluster is a program brought up once and run as often as a test needs.
type cluster []hostNode

// newCluster brings src up over the named transport. On "mem" one node hosts
// every processor. On "tcp", "unix" and "shm" the processors are split into
// groups, groups[0] on a hub session and every other group on a client of
// its own — each node with its own compilation and registry, as separate OS
// processes would have, in this process for speed but over real sockets or
// rings.
func newCluster(t testing.TB, kind, src string, mkReg func() *value.Registry, a *arch.Arch, groups [][]arch.ProcID) cluster {
	t.Helper()
	node := func(tr transport.Transport, local []arch.ProcID) hostNode {
		reg := mkReg()
		return hostNode{sched: compileSrc(t, src, reg, a), reg: reg, t: tr, local: local}
	}
	if kind == "mem" {
		tr := memtransport.New(a)
		t.Cleanup(func() { tr.Close() })
		return cluster{node(tr, slices.Concat(groups...))}
	}
	fp := compileSrc(t, src, mkReg(), a).Fingerprint()
	listen, cleanup, err := HubListenAddr(kind)
	if err != nil {
		t.Fatal(err)
	}
	hub, err := nettransport.NewHub(listen, a, fp, groups[0], nettransport.WithDataPlane(kind))
	if err != nil {
		cleanup()
		t.Fatal(err)
	}
	var clients []*nettransport.Client
	t.Cleanup(func() { // nodes before the hub
		for _, cl := range clients {
			cl.Close()
		}
		hub.Close()
		cleanup()
	})
	c := cluster{node(hub, groups[0])}
	for _, g := range groups[1:] {
		cl, err := nettransport.Dial(hub.Addr(), fp, g, 5*time.Second, nettransport.WithDataPlane(kind))
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		c = append(c, node(cl, g))
	}
	if err := hub.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c
}

// run executes iters frames on every node and returns the outputs the node
// hosting processor 0 recorded.
func (c cluster) run(t testing.TB, iters int) []value.Value {
	t.Helper()
	return c.runWith(t, iters, func(*goexec.Machine) {})
}

// runWith is run with every node's machine set up by configure first.
func (c cluster) runWith(t testing.TB, iters int, configure func(*goexec.Machine)) []value.Value {
	t.Helper()
	res := make([]*goexec.RunResult, len(c))
	errs := make([]error, len(c))
	var wg sync.WaitGroup
	for i, n := range c {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := goexec.NewMachineOn(n.sched, n.reg, n.t, n.local)
			configure(m)
			res[i], errs[i] = m.RunWithTimeout(iters, 30*time.Second)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %v: %v", c[i].local, err)
		}
	}
	for i, n := range c {
		if slices.Contains(n.local, 0) {
			return res[i].Outputs
		}
	}
	return nil
}

// escapeSrc sends windows across processors and lets every received copy
// escape its frame in one of the ways the executive must recognise. Mapped
// structurally on ring(4), control and the skeleton masters sit on processor
// 0 and each skeleton's compute processes are dealt to processors 1, 2, 3,
// 0; hosted as {3} {0,1} {2}, processor 0 receives copies of bands 1 and 2
// of every scm from processors 2 and 3, and processor 1 shares its process.
//
//   - a: received windows go straight into the Output node.
//   - b: received windows become the loop state (a MEM write); the output
//     carries the previous frame's b, read back from MEM.
//   - c: received windows are cropped — views of their pixels — and the views
//     are sent by reference to processor 1, scm d's only compute process,
//     whose identity result comes back by reference into the output.
//   - e: received windows are a df's input list; the farm workers return
//     their task, and those on processors 0 and 1 get it — and answer — by
//     reference, so the farm result holds the received windows themselves.
//
// Every compute process returns its argument, so the processors 2 and 3
// receive copies that are dead once their result is sent and recycle them.
const escapeSrc = `
type img;; type window;;
extern grab : unit -> img;;
extern bands : img -> window list;;
extern keep : window -> window;;
extern gather : window list -> window list;;
extern crop : window list -> window list;;
extern wrap : window list -> window list list;;
extern keep_all : window list -> window list;;
extern unwrap : window list list -> window list;;
extern insert : window list -> window -> window list;;
extern nowin : window list;;
extern show : window list * window list * window list * window list -> unit;;
let loop (prev, im) =
  let a = scm 4 bands keep gather im in
  let b = scm 4 bands keep gather im in
  let c = scm 4 bands keep gather im in
  let d = scm 1 wrap keep_all unwrap (crop c) in
  let e = scm 4 bands keep gather im in
  let f = df 4 keep insert nowin e in
  (b, (a, prev, d, f));;
let main = itermem grab loop show nowin ();;
`

// escapeRegistry implements escapeSrc's functions. Every frame grab returns
// different pixels, so a recycled buffer that something still refers to shows
// up as the wrong pixels in an output.
func escapeRegistry() *value.Registry {
	r := value.NewRegistry()
	frame := 0
	r.Register(&value.Func{Name: "grab", Sig: "unit -> img", Arity: 1,
		Fn: func([]value.Value) value.Value {
			frame++
			im := vision.NewImage(32, 16)
			for y := 0; y < im.H; y++ {
				for x, row := 0, im.Row(y); x < im.W; x++ {
					row[x] = uint8(x*7 + y*13 + frame*29)
				}
			}
			return im
		}})
	r.Register(&value.Func{Name: "bands", Sig: "img -> window list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			im := a[0].(*vision.Image)
			var out value.List
			for _, rect := range vision.SplitGrid(im.W, im.H, 4) {
				out = append(out, vision.Extract(im, rect))
			}
			return out
		}})
	same := func(a []value.Value) value.Value { return a[0] }
	r.Register(&value.Func{Name: "keep", Sig: "window -> window", Arity: 1, Fn: same})
	r.Register(&value.Func{Name: "gather", Sig: "window list -> window list", Arity: 1, Fn: same})
	r.Register(&value.Func{Name: "keep_all", Sig: "window list -> window list", Arity: 1, Fn: same})
	r.Register(&value.Func{Name: "crop", Sig: "window list -> window list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			var out value.List
			for _, v := range a[0].(value.List) {
				w := v.(vision.Window)
				in := vision.Extract(w.Img, vision.Rect{X0: 1, Y0: 1, X1: w.Img.W - 1, Y1: w.Img.H - 1})
				in.Origin = vision.Rect{X0: w.Origin.X0 + 1, Y0: w.Origin.Y0 + 1, X1: w.Origin.X1 - 1, Y1: w.Origin.Y1 - 1}
				out = append(out, in)
			}
			return out
		}})
	r.Register(&value.Func{Name: "wrap", Sig: "window list -> window list list", Arity: 1,
		Fn: func(a []value.Value) value.Value { return value.List{a[0]} }})
	r.Register(&value.Func{Name: "unwrap", Sig: "window list list -> window list", Arity: 1,
		Fn: func(a []value.Value) value.Value { return a[0].(value.List)[0] }})
	// insert keeps the df accumulator commutative: windows sorted by origin.
	r.Register(&value.Func{Name: "insert", Sig: "window list -> window -> window list", Arity: 2,
		Fn: func(a []value.Value) value.Value {
			acc, w := a[0].(value.List), a[1].(vision.Window)
			i := 0
			for i < len(acc) && acc[i].(vision.Window).Origin.Y0 < w.Origin.Y0 {
				i++
			}
			return slices.Insert(slices.Clone(acc), i, value.Value(w))
		}})
	r.Register(&value.Func{Name: "nowin", Sig: "window list", Arity: 0,
		Fn: func([]value.Value) value.Value { return value.List{} }})
	r.Register(&value.Func{Name: "show", Sig: "window list * window list * window list * window list -> unit", Arity: 1,
		Fn: func([]value.Value) value.Value { return value.Unit{} }})
	return r
}

// digest renders a value with every window's origin and pixels.
func digest(v value.Value) string {
	var b strings.Builder
	var walk func(value.Value)
	walk = func(v value.Value) {
		switch v := v.(type) {
		case value.Tuple:
			b.WriteString("(")
			for _, e := range v {
				walk(e)
			}
			b.WriteString(")")
		case value.List:
			b.WriteString("[")
			for _, e := range v {
				walk(e)
			}
			b.WriteString("]")
		case vision.Window:
			fmt.Fprintf(&b, "%v:", v.Origin)
			for y := 0; y < v.Img.H; y++ {
				fmt.Fprintf(&b, "%x/", v.Img.Row(y))
			}
		default:
			fmt.Fprintf(&b, "%v", v)
		}
	}
	walk(v)
	return b.String()
}

// TestReceivedWindowsEscapeIntact runs escapeSrc on every transport and
// requires every frame's output — read after the whole run, when a wrongly
// recycled buffer has long been overwritten by later frames' decodes — to be
// bit-identical to the sequential emulator's.
func TestReceivedWindowsEscapeIntact(t *testing.T) {
	const iters = 24
	prog, err := parser.Parse(escapeSrc)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if _, err := eval.New(escapeRegistry(), eval.Options{MaxIters: iters,
		Trace: func(_ int, out value.Value) { want = append(want, digest(out)) }}).Run(prog); err != nil {
		t.Fatal(err)
	}
	if len(want) != iters {
		t.Fatalf("the emulator traced %d frames, want %d", len(want), iters)
	}
	groups := [][]arch.ProcID{{3}, {0, 1}, {2}}
	for _, kind := range []string{"mem", "tcp", "unix", "shm"} {
		t.Run(kind, func(t *testing.T) {
			outs := newCluster(t, kind, escapeSrc, escapeRegistry, arch.Ring(4), groups).run(t, iters)
			for i := range want {
				if got := digest(outs[i]); got != want[i] {
					t.Fatalf("frame %d differs from the emulator:\n got %s\nwant %s", i, got, want[i])
				}
			}
		})
	}
}

// raceDetector reports whether the test binary was built with -race, under
// which sync.Pool drops items at random.
func raceDetector() bool {
	info, _ := debug.ReadBuildInfo()
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// labelSrc is the E7 labelling scm on a stream: eight 512×64 bands a frame,
// seven of them labelled on another processor.
const labelSrc = `
type img;; type window;; type mark;;
extern the_img : img;;
extern split_bands : img -> window list;;
extern label_band : window -> mark;;
extern merge_bands : mark list -> mark;;
let main = scm 8 split_bands label_band merge_bands the_img;;
`

func labelRegistry(frame *vision.Image) *value.Registry {
	r := value.NewRegistry()
	r.Register(&value.Func{Name: "the_img", Sig: "img", Arity: 0,
		Fn: func([]value.Value) value.Value { return frame }})
	r.Register(&value.Func{Name: "split_bands", Sig: "img -> window list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			im := a[0].(*vision.Image)
			var out value.List
			for _, rect := range vision.SplitGrid(im.W, im.H, 8) {
				out = append(out, vision.Extract(im, rect))
			}
			return out
		}})
	r.Register(&value.Func{Name: "label_band", Sig: "window -> mark", Arity: 1,
		Fn: func(a []value.Value) value.Value { return track.Detections(track.DetectMarks(a[0].(vision.Window))) }})
	r.Register(&value.Func{Name: "merge_bands", Sig: "mark list -> mark", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			var all []track.Mark
			for _, d := range a[0].(value.List) {
				all = append(all, d.(track.Detections)...)
			}
			return track.Detections(track.MergeDuplicates(all))
		}})
	return r
}

// TestLabellingOverShmRecyclesWindows pins what a steady-state labelling
// frame allocates when its bands cross processes: each of the seven 32 KB
// band copies a frame decodes must come from the vision arena, and go back
// to it once labelled. Decoding every band into a fresh buffer measured
// ~231 KB a frame here.
func TestLabellingOverShmRecyclesWindows(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts and pool hit ratios are not comparable under the race detector")
	}
	groups := make([][]arch.ProcID, 8)
	for p := range groups {
		groups[p] = []arch.ProcID{arch.ProcID(p)}
	}
	frame := video.NewScene(512, 512, 3, 17).Next()
	c := newCluster(t, "shm", labelSrc, func() *value.Registry { return labelRegistry(frame) }, arch.Ring(8), groups)
	c.run(t, 50) // warm-up: the arena and every mailbox reach their steady size
	measure := func(iters int) (bytes uint64, hits, misses int64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h0, m0 := vision.ArenaStats()
		c.run(t, iters)
		h1, m1 := vision.ArenaStats()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, h1 - h0, m1 - m0
	}
	const short, long = 40, 240
	sb, _, _ := measure(short)
	lb, hits, misses := measure(long)
	kb := float64(lb-sb) / (long - short) / 1024
	t.Logf("%.1f KB/frame; arena %d hits, %d misses over %d frames", kb, hits, misses, long)
	if decodes := hits + misses; decodes < 7*long {
		t.Fatalf("%d arena requests over %d frames, want >= %d (seven band decodes a frame)", decodes, long, 7*long)
	}
	if kb > 16 {
		t.Errorf("%.1f KB allocated per frame, want <= 16", kb)
	}
	if hits < (hits+misses)*9/10 {
		t.Errorf("arena hits %d of %d requests, want >= 90%%", hits, hits+misses)
	}
}
