package distrib

import (
	"cmp"
	"slices"
	"sync"
	"testing"
	"time"

	"skipper/internal/arch"
	"skipper/internal/dsl/eval"
	"skipper/internal/dsl/parser"
	goexec "skipper/internal/exec"
	"skipper/internal/exec/faulttransport"
	"skipper/internal/exec/nettransport"
	"skipper/internal/value"
	"skipper/internal/vision"
)

// tfSrc runs two tf farms on every frame, each halving the frame's window
// down to 4x4 leaves: 64 function calls and 32 leaves a farm a frame.
// Mapped on ring(3) and hosted one processor a node, each master shares
// processor 0 with one of its workers and reaches the other two over
// copying links, so the masters decode tasks and results and hand decoded
// tasks to the co-hosted worker by reference.
//
//   - kept: the accumulator keeps every leaf window, so a leaf the master
//     decoded must not go back to the arena after its fold;
//   - sum: the accumulator is an int, so decoded leaves are recycled at
//     once, and the co-hosted worker's leaves are views of a decoded task,
//     which must not be recycled while they are reachable.
const tfSrc = `
type img;; type window;;
extern grab : unit -> img;;
extern whole : img -> window list;;
extern halve : window -> window list * window list;;
extern insert : window list -> window -> window list;;
extern nowin : window list;;
extern addpix : int -> window -> int;;
extern show : window list * int -> unit;;
let loop (n, im) =
  let kept = tf 3 halve insert nowin (whole im) in
  let sum = tf 3 halve addpix 0 (whole im) in
  (n, (kept, sum));;
let main = itermem grab loop show 0 ();;
`

// tfRegistry implements tfSrc, with escapeRegistry's grab and nowin: every
// frame has different pixels, so a recycled buffer something still refers
// to shows as wrong pixels.
func tfRegistry() *value.Registry {
	r, esc := value.NewRegistry(), escapeRegistry()
	for _, name := range []string{"grab", "nowin"} {
		f, _ := esc.Lookup(name)
		r.Register(f)
	}
	r.Register(&value.Func{Name: "whole", Sig: "img -> window list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			im := a[0].(*vision.Image)
			return value.List{vision.Extract(im, vision.Rect{X1: im.W, Y1: im.H})}
		}})
	r.Register(&value.Func{Name: "halve", Sig: "window -> window list * window list", Arity: 1,
		Fn: func(a []value.Value) value.Value {
			w := a[0].(vision.Window)
			o := w.Origin
			if o.Area() <= 16 {
				return value.Tuple{value.List{w}, value.List{}}
			}
			lo, hi := vision.Rect{X1: o.W(), Y1: o.H()}, vision.Rect{X1: o.W(), Y1: o.H()}
			if o.W() >= o.H() {
				lo.X1, hi.X0 = o.W()/2, o.W()/2
			} else {
				lo.Y1, hi.Y0 = o.H()/2, o.H()/2
			}
			more := value.List{}
			for _, q := range [2]vision.Rect{lo, hi} {
				sub := vision.Extract(w.Img, q)
				sub.Origin = vision.Rect{X0: o.X0 + q.X0, Y0: o.Y0 + q.Y0, X1: o.X0 + q.X1, Y1: o.Y0 + q.Y1}
				more = append(more, sub)
			}
			return value.Tuple{value.List{}, more}
		}})
	// insert keeps the accumulator commutative: leaves sorted by origin.
	r.Register(&value.Func{Name: "insert", Sig: "window list -> window -> window list", Arity: 2,
		Fn: func(a []value.Value) value.Value {
			acc, w := a[0].(value.List), a[1].(vision.Window)
			at, _ := slices.BinarySearchFunc(acc, w, func(e value.Value, w vision.Window) int {
				a, b := e.(vision.Window).Origin, w.Origin
				return cmp.Or(cmp.Compare(a.Y0, b.Y0), cmp.Compare(a.X0, b.X0))
			})
			return slices.Insert(slices.Clone(acc), at, value.Value(w))
		}})
	r.Register(&value.Func{Name: "addpix", Sig: "int -> window -> int", Arity: 2,
		Fn: func(a []value.Value) value.Value {
			s, w := a[0].(int), a[1].(vision.Window)
			for y := 0; y < w.Img.H; y++ {
				for x, v := range w.Img.Row(y) {
					s += int(v) * (w.Origin.X0 + x + 1) * (w.Origin.Y0 + y + 1)
				}
			}
			return s
		}})
	r.Register(&value.Func{Name: "show", Sig: "window list * int -> unit", Arity: 1,
		Fn: func([]value.Value) value.Value { return value.Unit{} }})
	return r
}

// TestTaskFarmMatchesEmulator runs tfSrc on every copying transport, plain
// and with fault tolerance and speculation armed while a worker processor
// dies mid-run, and requires every frame's output — read after the run —
// to equal the sequential emulator's.
func TestTaskFarmMatchesEmulator(t *testing.T) {
	const iters = 24
	prog, err := parser.Parse(tfSrc)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	if _, err := eval.New(tfRegistry(), eval.Options{MaxIters: iters,
		Trace: func(_ int, out value.Value) { want = append(want, digest(out)) }}).Run(prog); err != nil {
		t.Fatal(err)
	}
	groups := [][]arch.ProcID{{0}, {1}, {2}}
	for _, kind := range []string{"tcp", "unix", "shm"} {
		for _, chaos := range []bool{false, true} {
			name := kind
			if chaos {
				name += "/ft-kill"
			}
			t.Run(name, func(t *testing.T) {
				c := newCluster(t, kind, tfSrc, tfRegistry, arch.Ring(3), groups)
				var outs []value.Value
				if !chaos {
					outs = c.run(t, iters)
				} else {
					outs = runKillingProc1(t, c, iters)
				}
				for i := range want {
					if got := digest(outs[i]); got != want[i] {
						t.Fatalf("frame %d differs from the emulator:\n got %s\nwant %s", i, got, want[i])
					}
				}
			})
		}
	}
}

// runKillingProc1 runs the cluster with fault tolerance and speculation
// armed on every node; processor 1, which hosts only workers (the remote
// ones the masters' dispatch scan reaches first), dies at its tenth send
// with its connection severed. The node hosting processor 0
// must finish and report the death.
func runKillingProc1(t *testing.T, c cluster, iters int) []value.Value {
	t.Helper()
	var res *goexec.RunResult
	var errs [3]error
	var wg sync.WaitGroup
	for _, n := range c {
		tr := n.t
		if n.local[0] == 1 {
			cl := n.t.(*nettransport.Client)
			tr = faulttransport.New(cl, faulttransport.Config{
				Faults: map[arch.ProcID]faulttransport.Fault{1: {KillAfterSends: 10}},
				OnKill: func(arch.ProcID) { cl.Sever() },
			})
		}
		m := goexec.NewMachineOn(n.sched, n.reg, tr, n.local)
		m.FT = goexec.FaultTolerance{MaxRetries: 2, SpeculateAfter: 50 * time.Millisecond}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := m.RunWithTimeout(iters, 30*time.Second)
			if n.local[0] == 0 {
				res = r
			}
			errs[n.local[0]] = err
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("surviving nodes: %v, %v", errs[0], errs[2])
	}
	if res.Failures < 1 || res.Redispatches < 1 {
		t.Fatalf("Failures = %d, Redispatches = %d, want both >= 1", res.Failures, res.Redispatches)
	}
	return res.Outputs
}
