package exec

import (
	"fmt"
	"testing"

	"skipper/internal/arch"
	"skipper/internal/dsl/parser"
	"skipper/internal/exec/memtransport"
	"skipper/internal/stubreg"
	"skipper/internal/syndex"
)

// frameSrc is an itermem loop whose body (%s) does something with the
// grabbed frame im; its output is a window list, its state s.
const frameSrc = `
type img;; type window;;
extern grab : unit -> img;;
extern bands : img -> window list;;
extern thirds : img -> window list;;
extern keep : window -> window;;
extern gather : window list -> window list;;
extern spawn : window -> window list * window list;;
extern insert : window list -> window -> window list;;
extern nowin : window list;;
extern show : window list -> unit;;
let loop (s, im) = %s;;
let main = itermem grab loop show nowin ();;
`

// TestLoweringHandsBackOnlyAFrameThatCannotEscape pins lowering's verdict on
// the itermem input's frame, on the in-process transport (every send by
// reference), ring(4), structured mapping: the frame may be handed back
// when its views only feed a df master's tasks — and then that master
// carries the per-frame verdict — and never when a view of it may escape.
func TestLoweringHandsBackOnlyAFrameThatCannotEscape(t *testing.T) {
	for _, c := range []struct {
		name, body string
		back       bool
	}{
		{"df tasks", "(s, df 4 keep insert nowin (bands im))", true},
		{"df tasks, frame-derived initial accumulator", "(s, df 4 keep insert (bands im) (bands im))", false},
		{"tf tasks", "(s, tf 4 spawn insert nowin (bands im))", false},
		{"Output", "(s, bands im)", false},
		{"Mem", "(bands im, s)", false},
		{"sent by reference", "(s, scm 3 thirds keep gather im)", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf(frameSrc, c.body)
			prog, err := parser.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			reg, err := stubreg.Registry(prog)
			if err != nil {
				t.Fatal(err)
			}
			a := arch.Ring(4)
			tr := memtransport.New(a)
			defer tr.Close()
			m := NewMachineOn(compile(t, src, reg, a, syndex.Structured), reg, tr, allProcs(a))
			pl, err := m.lower(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if back := pl.frame >= 0; back != c.back {
				t.Fatalf("frame handed back: %v, want %v", back, c.back)
			}
			for _, o := range pl.ops {
				if o.farm != nil && o.farm.takesFrame != c.back {
					t.Fatalf("master %s takes the frame's tasks: %v, want %v", o.node.Name, o.farm.takesFrame, c.back)
				}
			}
		})
	}
}
