package arch

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRingGeometry(t *testing.T) {
	a := Ring(8)
	if a.N != 8 || a.Name != "ring(8)" {
		t.Fatalf("arch = %+v", a)
	}
	for p := 0; p < 8; p++ {
		if len(a.Neighbors(ProcID(p))) != 2 {
			t.Fatalf("proc %d has %d neighbors", p, len(a.Neighbors(ProcID(p))))
		}
	}
	// Opposite side of an 8-ring is 4 hops away.
	if a.Hops(0, 4) != 4 {
		t.Fatalf("Hops(0,4) = %d", a.Hops(0, 4))
	}
	if a.Hops(0, 1) != 1 || a.Hops(0, 7) != 1 {
		t.Fatal("adjacent hops wrong")
	}
}

func TestRingOfTwoAndOne(t *testing.T) {
	a := Ring(2)
	if a.Hops(0, 1) != 1 {
		t.Fatalf("ring(2) hops = %d", a.Hops(0, 1))
	}
	if len(a.Neighbors(0)) != 1 {
		t.Fatalf("ring(2) should deduplicate the double link: %v", a.Neighbors(0))
	}
	b := Ring(1)
	if b.Hops(0, 0) != 0 || !b.Connected() {
		t.Fatal("singleton ring broken")
	}
}

func TestChainRouting(t *testing.T) {
	a := Chain(5)
	r := a.Route(0, 4)
	want := []ProcID{0, 1, 2, 3, 4}
	if len(r) != len(want) {
		t.Fatalf("route = %v", r)
	}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("route = %v", r)
		}
	}
}

func TestStarRouting(t *testing.T) {
	a := Star(6)
	if a.Hops(1, 2) != 2 {
		t.Fatalf("leaf-to-leaf = %d hops", a.Hops(1, 2))
	}
	if a.nextHop(3, 5) != 0 {
		t.Fatal("leaf should route via hub")
	}
}

func TestFullIsSingleHop(t *testing.T) {
	a := Full(5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j && a.Hops(ProcID(i), ProcID(j)) != 1 {
				t.Fatalf("Hops(%d,%d) = %d", i, j, a.Hops(ProcID(i), ProcID(j)))
			}
		}
	}
}

func TestGridRouting(t *testing.T) {
	a := Grid(3, 3)
	if a.N != 9 {
		t.Fatalf("N = %d", a.N)
	}
	// Manhattan distance between corners.
	if a.Hops(0, 8) != 4 {
		t.Fatalf("corner distance = %d", a.Hops(0, 8))
	}
	if !a.Connected() {
		t.Fatal("grid should be connected")
	}
}

// Property: on every topology, routes exist, start and end correctly, follow
// adjacency, and have length Hops+1.
func TestRoutesWellFormed(t *testing.T) {
	archs := []*Arch{Ring(8), Chain(6), Star(7), Full(4), Grid(3, 4)}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := archs[rng.Intn(len(archs))]
		src := ProcID(rng.Intn(a.N))
		dst := ProcID(rng.Intn(a.N))
		r := a.Route(src, dst)
		if r == nil || r[0] != src || r[len(r)-1] != dst {
			return false
		}
		if len(r)-1 != a.Hops(src, dst) {
			return false
		}
		for i := 0; i+1 < len(r); i++ {
			adjacent := false
			for _, n := range a.Neighbors(r[i]) {
				if n == r[i+1] {
					adjacent = true
				}
			}
			if !adjacent {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ring routes take the shorter way round.
func TestRingShortestPath(t *testing.T) {
	a := Ring(10)
	for s := 0; s < 10; s++ {
		for d := 0; d < 10; d++ {
			cw := (d - s + 10) % 10
			ccw := (s - d + 10) % 10
			want := cw
			if ccw < cw {
				want = ccw
			}
			if got := a.Hops(ProcID(s), ProcID(d)); got != want {
				t.Fatalf("Hops(%d,%d) = %d, want %d", s, d, got, want)
			}
		}
	}
}

func TestLinksEnumeratesBothDirections(t *testing.T) {
	a := Ring(4)
	links := a.Links()
	if len(links) != 8 { // 4 bidirectional links = 8 directed
		t.Fatalf("got %d directed links", len(links))
	}
	seen := map[LinkID]bool{}
	for _, l := range links {
		seen[l] = true
	}
	if !seen[LinkID{0, 1}] || !seen[LinkID{1, 0}] {
		t.Fatal("missing directions")
	}
}

func TestTimingHelpers(t *testing.T) {
	a := Ring(4)
	// 20 MHz: 20e6 cycles = 1 second.
	if got := a.CycleSeconds(20_000_000); got != 1.0 {
		t.Fatalf("CycleSeconds = %g", got)
	}
	// 10 MB over a 10 MB/s link ≈ 1 s + latency.
	got := a.TransferSeconds(10_000_000)
	if got < 1.0 || got > 1.01 {
		t.Fatalf("TransferSeconds = %g", got)
	}
}

func TestInvalidProcCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Ring(0)
}

func TestHypercube(t *testing.T) {
	a := Hypercube(3)
	if a.N != 8 {
		t.Fatalf("N = %d", a.N)
	}
	for p := 0; p < 8; p++ {
		if len(a.Neighbors(ProcID(p))) != 3 {
			t.Fatalf("proc %d degree = %d", p, len(a.Neighbors(ProcID(p))))
		}
	}
	// Distance equals Hamming distance.
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			ham := 0
			for b := 0; b < 3; b++ {
				if (s^d)&(1<<b) != 0 {
					ham++
				}
			}
			if got := a.Hops(ProcID(s), ProcID(d)); got != ham {
				t.Fatalf("Hops(%d,%d) = %d, want %d", s, d, got, ham)
			}
		}
	}
	if !a.Connected() {
		t.Fatal("hypercube disconnected")
	}
	// Degenerate: 0-dim hypercube is a single processor.
	if Hypercube(0).N != 1 {
		t.Fatal("hypercube(0)")
	}
}

func TestHypercubePanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Hypercube(-1)
}

func TestTorus(t *testing.T) {
	a := Torus(4, 3)
	if a.N != 12 || !a.Connected() {
		t.Fatalf("torus geometry broken: %+v", a.N)
	}
	// Wrap-around: (0,0) to (3,0) is one hop, not three.
	if got := a.Hops(0, 3); got != 1 {
		t.Fatalf("wrap hop = %d", got)
	}
	// (0,0) to (2,0) is two hops either way.
	if got := a.Hops(0, 2); got != 2 {
		t.Fatalf("Hops(0,2) = %d", got)
	}
	// Vertical wrap: (0,0)=0 to (0,2)=8 is one hop.
	if got := a.Hops(0, 8); got != 1 {
		t.Fatalf("vertical wrap = %d", got)
	}
}

func TestTorusDegenerate(t *testing.T) {
	// 1x1 torus: one proc, self-links filtered.
	a := Torus(1, 1)
	if a.N != 1 || len(a.Neighbors(0)) != 0 {
		t.Fatalf("torus(1x1): %+v", a.Neighbors(0))
	}
	// 2x1 torus deduplicates the double link.
	b := Torus(2, 1)
	if len(b.Neighbors(0)) != 1 {
		t.Fatalf("torus(2x1) neighbors = %v", b.Neighbors(0))
	}
}

func TestCustomMayBeDisconnected(t *testing.T) {
	// Two islands: 0-1 and 2-3.
	a := Custom("islands", 4, []LinkID{{From: 0, To: 1}, {From: 2, To: 3}})
	if a.Connected() {
		t.Fatal("two islands reported connected")
	}
	if a.Hops(0, 1) != 1 || a.Hops(3, 2) != 1 || a.Hops(2, 2) != 0 {
		t.Fatalf("hops inside an island: %d %d %d", a.Hops(0, 1), a.Hops(3, 2), a.Hops(2, 2))
	}
	if a.Hops(0, 2) != -1 || a.Route(1, 3) != nil {
		t.Fatalf("unreachable pair: hops %d, route %v", a.Hops(0, 2), a.Route(1, 3))
	}
	if b := Custom("line", 3, []LinkID{{From: 0, To: 1}, {From: 1, To: 2}}); !b.Connected() || b.Hops(0, 2) != 2 {
		t.Fatalf("line: connected %v, hops %d", b.Connected(), b.Hops(0, 2))
	}
}
