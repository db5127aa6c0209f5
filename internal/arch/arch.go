// Package arch describes target MIMD-DM architectures as graphs: "the
// target architecture … is also described as a graph, with nodes associated
// to processors and edges representing communication channels" (paper §3).
// It provides the physical topologies the Transvision platform "can be
// configured according to" (ring, chain, star, grid, fully connected) and
// all-pairs shortest-path routing tables used for store-and-forward
// multi-hop communication.
package arch

import (
	"fmt"
)

// MaxProcs bounds a process count: the processors of a job's architecture
// and the processes of one skeleton (a df or tf worker count, an scm
// degree). It is far above any in-tree program, and below it compiling and
// mapping stay fast; an unbounded count takes the compiler down first.
const MaxProcs = 256

// ProcID identifies a processor (0-based).
type ProcID int

// LinkID identifies a directed link (an ordered processor pair).
type LinkID struct {
	From, To ProcID
}

// Arch is an architecture description plus hardware timing constants.
type Arch struct {
	// Name describes the topology, e.g. "ring(8)".
	Name string
	// N is the processor count.
	N int
	// CPUHz is the clock rate of every (homogeneous) processor.
	CPUHz float64
	// LinkBytesPerSec is the usable payload bandwidth of one link.
	LinkBytesPerSec float64
	// LinkLatency is the fixed per-message per-hop startup time in seconds.
	LinkLatency float64

	adj  [][]ProcID // adjacency lists (bidirectional links stored both ways)
	next [][]ProcID // next[src][dst] = neighbor on a shortest path, -1 self
}

// Transvision hardware constants: T9000 Transputers at 20 MHz with DS-links
// delivering roughly 10 MB/s of usable payload bandwidth and a few
// microseconds of per-message startup (paper §4 and ref [8]).
const (
	TransputerHz      = 20e6
	TransputerLinkBps = 10e6
	TransputerLinkLat = 5e-6
)

// newArch allocates an architecture with Transvision timing defaults.
func newArch(name string, n int) *Arch {
	if n < 1 {
		panic(fmt.Sprintf("arch: invalid processor count %d", n))
	}
	a := &Arch{
		Name:            name,
		N:               n,
		CPUHz:           TransputerHz,
		LinkBytesPerSec: TransputerLinkBps,
		LinkLatency:     TransputerLinkLat,
		adj:             make([][]ProcID, n),
	}
	return a
}

func (a *Arch) addLink(i, j ProcID) {
	if i == j {
		return
	}
	for _, k := range a.adj[i] {
		if k == j {
			return
		}
	}
	a.adj[i] = append(a.adj[i], j)
	a.adj[j] = append(a.adj[j], i)
}

// Ring returns an n-processor ring (the topology of the paper's experiment).
func Ring(n int) *Arch {
	a := newArch(fmt.Sprintf("ring(%d)", n), n)
	for i := 0; i < n; i++ {
		a.addLink(ProcID(i), ProcID((i+1)%n))
	}
	a.buildRoutes()
	return a
}

// Chain returns an n-processor linear chain.
func Chain(n int) *Arch {
	a := newArch(fmt.Sprintf("chain(%d)", n), n)
	for i := 0; i+1 < n; i++ {
		a.addLink(ProcID(i), ProcID(i+1))
	}
	a.buildRoutes()
	return a
}

// Star returns a star with processor 0 as hub.
func Star(n int) *Arch {
	a := newArch(fmt.Sprintf("star(%d)", n), n)
	for i := 1; i < n; i++ {
		a.addLink(0, ProcID(i))
	}
	a.buildRoutes()
	return a
}

// Full returns a fully connected architecture.
func Full(n int) *Arch {
	a := newArch(fmt.Sprintf("full(%d)", n), n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a.addLink(ProcID(i), ProcID(j))
		}
	}
	a.buildRoutes()
	return a
}

// Grid returns a w×h mesh; processors are numbered row-major.
func Grid(w, h int) *Arch {
	a := newArch(fmt.Sprintf("grid(%dx%d)", w, h), w*h)
	id := func(x, y int) ProcID { return ProcID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				a.addLink(id(x, y), id(x+1, y))
			}
			if y+1 < h {
				a.addLink(id(x, y), id(x, y+1))
			}
		}
	}
	a.buildRoutes()
	return a
}

// Custom returns an n-processor architecture with exactly the given links
// (each bidirectional). Unlike the named topologies it may be disconnected:
// Connected reports it, syndex.Map refuses it, and Route/Hops answer nil/-1
// for a pair no path joins.
func Custom(name string, n int, links []LinkID) *Arch {
	a := newArch(name, n)
	for _, l := range links {
		a.addLink(l.From, l.To)
	}
	a.buildRoutes()
	return a
}

// buildRoutes computes all-pairs next-hop tables with BFS from every source.
func (a *Arch) buildRoutes() {
	a.next = make([][]ProcID, a.N)
	for src := 0; src < a.N; src++ {
		nxt := make([]ProcID, a.N)
		for i := range nxt {
			nxt[i] = -1
		}
		// BFS from src; parent pointers give the first hop.
		dist := make([]int, a.N)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := []ProcID{ProcID(src)}
		parent := make([]ProcID, a.N)
		for i := range parent {
			parent[i] = -1
		}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range a.adj[u] {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		for dst := 0; dst < a.N; dst++ {
			if dst == src || dist[dst] == -1 {
				continue
			}
			// Walk back from dst to the neighbor of src.
			v := ProcID(dst)
			for parent[v] != ProcID(src) {
				v = parent[v]
			}
			nxt[dst] = v
		}
		a.next[src] = nxt
	}
}

// Connected reports whether every processor can reach every other.
func (a *Arch) Connected() bool {
	for dst := 0; dst < a.N; dst++ {
		if dst != 0 && a.next[0][dst] == -1 {
			return false
		}
	}
	return true
}

// nextHop returns the neighbor src forwards to on a shortest path to dst,
// or -1 when src == dst or dst is unreachable.
func (a *Arch) nextHop(src, dst ProcID) ProcID {
	if src == dst {
		return -1
	}
	return a.next[src][dst]
}

// Route returns the full processor path from src to dst, inclusive of both
// endpoints. Route(p, p) = [p].
func (a *Arch) Route(src, dst ProcID) []ProcID {
	path := []ProcID{src}
	for src != dst {
		n := a.nextHop(src, dst)
		if n == -1 {
			return nil
		}
		path = append(path, n)
		src = n
	}
	return path
}

// Hops returns the number of link traversals between src and dst
// (0 for src == dst, -1 if unreachable).
func (a *Arch) Hops(src, dst ProcID) int {
	n := 0
	for ; src != dst; n++ {
		if src = a.nextHop(src, dst); src == -1 {
			return -1
		}
	}
	return n
}

// Neighbors returns the processors adjacent to p.
func (a *Arch) Neighbors(p ProcID) []ProcID { return a.adj[p] }

// Links enumerates every directed link.
func (a *Arch) Links() []LinkID {
	var out []LinkID
	for i := 0; i < a.N; i++ {
		for _, j := range a.adj[i] {
			out = append(out, LinkID{From: ProcID(i), To: j})
		}
	}
	return out
}

// CycleSeconds converts processor cycles to seconds on this architecture.
func (a *Arch) CycleSeconds(cycles int64) float64 {
	return float64(cycles) / a.CPUHz
}

// TransferSeconds returns the time to push a message of the given size over
// one link (startup latency plus serialization).
func (a *Arch) TransferSeconds(bytes int) float64 {
	return a.LinkLatency + float64(bytes)/a.LinkBytesPerSec
}

// Hypercube returns a 2^dim-processor hypercube (processors are adjacent
// when their indices differ in exactly one bit) — a classic Transputer
// network configuration.
func Hypercube(dim int) *Arch {
	if dim < 0 || dim > 16 {
		panic(fmt.Sprintf("arch: invalid hypercube dimension %d", dim))
	}
	n := 1 << dim
	a := newArch(fmt.Sprintf("hypercube(%d)", dim), n)
	for i := 0; i < n; i++ {
		for b := 0; b < dim; b++ {
			a.addLink(ProcID(i), ProcID(i^(1<<b)))
		}
	}
	a.buildRoutes()
	return a
}

// Torus returns a w×h 2D torus (a grid with wrap-around links), numbered
// row-major.
func Torus(w, h int) *Arch {
	a := newArch(fmt.Sprintf("torus(%dx%d)", w, h), w*h)
	id := func(x, y int) ProcID { return ProcID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a.addLink(id(x, y), id((x+1)%w, y))
			a.addLink(id(x, y), id(x, (y+1)%h))
		}
	}
	a.buildRoutes()
	return a
}
