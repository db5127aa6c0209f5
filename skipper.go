// Package skipper is a Go reimplementation of SKiPPER, the skeleton-based
// parallel programming environment for real-time image processing of
// Sérot, Ginhac and Dérutin (PaCT-99). It compiles purely functional
// specifications — written in a Caml subset whose only source of
// parallelism is the composition of the four skeletons scm, df, tf and
// itermem — down to a process graph, maps the graph onto an architecture
// description (ring, chain, star, grid, …), and produces a deadlock-free
// distributed executive that can be
//
//   - emulated sequentially against the skeletons' declarative definitions
//     (Program.Emulate),
//   - executed in parallel on goroutine processors connected by channel
//     links (Deployment.Run), or
//   - simulated in virtual time on a model of the Transvision T9000
//     platform (Deployment.Simulate) to reproduce the paper's real-time
//     figures.
//
// The typical flow:
//
//	reg := skipper.NewRegistry()
//	reg.Register(&skipper.Func{Name: "detect", Sig: "window -> mark", ...})
//	prog, err := skipper.Compile(src, reg)
//	dep, err := prog.MapOnto(skipper.Ring(8), skipper.Structured)
//	out, err := dep.Run(100)            // goroutine backend
//	res, err := dep.Simulate(skipper.SimOptions{Iters: 100, FramePeriod: skipper.VideoPeriod})
package skipper

import (
	"fmt"
	"strconv"
	"strings"

	"skipper/internal/arch"
	"skipper/internal/compile"
	"skipper/internal/dsl/ast"
	"skipper/internal/dsl/eval"
	"skipper/internal/dsl/types"
	"skipper/internal/exec"
	"skipper/internal/graph"
	"skipper/internal/sim"
	"skipper/internal/syndex"
	"skipper/internal/value"
)

// Re-exported building blocks, so applications only import this package.
type (
	// Registry holds the application's sequential functions.
	Registry = value.Registry
	// Func describes one registered sequential function.
	Func = value.Func
	// Value is a dynamic program value.
	Value = value.Value
	// Tuple is a tuple value.
	Tuple = value.Tuple
	// List is a list value.
	List = value.List
	// Unit is the unit value.
	Unit = value.Unit
	// Arch is an architecture description.
	Arch = arch.Arch
	// SimOptions configures timing simulation.
	SimOptions = sim.Options
	// SimResult is a timing simulation outcome.
	SimResult = sim.Result
	// Strategy selects the distribution heuristic.
	Strategy = syndex.Strategy
)

// Distribution strategies.
const (
	// Structured is SKiPPER's canonical skeleton-aware placement.
	Structured = syndex.Structured
	// ListSched is the generic list-scheduling baseline.
	ListSched = syndex.ListSched
)

// VideoPeriod is the 25 Hz camera frame period in seconds.
const VideoPeriod = sim.VideoPeriod

// NewRegistry returns an empty function registry.
func NewRegistry() *Registry { return value.NewRegistry() }

// Topology constructors (Transvision-calibrated timing defaults).
var (
	Ring      = arch.Ring
	Chain     = arch.Chain
	Star      = arch.Star
	Full      = arch.Full
	Grid      = arch.Grid
	Torus     = arch.Torus
	Hypercube = arch.Hypercube
)

// Program is a compiled specification: parsed, type-checked and expanded
// into a process graph.
type Program struct {
	Source string
	// AST is the parsed program.
	AST *ast.Program
	// Types holds the inference results (schemes of top-level bindings).
	Types *types.Info
	// Graph is the expanded process network.
	Graph *graph.Graph
	// Stream reports whether the program is an itermem stream program.
	Stream bool

	c *compile.Program
}

// Compile runs a specification through the front half of the compiler chain
// (internal/compile): it parses and type-checks it, checks its extern
// declarations against the registry of sequential functions and
// skeleton-expands it.
func Compile(src string, reg *Registry) (*Program, error) {
	c, err := compile.Source(src, reg)
	if err != nil {
		return nil, err
	}
	return &Program{Source: src, AST: c.AST, Types: c.Types, Graph: c.Graph, Stream: c.Stream, c: c}, nil
}

// TypeOf returns the inferred type of a top-level binding as a string.
func (p *Program) TypeOf(name string) (string, bool) {
	s, ok := p.Types.Types[name]
	if !ok {
		return "", false
	}
	return s.String(), true
}

// DOT renders the process graph in Graphviz format.
func (p *Program) DOT(title string) string { return p.Graph.DOT(title) }

// Emulate runs the specification through the sequential emulator (the
// declarative skeleton semantics) for the given number of itermem
// iterations, calling the registered functions directly.
func (p *Program) Emulate(iters int) error {
	_, err := eval.New(p.c.Reg, eval.Options{MaxIters: iters}).Run(p.AST)
	return err
}

// MapOnto distributes and schedules the program on an architecture. A
// program whose main folded to a constant has nothing to deploy.
func (p *Program) MapOnto(a *Arch, strat Strategy) (*Deployment, error) {
	s, err := p.c.Map(a, strat)
	if err != nil {
		return nil, err
	}
	return &Deployment{Program: p, Schedule: s}, nil
}

// Deployment is a program mapped onto a target architecture: the
// distributed executive in its processor-independent form.
type Deployment struct {
	Program  *Program
	Schedule *syndex.Schedule
}

// MacroCode renders the executive as m4-style macro-code.
func (d *Deployment) MacroCode() string { return d.Schedule.MacroCode() }

// Summary renders the process-to-processor placement.
func (d *Deployment) Summary() string { return d.Schedule.Summary() }

// Run executes the deployment on the goroutine backend (one goroutine per
// processor, channels as links) for iters iterations, returning the output
// value of each iteration.
func (d *Deployment) Run(iters int) ([]Value, error) {
	res, err := exec.NewMachine(d.Schedule, d.Program.c.Reg).Run(iters)
	if err != nil {
		return nil, err
	}
	return res.Outputs, nil
}

// Simulate executes the deployment on the Transvision timing model.
func (d *Deployment) Simulate(opts SimOptions) (*SimResult, error) {
	return sim.Run(d.Schedule, d.Program.c.Reg, opts)
}

// ParseArch parses an architecture description string of the form used by
// the CLI tools: "ring:8", "chain:4", "star:5", "full:4", "hypercube:3",
// "grid:3x4", "torus:4x4".
func ParseArch(s string) (*Arch, error) {
	kind, argStr, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("skipper: bad architecture %q (want kind:N)", s)
	}
	if kind == "grid" || kind == "torus" {
		ws, hs, ok := strings.Cut(argStr, "x")
		if !ok {
			return nil, fmt.Errorf("skipper: bad %s %q (want %s:WxH)", kind, argStr, kind)
		}
		w, err1 := strconv.Atoi(ws)
		h, err2 := strconv.Atoi(hs)
		if err1 != nil || err2 != nil || w < 1 || h < 1 {
			return nil, fmt.Errorf("skipper: bad %s size %q", kind, argStr)
		}
		if kind == "torus" {
			return Torus(w, h), nil
		}
		return Grid(w, h), nil
	}
	n, err := strconv.Atoi(argStr)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("skipper: bad processor count %q", argStr)
	}
	switch kind {
	case "ring":
		return Ring(n), nil
	case "chain":
		return Chain(n), nil
	case "star":
		return Star(n), nil
	case "full":
		return Full(n), nil
	case "hypercube":
		if n > 16 {
			return nil, fmt.Errorf("skipper: hypercube dimension %d too large", n)
		}
		return Hypercube(n), nil
	}
	return nil, fmt.Errorf("skipper: unknown topology %q", kind)
}
