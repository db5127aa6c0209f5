// Package compile is the compiler chain of the paper's Fig. 2, written once:
// a specification is parsed, type-checked, checked against the registry of
// sequential functions, skeleton-expanded into a process graph and mapped
// onto an architecture as a static schedule. The library entry points
// (skipper.Compile, Program.MapOnto), the deployment layer (Job.Compile),
// the experiments and the toplevel's :graph all compile through it.
package compile

import (
	"fmt"

	"skipper/internal/arch"
	"skipper/internal/dsl/ast"
	"skipper/internal/dsl/parser"
	"skipper/internal/dsl/types"
	"skipper/internal/expand"
	"skipper/internal/syndex"
	"skipper/internal/value"
)

// Program is a specification through the front half of the chain: parsed,
// type-checked, checked against its registry and expanded. The embedded
// expansion result carries the process graph (Graph, Stream) or, for a
// program that folded to a constant, its value (ConstFolded, MainConst).
type Program struct {
	AST   *ast.Program
	Types *types.Info
	Reg   *value.Registry
	*expand.Result
}

// Source parses src and compiles it with Parsed.
func Source(src string, reg *value.Registry) (*Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return Parsed(prog, reg)
}

// Parsed type-checks an already-parsed program, checks its extern
// declarations against reg (checkExterns) and expands it into a process
// graph.
func Parsed(prog *ast.Program, reg *value.Registry) (*Program, error) {
	info, err := types.Check(prog)
	if err != nil {
		return nil, err
	}
	if err := checkExterns(prog, reg); err != nil {
		return nil, err
	}
	res, err := expand.Expand(prog, info, reg)
	if err != nil {
		return nil, err
	}
	return &Program{AST: prog, Types: info, Reg: reg, Result: res}, nil
}

// Map distributes and schedules the program's graph on a. A program whose
// main folded to a constant has no graph to deploy and is refused.
func (p *Program) Map(a *arch.Arch, strat syndex.Strategy) (*syndex.Schedule, error) {
	if p.ConstFolded {
		return nil, fmt.Errorf("skipper: program folded to the constant %s; nothing to deploy",
			value.Show(p.MainConst))
	}
	return syndex.Map(p.Graph, a, p.Reg, strat)
}

// Schedule runs the whole chain: src to its schedule on a.
func Schedule(src string, reg *value.Registry, a *arch.Arch, strat syndex.Strategy) (*syndex.Schedule, error) {
	p, err := Source(src, reg)
	if err != nil {
		return nil, err
	}
	return p.Map(a, strat)
}
