// Package repl implements an interactive toplevel for the SKiPPER
// specification language, in the spirit of the Caml toplevel the paper's
// workflow revolves around: declarations accumulate, expressions are
// type-checked and evaluated immediately against the declarative skeleton
// semantics, and the process graph of the current program can be inspected
// at any point.
//
// Extern declarations are stubbed automatically (like skipperc), so the
// toplevel is self-contained; applications embedding the REPL can supply a
// real registry instead.
package repl

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"skipper/internal/compile"
	"skipper/internal/dsl/ast"
	"skipper/internal/dsl/eval"
	"skipper/internal/dsl/parser"
	"skipper/internal/dsl/types"
	"skipper/internal/stubreg"
	"skipper/internal/value"
)

// Session is an interactive toplevel session.
type Session struct {
	decls []ast.Decl
	reg   *value.Registry
	// externReg tracks stubbed externs so re-checking the accumulated
	// program keeps working.
	out io.Writer
	// Iters bounds itermem emulation runs triggered from the REPL.
	Iters int
}

// New returns a session writing results to out. reg may be nil, in which
// case externs are stubbed automatically as they are declared.
func New(out io.Writer, reg *value.Registry) *Session {
	if reg == nil {
		reg = value.NewRegistry()
	}
	return &Session{out: out, reg: reg, Iters: 3}
}

// program returns the accumulated declarations as a Program.
func (s *Session) program() *ast.Program {
	return &ast.Program{Decls: append([]ast.Decl{}, s.decls...)}
}

// Eval processes one complete input (ending in ";;" for program text, or a
// ":" command) and writes the response. It returns false when the session
// should end.
func (s *Session) Eval(input string) bool {
	input = strings.TrimSpace(input)
	switch {
	case input == "":
		return true
	case strings.HasPrefix(input, ":"):
		return s.command(input)
	}
	if err := s.evalProgramText(input); err != nil {
		fmt.Fprintf(s.out, "error: %v\n", err)
	}
	return true
}

func (s *Session) command(input string) bool {
	cmd, arg, _ := strings.Cut(strings.TrimSpace(input), " ")
	arg = strings.TrimSpace(arg)
	switch cmd {
	case ":quit", ":q":
		return false
	case ":help", ":h":
		fmt.Fprint(s.out, `commands:
  <decl>;;        add a declaration (let / type / extern)
  <expr>;;        evaluate an expression (bound to "it")
  :type <expr>    show an expression's inferred type
  :graph          show the process graph of the current main (DOT)
  :list           list accumulated declarations
  :reset          drop all declarations
  :quit           leave the toplevel
`)
	case ":list":
		for _, d := range s.decls {
			fmt.Fprintln(s.out, d.String())
		}
	case ":reset":
		s.decls = nil
		fmt.Fprintln(s.out, "session cleared")
	case ":type":
		if err := s.showType(arg); err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
		}
	case ":graph":
		if err := s.showGraph(); err != nil {
			fmt.Fprintf(s.out, "error: %v\n", err)
		}
	default:
		fmt.Fprintf(s.out, "unknown command %s (:help for help)\n", cmd)
	}
	return true
}

// evalProgramText parses input either as declarations or, failing that, as
// an expression bound to "it".
func (s *Session) evalProgramText(input string) error {
	if !strings.HasSuffix(input, ";;") {
		input += ";;"
	}
	prog, declErr := parser.Parse(input)
	if declErr != nil {
		// Retry as an expression.
		exprSrc := "let it = (" + strings.TrimSuffix(input, ";;") + ");;"
		prog2, exprErr := parser.Parse(exprSrc)
		if exprErr != nil {
			return declErr
		}
		prog = prog2
	}
	// Tentatively extend the session and type-check the whole program.
	candidate := append(append([]ast.Decl{}, s.decls...), prog.Decls...)
	full := &ast.Program{Decls: candidate}
	info, err := types.Check(full)
	if err != nil {
		return err
	}
	// Stub any newly declared externs.
	for _, d := range prog.Decls {
		if ext, ok := d.(*ast.DExtern); ok {
			s.ensureStub(ext)
		}
	}
	// Evaluate and report the new bindings.
	em := eval.New(s.reg, eval.Options{MaxIters: s.Iters})
	results, err := em.Run(full)
	if err != nil {
		return err
	}
	s.decls = candidate
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *ast.DType:
			fmt.Fprintf(s.out, "type %s\n", d.Name)
		case *ast.DExtern:
			fmt.Fprintf(s.out, "extern %s : %s (stubbed)\n", d.Name, d.Sig)
		case *ast.DLet:
			if d.Name == "_" {
				continue
			}
			sch := info.Types[d.Name]
			ty := "?"
			if sch != nil {
				ty = sch.String()
			}
			fmt.Fprintf(s.out, "val %s : %s = %s\n", d.Name, ty, value.Show(results[d.Name]))
		}
	}
	return nil
}

// ensureStub registers a type-directed placeholder for a declared extern
// if absent.
func (s *Session) ensureStub(ext *ast.DExtern) {
	if _, ok := s.reg.Lookup(ext.Name); ok {
		return
	}
	s.reg.Register(stubreg.FuncFor(ext))
}

func (s *Session) showType(exprSrc string) error {
	if exprSrc == "" {
		return fmt.Errorf(":type needs an expression")
	}
	src := "let it = (" + exprSrc + ");;"
	prog, err := parser.Parse(src)
	if err != nil {
		return err
	}
	full := &ast.Program{Decls: append(append([]ast.Decl{}, s.decls...), prog.Decls...)}
	info, err := types.Check(full)
	if err != nil {
		return err
	}
	fmt.Fprintf(s.out, "%s : %s\n", exprSrc, info.Types["it"])
	return nil
}

func (s *Session) showGraph() error {
	p, err := compile.Parsed(s.program(), s.reg)
	if err != nil {
		return err
	}
	if p.ConstFolded {
		fmt.Fprintf(s.out, "main folds to the constant %s\n", value.Show(p.MainConst))
		return nil
	}
	fmt.Fprint(s.out, p.Graph.DOT("repl"))
	return nil
}

// Run drives a session over a reader, accumulating lines until a complete
// input (";;" or a ":" command) is available. It is the main loop of the
// skipper-top binary.
func Run(in io.Reader, out io.Writer, banner bool) error {
	s := New(out, nil)
	if banner {
		fmt.Fprintln(out, "SKiPPER toplevel — :help for commands, :quit to exit")
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if banner {
			if pending.Len() == 0 {
				fmt.Fprint(out, "# ")
			} else {
				fmt.Fprint(out, "  ")
			}
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, ":") {
			if !s.Eval(trimmed) {
				return nil
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if strings.Contains(line, ";;") {
			input := pending.String()
			pending.Reset()
			if !s.Eval(input) {
				return nil
			}
		}
		prompt()
	}
	return sc.Err()
}
