package compile

import (
	"fmt"

	"skipper/internal/dsl/ast"
	"skipper/internal/dsl/parser"
	"skipper/internal/value"
)

// checkExterns refuses a name declared extern twice, and cross-checks every
// extern declaration against the registered function: the curried arity
// must match the declared arrow count, and when the registration carries its
// own signature string the two signatures must be alpha-equivalent. This
// catches the classic drift bug where the Caml spec and the C prototype
// (here: the Go registration) silently disagree.
func checkExterns(prog *ast.Program, reg *value.Registry) error {
	declared := map[string]bool{}
	for _, d := range prog.Decls {
		ext, ok := d.(*ast.DExtern)
		if !ok {
			continue
		}
		if declared[ext.Name] {
			return DuplicateExtern(ext)
		}
		declared[ext.Name] = true
		f, ok := reg.Lookup(ext.Name)
		if !ok {
			// Expansion reports unregistered externs with a position;
			// leave that to it.
			continue
		}
		declaredArity := arrowCount(ext.Sig)
		if f.Arity != declaredArity {
			return fmt.Errorf("skipper: extern %s is declared with %d argument(s) (%s) but registered with arity %d",
				ext.Name, declaredArity, ext.Sig, f.Arity)
		}
		if f.Sig == "" {
			continue
		}
		regSig, err := parser.ParseTypeExpr(f.Sig)
		if err != nil {
			return fmt.Errorf("skipper: extern %s: registered signature %q does not parse: %v",
				ext.Name, f.Sig, err)
		}
		if normalizeSig(ext.Sig) != normalizeSig(regSig) {
			return fmt.Errorf("skipper: extern %s declared as %s but registered as %s",
				ext.Name, ext.Sig, f.Sig)
		}
	}
	return nil
}

// DuplicateExtern is the diagnostic for a second declaration of an extern
// name, positioned at that declaration.
func DuplicateExtern(ext *ast.DExtern) error {
	return fmt.Errorf("%s: extern %s is declared twice", ext.Pos, ext.Name)
}

// arrowCount counts the top-level arrows of a signature (the curried arity).
func arrowCount(te ast.TypeExpr) int {
	n := 0
	for {
		arrow, ok := te.(*ast.TEArrow)
		if !ok {
			return n
		}
		n++
		te = arrow.To
	}
}

// normalizeSig renders a type expression with type variables renamed in
// order of first occurrence, giving a canonical string for alpha-equivalence
// comparison.
func normalizeSig(te ast.TypeExpr) string {
	names := map[string]string{}
	return renameVars(te, names).String()
}

func renameVars(te ast.TypeExpr, names map[string]string) ast.TypeExpr {
	switch te := te.(type) {
	case *ast.TEVar:
		n, ok := names[te.Name]
		if !ok {
			n = fmt.Sprintf("v%d", len(names))
			names[te.Name] = n
		}
		return &ast.TEVar{Name: n}
	case *ast.TECon:
		args := make([]ast.TypeExpr, len(te.Args))
		for i, a := range te.Args {
			args[i] = renameVars(a, names)
		}
		return &ast.TECon{Name: te.Name, Args: args}
	case *ast.TEArrow:
		from := renameVars(te.From, names)
		to := renameVars(te.To, names)
		return &ast.TEArrow{From: from, To: to}
	case *ast.TETuple:
		elems := make([]ast.TypeExpr, len(te.Elems))
		for i, e := range te.Elems {
			elems[i] = renameVars(e, names)
		}
		return &ast.TETuple{Elems: elems}
	}
	return te
}
