// Package stubreg builds placeholder implementations for extern
// declarations from their type signatures: arity is the number of
// top-level arrows, and the returned value is the declared result type's
// default (0, false, empty list, tuple of defaults, or an opaque token for
// abstract types). Type-directed defaults keep stub-driven emulation
// well-typed, so specifications can be explored in the toplevel before any
// real sequential function exists.
package stubreg

import (
	"skipper/internal/compile"
	"skipper/internal/dsl/ast"
	"skipper/internal/value"
)

// FuncFor builds the stub for one extern declaration.
func FuncFor(ext *ast.DExtern) *value.Func {
	arity := 0
	result := ext.Sig
	for {
		arrow, ok := result.(*ast.TEArrow)
		if !ok {
			break
		}
		arity++
		result = arrow.To
	}
	name := ext.Name
	def := DefaultFor(result, name)
	return &value.Func{
		Name:  name,
		Sig:   ext.Sig.String(),
		Arity: arity,
		Fn:    func([]value.Value) value.Value { return def },
	}
}

// DefaultFor returns the default value of a surface type: zero for base
// types, empty for lists, component-wise for tuples, and an opaque
// "<name>" token for abstract types, type variables and functions.
func DefaultFor(te ast.TypeExpr, name string) value.Value {
	switch te := te.(type) {
	case *ast.TECon:
		switch te.Name {
		case "int":
			return 0
		case "float":
			return 0.0
		case "bool":
			return false
		case "string":
			return ""
		case "unit":
			return value.Unit{}
		case "list":
			return value.List{}
		default: // abstract type
			return "<" + name + ">"
		}
	case *ast.TETuple:
		out := make(value.Tuple, len(te.Elems))
		for i, e := range te.Elems {
			out[i] = DefaultFor(e, name)
		}
		return out
	default: // type variables, function types
		return "<" + name + ">"
	}
}

// Registry stubs every extern in a parsed program. A name declared extern
// twice is an error, positioned at the second declaration.
func Registry(prog *ast.Program) (*value.Registry, error) {
	reg := value.NewRegistry()
	for _, d := range prog.Decls {
		if ext, ok := d.(*ast.DExtern); ok {
			if _, dup := reg.Lookup(ext.Name); dup {
				return nil, compile.DuplicateExtern(ext)
			}
			reg.Register(FuncFor(ext))
		}
	}
	return reg, nil
}
