package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// seamRule is one layering seam the leak analyzers guard: the concrete
// types of one package that consumers must not touch, the packages the
// rule applies to, and the remedy its findings name.
type seamRule struct {
	analyzer string   // analyzer name, as named in //lint:ignore hints
	pkg      string   // the guarded package's name; its import path ends in "internal/"+pkg
	types    []string // the guarded type names in that package
	scoped   []string // import-path suffixes the rule applies to; nil means every package
	exempt   []string // import-path suffixes the rule never applies to
	ident    string   // remedy for a direct type reference
	sel      string   // remedy for a member selection on a guarded value
}

// applies reports whether the rule covers the package at path.
func (r *seamRule) applies(path string) bool {
	for _, suffix := range r.exempt {
		if strings.HasSuffix(path, suffix) {
			return false
		}
	}
	if r.scoped == nil {
		return true
	}
	for _, suffix := range r.scoped {
		if strings.HasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

// guards reports whether obj is one of the rule's guarded type names.
func (r *seamRule) guards(obj types.Object) bool {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.Pkg() == nil || !strings.HasSuffix(tn.Pkg().Path(), "internal/"+r.pkg) {
		return false
	}
	for _, name := range r.types {
		if tn.Name() == name {
			return true
		}
	}
	return false
}

// run reports, inside the packages the rule applies to:
//
//   - any identifier that resolves to a guarded type (declarations,
//     conversions, type assertions, composite literals);
//   - any method call or field selection whose receiver is (a pointer to)
//     a guarded type — this catches values smuggled in through accessors,
//     interface assertions, or aliases, where no guarded identifier
//     appears. The Selections map only holds genuine member selections,
//     so qualified type names stay with the identifier rule.
func (r *seamRule) run(pass *Pass) {
	if !r.applies(pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := pass.Pkg.Info.Uses[n]
				if obj == nil {
					obj = pass.Pkg.Info.Defs[n]
				}
				if r.guards(obj) {
					pass.Reportf(n.Pos(), "direct reference to %s.%s; %s (or //lint:ignore %s with a reason)", r.pkg, obj.Name(), r.ident, r.analyzer)
				}
			case *ast.SelectorExpr:
				sel, ok := pass.Pkg.Info.Selections[n]
				if !ok {
					return true
				}
				if named := namedOf(sel.Recv()); named != nil && r.guards(named.Obj()) {
					pass.Reportf(n.Sel.Pos(), "selection %s on a %s.%s value; %s (or //lint:ignore %s with a reason)", n.Sel.Name, r.pkg, named.Obj().Name(), r.sel, r.analyzer)
				}
			}
			return true
		})
	}
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}
