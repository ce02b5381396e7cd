package lint

import (
	"go/ast"
	"go/types"
)

// ErrDropAnalyzer flags silently discarded errors.
//
// Solver and thermal-model errors carry infeasibility and runaway
// information; dropping one can turn a diverged solve into a plausible
// temperature. Two shapes are reported: assignments of an error result to
// the blank identifier (`_ = f()`, `v, _ := g()`), and error-returning
// calls used as bare statements (including defer/go). Calls whose errors
// are documented never to occur are allowlisted: the fmt print family,
// the Write* methods of strings.Builder and bytes.Buffer, and Write on a
// hash.Hash. Intentional drops — such as the restore-on-defer idiom in
// internal/controller — must be annotated with //lint:ignore errdrop
// <reason>.
var ErrDropAnalyzer = &Analyzer{
	Name: "errdrop",
	Doc:  "flags discarded error results (blank assignment or bare call statement)",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkErrAssign(pass, n)
			case *ast.ExprStmt:
				checkErrCallStmt(pass, n.X)
			case *ast.DeferStmt:
				checkErrCallStmt(pass, n.Call)
			case *ast.GoStmt:
				checkErrCallStmt(pass, n.Call)
			}
			return true
		})
	}
}

var errType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errType)
}

// checkErrAssign flags blank identifiers bound to error values.
func checkErrAssign(pass *Pass, n *ast.AssignStmt) {
	// Multi-value form: lhs... = f() with a tuple-returning call.
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := pass.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(n.Lhs) {
			return
		}
		for i, lhs := range n.Lhs {
			if isBlank(lhs) && isErrorType(tuple.At(i).Type()) {
				pass.Reportf(lhs.Pos(), "error result of %s discarded with _", callName(pass, call))
			}
		}
		return
	}
	// One-to-one form: _ = expr.
	for i, lhs := range n.Lhs {
		if i >= len(n.Rhs) || !isBlank(lhs) {
			continue
		}
		rhs := n.Rhs[i]
		if isErrorType(pass.TypeOf(rhs)) {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && allowlisted(pass, call) {
				continue
			}
			pass.Reportf(lhs.Pos(), "error value discarded with _")
		}
	}
}

// checkErrCallStmt flags a statement-position call that returns an error.
func checkErrCallStmt(pass *Pass, e ast.Expr) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	var returnsErr bool
	switch t := pass.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				returnsErr = true
			}
		}
	default:
		returnsErr = isErrorType(t)
	}
	if !returnsErr || allowlisted(pass, call) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s discards its error result", callName(pass, call))
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func callName(pass *Pass, call *ast.CallExpr) string {
	if fn := pass.Callee(call); fn != nil {
		return fn.Name()
	}
	return "function"
}

// allowlisted reports whether the call's error is documented never to
// occur, so a bare statement is fine.
func allowlisted(pass *Pass, call *ast.CallExpr) bool {
	fn := pass.Callee(call)
	if fn == nil {
		return false
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	// hash.Hash writes never fail. The callee is io.Writer's Write, so
	// the receiver expression's static type is what names the hash.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && fn.Name() == "Write" {
		named, ok := pass.TypeOf(sel.X).(*types.Named)
		if ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "hash" {
			return true
		}
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		// strings.Builder and bytes.Buffer writes never fail.
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil {
				full := obj.Pkg().Path() + "." + obj.Name()
				if full == "strings.Builder" || full == "bytes.Buffer" {
					return true
				}
			}
		}
		return false
	}
	// The fmt print family: terminal writes are best-effort everywhere
	// this repo uses them.
	if pkg.Path() == "fmt" {
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	}
	return false
}
