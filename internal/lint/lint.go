// Package lint is a project-specific static-analysis framework built only
// on the standard library (go/ast, go/parser, go/types, go/token,
// go/importer). It exists because this reproduction's correctness rests on
// invariants the Go compiler cannot check: all physics is carried in SI
// units, float comparisons must go through the internal/units tolerances,
// solver errors must never be silently dropped, hot paths annotated
// //oftec:hotpath must not allocate, and lock acquisition must stay
// cycle-free and balanced on every control-flow path. (Copies of the
// mutex-guarded caches are go vet's copylocks check.)
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// analysis API (Analyzer, Pass, Diagnostic) without importing it, so the
// module keeps an empty dependency graph. Beyond the per-package passes it
// provides two shared dataflow facilities: a module-wide static call graph
// (callgraph.go) and a lightweight intraprocedural CFG (cfg.go), consumed
// by module-level analyzers (Analyzer.RunModule) such as hotalloc,
// lockorder, and goroleak. cmd/oftecvet is the driver.
//
// Findings can be suppressed with a directive comment on the same line as
// the offending code or on the line immediately above it:
//
//	//lint:ignore <analyzer> <reason>
//
// A directive names one analyzer and covers its own line and the next.
// The reason is mandatory; a bare directive is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is a single finding, printed as "file:line:col: [name] msg".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical driver format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named analysis pass. Exactly one of Run (per-package)
// and RunModule (once over the whole package set, with access to the call
// graph and CFGs) must be set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// Run inspects one type-checked package and reports findings via pass.
	Run func(pass *Pass)
	// RunModule inspects the whole loaded package set at once; analyzers
	// that reason across packages (call-graph propagation, cross-package
	// lock order) use this form.
	RunModule func(pass *ModulePass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// IsFloat reports whether the expression has floating-point type
// (after unwrapping named types).
func (p *Pass) IsFloat(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// Callee resolves a call expression to the function or method object it
// invokes, or nil for indirect calls and conversions.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	return staticCallee(p.Pkg.Info, call)
}

// ModulePass carries the whole package set through one module-level
// analyzer, with lazily built shared facilities.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	fset  *token.FileSet
	graph *CallGraph
	cfgs  map[*ast.FuncDecl]*CFG
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Graph returns the module call graph, building it on first use.
func (p *ModulePass) Graph() *CallGraph {
	if p.graph == nil {
		p.graph = BuildCallGraph(p.Pkgs)
	}
	return p.graph
}

// CFGOf returns the control-flow graph of a declaration's body, memoized
// across the module analyzers of one Run.
func (p *ModulePass) CFGOf(fd *ast.FuncDecl) *CFG {
	if g, ok := p.cfgs[fd]; ok {
		return g
	}
	g := BuildCFG(fd.Body)
	p.cfgs[fd] = g
	return g
}

// ignoreKey is one (file, line, analyzer) cell a //lint:ignore
// directive suppresses.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

const ignorePrefix = "//lint:ignore"

// ignores returns the cells the //lint:ignore directives in pkgs
// suppress: each names one analyzer and covers its own line and the
// next. A directive without an analyzer and a reason is returned as a
// finding instead.
func ignores(pkgs []*Package) (map[ignoreKey]bool, []Diagnostic) {
	cells := map[ignoreKey]bool{}
	var malformed []Diagnostic
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						malformed = append(malformed, Diagnostic{
							Pos:      pos,
							Analyzer: "lint",
							Message:  "malformed //lint:ignore directive: want //lint:ignore <analyzer> <reason>",
						})
						continue
					}
					cells[ignoreKey{pos.Filename, pos.Line, fields[0]}] = true
					cells[ignoreKey{pos.Filename, pos.Line + 1, fields[0]}] = true
				}
			}
		}
	}
	return cells, malformed
}

// Run executes every analyzer over every package, applies the ignore
// directives, and returns the surviving diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	var module []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			module = append(module, a)
			continue
		}
		for _, pkg := range pkgs {
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			diags = append(diags, pass.diags...)
		}
	}

	// Module-level passes run once over the whole set, sharing one
	// lazily built call graph and CFG memo.
	if len(module) > 0 && len(pkgs) > 0 {
		var graph *CallGraph
		cfgs := map[*ast.FuncDecl]*CFG{}
		for _, a := range module {
			mp := &ModulePass{Analyzer: a, Pkgs: pkgs, fset: pkgs[0].Fset, graph: graph, cfgs: cfgs}
			a.RunModule(mp)
			graph = mp.graph // keep a lazily built graph for the next analyzer
			diags = append(diags, mp.diags...)
		}
	}

	cells, malformed := ignores(pkgs)
	diags = append(diags, malformed...)
	kept := diags[:0]
	for _, d := range diags {
		if !cells[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Dedupe identical findings (same position, analyzer, and message):
	// a module analyzer revisiting a shared declaration must not
	// double-report.
	out := kept[:0]
	for i, d := range kept {
		if i > 0 && d == kept[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmpAnalyzer,
		ErrDropAnalyzer,
		UnitSuffixAnalyzer,
		NonFiniteAnalyzer,
		BackendLeakAnalyzer,
		HotAllocAnalyzer,
		LockOrderAnalyzer,
		GoroLeakAnalyzer,
	}
}

// ByName returns the named analyzers in the order given.
func ByName(names []string) ([]*Analyzer, error) {
	out := make([]*Analyzer, 0, len(names))
next:
	for _, n := range names {
		for _, a := range All() {
			if a.Name == n {
				out = append(out, a)
				continue next
			}
		}
		return nil, fmt.Errorf("lint: unknown analyzer %q", n)
	}
	return out, nil
}
