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
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// A directive placed above (or trailing the first line of) a statement
// that spans multiple lines suppresses matching findings over the full
// statement extent, not just the first line. The reason is mandatory; a
// bare directive is itself reported.
package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"

	"oftec/internal/parallel"
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

// ModulePass carries the whole deduplicated package set through one
// module-level analyzer, with lazily built shared facilities.
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
// across analyzers sharing this pass's underlying run.
func (p *ModulePass) CFGOf(fd *ast.FuncDecl) *CFG {
	if g, ok := p.cfgs[fd]; ok {
		return g
	}
	g := BuildCFG(fd.Body)
	p.cfgs[fd] = g
	return g
}

// Timing is one analyzer's aggregate cost over a Run, for the driver's
// -stats output and the bench trajectory.
type Timing struct {
	Analyzer string
	Duration time.Duration
	Findings int
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool // analyzer names, or {"all": true}
	hasReason bool
}

const ignorePrefix = "//lint:ignore"

// parseIgnores extracts every //lint:ignore directive from a file.
func parseIgnores(fset *token.FileSet, f *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			fields := strings.Fields(rest)
			d := ignoreDirective{pos: fset.Position(c.Pos()), analyzers: map[string]bool{}}
			if len(fields) > 0 {
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						d.analyzers[name] = true
					}
				}
				d.hasReason = len(fields) > 1
			}
			out = append(out, d)
		}
	}
	return out
}

// stmtExtents maps, for one file, the starting line of every suppressible
// statement-like node to the last line it spans. A //lint:ignore directive
// associated with a multi-line statement (standalone above it, or trailing
// its first line) suppresses findings over the whole extent — a finding
// reported at a wrapped argument's line is still the same statement.
// Block-bearing control statements (if/for/switch/select) contribute only
// their header line, so a directive above an if cannot blanket its body.
func stmtExtents(fset *token.FileSet, f *ast.File) map[int]int {
	extents := map[int]int{}
	record := func(n ast.Node) {
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		if end > extents[start] {
			extents[start] = end
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.GoStmt,
			*ast.DeferStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt,
			*ast.ValueSpec, *ast.Field:
			record(n)
		case *ast.GenDecl:
			record(n)
		}
		return true
	})
	return extents
}

// ignoreRange is one directive's resolved suppression interval.
type ignoreRange struct {
	file      string
	from, to  int
	analyzers map[string]bool
}

// Run executes every analyzer over every package, applies the ignore
// directives, and returns the surviving diagnostics sorted by position.
// Packages are analyzed in parallel (one worker per CPU).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := RunTimed(pkgs, analyzers, 0)
	return diags
}

// RunTimed is Run with an explicit worker count for the package-parallel
// phase (0 selects GOMAXPROCS, 1 forces serial) and per-analyzer timing
// stats. Output is deterministic regardless of workers: diagnostics are
// collected per package index and sorted at the end.
func RunTimed(pkgs []*Package, analyzers []*Analyzer, workers int) ([]Diagnostic, []Timing) {
	// Dedupe packages the loader (or a driver combining loaders) handed
	// in twice: analyzing the same import path again can only duplicate
	// every diagnostic.
	seen := map[string]bool{}
	uniq := pkgs[:0:0]
	for _, p := range pkgs {
		if seen[p.Path] {
			continue
		}
		seen[p.Path] = true
		uniq = append(uniq, p)
	}
	pkgs = uniq

	var perPkg, module []*Analyzer
	for _, a := range analyzers {
		if a.RunModule != nil {
			module = append(module, a)
		} else {
			perPkg = append(perPkg, a)
		}
	}

	timings := make([]Timing, len(analyzers))
	for i, a := range analyzers {
		timings[i].Analyzer = a.Name
	}
	timingIdx := map[string]int{}
	for i, a := range analyzers {
		timingIdx[a.Name] = i
	}

	// Per-package passes fan out over the package axis; each (package,
	// analyzer) pair owns a private diagnostic slice, so the only shared
	// write is the timing accumulation below.
	type cell struct {
		diags []Diagnostic
		cost  []time.Duration
	}
	cells := make([]cell, len(pkgs))
	// Analysis is pure CPU over immutable type-checked packages; ForEach
	// with a background context cannot be cancelled, and the per-index
	// error below is always nil.
	//lint:ignore errdrop uncancellable pure-CPU fanout whose cells never return an error
	_ = parallel.ForEach(context.Background(), len(pkgs), workers, func(i int) error {
		c := &cells[i]
		c.cost = make([]time.Duration, len(perPkg))
		for j, a := range perPkg {
			start := time.Now()
			pass := &Pass{Analyzer: a, Pkg: pkgs[i]}
			a.Run(pass)
			c.cost[j] = time.Since(start)
			c.diags = append(c.diags, pass.diags...)
		}
		return nil
	})

	var diags []Diagnostic
	for i := range cells {
		diags = append(diags, cells[i].diags...)
		for j, a := range perPkg {
			timings[timingIdx[a.Name]].Duration += cells[i].cost[j]
		}
	}

	// Module-level passes run once over the deduplicated set, sharing one
	// lazily built call graph and CFG memo.
	if len(module) > 0 && len(pkgs) > 0 {
		shared := &ModulePass{
			Pkgs: pkgs,
			fset: pkgs[0].Fset,
			cfgs: map[*ast.FuncDecl]*CFG{},
		}
		for _, a := range module {
			start := time.Now()
			mp := &ModulePass{
				Analyzer: a,
				Pkgs:     shared.Pkgs,
				fset:     shared.fset,
				graph:    shared.graph,
				cfgs:     shared.cfgs,
			}
			a.RunModule(mp)
			shared.graph = mp.graph // keep a lazily built graph for the next analyzer
			timings[timingIdx[a.Name]].Duration += time.Since(start)
			diags = append(diags, mp.diags...)
		}
	}

	// Collect directives and resolve each to its suppression interval.
	var ranges []ignoreRange
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			dirs := parseIgnores(pkg.Fset, f)
			if len(dirs) == 0 {
				continue
			}
			extents := stmtExtents(pkg.Fset, f)
			for _, d := range dirs {
				if !d.hasReason || len(d.analyzers) == 0 {
					diags = append(diags, Diagnostic{
						Pos:      d.pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore directive: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				line := d.pos.Line
				to := line + 1
				// Trailing a multi-line statement's first line, or
				// standalone above one: cover the full extent.
				if end, ok := extents[line]; ok && end > to {
					to = end
				}
				if end, ok := extents[line+1]; ok && end > to {
					to = end
				}
				ranges = append(ranges, ignoreRange{
					file:      d.pos.Filename,
					from:      line,
					to:        to,
					analyzers: d.analyzers,
				})
			}
		}
	}

	suppressed := func(d Diagnostic) bool {
		for _, r := range ranges {
			if d.Pos.Filename != r.file || d.Pos.Line < r.from || d.Pos.Line > r.to {
				continue
			}
			if r.analyzers[d.Analyzer] || r.analyzers["all"] {
				return true
			}
		}
		return false
	}

	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(d) {
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
	// Dedupe identical findings (same position, analyzer, and message) —
	// a module analyzer revisiting a shared declaration, or overlapping
	// loader inputs, must not double-report.
	out := kept[:0]
	for i, d := range kept {
		if i > 0 && d == kept[i-1] {
			continue
		}
		out = append(out, d)
	}
	for i := range timings {
		name := timings[i].Analyzer
		for _, d := range out {
			if d.Analyzer == name {
				timings[i].Findings++
			}
		}
	}
	return out, timings
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmpAnalyzer,
		ErrDropAnalyzer,
		UnitSuffixAnalyzer,
		NonFiniteAnalyzer,
		CtxLeakAnalyzer,
		BackendLeakAnalyzer,
		FanLeakAnalyzer,
		HotAllocAnalyzer,
		LockOrderAnalyzer,
		GoroLeakAnalyzer,
	}
}

// ByName returns the named analyzers in the order given. Each entry may
// itself be a comma-separated list ("hotalloc,lockorder"), so drivers can
// accept both repeated flags and one packed flag; duplicates collapse to
// their first occurrence.
func ByName(names []string) ([]*Analyzer, error) {
	index := map[string]*Analyzer{}
	for _, a := range All() {
		index[a.Name] = a
	}
	var out []*Analyzer
	picked := map[string]bool{}
	for _, entry := range names {
		for _, n := range strings.Split(entry, ",") {
			n = strings.TrimSpace(n)
			if n == "" {
				continue
			}
			a, ok := index[n]
			if !ok {
				return nil, fmt.Errorf("lint: unknown analyzer %q", n)
			}
			if picked[n] {
				continue
			}
			picked[n] = true
			out = append(out, a)
		}
	}
	return out, nil
}
