// Command oftecvet runs the project's static-analysis suite (internal/lint)
// over the module: floatcmp, errdrop, unitsuffix, nonfinite, ctxleak,
// backendleak, fanleak, hotalloc, lockorder, and goroleak. It is
// stdlib-only and meant to gate CI next to go vet, whose copylocks check
// covers mutex-bearing structs passed by value:
//
//	go run ./cmd/oftecvet ./...
//
// Arguments are package patterns relative to the module root: "./..."
// (or no argument) selects every package; "./internal/solver/..." selects
// a subtree; "./internal/solver" selects one package. Test files are not
// analyzed. Exit status: 0 clean, 1 findings (or baseline drift), 2 usage
// or load error.
//
// Flags:
//
//	-analyzers a,b   run a subset; repeatable, entries may be comma lists
//	-json            emit findings as a JSON array (baseline file format)
//	-baseline FILE   suppress findings recorded in FILE; fail on drift
//	                 (new findings, or stale entries that no longer occur)
//	-write-baseline FILE
//	                 snapshot current findings into FILE and exit 0
//	-stats           print per-analyzer wall time and finding counts
//	-workers N       package-parallel analysis width (0 = GOMAXPROCS)
//	-dir DIR         analyze one directory as a single package
//	-list            list analyzers and exit
//
// Findings are suppressed in source with a trailing or preceding-line
// comment (multi-line statements are covered over their whole extent):
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"oftec/internal/lint"
)

// analyzerList implements flag.Value so -analyzers is repeatable; each
// occurrence may itself be a comma-separated list (lint.ByName splits).
type analyzerList []string

func (l *analyzerList) String() string { return strings.Join(*l, ",") }

func (l *analyzerList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var analyzerFlags analyzerList
	flag.Var(&analyzerFlags, "analyzers", "analyzer subset (repeatable; entries may be comma-separated)")
	dirFlag := flag.String("dir", "", "analyze a single directory as one package instead of the module (e.g. a lint fixture)")
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	jsonFlag := flag.Bool("json", false, "emit findings as a JSON array instead of go-vet lines")
	baselineFlag := flag.String("baseline", "", "baseline file: suppress recorded findings, fail on drift")
	writeBaselineFlag := flag.String("write-baseline", "", "write current findings to this baseline file and exit")
	statsFlag := flag.Bool("stats", false, "print per-analyzer wall time and finding counts to stderr")
	workersFlag := flag.Int("workers", 0, "package-parallel analysis width (0 selects GOMAXPROCS)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: oftecvet [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listFlag {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *baselineFlag != "" && *writeBaselineFlag != "" {
		fmt.Fprintln(os.Stderr, "oftecvet: -baseline and -write-baseline are mutually exclusive")
		return 2
	}

	analyzers := lint.All()
	if len(analyzerFlags) > 0 {
		var err error
		analyzers, err = lint.ByName(analyzerFlags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oftecvet:", err)
			return 2
		}
	}

	root := ""
	var selected []*lint.Package
	if *dirFlag != "" {
		// Single-directory mode: analyze one package (stdlib imports
		// only), e.g. a fixture under internal/lint/testdata.
		pkg, err := lint.LoadDir(*dirFlag, "fixture/"+filepath.Base(*dirFlag))
		if err != nil {
			fmt.Fprintln(os.Stderr, "oftecvet:", err)
			return 2
		}
		selected = []*lint.Package{pkg}
	} else {
		var err error
		root, err = moduleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "oftecvet:", err)
			return 2
		}
		pkgs, err := lint.LoadModule(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oftecvet:", err)
			return 2
		}

		patterns := flag.Args()
		if len(patterns) == 0 {
			patterns = []string{"./..."}
		}
		modPath, err := lint.ModulePath(root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oftecvet:", err)
			return 2
		}
		for _, p := range pkgs {
			if matchesAny(p.Path, modPath, patterns) {
				selected = append(selected, p)
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(os.Stderr, "oftecvet: no packages match %v\n", patterns)
			return 2
		}
	}

	diags, timings := lint.RunTimed(selected, analyzers, *workersFlag)
	if *statsFlag {
		printStats(timings)
	}

	// Normalize paths once: module-root-relative slash paths when the
	// module root is known (stable across checkouts, used for baselines),
	// otherwise working-directory-relative like go vet.
	norm := normalizer(root)
	entries := lint.ToBaseline(diags, norm)

	if *writeBaselineFlag != "" {
		data, err := lint.MarshalBaseline(entries)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oftecvet:", err)
			return 2
		}
		if err := os.WriteFile(*writeBaselineFlag, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "oftecvet:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "oftecvet: wrote %d finding(s) to %s\n", len(entries), *writeBaselineFlag)
		return 0
	}

	if *baselineFlag != "" {
		data, err := os.ReadFile(*baselineFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oftecvet:", err)
			return 2
		}
		base, err := lint.UnmarshalBaseline(data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oftecvet:", err)
			return 2
		}
		fresh, stale := lint.DiffBaseline(entries, base)
		emit(fresh, *jsonFlag)
		for _, e := range stale {
			fmt.Fprintf(os.Stderr, "oftecvet: baseline entry no longer occurs (remove it): %s: [%s] %s\n", e.File, e.Analyzer, e.Message)
		}
		if len(fresh) > 0 || len(stale) > 0 {
			fmt.Fprintf(os.Stderr, "oftecvet: baseline drift: %d new, %d stale\n", len(fresh), len(stale))
			return 1
		}
		return 0
	}

	emit(entries, *jsonFlag)
	if len(entries) > 0 {
		fmt.Fprintf(os.Stderr, "oftecvet: %d finding(s)\n", len(entries))
		return 1
	}
	return 0
}

// emit prints findings either as go-vet-style lines or as the JSON
// baseline format ("[]\n" when clean, so -json output always parses).
func emit(entries []lint.BaselineEntry, asJSON bool) {
	if asJSON {
		data, err := lint.MarshalBaseline(entries)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oftecvet:", err)
			return
		}
		//lint:ignore errdrop best-effort stdout write, same contract as the fmt prints below
		os.Stdout.Write(data)
		return
	}
	for _, e := range entries {
		fmt.Printf("%s:%d:%d: [%s] %s\n", e.File, e.Line, e.Col, e.Analyzer, e.Message)
	}
}

// printStats renders the per-analyzer timing table, slowest first.
func printStats(timings []lint.Timing) {
	sorted := append([]lint.Timing(nil), timings...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Duration > sorted[j].Duration })
	fmt.Fprintf(os.Stderr, "%-12s %12s %9s\n", "analyzer", "wall", "findings")
	for _, t := range sorted {
		fmt.Fprintf(os.Stderr, "%-12s %12s %9d\n", t.Analyzer, t.Duration.Round(10_000), t.Findings)
	}
}

// normalizer returns the path normalization for diagnostics: module-root
// relative when root is known, else working-directory relative.
func normalizer(root string) func(string) string {
	if root != "" {
		return func(p string) string {
			if rel, err := filepath.Rel(root, p); err == nil && !strings.HasPrefix(rel, "..") {
				return filepath.ToSlash(rel)
			}
			return filepath.ToSlash(p)
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		return func(p string) string { return p }
	}
	return func(p string) string {
		if rel, err := filepath.Rel(cwd, p); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return p
	}
}

// moduleRoot walks up from the working directory to the nearest go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// matchesAny reports whether import path ip matches any go-style package
// pattern ("./...", "./internal/solver", "oftec/internal/...").
func matchesAny(ip, modPath string, patterns []string) bool {
	for _, pat := range patterns {
		pat = strings.TrimSuffix(pat, "/")
		// Normalize "./x" forms against the module path.
		if pat == "." || pat == "./..." {
			return true
		}
		if rest, ok := strings.CutPrefix(pat, "./"); ok {
			pat = modPath + "/" + rest
		}
		if suffix, ok := strings.CutSuffix(pat, "/..."); ok {
			if ip == suffix || strings.HasPrefix(ip, suffix+"/") {
				return true
			}
			continue
		}
		if ip == pat {
			return true
		}
	}
	return false
}
