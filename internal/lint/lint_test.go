package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureCases maps each fixture package to the analyzers run over it and
// the golden file holding the expected diagnostics. Negative cases live in
// the same fixtures: anything not in the golden file must not be reported.
var fixtureCases = []struct {
	name       string // directory under testdata/src and golden basename
	importPath string // simulated position in the module
	analyzers  []string
}{
	{"floatcmp", "fixture/floatcmp", []string{"floatcmp"}},
	{"errdrop", "fixture/errdrop", []string{"errdrop"}},
	{"unitsuffix", "fixture/unitsuffix", []string{"unitsuffix"}},
	// nonfinite only analyzes the numeric-kernel packages, so the fixture
	// is loaded as if it were internal/solver.
	{"nonfinite", "oftec/internal/solver", []string{"nonfinite"}},
	{"ignore", "fixture/ignore", []string{"floatcmp", "errdrop"}},
	{"hotalloc", "fixture/hotalloc", []string{"hotalloc"}},
	{"lockorder", "fixture/lockorder", []string{"lockorder"}},
	{"goroleak", "fixture/goroleak", []string{"goroleak"}},
}

// runFixture loads a fixture package and returns its diagnostics rendered
// with paths relative to the fixture directory.
func runFixture(t *testing.T, name, importPath string, analyzerNames []string) []string {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	analyzers, err := ByName(analyzerNames)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, d := range Run([]*Package{pkg}, analyzers) {
		d.Pos.Filename = filepath.Base(d.Pos.Filename)
		lines = append(lines, d.String())
	}
	return lines
}

func TestGolden(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.name, func(t *testing.T) {
			got := strings.Join(runFixture(t, tc.name, tc.importPath, tc.analyzers), "\n") + "\n"
			goldenPath := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden file (run go test ./internal/lint -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
			// Every fixture must exercise at least one positive case.
			if strings.TrimSpace(got) == "" {
				t.Errorf("fixture %s produced no diagnostics; positives are missing", tc.name)
			}
		})
	}
}

// TestPathExemptions checks the package-scoped negative cases: analyzers
// that stand down inside internal/units, and nonfinite standing down
// outside the numeric kernel.
func TestPathExemptions(t *testing.T) {
	cases := []struct {
		fixture    string
		importPath string
		analyzers  []string
	}{
		{"floatcmp", "oftec/internal/units", []string{"floatcmp"}},
		{"unitsuffix", "oftec/internal/units", []string{"unitsuffix"}},
		{"nonfinite", "fixture/nonfinite", []string{"nonfinite"}},
	}
	for _, tc := range cases {
		if got := runFixture(t, tc.fixture, tc.importPath, tc.analyzers); len(got) != 0 {
			t.Errorf("%s loaded as %s: want no diagnostics, got:\n%s",
				tc.fixture, tc.importPath, strings.Join(got, "\n"))
		}
	}
}

func TestByName(t *testing.T) {
	as, err := ByName([]string{"errdrop", "floatcmp"})
	if err != nil || len(as) != 2 || as[0].Name != "errdrop" || as[1].Name != "floatcmp" {
		t.Errorf("ByName = %v, %v", as, err)
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Error("ByName(nope) should fail")
	}
	// A directive names one analyzer, so a comma list is no name.
	if _, err := ByName([]string{"errdrop,floatcmp"}); err == nil {
		t.Error("ByName(errdrop,floatcmp) should fail")
	}
}

func TestAllHaveDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v incomplete", a)
		}
		// Exactly one execution form: per-package or module-level.
		if (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %s must set exactly one of Run and RunModule", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) != 8 {
		t.Errorf("expected the 8 analyzers of the suite, got %d", len(seen))
	}
}

// TestBackendLeakGolden exercises the backendleak analyzer against its
// fixture, which is a miniature module (own go.mod, fake internal/thermal
// and internal/backend packages) rather than a single directory: the
// analyzer keys on cross-package type identity, so the fixture needs the
// Model type defined in a package whose import path ends in
// internal/thermal and referenced from one ending in internal/core.
func TestBackendLeakGolden(t *testing.T) {
	root := filepath.Join("testdata", "src", "backendleak")
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", root, err)
	}
	analyzers, err := ByName([]string{"backendleak"})
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, d := range Run(pkgs, analyzers) {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		lines = append(lines, d.String())
	}
	got := strings.Join(lines, "\n") + "\n"
	goldenPath := filepath.Join("testdata", "backendleak.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run go test ./internal/lint -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if strings.TrimSpace(got) == "" {
		t.Error("fixture produced no diagnostics; positives are missing")
	}
	// The unscoped fixture packages (thermal, backend) reference Model
	// throughout and must contribute nothing.
	for _, l := range lines {
		if !strings.HasPrefix(l, "internal/core/") {
			t.Errorf("diagnostic outside the scoped package: %s", l)
		}
	}
}

// TestModuleIsClean loads the real module and runs the full suite: the
// repository itself must stay finding-free, so this is the regression
// gate behind `go run ./cmd/oftecvet ./...` exiting zero.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root := filepath.Join("..", "..")
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found: %v", err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("suspiciously few packages loaded: %d", len(pkgs))
	}
	var found []string
	for _, p := range pkgs {
		found = append(found, p.Path)
	}
	for _, want := range []string{"oftec/internal/units", "oftec/internal/core", "oftec/cmd/oftecvet"} {
		ok := false
		for _, p := range found {
			if p == want {
				ok = true
			}
		}
		if !ok {
			t.Errorf("LoadModule missed %s (got %v)", want, found)
		}
	}
	if diags := Run(pkgs, All()); len(diags) != 0 {
		var sb strings.Builder
		for _, d := range diags {
			sb.WriteString(d.String())
			sb.WriteString("\n")
		}
		t.Errorf("module has lint findings:\n%s", sb.String())
	}
}
