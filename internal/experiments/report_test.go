package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunReportAndMarkdown(t *testing.T) {
	// Two benchmarks keep the full-report test affordable while covering
	// both the mild and the hot regime.
	s := fastSubset(t, "Basicmath", "Quicksort")
	report, err := RunReport(s, "Basicmath")
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Opt2) != 6 || len(report.Opt1) != 6 {
		t.Fatalf("series sizes: opt2=%d opt1=%d", len(report.Opt2), len(report.Opt1))
	}
	if len(report.TECOnly) != 2 || len(report.Table2) != 2 || len(report.Solvers) != 6 {
		t.Fatalf("section sizes: teconly=%d table2=%d solvers=%d",
			len(report.TECOnly), len(report.Table2), len(report.Solvers))
	}

	var buf bytes.Buffer
	if err := report.WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	md := buf.String()
	for _, want := range []string{
		"# OFTEC reproduction report",
		"## Figure 6(c)/(d)",
		"## Figure 6(e)/(f)",
		"## Table 2",
		"## TEC-only system",
		"## Solver comparison on Basicmath",
		"| adjoint |",
		"∇-evaluations",
		"## Aggregate claims",
		"| Quicksort | OFTEC |",
		"runaway",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Runaway rows must render as text, never as Inf.
	if strings.Contains(md, "Inf") || strings.Contains(md, "inf |") {
		t.Error("markdown leaked an Inf value")
	}
	// TEC-only counts must match the benchmark count.
	if !strings.Contains(md, "Thermal runaway on 2/2 benchmarks") {
		t.Error("TEC-only section wrong")
	}
}
