// Command oftecvet runs the project's static-analysis suite (internal/lint)
// over the module whose go.mod is in the working directory: floatcmp,
// errdrop, unitsuffix, nonfinite, backendleak, hotalloc, lockorder, and
// goroleak. It is stdlib-only and gates CI next to go vet,
// whose copylocks check covers mutex-bearing structs passed by value:
//
//	go run ./cmd/oftecvet
//
// It takes no flags or arguments and analyzes non-test files only.
// Findings print as "file:line:col: [analyzer] message", with paths
// relative to the module root. Exit status: 0 clean, 1 findings, 2 usage
// or load error.
//
// Findings are suppressed in source with a trailing or preceding-line
// comment naming one analyzer:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"fmt"
	"os"

	"oftec/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "usage: oftecvet (no arguments; run it in the directory holding go.mod)")
		return 2
	}
	// Loading from "." keeps every position relative to the module root.
	pkgs, err := lint.LoadModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "oftecvet:", err)
		return 2
	}
	diags := lint.Run(pkgs, lint.All())
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "oftecvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
