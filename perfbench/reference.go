package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Tolerances of the correctness oracle. Answers are deterministic, so
// these only absorb floating-point reassociation a faithful optimization
// may introduce; an answer outside them is a wrong answer.
const (
	// powerRelTol bounds the relative error of an optimized or surface
	// cooling power 𝒫.
	powerRelTol = 1e-6
	// pointRelTol bounds the error of an optimal operating point (ω*, I*)
	// relative to its box (u_max, I_max).
	pointRelTol = 1e-4
)

// answer is one reference answer, committed next to the benchmark.
type answer struct {
	OmegaRadS float64 `json:"omega_rad_s,omitempty"`
	ITecA     float64 `json:"itec_a,omitempty"`
	PowerW    float64 `json:"power_w"`
	// RunawayPoints is the number of surface samples inside the runaway
	// wall (sweep only).
	RunawayPoints int `json:"runaway_points,omitempty"`
}

// references maps workload → input (benchmark name) → answer.
type references map[string]map[string]answer

func loadReferences(path string) (references, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	var refs references
	if err := json.Unmarshal(b, &refs); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return refs, nil
}

func (r references) lookup(workload, input string) (answer, error) {
	a, ok := r[workload][input]
	if !ok {
		return answer{}, fmt.Errorf("no reference answer for %s/%s", workload, input)
	}
	return a, nil
}

func writeReferences(path string, refs references) error {
	b, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// checkPower compares a cooling power against its reference.
func checkPower(what string, got, want float64) error {
	if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-want) > powerRelTol*math.Abs(want) {
		return fmt.Errorf("%s: 𝒫 = %.9g W, reference %.9g W (tolerance %g relative)", what, got, want, powerRelTol)
	}
	return nil
}

// checkCoord compares one coordinate of an optimal operating point
// against its reference, relative to the coordinate's range.
func checkCoord(what string, got, want, span float64) error {
	if math.IsNaN(got) || math.Abs(got-want) > pointRelTol*span {
		return fmt.Errorf("%s = %.9g, reference %.9g (tolerance %g of %g)", what, got, want, pointRelTol, span)
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
