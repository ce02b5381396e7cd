package power

import (
	"fmt"
	"sort"
)

// Trace is a time series of per-unit power maps — the shape of a
// performance/power simulator's output (PTscalar in the paper). The
// paper's flow reduces a trace to the per-element maximum power vector
// before handing it to OFTEC ("The maximum power consumption for each
// element in the chip layer is selected to be passed to OFTEC"), which
// MaxMap implements.
type Trace struct {
	times []float64
	maps  []Map
}

// Append adds a sample at time t (seconds). Times must be strictly
// increasing.
func (tr *Trace) Append(t float64, m Map) error {
	if len(tr.times) > 0 && t <= tr.times[len(tr.times)-1] {
		return fmt.Errorf("power: trace times must be strictly increasing (%g after %g)",
			t, tr.times[len(tr.times)-1])
	}
	if m == nil {
		return fmt.Errorf("power: nil power map at t=%g", t)
	}
	tr.times = append(tr.times, t)
	tr.maps = append(tr.maps, m.Clone())
	return nil
}

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.times) }

// At returns the sample in effect at time t (zero-order hold): the last
// sample whose timestamp is ≤ t, or the first sample for t before the
// trace starts. It fails on an empty trace.
func (tr *Trace) At(t float64) (Map, error) {
	if len(tr.times) == 0 {
		return nil, fmt.Errorf("power: empty trace")
	}
	i := sort.SearchFloat64s(tr.times, t)
	// SearchFloat64s returns the first index with times[i] >= t, so
	// times[i] <= t holds exactly on a timestamp hit.
	if i < len(tr.times) && tr.times[i] <= t {
		return tr.maps[i], nil
	}
	if i == 0 {
		return tr.maps[0], nil
	}
	return tr.maps[i-1], nil
}

// MaxMap returns the per-unit maximum over all samples — the reduction
// the paper feeds to OFTEC. Units appearing in any sample appear in the
// result.
func (tr *Trace) MaxMap() Map {
	out := make(Map)
	for _, m := range tr.maps {
		for name, p := range m {
			if p > out[name] {
				out[name] = p
			}
		}
	}
	return out
}

// MeanMap returns the per-unit time-weighted average power over the
// trace's span [t_first, t_last] under a zero-order hold: sample i is in
// effect until sample i+1, and the final sample only marks the end of the
// observation window. A trace with fewer than two samples averages to its
// only sample (or empty).
func (tr *Trace) MeanMap() Map {
	out := make(Map)
	n := len(tr.times)
	if n == 0 {
		return out
	}
	if n == 1 {
		return tr.maps[0].Clone()
	}
	total := tr.times[n-1] - tr.times[0]
	for i := 0; i < n-1; i++ {
		w := (tr.times[i+1] - tr.times[i]) / total
		for name, p := range tr.maps[i] {
			out[name] += w * p
		}
	}
	return out
}
