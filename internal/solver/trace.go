package solver

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
)

// TraceRecord is one per-iteration snapshot emitted through Options.Trace.
// Solvers emit a record after every accepted iterate, so a trace shows how
// the incumbent moved, not every rejected probe.
//
// Fields a method does not track are NaN: the penalty and barrier methods
// do not separate the constraint violation from their merit value, and the
// trust-region method has no line-search step size α.
type TraceRecord struct {
	// Method labels the emitting solver ("sqp", "interior", "trust"), so
	// mixed streams (Fallback chains, MultiStart launches) stay
	// attributable.
	Method string
	// Iter is the solver's iteration counter at the time of emission.
	Iter int
	// X is the accepted iterate in the original (unscaled) variable
	// space. The slice is a copy; recorders may retain it.
	X []float64
	// F is the objective value the method tracked at X. For the barrier
	// and penalty methods this is their merit value (barrier/penalized
	// objective), which is what their line searches actually monitor.
	F float64
	// MaxViolation is the largest constraint violation at X when the
	// method tracks it per-iteration (SQP), NaN otherwise.
	MaxViolation float64
	// StepNorm is the ∞-norm of the accepted step in the solver's scaled
	// variable space.
	StepNorm float64
	// Alpha is the accepted line-search step size, NaN for methods
	// without a line search.
	Alpha float64
}

// TraceFunc receives per-iteration records.
type TraceFunc func(TraceRecord)

// TraceRing is the default trace recorder: a fixed-capacity ring buffer
// keeping the most recent records. It is safe for concurrent use, so one
// ring can record several concurrent solves.
type TraceRing struct {
	mu    sync.Mutex
	cap   int
	recs  []TraceRecord
	next  int // insertion index once the ring is full
	total int
}

// DefaultTraceCapacity is the ring size NewTraceRing uses for capacity ≤ 0.
const DefaultTraceCapacity = 256

// NewTraceRing returns a ring keeping the last capacity records
// (DefaultTraceCapacity when capacity ≤ 0).
func NewTraceRing(capacity int) *TraceRing {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &TraceRing{cap: capacity}
}

// Record appends one record, evicting the oldest when full. It is the
// TraceFunc to hand to Options.Trace.
func (r *TraceRing) Record(rec TraceRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if len(r.recs) < r.cap {
		r.recs = append(r.recs, rec)
		return
	}
	r.recs[r.next] = rec
	r.next = (r.next + 1) % r.cap
}

// Records returns the retained records, oldest first.
func (r *TraceRing) Records() []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceRecord, 0, len(r.recs))
	out = append(out, r.recs[r.next:]...)
	out = append(out, r.recs[:r.next]...)
	return out
}

// Total returns how many records were ever recorded, including evicted
// ones.
func (r *TraceRing) Total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dump writes the retained records as a human-readable table.
func (r *TraceRing) Dump(w io.Writer) error {
	recs := r.Records()
	if dropped := r.Total() - len(recs); dropped > 0 {
		if _, err := fmt.Fprintf(w, "(%d earlier records evicted from the ring)\n", dropped); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-10s %5s  %-13s %-10s %-9s %-7s %s\n",
		"method", "iter", "f", "viol", "step", "alpha", "x"); err != nil {
		return err
	}
	for _, rec := range recs {
		var xs []string
		for _, v := range rec.X {
			xs = append(xs, fmt.Sprintf("%.6g", v))
		}
		if _, err := fmt.Fprintf(w, "%-10s %5d  %-13.6e %-10s %-9.2e %-7s [%s]\n",
			rec.Method, rec.Iter, rec.F, naNBlank(rec.MaxViolation, "%.2e"),
			rec.StepNorm, naNBlank(rec.Alpha, "%.3g"), strings.Join(xs, ", ")); err != nil {
			return err
		}
	}
	return nil
}

// naNBlank formats v, rendering the "not tracked" NaN sentinel as "-".
func naNBlank(v float64, format string) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf(format, v)
}
