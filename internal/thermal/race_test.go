//go:build race

package thermal

// raceEnabled reports a -race build, under which the dense-algebra
// oracle shrinks: the detector slows its single-goroutine factorizations
// about twelvefold and has nothing to find in them.
const raceEnabled = true
