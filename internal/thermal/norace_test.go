//go:build !race

package thermal

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
