// Package ignore is a fixture for the directive machinery itself:
// malformed directives are findings, a directive suppresses the one
// analyzer it names on its own line and the next, and a directive for
// one analyzer does not silence another.
package ignore

import "errors"

func mayFail() error { return errors.New("boom") }

//lint:ignore
func malformedNoAnalyzer() {} // want: directive without analyzer or reason

//lint:ignore errdrop
func malformedNoReason() {} // want: directive without a reason

func suppressNamed(a, b float64) {
	//lint:ignore errdrop fixture demonstrates suppression
	_ = mayFail()
}

func wrongAnalyzer(a, b float64) bool {
	//lint:ignore errdrop directive names the wrong analyzer
	return a == b // want: floatcmp still fires
}

func trailing(a, b float64) bool {
	return a == b //lint:ignore floatcmp fixture demonstrates a trailing directive
}

func wrapped(a, b float64) bool {
	//lint:ignore floatcmp covers this line and the next only
	return a == b ||
		b == a // want: floatcmp still fires on the continuation
}
