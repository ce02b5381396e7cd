// Package errdrop is a fixture: positive and negative cases for the
// errdrop analyzer.
package errdrop

import (
	"errors"
	"fmt"
	"hash"
	"io"
	"strings"
)

func mayFail() error { return errors.New("boom") }

func twoRet() (int, error) { return 0, nil }

func positives(w io.Writer) {
	_ = mayFail()    // want: blank assignment of an error
	_, _ = twoRet()  // want: blank error in a tuple assignment
	mayFail()        // want: bare statement call
	defer mayFail()  // want: deferred call drops the error
	go mayFail()     // want: goroutine call drops the error
	v, _ := twoRet() // want: value kept, error blanked
	_ = v
	w.Write(nil) // want: an io.Writer's write can fail
}

func negatives(h hash.Hash64) error {
	if err := mayFail(); err != nil { // handled
		return err
	}
	v, err := twoRet() // both results bound
	if err != nil {
		return err
	}
	_ = v                      // blank of a non-error is fine
	fmt.Println("best-effort") // fmt print family is allowlisted
	var sb strings.Builder
	sb.WriteString("never fails") // strings.Builder is allowlisted
	h.Write(nil)                  // hash.Hash writes never fail
	return nil
}

func ignored() {
	//lint:ignore errdrop fixture demonstrates suppression
	_ = mayFail()
}
