package experiments

import (
	"context"
	"errors"
	"testing"
)

// TestSurfaceContextCancelled: a cancelled context aborts the sweep with
// the context's error instead of returning a surface with holes.
func TestSurfaceContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts, err := SurfaceContext(ctx, FastSetup(), "Basicmath", 9, 5, 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pts != nil {
		t.Errorf("cancelled sweep returned %d points, want none", len(pts))
	}
}
