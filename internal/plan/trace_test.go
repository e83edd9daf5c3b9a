package plan

import (
	"errors"
	"testing"

	"greencloud/internal/emul"
)

// TestTraceSpecRejectsTooManyDatacenters pins that a trace asking for more
// sites than an emulation can run fails in Build, before any catalog work.
func TestTraceSpecRejectsTooManyDatacenters(t *testing.T) {
	ts := TraceSpec{Datacenters: emul.MaxDatacenters + 1}
	if _, _, err := ts.Build(); !errors.Is(err, emul.ErrTooManyDatacenters) {
		t.Fatalf("%d datacenters: want emul.ErrTooManyDatacenters, got %v", ts.Datacenters, err)
	}
}
