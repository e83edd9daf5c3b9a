package plan

import (
	"errors"
	"strings"
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

// TestTraceSpecPicksDistinctDatacenters builds the default catalog's traces
// of 2 to 12 datacenters: every site is picked once, the emulation accepts
// the config, and the picks of the traces that have always built (at most
// six datacenters, which serve and the snapshots depend on) keep their
// order.
func TestTraceSpecPicksDistinctDatacenters(t *testing.T) {
	sixPicks := []string{"desert-0001", "desert-0008", "desert-0002", "desert-0007", "desert-0005", "desert-0006"}
	for n := 2; n <= 12; n++ {
		cfg, _, err := TraceSpec{Datacenters: n}.Build()
		if err != nil {
			t.Fatalf("%d datacenters: %v", n, err)
		}
		if len(cfg.Datacenters) != n {
			t.Fatalf("%d datacenters: built %d", n, len(cfg.Datacenters))
		}
		seen := make(map[string]bool, n)
		for i, dc := range cfg.Datacenters {
			if seen[dc.Name] {
				t.Fatalf("%d datacenters: %q picked twice", n, dc.Name)
			}
			seen[dc.Name] = true
			if n <= len(sixPicks) && dc.Name != sixPicks[i] {
				t.Errorf("%d datacenters: pick %d = %q, want %q", n, i, dc.Name, sixPicks[i])
			}
		}
		if _, err := emul.NewRunner(cfg); err != nil {
			t.Fatalf("%d datacenters: NewRunner: %v", n, err)
		}
	}
}

// TestTraceSpecRejectsTooFewSites pins that a catalog too small for the
// requested datacenters is an error naming both counts, not a shorter trace.
func TestTraceSpecRejectsTooFewSites(t *testing.T) {
	_, _, err := TraceSpec{Sites: 4, Datacenters: 6}.Build()
	if err == nil {
		t.Fatal("6 datacenters from a 4-site catalog: want an error")
	}
	if msg := err.Error(); !strings.Contains(msg, "6 datacenters") || !strings.Contains(msg, "only 4") {
		t.Errorf("error %q should name the 6 requested and the 4 available", msg)
	}
}
