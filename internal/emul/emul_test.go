package emul

import (
	"errors"
	"testing"

	"greencloud/internal/location"
	"greencloud/internal/sched"
	"greencloud/internal/vm"
	"greencloud/internal/wan"
)

// testConfig builds a three-datacenter emulation whose sites are the best
// solar locations of a small catalog, with plants sized to cover the 9-VM
// fleet several times over (as the paper's overbuilt no-storage network
// does).
func testConfig(t *testing.T, hours int) Config {
	t.Helper()
	cat, err := location.Generate(location.Options{Count: 60, Seed: 21, RepresentativeDays: 1})
	if err != nil {
		t.Fatal(err)
	}
	fleet := vm.NewHPCFleet("hpc", 9)
	fleetKW := fleet.TotalPowerW() / 1000

	solar := cat.TopBySolarCF(8)
	// Prefer sites spread across time zones so the sun is always up
	// somewhere.
	picked := []*location.Site{solar[0]}
	for _, cand := range solar[1:] {
		distinct := true
		for _, p := range picked {
			d := cand.UTCOffsetHours - p.UTCOffsetHours
			if d < 0 {
				d = -d
			}
			if d > 12 {
				d = 24 - d
			}
			if d < 5 {
				distinct = false
				break
			}
		}
		if distinct {
			picked = append(picked, cand)
		}
		if len(picked) == 3 {
			break
		}
	}
	for len(picked) < 3 {
		picked = append(picked, solar[len(picked)])
	}

	dcs := make([]DatacenterConfig, 0, 3)
	for _, site := range picked {
		dcs = append(dcs, DatacenterConfig{
			Name:       site.Name,
			Site:       site,
			CapacityKW: fleetKW,
			SolarKW:    fleetKW * 8 / site.SolarCapacityFactor * 0.25, // heavily overbuilt solar
			WindKW:     0.2,
		})
	}
	return Config{
		Datacenters:  dcs,
		VMs:          fleet,
		StartHour:    24 * 172,
		Hours:        hours,
		HorizonHours: 12,
		Link:         wan.Link{BandwidthMbps: 1000, LatencyMs: 90},
	}
}

// TestRunRejectsTooManyDatacenters pins the GDFS bound at the emulation's
// intake: one worker per site, at most MaxDatacenters sites.
func TestRunRejectsTooManyDatacenters(t *testing.T) {
	cfg := Config{Datacenters: make([]DatacenterConfig, MaxDatacenters+1)}
	if _, err := NewRunner(cfg); !errors.Is(err, ErrTooManyDatacenters) {
		t.Fatalf("%d datacenters: want ErrTooManyDatacenters, got %v", MaxDatacenters+1, err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); !errors.Is(err, ErrNoDatacenters) {
		t.Errorf("want ErrNoDatacenters, got %v", err)
	}
	cfg := testConfig(t, 2)
	cfg.VMs = nil
	if _, err := Run(cfg); !errors.Is(err, ErrNoVMs) {
		t.Errorf("want ErrNoVMs, got %v", err)
	}
	cfg = testConfig(t, 2)
	cfg.Predictor = "psychic"
	if _, err := Run(cfg); err == nil {
		t.Error("unknown predictor should error")
	}
	cfg = testConfig(t, 2)
	cfg.Datacenters[0].Site = nil
	if _, err := Run(cfg); err == nil {
		t.Error("missing site should error")
	}
}

// TestNewRunnerRejectsBadTopology pins the intake checks on the datacenter
// list and the WAN link: every name must be unique (moves address
// datacenters by name) and the link needs a positive bandwidth.
func TestNewRunnerRejectsBadTopology(t *testing.T) {
	cfg := testConfig(t, 2)
	cfg.Datacenters[1].Name = cfg.Datacenters[0].Name
	if _, err := NewRunner(cfg); err == nil {
		t.Error("duplicate datacenter names should error")
	}
	cfg = testConfig(t, 2)
	cfg.Link.BandwidthMbps = -1
	if _, err := NewRunner(cfg); err == nil {
		t.Error("negative link bandwidth should error")
	}
}

// TestReplayRejectsBadMoves pins the checks on a replayed schedule, which
// comes from a snapshot: a move must name known datacenters, and a
// distinct donor and receiver.
func TestReplayRejectsBadMoves(t *testing.T) {
	cfg := testConfig(t, 2)
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	home := cfg.Datacenters[0].Name
	for _, mv := range []sched.Migration{
		{VM: cfg.VMs[0], From: home, To: "nowhere"},
		{VM: cfg.VMs[0], From: "nowhere", To: home},
		{VM: cfg.VMs[0], From: home, To: home},
	} {
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Replay([]sched.Migration{mv}); err == nil {
			t.Errorf("replaying %s→%s should error", mv.From, mv.To)
		}
	}
}

func TestRunFollowsRenewablesOverADay(t *testing.T) {
	cfg := testConfig(t, 24)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Trace) != 24*len(cfg.Datacenters) {
		t.Fatalf("trace has %d records, want %d", len(res.Trace), 24*len(cfg.Datacenters))
	}
	// The full fleet is always running somewhere.
	perHourVMs := map[int]int{}
	perDCLoadHours := map[string]int{}
	for _, rec := range res.Trace {
		perHourVMs[rec.Hour] += rec.VMCount
		if rec.LoadKW > 0.01 {
			perDCLoadHours[rec.Datacenter]++
		}
		if rec.LoadKW < 0 || rec.GreenKW < 0 || rec.BrownKW < 0 {
			t.Fatalf("negative power in record %+v", rec)
		}
	}
	for hour, n := range perHourVMs {
		if n != len(cfg.VMs) {
			t.Fatalf("hour %d hosts %d VMs, want %d", hour, n, len(cfg.VMs))
		}
	}
	// Load moves between datacenters during the day (follow the
	// renewables): at least two datacenters host load at some point, and
	// migrations actually happen.
	if len(perDCLoadHours) < 2 {
		t.Errorf("load never moved: per-DC load hours %v", perDCLoadHours)
	}
	if res.Migrations == 0 {
		t.Error("expected at least one migration over a day")
	}
	if res.TotalMigrationKWh <= 0 {
		t.Error("migration energy should be accounted")
	}
	// The migration overhead stays small relative to total demand (the
	// paper's observation).
	if res.TotalMigrationKWh > 0.3*res.TotalDemandKWh {
		t.Errorf("migration energy %.2f kWh is not small vs demand %.2f kWh",
			res.TotalMigrationKWh, res.TotalDemandKWh)
	}
	// With heavily overbuilt solar across spread time zones, most demand is
	// green.
	if res.GreenFraction < 0.5 {
		t.Errorf("green fraction %.2f lower than expected for an overbuilt network", res.GreenFraction)
	}
	if res.AvgScheduleNanos <= 0 {
		t.Error("scheduler timing not recorded")
	}
}

func TestRunPredictorVariants(t *testing.T) {
	for _, p := range []string{"perfect", "persistence", "diurnal"} {
		cfg := testConfig(t, 3)
		cfg.Predictor = p
		if _, err := Run(cfg); err != nil {
			t.Errorf("predictor %s: %v", p, err)
		}
	}
}
