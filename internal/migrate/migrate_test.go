package migrate

import (
	"errors"
	"testing"
	"time"

	"greencloud/internal/vm"
	"greencloud/internal/wan"
)

func testLink(mbps float64) wan.Link {
	return wan.Link{BandwidthMbps: mbps, LatencyMs: 90}
}

func TestSimulatePaperScenario(t *testing.T) {
	// The paper's validation: a VM with 512 MB of memory plus ~110 MB of
	// dirty disk migrates over a ~2 Mbps VPN in under an hour.
	link := testLink(2)
	res, err := Simulate(Plan{VM: vm.NewHPCVM("vm-0"), From: "bcn", To: "nj", DirtyDiskMB: 110}, link, Options{})
	if err != nil {
		t.Fatalf("Simulate: %v", err)
	}
	if res.Duration > time.Hour {
		t.Errorf("migration took %v, want < 1 h as in the paper", res.Duration)
	}
	if res.Duration < 10*time.Minute {
		t.Errorf("migration took %v, implausibly fast for ~622 MB over 2 Mbps", res.Duration)
	}
	if res.TransferredMB < 512+110 {
		t.Errorf("transferred %v MB, want at least memory+dirty disk", res.TransferredMB)
	}
	if res.Rounds < 1 {
		t.Error("expected at least one pre-copy round")
	}
	// Live migration: downtime is a tiny fraction of the total duration.
	if res.Downtime > res.Duration/10 {
		t.Errorf("downtime %v is not small relative to duration %v", res.Downtime, res.Duration)
	}
	// Real both-ends energy is below the paper's conservative full-epoch
	// accounting.
	if res.EnergyKWh > res.ConservativeEnergyKWh {
		t.Errorf("real energy %v exceeds conservative accounting %v", res.EnergyKWh, res.ConservativeEnergyKWh)
	}
	if res.ConservativeEnergyKWh != 0.03 { // 30 W × 1 h
		t.Errorf("conservative energy = %v kWh, want 0.03", res.ConservativeEnergyKWh)
	}
}

func TestSimulateFasterLinkIsFaster(t *testing.T) {
	slow := testLink(2)
	fast := testLink(1000)
	plan := Plan{VM: vm.NewHPCVM("vm-0"), From: "bcn", To: "nj", DirtyDiskMB: 110}
	slowRes, err := Simulate(plan, slow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fastRes, err := Simulate(plan, fast, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fastRes.Duration >= slowRes.Duration {
		t.Errorf("faster link should migrate faster: %v vs %v", fastRes.Duration, slowRes.Duration)
	}
	if fastRes.Downtime >= slowRes.Downtime {
		t.Errorf("faster link should have smaller downtime: %v vs %v", fastRes.Downtime, slowRes.Downtime)
	}
}

func TestSimulateWholeDiskWhenUnknown(t *testing.T) {
	link := testLink(1000)
	v := vm.NewHPCVM("vm-0")
	res, err := Simulate(Plan{VM: v, From: "bcn", To: "guam", DirtyDiskMB: -1}, link, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TransferredMB < float64(v.DiskMB) {
		t.Errorf("transferred %v MB, want at least the whole %d MB disk", res.TransferredMB, v.DiskMB)
	}
}

func TestSimulateErrors(t *testing.T) {
	link := testLink(2)
	v := vm.NewHPCVM("vm-0")
	if _, err := Simulate(Plan{VM: v, From: "bcn", To: "bcn"}, link, Options{}); !errors.Is(err, ErrSameDatacenter) {
		t.Errorf("want ErrSameDatacenter, got %v", err)
	}
	if _, err := Simulate(Plan{VM: v, From: "bcn", To: "nj"}, wan.Link{}, Options{}); !errors.Is(err, ErrNoBandwidth) {
		t.Errorf("want ErrNoBandwidth, got %v", err)
	}
	bad := v
	bad.MemoryMB = 0
	if _, err := Simulate(Plan{VM: bad, From: "bcn", To: "nj"}, link, Options{}); err == nil {
		t.Error("invalid VM should error")
	}
}

func TestSimulateNonConvergingWorkloadStops(t *testing.T) {
	// A workload that dirties memory faster than a slow link can drain must
	// still terminate (MaxRounds cap) with a bounded number of rounds.
	link := testLink(1)
	v := vm.NewHPCVM("hot")
	v.MemDirtyMBPerSecond = 1
	res, err := Simulate(Plan{VM: v, From: "bcn", To: "nj", DirtyDiskMB: 0}, link, Options{MaxRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 5 {
		t.Errorf("rounds = %d, want the MaxRounds cap of 5", res.Rounds)
	}
	if res.Downtime <= 0 {
		t.Error("a non-converging pre-copy should end with a real stop-and-copy downtime")
	}
}
