package availability

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNetworkAvailability(t *testing.T) {
	// One datacenter: network availability equals its own.
	got, err := Network(1, PaperDefault)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-PaperDefault) > 1e-12 {
		t.Errorf("Network(1) = %v, want %v", got, PaperDefault)
	}
	// Two paper-default datacenters exceed five nines.
	got, err = Network(2, PaperDefault)
	if err != nil {
		t.Fatal(err)
	}
	if got < 0.99999 {
		t.Errorf("Network(2, paper default) = %v, want ≥ 0.99999", got)
	}
	// Matches the binomial form the paper writes out, for a few cases.
	for _, n := range []int{1, 2, 3, 5} {
		a := 0.99
		direct, _ := Network(n, a)
		binomial := 0.0
		for i := 0; i < n; i++ {
			binomial += float64(choose(n, i)) * math.Pow(a, float64(n-i)) * math.Pow(1-a, float64(i))
		}
		if math.Abs(direct-binomial) > 1e-9 {
			t.Errorf("n=%d: closed form %v != binomial sum %v", n, direct, binomial)
		}
	}
	if _, err := Network(0, 0.99); err == nil {
		t.Error("zero datacenters should error")
	}
	if _, err := Network(2, 0); err == nil {
		t.Error("zero per-site availability should error")
	}
	if _, err := Network(2, 1.5); err == nil {
		t.Error("per-site availability above 1 should error")
	}
}

func choose(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	out := 1
	for i := 1; i <= k; i++ {
		out = out * (n - k + i) / i
	}
	return out
}

func TestNetworkMonotoneInN(t *testing.T) {
	f := func(nRaw int, aRaw float64) bool {
		n := 1 + abs(nRaw)%10
		a := 0.5 + math.Mod(math.Abs(aRaw), 0.49)
		small, err1 := Network(n, a)
		large, err2 := Network(n+1, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return large >= small && large <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestMinDatacenters(t *testing.T) {
	// The paper's five-nines requirement with ~Tier III datacenters needs 2.
	n, err := MinDatacenters(PaperDefault, 0.99999, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("MinDatacenters(paper default, 5 nines) = %d, want 2", n)
	}
	// A very low per-site availability needs more.
	n, err = MinDatacenters(0.9, 0.99999, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n < 5 {
		t.Errorf("MinDatacenters(0.9, 5 nines) = %d, want ≥ 5", n)
	}
	// Unreachable within maxN.
	if _, err := MinDatacenters(0.5, 0.9999999999, 3); err == nil {
		t.Error("unreachable target should error")
	}
}
