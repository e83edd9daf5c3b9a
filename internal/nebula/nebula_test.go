package nebula

import (
	"errors"
	"testing"

	"greencloud/internal/vm"
)

func TestPlaceRemoveLifecycle(t *testing.T) {
	dc := NewUniformDatacenter("barcelona", 3)
	v := vm.NewHPCVM("vm-0")
	if _, err := dc.Place(v); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if _, err := dc.Place(v); !errors.Is(err, ErrDuplicateVM) {
		t.Errorf("want ErrDuplicateVM, got %v", err)
	}
	removed, err := dc.Remove("vm-0")
	if err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if removed != v {
		t.Errorf("removed %+v, want %+v", removed, v)
	}
	if _, err := dc.Remove("vm-0"); !errors.Is(err, ErrUnknownVM) {
		t.Errorf("want ErrUnknownVM, got %v", err)
	}
	bad := vm.VM{}
	if _, err := dc.Place(bad); err == nil {
		t.Error("invalid VM should not be placeable")
	}
}

func TestPlacementRespectsHostCapacity(t *testing.T) {
	// One default host: 4 vCPUs and 6 GB of memory fit 4 paper VMs
	// (1 vCPU / 512 MB each); the 5th must be rejected.
	dc := NewUniformDatacenter("dc", 1)
	for i := 0; i < 4; i++ {
		if _, err := dc.Place(vm.NewHPCVM(vmName(i))); err != nil {
			t.Fatalf("Place %d: %v", i, err)
		}
	}
	if _, err := dc.Place(vm.NewHPCVM("vm-overflow")); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("want ErrNoCapacity, got %v", err)
	}
	// Removing one frees the slot again.
	if _, err := dc.Remove(vmName(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := dc.Place(vm.NewHPCVM("vm-retry")); err != nil {
		t.Errorf("placement after removal failed: %v", err)
	}
}

func vmName(i int) string { return string(rune('a'+i)) + "-vm" }

func TestSpareCapacityAndSpread(t *testing.T) {
	// Three default hosts hold 12 paper VMs; after 9 placements exactly 3
	// more fit.
	dc := NewUniformDatacenter("dc", 3)
	for _, v := range vm.NewHPCFleet("vm", 9) {
		if _, err := dc.Place(v); err != nil {
			t.Fatalf("Place(%s): %v", v.ID, err)
		}
	}
	for _, v := range vm.NewHPCFleet("spare", 3) {
		if _, err := dc.Place(v); err != nil {
			t.Fatalf("Place(%s) with spare capacity left: %v", v.ID, err)
		}
	}
	if _, err := dc.Place(vm.NewHPCVM("vm-overflow")); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("want ErrNoCapacity once the spare capacity is used, got %v", err)
	}
}

func TestPlaceFirstFit(t *testing.T) {
	// A default host takes 4 paper VMs: the first four land on host 0, the
	// next on host 1, and a slot freed on host 0 is reused before host 1's.
	dc := NewUniformDatacenter("dc", 3)
	fleet := vm.NewHPCFleet("vm", 5)
	for i, v := range fleet {
		host, err := dc.Place(v)
		if err != nil {
			t.Fatalf("Place(%s): %v", v.ID, err)
		}
		if want := i / 4; host != want {
			t.Errorf("Place(%s) = host %d, want %d", v.ID, host, want)
		}
	}
	if _, err := dc.Remove(fleet[1].ID); err != nil {
		t.Fatal(err)
	}
	host, err := dc.Place(vm.NewHPCVM("vm-refill"))
	if err != nil {
		t.Fatal(err)
	}
	if host != 0 {
		t.Errorf("refill landed on host %d, want the freed slot on host 0", host)
	}
	host, err = dc.Place(vm.NewHPCVM("vm-next"))
	if err != nil {
		t.Fatal(err)
	}
	if host != 1 {
		t.Errorf("next VM landed on host %d, want host 1", host)
	}
}
