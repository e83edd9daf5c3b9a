// Package nebula is the within-datacenter VM manager GreenNebula builds on —
// the stand-in for OpenNebula in the paper's architecture.  It packs the VMs
// of one datacenter onto identical physical hosts, first fit, and frees
// their slots when the cross-datacenter migration machinery moves them away.
package nebula

import (
	"errors"
	"fmt"
	"sync"

	"greencloud/internal/vm"
)

// Host capacity mirrors the paper's servers (Dell R610: 4 cores, 6 GB RAM).
const (
	hostVCPUs    = 4
	hostMemoryMB = 6 * 1024
)

// Errors returned by the manager.
var (
	ErrNoCapacity  = errors.New("nebula: no host has capacity for the VM")
	ErrUnknownVM   = errors.New("nebula: unknown VM")
	ErrDuplicateVM = errors.New("nebula: VM already placed")
)

// Datacenter manages the VM placement of one site.  It is safe for
// concurrent use.
type Datacenter struct {
	name string

	mu     sync.Mutex
	usage  []usage              // per host, by host index
	placed map[string]placement // VM ID → the VM and its host
}

type usage struct {
	vcpus    int
	memoryMB int
}

type placement struct {
	machine vm.VM
	host    int
}

// NewUniformDatacenter returns a datacenter with n identical hosts.
func NewUniformDatacenter(name string, n int) *Datacenter {
	return &Datacenter{
		name:   name,
		usage:  make([]usage, n),
		placed: make(map[string]placement),
	}
}

// Place admits a VM onto the first host with enough spare vCPUs and memory
// and returns that host's index.
func (dc *Datacenter) Place(machine vm.VM) (int, error) {
	if err := machine.Validate(); err != nil {
		return 0, err
	}
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if _, ok := dc.placed[machine.ID]; ok {
		return 0, fmt.Errorf("%w: %s", ErrDuplicateVM, machine.ID)
	}
	for h := range dc.usage {
		u := &dc.usage[h]
		if u.vcpus+machine.VCPUs <= hostVCPUs && u.memoryMB+machine.MemoryMB <= hostMemoryMB {
			u.vcpus += machine.VCPUs
			u.memoryMB += machine.MemoryMB
			dc.placed[machine.ID] = placement{machine: machine, host: h}
			return h, nil
		}
	}
	return 0, fmt.Errorf("%w: %s in %s", ErrNoCapacity, machine.ID, dc.name)
}

// Remove evicts a VM (after it migrated away or terminated) and returns it.
func (dc *Datacenter) Remove(vmID string) (vm.VM, error) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	p, ok := dc.placed[vmID]
	if !ok {
		return vm.VM{}, fmt.Errorf("%w: %s", ErrUnknownVM, vmID)
	}
	u := &dc.usage[p.host]
	u.vcpus -= p.machine.VCPUs
	u.memoryMB -= p.machine.MemoryMB
	delete(dc.placed, vmID)
	return p.machine, nil
}
