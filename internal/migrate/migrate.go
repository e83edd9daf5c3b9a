// Package migrate models live VM migration between datacenters over one
// emulated WAN link (wan.Link): iterative pre-copy of memory, shipping of
// the disk blocks whose GDFS replica at the destination is stale, the final
// stop-and-copy downtime, and the energy the migration costs at both ends.
//
// The paper's placement framework charges a migrated workload for a full
// epoch of energy at both the donor and the receiver (its migratePow term);
// GreenNebula's measured overhead is much smaller because live migration
// finishes well within the hour.  This package computes both numbers so the
// emulation can report the real overhead while the optimizer stays
// conservative.
package migrate

import (
	"errors"
	"math"
	"time"

	"greencloud/internal/vm"
	"greencloud/internal/wan"
)

// Plan describes one migration to simulate.
type Plan struct {
	// VM is the machine to move.
	VM vm.VM
	// From and To name the donor and receiver datacenters; they must
	// differ.
	From string
	To   string
	// DirtyDiskMB is the amount of disk data whose replica at the
	// destination is stale and must be shipped (from GDFS metadata).  A
	// negative value means "the whole disk".
	DirtyDiskMB float64
}

// Result reports the outcome of a simulated migration.
type Result struct {
	// Rounds is the number of pre-copy rounds (including the first full
	// memory copy).
	Rounds int
	// TransferredMB is the total data moved (memory rounds + disk).
	TransferredMB float64
	// Duration is the total wall-clock time of the migration.
	Duration time.Duration
	// Downtime is the stop-and-copy pause at the end; applications keep
	// running during the rest of the migration.
	Downtime time.Duration
	// EnergyKWh is the extra energy consumed because the VM effectively
	// occupies both datacenters while the migration is in flight.
	EnergyKWh float64
	// ConservativeEnergyKWh is the paper's pessimistic accounting: the
	// VM's power billed at both ends for a full epoch (one hour).
	ConservativeEnergyKWh float64
}

// Options tunes the pre-copy model.
type Options struct {
	// MaxRounds caps the number of pre-copy rounds (default 8).
	MaxRounds int
	// StopAndCopyMB is the dirty-set size below which the final
	// stop-and-copy happens (default 16 MB).
	StopAndCopyMB float64
	// EpochHours is the epoch length used for the conservative energy
	// accounting (default 1 hour).
	EpochHours float64
}

func (o Options) withDefaults() Options {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 8
	}
	if o.StopAndCopyMB <= 0 {
		o.StopAndCopyMB = 16
	}
	if o.EpochHours <= 0 {
		o.EpochHours = 1
	}
	return o
}

// Errors returned by Simulate.
var (
	ErrSameDatacenter = errors.New("migrate: source and destination are the same datacenter")
	ErrNoBandwidth    = errors.New("migrate: link has no usable bandwidth")
)

// Simulate runs the pre-copy live-migration model for one VM over the given
// link and returns its cost.
func Simulate(plan Plan, link wan.Link, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := plan.VM.Validate(); err != nil {
		return nil, err
	}
	if plan.From == plan.To {
		return nil, ErrSameDatacenter
	}
	if link.BandwidthMbps <= 0 {
		return nil, ErrNoBandwidth
	}
	bandwidthMBps := link.BandwidthMbps / 8 // MB per second

	dirtyDisk := plan.DirtyDiskMB
	if dirtyDisk < 0 {
		dirtyDisk = float64(plan.VM.DiskMB)
	}

	// maxSeconds keeps pathological non-converging migrations from
	// overflowing time.Duration; a migration that long has failed anyway.
	const maxSeconds = 30 * 24 * 3600.0

	res := &Result{}
	// Round 1: ship the whole memory image plus the stale disk blocks.
	toSend := float64(plan.VM.MemoryMB) + dirtyDisk
	var totalSeconds float64
	for round := 1; ; round++ {
		res.Rounds = round
		res.TransferredMB += toSend
		seconds := math.Min(toSend/bandwidthMBps, maxSeconds)
		totalSeconds += seconds

		// While that round was in flight the application kept dirtying
		// memory (and a little disk).
		dirtied := plan.VM.MemDirtyMBPerSecond*seconds + plan.VM.DiskDirtyMBPerHour*seconds/3600
		if dirtied <= opts.StopAndCopyMB || round >= opts.MaxRounds {
			// Stop-and-copy the final dirty set.
			res.TransferredMB += dirtied
			downtimeSeconds := math.Min(dirtied/bandwidthMBps+link.LatencyMs/1000, maxSeconds)
			totalSeconds += downtimeSeconds
			res.Downtime = time.Duration(downtimeSeconds * float64(time.Second))
			break
		}
		// Convergence guard: if the workload dirties faster than the link
		// drains, pre-copy cannot converge and the dirty set stops
		// shrinking; the MaxRounds cap above ends the loop.
		toSend = dirtied
	}
	res.Duration = time.Duration(totalSeconds * float64(time.Second))

	// Real overhead: the VM is charged at both ends while the migration is
	// in flight.
	res.EnergyKWh = plan.VM.PowerW / 1000 * totalSeconds / 3600
	// Paper-style conservative accounting: a full epoch at both ends.
	res.ConservativeEnergyKWh = plan.VM.PowerW / 1000 * opts.EpochHours
	return res, nil
}
