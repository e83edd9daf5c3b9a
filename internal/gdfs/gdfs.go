// Package gdfs implements GreenNebula's multi-datacenter distributed file
// system (GDFS), described in Section V-A of the paper.
//
// The design follows HDFS — a single master holds the namespace and block
// metadata, workers (one per datacenter) store replicas of data blocks —
// but, unlike HDFS, files are mutable.  Writes go to the local replica and
// invalidate the remote replicas by updating the metadata at the master;
// invalidated blocks are re-replicated by rounds the caller runs
// (Cluster.ReplicateOnce; the emulation runs one per hour).  This keeps
// write latency low while still allowing a virtual machine to migrate
// between datacenters: only the recently modified blocks that have not been
// re-replicated yet need to move with it.
//
// Every datacenter's store lives in the caller's process: the master, the
// block stores and the clients are plain objects in one address space, and
// every copy between stores is made and committed under the master's lock.
package gdfs

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"
)

// DefaultBlockSize is the block size used when a file is created without an
// explicit size (4 MiB keeps the emulation fast while remaining realistic).
const DefaultBlockSize = 4 << 20

// DefaultReplication is the target number of valid replicas per block.
const DefaultReplication = 2

// BlockID identifies a block globally.
type BlockID int64

// WorkerID identifies a worker (one per datacenter in the emulation).
type WorkerID string

// Errors returned by the master and clients.
var (
	ErrFileExists     = errors.New("gdfs: file already exists")
	ErrFileNotFound   = errors.New("gdfs: file not found")
	ErrBlockNotFound  = errors.New("gdfs: block not found")
	ErrWorkerNotFound = errors.New("gdfs: worker not registered")
	ErrNoValidReplica = errors.New("gdfs: no valid replica available")
	ErrTooManyWorkers = errors.New("gdfs: too many workers")
)

// BlockInfo is the master's metadata for one block.
type BlockInfo struct {
	ID   BlockID
	Size int64
	// Valid lists workers holding an up-to-date replica.
	Valid []WorkerID
	// Stale lists workers holding an invalidated replica.
	Stale []WorkerID
}

// FileInfo is the namespace entry for one file.
type FileInfo struct {
	Path      string
	Size      int64
	BlockSize int64
	Blocks    []BlockID
	Modified  time.Time
}

// BlockSizeAt returns the size of block index i (the last block of a file
// whose size is not a multiple of BlockSize is shorter).
func (fi *FileInfo) BlockSizeAt(i int) int64 {
	if i == len(fi.Blocks)-1 && fi.Size%fi.BlockSize != 0 {
		return fi.Size % fi.BlockSize
	}
	return fi.BlockSize
}

// MaxWorkers is how many workers one master can register: a block's
// replica sets are one-word bitmasks over worker indices.  RegisterWorker
// refuses the next one with ErrTooManyWorkers.
const MaxWorkers = 64

// Master holds the namespace and block metadata and plans re-replication.
//
// The metadata sits on dense indices.  RegisterWorker gives each worker a
// small index (its registration rank); a block's replica state is two
// bitmasks over those indices; blocks live in a slice indexed by BlockID,
// which Create allocates sequentially from 1, and a deleted block stays
// behind as a tombstone; the under-replicated blocks form a bitset walked
// in ascending BlockID order.  Every answer that lists workers (Workers,
// BlockLocations, the replication plan) walks them in WorkerID order, so
// no result depends on the order the workers registered in.
//
// One RWMutex guards it all.  A call takes it once, and the batch paths
// take it once per batch, not per block: a client's dirty range is written
// to its store and committed under one lock (Client.DirtyRange), and a
// replication round plans, copies and commits under one
// (Cluster.ReplicateOnce).  Every write and copy lands in its store and
// commits under the same hold of the lock, so no round can copy an older
// replica over a write before the write commits.
type Master struct {
	mu    sync.RWMutex
	files map[string]*FileInfo
	// blocks is indexed by BlockID; slot 0 is never allocated, and a
	// block without holders is deleted (or was never created).
	blocks []blockMeta
	// under has bit id set iff block id has at least one but fewer than
	// `replication` valid replicas, so the planner visits just those.
	under []uint64
	// workers maps a WorkerID to its index; ids and datacenters are
	// indexed by it, and order lists the indices sorted by WorkerID.
	workers     map[WorkerID]int
	ids         []WorkerID
	datacenters []string
	order       []int
	replication int
	now         func() time.Time

	// planScratch is UnderReplicated's result, reused across calls
	// (guarded by mu).
	planScratch []ReplicationTask
}

// blockMeta is one block's replica state over worker indices.
type blockMeta struct {
	size  int64
	held  uint64 // workers holding a replica, valid or stale; 0 = deleted
	valid uint64 // workers holding an up-to-date replica (within held)
}

// NewMaster returns a master with the given target replication factor
// (DefaultReplication if zero or negative).
func NewMaster(replication int) *Master {
	if replication <= 0 {
		replication = DefaultReplication
	}
	return &Master{
		files:       make(map[string]*FileInfo),
		blocks:      make([]blockMeta, 1),
		workers:     make(map[WorkerID]int),
		replication: replication,
		now:         time.Now,
	}
}

// block returns a live block's metadata (caller holds mu).
func (m *Master) block(id BlockID) (*blockMeta, error) {
	if id <= 0 || id >= BlockID(len(m.blocks)) || m.blocks[id].held == 0 {
		return nil, fmt.Errorf("%w: %d", ErrBlockNotFound, id)
	}
	return &m.blocks[id], nil
}

// updateUnder reconciles the under-replication bit of one block: a block is
// under-replicated when it has at least one valid replica (someone to copy
// from) but fewer than the target.
func (m *Master) updateUnder(id BlockID, b *blockMeta) {
	valid := bits.OnesCount64(b.valid)
	if valid >= 1 && valid < m.replication {
		m.under[id>>6] |= 1 << (id & 63)
	} else {
		m.under[id>>6] &^= 1 << (id & 63)
	}
}

// RegisterWorker adds a worker to the cluster.  Registering a known worker
// again only updates its datacenter.
func (m *Master) RegisterWorker(id WorkerID, datacenter string) error {
	_, err := m.register(id, datacenter)
	return err
}

// register is RegisterWorker returning the worker's index.
func (m *Master) register(id WorkerID, datacenter string) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.workers[id]; ok {
		m.datacenters[i] = datacenter
		return i, nil
	}
	if len(m.ids) == MaxWorkers {
		return 0, fmt.Errorf("%w: %d workers", ErrTooManyWorkers, MaxWorkers)
	}
	i := len(m.ids)
	m.workers[id] = i
	m.ids = append(m.ids, id)
	m.datacenters = append(m.datacenters, datacenter)
	at := sort.Search(len(m.order), func(k int) bool { return m.ids[m.order[k]] > id })
	m.order = slices.Insert(m.order, at, i)
	return i, nil
}

// index returns a registered worker's index.
func (m *Master) index(id WorkerID) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	i, ok := m.workers[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrWorkerNotFound, id)
	}
	return i, nil
}

// Workers returns the registered worker IDs sorted for determinism.
func (m *Master) Workers() []WorkerID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]WorkerID, len(m.order))
	for k, i := range m.order {
		out[k] = m.ids[i]
	}
	return out
}

// Create adds a file of the given size to the namespace, allocating blocks
// whose primary replica lives on the given worker.
func (m *Master) Create(path string, size int64, primary WorkerID) (*FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		return nil, fmt.Errorf("%w: %s", ErrFileExists, path)
	}
	w, ok := m.workers[primary]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrWorkerNotFound, primary)
	}
	if size < 0 {
		return nil, fmt.Errorf("gdfs: negative file size %d", size)
	}
	blockSize := int64(DefaultBlockSize)
	nBlocks := int((size + blockSize - 1) / blockSize)
	fi := &FileInfo{Path: path, Size: size, BlockSize: blockSize, Modified: m.now()}
	fi.Blocks = make([]BlockID, 0, nBlocks)
	for i := 0; i < nBlocks; i++ {
		bSize := blockSize
		if i == nBlocks-1 && size%blockSize != 0 {
			bSize = size % blockSize
		}
		id := BlockID(len(m.blocks))
		m.blocks = grow(m.blocks, int(id)+1)
		m.under = grow(m.under, int(id>>6)+1)
		m.blocks[id] = blockMeta{size: bSize, held: 1 << w, valid: 1 << w}
		m.updateUnder(id, &m.blocks[id])
		fi.Blocks = append(fi.Blocks, id)
	}
	m.files[path] = fi
	return cloneFileInfo(fi), nil
}

// Stat returns the file's metadata.
func (m *Master) Stat(path string) (*FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	fi, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	return cloneFileInfo(fi), nil
}

// Delete removes a file and tombstones its block metadata.
func (m *Master) Delete(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	fi, ok := m.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	for _, id := range fi.Blocks {
		m.blocks[id] = blockMeta{}
		m.under[id>>6] &^= 1 << (id & 63)
	}
	delete(m.files, path)
	return nil
}

// Files lists all paths in the namespace, sorted.
func (m *Master) Files() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.files))
	for p := range m.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// BlockLocations reports the block's replica state, workers in WorkerID
// order.
func (m *Master) BlockLocations(id BlockID) (*BlockInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	b, err := m.block(id)
	if err != nil {
		return nil, err
	}
	info := &BlockInfo{ID: id, Size: b.size}
	for _, i := range m.order {
		switch {
		case b.valid&(1<<i) != 0:
			info.Valid = append(info.Valid, m.ids[i])
		case b.held&(1<<i) != 0:
			info.Stale = append(info.Stale, m.ids[i])
		}
	}
	return info, nil
}

// commitWrites is commitWrite for count blocks of fi from block index
// first, wrapping past the last block (caller holds mu).
func (m *Master) commitWrites(fi *FileInfo, first, count, writer int) error {
	for k, i := 0, first; k < count; k, i = k+1, nextIndex(i, len(fi.Blocks)) {
		if err := m.commitWrite(fi.Blocks[i], writer); err != nil {
			return err
		}
	}
	return nil
}

// commitWrite records that a block was written on worker index w: that
// replica becomes the only valid one and every other replica is
// invalidated (the write-invalidate protocol of the paper).  The caller
// holds mu, and made the write under the same hold.
func (m *Master) commitWrite(id BlockID, w int) error {
	b, err := m.block(id)
	if err != nil {
		return err
	}
	b.held |= 1 << w
	b.valid = 1 << w
	m.updateUnder(id, b)
	return nil
}

// CommitReplica records that a worker now holds a valid copy of a block
// (used after re-replication or a migration prefetch).
func (m *Master) CommitReplica(id BlockID, holder WorkerID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, err := m.block(id)
	if err != nil {
		return err
	}
	w, ok := m.workers[holder]
	if !ok {
		return fmt.Errorf("%w: %s", ErrWorkerNotFound, holder)
	}
	m.commitReplicas(id, b, 1<<w)
	return nil
}

// commitReplicas marks the workers in a mask valid holders (caller holds
// mu).
func (m *Master) commitReplicas(id BlockID, b *blockMeta, workers uint64) {
	b.held |= workers
	b.valid |= workers
	m.updateUnder(id, b)
}

// ReplicationTask asks a destination worker to copy a block from a source.
type ReplicationTask struct {
	Block  BlockID
	Source WorkerID
	Dest   WorkerID
}

// UnderReplicated returns the blocks with fewer valid replicas than the
// target, together with a plan of copies that would fix them.  The planner
// prefers destinations that already hold a stale replica (they are the
// cheapest to refresh) and otherwise picks workers that hold no replica.
// It iterates only the under-replication index, not the whole namespace.
// The returned slice is scratch owned by the master, valid until the next
// UnderReplicated call.
func (m *Master) UnderReplicated() []ReplicationTask {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.planScratch[:0]
	m.plan(func(id BlockID, src int, stale, fresh uint64) {
		for _, dests := range [2]uint64{stale, fresh} {
			for _, i := range m.order {
				if dests&(1<<i) != 0 {
					out = append(out, ReplicationTask{Block: id, Source: m.ids[src], Dest: m.ids[i]})
				}
			}
		}
	})
	m.planScratch = out
	return out
}

// plan hands emit one round of copies (caller holds mu), one call per
// under-replicated block that has a destination, in ascending ID order:
// the block's source, its first valid holder in WorkerID order, and its
// destinations as two worker masks, the stale holders and then the workers
// holding no replica, picked in WorkerID order up to the number of missing
// valid replicas.  emit may commit the block's copies: the plan for a block
// is fixed before emit sees it.
func (m *Master) plan(emit func(id BlockID, src int, stale, fresh uint64)) {
	all := uint64(1)<<len(m.ids) - 1
	for wi, word := range m.under {
		for ; word != 0; word &= word - 1 {
			id := BlockID(wi<<6 + bits.TrailingZeros64(word))
			held, valid := m.blocks[id].held, m.blocks[id].valid
			src := bits.TrailingZeros64(valid)
			if valid&(valid-1) != 0 {
				src = bits.TrailingZeros64(m.firstInOrder(valid, 1))
			}
			need := m.replication - bits.OnesCount64(valid)
			stale, fresh := held&^valid, all&^held
			if need < bits.OnesCount64(stale|fresh) {
				// Fewer copies than candidates: stale holders first
				// (cheapest refresh), then workers holding no replica.
				stale = m.firstInOrder(stale, need)
				fresh = m.firstInOrder(fresh, need-bits.OnesCount64(stale))
			}
			if stale|fresh != 0 {
				emit(id, src, stale, fresh)
			}
		}
	}
}

// firstInOrder returns the first n workers of a mask in WorkerID order
// (caller holds mu).
func (m *Master) firstInOrder(mask uint64, n int) uint64 {
	var out uint64
	for _, i := range m.order {
		if n == 0 {
			break
		}
		if mask&(1<<i) != 0 {
			out |= 1 << i
			n--
		}
	}
	return out
}

// StaleBlocksOn returns the blocks of a file whose replica on the given
// worker is stale or missing — exactly the data a VM migration must ship.
func (m *Master) StaleBlocksOn(path string, worker WorkerID) ([]BlockID, int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	fi, ok := m.files[path]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	bit := m.bitOf(worker)
	var out []BlockID
	var bytes int64
	for _, id := range fi.Blocks {
		if b := &m.blocks[id]; b.valid&bit == 0 {
			out = append(out, id)
			bytes += b.size
		}
	}
	return out, bytes, nil
}

// StaleBytesOn is StaleBlocksOn without materializing the block list — the
// allocation-free path behind Client.PendingMigrationBytes, safe to call
// concurrently from the migration pipeline's shards.
func (m *Master) StaleBytesOn(path string, worker WorkerID) (int64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	fi, ok := m.files[path]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	bit := m.bitOf(worker)
	var bytes int64
	for _, id := range fi.Blocks {
		if b := &m.blocks[id]; b.valid&bit == 0 {
			bytes += b.size
		}
	}
	return bytes, nil
}

// bitOf returns a worker's bit in the replica masks; an unknown worker's is
// 0, so it holds a valid replica of nothing (caller holds mu).
func (m *Master) bitOf(worker WorkerID) uint64 {
	if i, ok := m.workers[worker]; ok {
		return 1 << i
	}
	return 0
}

// grow returns s resliced to length n, zero-filling the new elements and at
// least doubling the capacity whenever it reallocates, so a table grown one
// element at a time allocates O(n) in total.  s must never have been
// shortened: the elements past its length must still be zero.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, max(n, 2*cap(s))-cap(s))...)[:n]
}

// nextIndex steps a block index forward, wrapping past a file's last block.
func nextIndex(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

func cloneFileInfo(fi *FileInfo) *FileInfo {
	out := *fi
	out.Blocks = make([]BlockID, len(fi.Blocks))
	copy(out.Blocks, fi.Blocks)
	return &out
}
