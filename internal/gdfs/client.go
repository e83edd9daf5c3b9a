package gdfs

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"
)

// Cluster bundles a master with the set of workers so clients and the
// background re-replicator can reach every block store.  The stores may be
// local (in-memory) or remote (rpc wrappers); the cluster does not care.
type Cluster struct {
	master *Master

	// stores is indexed by the master's worker index.
	mu     sync.RWMutex
	stores []BlockStore

	// copyMu serializes the copies made outside the master lock
	// (ReplicateOnce's payload and remote copies, fetches): two copies in
	// opposite directions between payload workers would otherwise each
	// hold one store's read lock while waiting for the other's write lock.
	copyMu sync.Mutex

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewCluster returns a cluster around the given master.
func NewCluster(master *Master) *Cluster {
	return &Cluster{
		master: master,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Master exposes the cluster's master.
func (c *Cluster) Master() *Master { return c.master }

// AddWorker registers a block store with the master and the cluster.
func (c *Cluster) AddWorker(store BlockStore, datacenter string) error {
	i, err := c.master.register(store.ID(), datacenter)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.stores) <= i {
		c.stores = append(c.stores, nil)
	}
	c.stores[i] = store
	return nil
}

// store returns the block store for a worker.
func (c *Cluster) store(id WorkerID) (BlockStore, error) {
	i, err := c.master.index(id)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.storeAt(id, i)
}

// storeAt returns the block store at a worker index (caller holds mu); id
// names the worker in the error.
func (c *Cluster) storeAt(id WorkerID, i int) (BlockStore, error) {
	if i >= len(c.stores) || c.stores[i] == nil {
		return nil, fmt.Errorf("%w: %s", ErrWorkerNotFound, id)
	}
	return c.stores[i], nil
}

// metaAt returns the store at a worker index if it is a metadata-plane
// worker, or nil (caller holds mu).
func (c *Cluster) metaAt(i int) *MetaWorker {
	if i < len(c.stores) {
		w, _ := c.stores[i].(*MetaWorker)
		return w
	}
	return nil
}

// StartReplicator launches the background re-replication loop, which
// periodically asks the master for under-replicated blocks and copies them.
// Stop it with StopReplicator.
func (c *Cluster) StartReplicator(interval time.Duration) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	go func() {
		defer close(c.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				c.ReplicateOnce()
			case <-c.stop:
				return
			}
		}
	}()
}

// StopReplicator stops the background loop and waits for it to exit.  It is
// safe to call even if StartReplicator was never called.
func (c *Cluster) StopReplicator() {
	c.stopOnce.Do(func() { close(c.stop) })
	select {
	case <-c.done:
	case <-time.After(2 * time.Second):
	}
}

// ReplicateOnce performs one round of re-replication synchronously and
// returns the number of blocks copied.
//
// The round plans under one master lock.  Copies between metadata-plane
// workers move a BlockMeta record each and commit under that same lock,
// with every such worker locked once for the whole round, so no write can
// land between one of these copies and its commit.  Copies with a payload
// or remote store at either end run after every lock is released, so a
// slow store stalls the round but never the master; each commits only if
// its block was not deleted or rewritten since the plan.  What these
// copies do not exclude is a write into the destination replica itself
// while the copy runs: the copy can overwrite it.
func (c *Cluster) ReplicateOnce() int {
	copied, rest := c.replicateMeta()
	if len(rest) == 0 {
		return copied
	}
	c.copyMu.Lock()
	defer c.copyMu.Unlock()
	for _, p := range rest {
		if copyData(p.block, p.src, p.dst) == nil && c.master.commitCopy(p.block, p.to, p.gen) {
			copied++
		}
	}
	return copied
}

// pendingCopy is a planned copy that runs outside the master lock.
type pendingCopy struct {
	block    BlockID
	src, dst BlockStore
	to       int    // the destination's worker index
	gen      uint64 // the block's write generation at the plan
}

// replicateMeta plans a round under the master lock, makes and commits its
// metadata-to-metadata copies, and returns how many it made along with the
// copies left for the caller to make without the lock.
func (c *Cluster) replicateMeta() (int, []pendingCopy) {
	m := c.master
	m.mu.Lock()
	defer m.mu.Unlock()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for i := range c.stores {
		if w := c.metaAt(i); w != nil {
			w.mu.Lock()
			w.reserve(len(m.blocks))
		}
	}
	copied := 0
	var rest []pendingCopy
	m.plan(func(id BlockID, src int, stale, fresh uint64) {
		from := c.metaAt(src)
		var rec BlockMeta
		ok := false
		if from != nil {
			rec, ok = from.get(id)
		}
		var done uint64
		for dests := stale | fresh; dests != 0; dests &= dests - 1 {
			d := bits.TrailingZeros64(dests)
			if to := c.metaAt(d); from != nil && to != nil {
				if ok { // reserved above, and get vetted the record
					to.install(id, rec)
					done |= 1 << d
				}
				continue
			}
			s, err := c.storeAt(m.ids[src], src)
			if err != nil {
				continue
			}
			if t, err := c.storeAt(m.ids[d], d); err == nil {
				rest = append(rest, pendingCopy{block: id, src: s, dst: t, to: d, gen: m.blocks[id].gen})
			}
		}
		if done != 0 {
			m.commitReplicas(id, &m.blocks[id], done)
			copied += bits.OnesCount64(done)
		}
	})
	for i := range c.stores {
		if w := c.metaAt(i); w != nil {
			w.mu.Unlock()
		}
	}
	return copied, rest
}

// copyBlock copies one block between workers and commits the new replica.
func (c *Cluster) copyBlock(id BlockID, from, to WorkerID) error {
	src, err := c.store(from)
	if err != nil {
		return err
	}
	dst, err := c.store(to)
	if err != nil {
		return err
	}
	c.copyMu.Lock()
	defer c.copyMu.Unlock()
	if err := copyData(id, src, dst); err != nil {
		return err
	}
	return c.master.CommitReplica(id, to)
}

// copyData copies one block's replica from src to dst by the cheapest path
// the two stores support: metadata-to-metadata replication moves a
// BlockMeta record and no bytes; a borrowable source lends its buffer to
// the destination's WriteBlock (one copy instead of two); otherwise it
// falls back to ReadBlock+WriteBlock.
func copyData(id BlockID, src, dst BlockStore) error {
	if msrc, ok := src.(metaSource); ok {
		if msink, ok := dst.(metaSink); ok {
			m, ok := msrc.BlockMeta(id)
			if !ok {
				return fmt.Errorf("%w: block %d on worker %s", ErrBlockNotFound, id, src.ID())
			}
			return msink.PutBlockMeta(id, m)
		}
	}
	if bsrc, ok := src.(borrowReader); ok {
		return bsrc.borrowBlock(id, func(data []byte) error {
			return dst.WriteBlock(id, data)
		})
	}
	data, err := src.ReadBlock(id)
	if err != nil {
		return err
	}
	return dst.WriteBlock(id, data)
}

// Client is a GDFS client bound to one datacenter: writes go to the local
// worker first, reads prefer the local replica.
//
// A Client is safe for concurrent use except DirtyBlock and DirtyRange,
// whose reusable zero buffer makes them single-goroutine (one client per
// emulation datacenter, dirty writes issued from the hour loop).
type Client struct {
	cluster *Cluster
	local   WorkerID
	// idx is the local worker's index at the master.
	idx int
	// zero is the reusable all-zero buffer DirtyRange writes through
	// payload stores, allocated once per client instead of per block.
	zero []byte
}

// NewClient returns a client whose local worker is the given one.
func (c *Cluster) NewClient(local WorkerID) (*Client, error) {
	cl := &Client{cluster: c, local: local}
	var err error
	if cl.idx, err = c.master.index(local); err != nil {
		return nil, err
	}
	if _, err := cl.localStore(); err != nil {
		return nil, err
	}
	return cl, nil
}

// localStore returns the store of the client's local worker.
func (cl *Client) localStore() (BlockStore, error) {
	cl.cluster.mu.RLock()
	defer cl.cluster.mu.RUnlock()
	return cl.cluster.storeAt(cl.local, cl.idx)
}

// Create adds a file of the given size filled with zeroes, with its primary
// replicas on the client's local worker.  Stores that support metadata
// registration (all in-process stores) make this O(blocks), not O(bytes);
// remote stores fall back to writing pooled zero buffers.
func (cl *Client) Create(path string, size int64) (*FileInfo, error) {
	fi, err := cl.cluster.master.Create(path, size, cl.local)
	if err != nil {
		return nil, err
	}
	store, err := cl.localStore()
	if err != nil {
		return nil, err
	}
	if bc, ok := store.(blockCreator); ok {
		for i, id := range fi.Blocks {
			if err := bc.CreateBlock(id, fi.BlockSizeAt(i)); err != nil {
				return nil, err
			}
		}
		return fi, nil
	}
	for i, id := range fi.Blocks {
		if err := store.WriteBlock(id, cl.zeroBuf(fi.BlockSizeAt(i))); err != nil {
			return nil, err
		}
	}
	return fi, nil
}

// zeroBuf returns an all-zero buffer of length n, reused across calls.
func (cl *Client) zeroBuf(n int64) []byte {
	if int64(len(cl.zero)) < n {
		cl.zero = make([]byte, n)
	}
	return cl.zero[:n]
}

// checkRange validates a range of count block indices of fi starting at
// first; the range may wrap past the last block but not overlap itself.
func checkRange(fi *FileInfo, first, count int) error {
	if first < 0 || first >= len(fi.Blocks) {
		return fmt.Errorf("gdfs: block index %d out of range for %s", first, fi.Path)
	}
	if count < 0 || count > len(fi.Blocks) {
		return fmt.Errorf("gdfs: block count %d out of range for %s", count, fi.Path)
	}
	return nil
}

// DirtyRange overwrites count whole blocks of a file at the local
// datacenter, from block index first and wrapping past the file's last
// block, through the write-invalidate protocol without the caller
// materializing payload bytes: metadata-plane stores record version bumps,
// payload stores receive the client's reusable zero buffer.  The master
// commits the range under one lock.  A metadata-plane store records it
// under one lock of its own, taken inside the master's (the order
// ReplicateOnce takes them in), so no replication round can copy an older
// record over the range before the commit.  fi must come from Create or
// Stat; every write covers a whole block, so no remote fetch is ever
// needed.  This is the emulation's dirty-write hot path: one call per VM
// disk per hour.
func (cl *Client) DirtyRange(fi *FileInfo, first, count int) error {
	if err := checkRange(fi, first, count); err != nil {
		return err
	}
	store, err := cl.localStore()
	if err != nil {
		return err
	}
	m := cl.cluster.master
	bd, ok := store.(blockDirtier)
	if !ok {
		for k, i := 0, first; k < count; k, i = k+1, nextIndex(i, len(fi.Blocks)) {
			if err := store.WriteBlock(fi.Blocks[i], cl.zeroBuf(fi.BlockSizeAt(i))); err != nil {
				return err
			}
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		bd.dirtyRange(fi, first, count)
	}
	return m.commitWrites(fi, first, count, cl.idx)
}

// DirtyBlock is DirtyRange for the single block at index.
func (cl *Client) DirtyBlock(fi *FileInfo, index int) error {
	return cl.DirtyRange(fi, index, 1)
}

// WriteBlock overwrites one block of a file through the write-invalidate
// protocol: write locally, then invalidate remote replicas at the master.
// If the local worker has no valid replica and the write does not cover the
// whole block, the client first fetches a copy from another datacenter, as
// described in the paper.
func (cl *Client) WriteBlock(path string, index int, data []byte) error {
	fi, err := cl.cluster.master.Stat(path)
	if err != nil {
		return err
	}
	if index < 0 || index >= len(fi.Blocks) {
		return fmt.Errorf("gdfs: block index %d out of range for %s", index, path)
	}
	id := fi.Blocks[index]
	store, err := cl.localStore()
	if err != nil {
		return err
	}

	loc, err := cl.cluster.master.BlockLocations(id)
	if err != nil {
		return err
	}
	localValid := containsWorker(loc.Valid, cl.local)
	partial := int64(len(data)) < loc.Size
	if !localValid && partial {
		if err := cl.fetchBlock(id, loc); err != nil {
			return err
		}
	}

	// Merge a partial write over the existing local content.
	var buf []byte
	if partial && store.HasBlock(id) {
		existing, err := store.ReadBlock(id)
		if err != nil {
			return err
		}
		buf = existing
		copy(buf, data)
	} else {
		buf = data
	}
	if err := store.WriteBlock(id, buf); err != nil {
		return err
	}
	return cl.cluster.master.CommitWrite(id, cl.local)
}

// ReadBlock reads one block of a file, preferring the local replica and
// falling back to any valid remote replica.
func (cl *Client) ReadBlock(path string, index int) ([]byte, error) {
	fi, err := cl.cluster.master.Stat(path)
	if err != nil {
		return nil, err
	}
	if index < 0 || index >= len(fi.Blocks) {
		return nil, fmt.Errorf("gdfs: block index %d out of range for %s", index, path)
	}
	id := fi.Blocks[index]
	loc, err := cl.cluster.master.BlockLocations(id)
	if err != nil {
		return nil, err
	}
	if containsWorker(loc.Valid, cl.local) {
		store, err := cl.localStore()
		if err != nil {
			return nil, err
		}
		return store.ReadBlock(id)
	}
	for _, w := range loc.Valid {
		store, err := cl.cluster.store(w)
		if err != nil {
			continue
		}
		data, err := store.ReadBlock(id)
		if err == nil {
			return data, nil
		}
	}
	return nil, fmt.Errorf("%w: block %d of %s", ErrNoValidReplica, id, path)
}

// fetchBlock pulls a valid replica of a block to the local worker and
// registers it with the master.
func (cl *Client) fetchBlock(id BlockID, loc *BlockInfo) error {
	if len(loc.Valid) == 0 {
		return fmt.Errorf("%w: block %d", ErrNoValidReplica, id)
	}
	var lastErr error
	for _, w := range loc.Valid {
		if err := cl.cluster.copyBlock(id, w, cl.local); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	if lastErr == nil {
		lastErr = errors.New("gdfs: fetch failed")
	}
	return lastErr
}

// PendingMigrationBytes returns how many bytes of the file would have to be
// shipped to move its workload to the given datacenter right now (the blocks
// whose replica there is stale or missing).
func (cl *Client) PendingMigrationBytes(path string, dest WorkerID) (int64, error) {
	return cl.cluster.master.StaleBytesOn(path, dest)
}

func containsWorker(list []WorkerID, id WorkerID) bool {
	for _, w := range list {
		if w == id {
			return true
		}
	}
	return false
}
