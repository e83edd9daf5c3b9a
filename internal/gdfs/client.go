package gdfs

import (
	"fmt"
	"math/bits"
	"sync"
)

// Cluster bundles a master with the block stores of its workers, all in
// the caller's process, so clients and replication rounds can reach every
// replica.  Re-replication is the caller's to run: ReplicateOnce is one
// synchronous round.
type Cluster struct {
	master *Master

	// stores is indexed by the master's worker index.
	mu     sync.RWMutex
	stores []BlockStore
}

// NewCluster returns a cluster around the given master.
func NewCluster(master *Master) *Cluster {
	return &Cluster{master: master}
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

// ReplicateOnce performs one round of re-replication synchronously and
// returns the number of replicas copied.
//
// The round plans, copies and commits under one master lock, so no write
// lands between a copy and its commit.  Every metadata-plane worker is
// locked once for the whole round, and a copy between two of them moves
// one BlockMeta record; a copy between payload workers lends the source's
// bytes to the destination.  A cluster is plane-homogeneous: a round makes
// no copy between a metadata-plane and a payload store.  A store that
// blocks stalls the round, and the master with it.
func (c *Cluster) ReplicateOnce() int {
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
			to := c.metaAt(d)
			switch {
			case from != nil || to != nil: // locked above: copy the record in place
				if ok && to != nil { // reserved above, and get vetted the record
					to.install(id, rec)
					done |= 1 << d
				}
			case c.copyAt(id, src, d) == nil:
				done |= 1 << d
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
	return copied
}

// copyAt copies one block from the store at worker index src to the store
// at dst (caller holds the master lock and mu).
func (c *Cluster) copyAt(id BlockID, src, dst int) error {
	ids := c.master.ids
	from, err := c.storeAt(ids[src], src)
	if err != nil {
		return err
	}
	to, err := c.storeAt(ids[dst], dst)
	if err != nil {
		return err
	}
	return copyData(id, from, to)
}

// copyData copies one block's replica from src to dst: between
// metadata-plane stores it moves the BlockMeta record and no bytes; a
// payload source lends its buffer to the destination's WriteBlock.
func copyData(id BlockID, src, dst BlockStore) error {
	switch s := src.(type) {
	case *MetaWorker:
		d, ok := dst.(*MetaWorker)
		if !ok {
			return fmt.Errorf("%w (block %d on worker %s)", ErrMetadataOnly, id, s.id)
		}
		m, ok := s.BlockMeta(id)
		if !ok {
			return fmt.Errorf("%w: block %d on worker %s", ErrBlockNotFound, id, s.id)
		}
		return d.PutBlockMeta(id, m)
	case *Worker:
		return s.borrowBlock(id, func(data []byte) error {
			return dst.WriteBlock(id, data)
		})
	}
	return fmt.Errorf("gdfs: worker %s cannot be a copy source", src.ID())
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
// replicas on the client's local worker.  The store registers each block
// without materializing its bytes, so this is O(blocks), not O(bytes).
func (cl *Client) Create(path string, size int64) (*FileInfo, error) {
	fi, err := cl.cluster.master.Create(path, size, cl.local)
	if err != nil {
		return nil, err
	}
	store, err := cl.localStore()
	if err != nil {
		return nil, err
	}
	for i, id := range fi.Blocks {
		if err := store.CreateBlock(id, fi.BlockSizeAt(i)); err != nil {
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
// payload stores receive the client's reusable zero buffer.  The range is
// written to the store and committed under one master lock; a
// metadata-plane store records it under one lock of its own, taken inside
// the master's (the order ReplicateOnce takes them in), so no replication
// round can copy an older replica over the range before the commit.  fi
// must come from Create or Stat; every write covers a whole block, so no
// remote fetch is ever needed.  This is the emulation's dirty-write hot
// path: one call per VM disk per hour.
func (cl *Client) DirtyRange(fi *FileInfo, first, count int) error {
	if err := checkRange(fi, first, count); err != nil {
		return err
	}
	store, err := cl.localStore()
	if err != nil {
		return err
	}
	m := cl.cluster.master
	m.mu.Lock()
	defer m.mu.Unlock()
	if w, ok := store.(*MetaWorker); ok {
		w.dirtyRange(fi, first, count)
	} else {
		for k, i := 0, first; k < count; k, i = k+1, nextIndex(i, len(fi.Blocks)) {
			if err := store.WriteBlock(fi.Blocks[i], cl.zeroBuf(fi.BlockSizeAt(i))); err != nil {
				return err
			}
		}
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
// described in the paper.  The fetch, the merge, the local write and the
// commit share one master lock, so no replication round can copy an older
// replica over the write before it commits.
func (cl *Client) WriteBlock(path string, index int, data []byte) error {
	store, err := cl.localStore()
	if err != nil {
		return err
	}
	m := cl.cluster.master
	m.mu.Lock()
	defer m.mu.Unlock()
	fi, ok := m.files[path]
	if !ok {
		return fmt.Errorf("%w: %s", ErrFileNotFound, path)
	}
	if index < 0 || index >= len(fi.Blocks) {
		return fmt.Errorf("gdfs: block index %d out of range for %s", index, path)
	}
	id := fi.Blocks[index]
	b, err := m.block(id)
	if err != nil {
		return err
	}
	if int64(len(data)) < b.size {
		// Merge a partial write over the current content.
		if b.valid&(1<<cl.idx) == 0 {
			if err := cl.fetchBlock(id, b); err != nil {
				return err
			}
		}
		buf, err := store.ReadBlock(id)
		if err != nil {
			return err
		}
		copy(buf, data)
		data = buf
	}
	if err := store.WriteBlock(id, data); err != nil {
		return err
	}
	return m.commitWrite(id, cl.idx)
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

// fetchBlock copies a valid replica of a block to the local worker, trying
// the valid holders in WorkerID order, and commits it (caller holds the
// master lock).
func (cl *Client) fetchBlock(id BlockID, b *blockMeta) error {
	c, m := cl.cluster, cl.cluster.master
	c.mu.RLock()
	defer c.mu.RUnlock()
	err := fmt.Errorf("%w: block %d", ErrNoValidReplica, id)
	for _, i := range m.order {
		if b.valid&(1<<i) == 0 {
			continue
		}
		if err = c.copyAt(id, i, cl.idx); err == nil {
			m.commitReplicas(id, b, 1<<cl.idx)
			return nil
		}
	}
	return err
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
