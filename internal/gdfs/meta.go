package gdfs

import (
	"errors"
	"fmt"
	"sync"
)

// ErrMetadataOnly is returned by MetaWorker.ReadBlock: the metadata plane
// tracks what the paper measures (versions, lengths, staleness, transferred
// bytes) and never holds payload bytes to serve.
var ErrMetadataOnly = errors.New("gdfs: metadata-plane store holds no payload")

// BlockMeta is a block replica reduced to scalars.  Two replicas hold the
// same content iff their BlockMeta are equal: every mutation bumps Version
// (a replica's first version is 1), and Digest is a deterministic function
// of the content (or, for synthetic dirty writes, of the block identity and
// version).
type BlockMeta struct {
	Version uint64
	Length  int64
	Digest  uint64
}

// MetaWorker is the metadata-plane BlockStore: a replica is a BlockMeta
// record instead of a byte slice, and BytesStored is maintained
// arithmetically.  It moves through the same master protocol (writes,
// replication rounds, UnderReplicated, StaleBlocksOn) as the payload
// Worker, so every externally visible counter matches the payload plane
// byte for byte — pinned by TestMetaPayloadEquivalence.  ReadBlock is the
// one deliberate gap (ErrMetadataOnly): a cluster must be plane-homogeneous,
// since no copy runs between a metadata and a payload store.
//
// The records live in a slice indexed by BlockID, which grows to the
// largest ID stored: IDs must be the dense, sequential ones a Master
// allocates.  A client's dirty range is recorded under one lock, and a
// cluster's replication round locks each MetaWorker once for all its
// copies (Cluster.ReplicateOnce).
type MetaWorker struct {
	id WorkerID
	mu sync.RWMutex
	// slots is indexed by BlockID; a zero record (Version 0) is a block
	// the worker does not hold.
	slots []BlockMeta
	bytes int64
}

var _ BlockStore = (*MetaWorker)(nil)

// NewMetaWorker returns an empty metadata-plane worker.
func NewMetaWorker(id WorkerID) *MetaWorker {
	return &MetaWorker{id: id}
}

// ID returns the worker's identity.
func (w *MetaWorker) ID() WorkerID { return w.id }

// reserve extends the table to cover block IDs below n, so install can
// store them (caller holds mu for writing).
func (w *MetaWorker) reserve(n int) {
	if n > len(w.slots) {
		w.slots = grow(w.slots, n)
	}
}

// install replaces the record of a block ID the table covers, accounting
// the bytes (caller holds mu for writing).
func (w *MetaWorker) install(id BlockID, m BlockMeta) {
	s := &w.slots[id]
	w.bytes += m.Length - s.Length
	*s = m
}

// set checks a record and installs it, growing the table to cover it
// (caller holds mu for writing).
func (w *MetaWorker) set(id BlockID, m BlockMeta) error {
	if id < 0 {
		return fmt.Errorf("%w: %d", ErrBlockNotFound, id)
	}
	if m.Version == 0 {
		return fmt.Errorf("gdfs: block %d: a replica record needs a version", id)
	}
	w.reserve(int(id) + 1)
	w.install(id, m)
	return nil
}

// get returns the block's record (caller holds mu).
func (w *MetaWorker) get(id BlockID) (BlockMeta, bool) {
	if id < 0 || id >= BlockID(len(w.slots)) {
		return BlockMeta{}, false
	}
	m := w.slots[id]
	return m, m.Version != 0
}

// digestBytes fingerprints payload content (FNV-1a) so a payload write
// through the generic interface still lands with a content-derived digest.
func digestBytes(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h = (h ^ uint64(b)) * prime64
	}
	return h
}

// dirtyDigest synthesizes the digest of a metadata-only whole-block
// overwrite.  Replicas produced by copying this version carry the same
// digest, so "same digest ⇔ same content" is preserved without bytes.
func dirtyDigest(id BlockID, version uint64) uint64 {
	h := uint64(id)*0x9e3779b97f4a7c15 + 0x165667b19e3779f9
	h ^= version * 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// zeroDigest is the digest of a never-written all-zero block of the given
// size; it matches across planes only in being deterministic, which is all
// the equivalence contract needs (digests are never compared across planes).
func zeroDigest(size int64) uint64 { return uint64(size) * 0xc2b2ae3d27d4eb4f }

// WriteBlock records a payload write as metadata: version bump, new length,
// content digest.
func (w *MetaWorker) WriteBlock(id BlockID, data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	old, _ := w.get(id)
	return w.set(id, BlockMeta{Version: old.Version + 1, Length: int64(len(data)), Digest: digestBytes(data)})
}

// CreateBlock registers a fresh all-zero block of the given size.
func (w *MetaWorker) CreateBlock(id BlockID, size int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	old, _ := w.get(id)
	return w.set(id, BlockMeta{Version: old.Version + 1, Length: size, Digest: zeroDigest(size)})
}

// dirtyRange records whole-block overwrites of count blocks of fi, from
// block index first and wrapping past the last block, without any payload:
// per block a version bump plus a synthetic content digest, all under one
// lock.  Client.DirtyRange has checked the range, and fi's block IDs come
// from a master, so every record is valid.
func (w *MetaWorker) dirtyRange(fi *FileInfo, first, count int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for k, i := 0, first; k < count; k, i = k+1, nextIndex(i, len(fi.Blocks)) {
		id := fi.Blocks[i]
		old, _ := w.get(id)
		v := old.Version + 1
		w.reserve(int(id) + 1)
		w.install(id, BlockMeta{Version: v, Length: fi.BlockSizeAt(i), Digest: dirtyDigest(id, v)})
	}
}

// ReadBlock always fails: see ErrMetadataOnly.
func (w *MetaWorker) ReadBlock(id BlockID) ([]byte, error) {
	return nil, fmt.Errorf("%w (block %d on worker %s)", ErrMetadataOnly, id, w.id)
}

// BlockMeta returns the replica's metadata record.
func (w *MetaWorker) BlockMeta(id BlockID) (BlockMeta, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.get(id)
}

// PutBlockMeta installs a replica copied from another metadata store,
// accounting the bytes arithmetically.
func (w *MetaWorker) PutBlockMeta(id BlockID, m BlockMeta) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.set(id, m)
}

// HasBlock reports whether the worker holds the block.
func (w *MetaWorker) HasBlock(id BlockID) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	_, ok := w.get(id)
	return ok
}

// DeleteBlock removes the block's replica if present.
func (w *MetaWorker) DeleteBlock(id BlockID) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if m, ok := w.get(id); ok {
		w.bytes -= m.Length
		w.slots[id] = BlockMeta{}
	}
	return nil
}

// BytesStored returns the total bytes the worker accounts for.
func (w *MetaWorker) BytesStored() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.bytes
}
