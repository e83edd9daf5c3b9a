package gdfs

import (
	"fmt"
	"sync"
)

// BlockStore is a worker's replica store, living in the same process as
// its cluster and reached by clients and by replication rounds.  Worker
// stores payload bytes; MetaWorker stores a replica as a metadata record
// (see meta.go).  A cluster is plane-homogeneous: replicas are copied
// between stores of one kind.
type BlockStore interface {
	// ID returns the worker's identity.
	ID() WorkerID
	// CreateBlock registers a fresh all-zero block of the given size
	// without the caller materializing its bytes.
	CreateBlock(id BlockID, size int64) error
	// WriteBlock stores (or overwrites) a block replica.
	WriteBlock(id BlockID, data []byte) error
	// ReadBlock returns a copy of a block replica.
	ReadBlock(id BlockID) ([]byte, error)
	// HasBlock reports whether the worker holds a replica (valid or stale).
	HasBlock(id BlockID) bool
	// DeleteBlock removes a replica.
	DeleteBlock(id BlockID) error
	// BytesStored returns the total bytes held.
	BytesStored() int64
}

// blockPool recycles DefaultBlockSize payload buffers across WriteBlock /
// DeleteBlock cycles so the payload plane's steady state stops allocating
// 4 MiB per write.  Stored as *[]byte (sync.Pool boxes its values; a bare
// slice would allocate a fresh header on every Put).
var blockPool = sync.Pool{New: func() any {
	b := make([]byte, DefaultBlockSize)
	return &b
}}

// getBuf returns a length-n buffer with unspecified contents, pooled when
// n fits the standard block size.
func getBuf(n int) []byte {
	if n > DefaultBlockSize {
		return make([]byte, n)
	}
	return (*(blockPool.Get().(*[]byte)))[:n]
}

// putBuf returns a buffer to the pool.  Oversized one-off buffers are left
// to the garbage collector so the pool holds only standard blocks.
func putBuf(buf []byte) {
	if cap(buf) < DefaultBlockSize {
		return
	}
	buf = buf[:DefaultBlockSize]
	blockPool.Put(&buf)
}

// zeroPayload is the shared all-zero block lent out by borrowBlock for
// lazily created zero blocks.  Read-only by contract.
var zeroPayload = make([]byte, DefaultBlockSize)

// payloadBlock is one replica held by a payload Worker.  A nil buf with
// size > 0 is an all-zero block registered by CreateBlock that has never
// been written; ReadBlock materializes it lazily.
type payloadBlock struct {
	buf  []byte
	size int64
}

// Worker is an in-memory payload block store, one per datacenter in a
// payload-plane cluster.
type Worker struct {
	id     WorkerID
	mu     sync.RWMutex
	blocks map[BlockID]payloadBlock
	bytes  int64
}

var _ BlockStore = (*Worker)(nil)

// NewWorker returns an empty worker.
func NewWorker(id WorkerID) *Worker {
	return &Worker{id: id, blocks: make(map[BlockID]payloadBlock)}
}

// ID returns the worker's identity.
func (w *Worker) ID() WorkerID { return w.id }

// WriteBlock stores a copy of data as the block's replica, reusing the
// existing buffer (or a pooled one) instead of allocating.
func (w *Worker) WriteBlock(id BlockID, data []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	old, ok := w.blocks[id]
	buf := old.buf
	if cap(buf) < len(data) {
		if buf != nil {
			putBuf(buf)
		}
		buf = getBuf(len(data))
	} else {
		buf = buf[:len(data)]
	}
	copy(buf, data)
	if ok {
		w.bytes -= old.size
	}
	w.bytes += int64(len(data))
	w.blocks[id] = payloadBlock{buf: buf, size: int64(len(data))}
	return nil
}

// CreateBlock registers an all-zero block of the given size without
// materializing its bytes.
func (w *Worker) CreateBlock(id BlockID, size int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if old, ok := w.blocks[id]; ok {
		if old.buf != nil {
			putBuf(old.buf)
		}
		w.bytes -= old.size
	}
	w.bytes += size
	w.blocks[id] = payloadBlock{size: size}
	return nil
}

// ReadBlock returns a copy of the block's replica.
func (w *Worker) ReadBlock(id BlockID) ([]byte, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	b, ok := w.blocks[id]
	if !ok {
		return nil, fmt.Errorf("%w: block %d on worker %s", ErrBlockNotFound, id, w.id)
	}
	out := make([]byte, b.size)
	copy(out, b.buf) // nil buf: the block is all zeros, out already is
	return out, nil
}

// borrowBlock lends the replica's bytes to f without copying — the
// replication copy path.  The slice is only valid during the call; for
// never-written zero blocks it is the shared zeroPayload, so f must treat
// it as read-only, and f must not call back into the same store.
func (w *Worker) borrowBlock(id BlockID, f func(data []byte) error) error {
	w.mu.RLock()
	defer w.mu.RUnlock()
	b, ok := w.blocks[id]
	if !ok {
		return fmt.Errorf("%w: block %d on worker %s", ErrBlockNotFound, id, w.id)
	}
	if b.buf != nil {
		return f(b.buf)
	}
	if b.size <= int64(len(zeroPayload)) {
		return f(zeroPayload[:b.size])
	}
	return f(make([]byte, b.size))
}

// HasBlock reports whether the worker holds the block.
func (w *Worker) HasBlock(id BlockID) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	_, ok := w.blocks[id]
	return ok
}

// DeleteBlock removes the block's replica if present, returning its buffer
// to the pool.
func (w *Worker) DeleteBlock(id BlockID) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if b, ok := w.blocks[id]; ok {
		if b.buf != nil {
			putBuf(b.buf)
		}
		w.bytes -= b.size
		delete(w.blocks, id)
	}
	return nil
}

// BytesStored returns the total bytes held by the worker (maintained
// arithmetically, O(1)).
func (w *Worker) BytesStored() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.bytes
}
