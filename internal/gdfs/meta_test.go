package gdfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// planePair is one cluster per data plane, driven through identical op
// sequences so every externally visible counter can be compared.  workers
// is sorted by WorkerID; clients are indexed like it.
type planePair struct {
	payload, meta               *Cluster
	payloadClients, metaClients []*Client
	workers                     []WorkerID
	replication                 int
}

func newPlanePair(t *testing.T, nWorkers, replication int) *planePair {
	t.Helper()
	order := make([]WorkerID, nWorkers)
	for i := range order {
		order[i] = WorkerID(fmt.Sprintf("dc-%d", i))
	}
	return newPlanePairOrdered(t, order, order, replication)
}

// newPlanePairOrdered registers the same workers with each plane's master
// in its own order, so any result that depends on registration order (a
// planner walking worker indices instead of WorkerIDs) splits the planes.
func newPlanePairOrdered(t *testing.T, payloadOrder, metaOrder []WorkerID, replication int) *planePair {
	t.Helper()
	p := &planePair{
		payload:     NewCluster(NewMaster(replication)),
		meta:        NewCluster(NewMaster(replication)),
		workers:     slices.Sorted(slices.Values(payloadOrder)),
		replication: replication,
	}
	for i := range payloadOrder {
		if err := p.payload.AddWorker(NewWorker(payloadOrder[i]), string(payloadOrder[i])); err != nil {
			t.Fatal(err)
		}
		if err := p.meta.AddWorker(NewMetaWorker(metaOrder[i]), string(metaOrder[i])); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range p.workers {
		pc, err := p.payload.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		mc, err := p.meta.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		p.payloadClients = append(p.payloadClients, pc)
		p.metaClients = append(p.metaClients, mc)
	}
	return p
}

// check asserts the two planes agree on every externally visible counter:
// per-worker BytesStored, per-block replica sets, the re-replication plan,
// and pending-migration bytes for every (file, worker) pair.  It also holds
// the plan to an oracle built from the replica sets and the sorted worker
// list, and requires every valid replica on the metadata plane to carry the
// same record.
func (p *planePair) check(t *testing.T, label string) {
	t.Helper()
	for _, w := range p.workers {
		ps, _ := p.payload.store(w)
		ms, _ := p.meta.store(w)
		if pb, mb := ps.BytesStored(), ms.BytesStored(); pb != mb {
			t.Fatalf("%s: worker %s BytesStored payload=%d meta=%d", label, w, pb, mb)
		}
	}
	pTasks := p.payload.Master().UnderReplicated()
	mTasks := p.meta.Master().UnderReplicated()
	if len(pTasks) != len(mTasks) {
		t.Fatalf("%s: UnderReplicated payload=%d tasks meta=%d tasks", label, len(pTasks), len(mTasks))
	}
	for i := range pTasks {
		if pTasks[i] != mTasks[i] {
			t.Fatalf("%s: task %d payload=%+v meta=%+v", label, i, pTasks[i], mTasks[i])
		}
	}
	var want []ReplicationTask
	var blocks []BlockID
	for _, path := range p.payload.Master().Files() {
		fi, err := p.payload.Master().Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, fi.Blocks...)
		for _, id := range fi.Blocks {
			pl, err := p.payload.Master().BlockLocations(id)
			if err != nil {
				t.Fatal(err)
			}
			ml, err := p.meta.Master().BlockLocations(id)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(pl) != fmt.Sprint(ml) {
				t.Fatalf("%s: block %d locations payload=%v meta=%v", label, id, pl, ml)
			}
			p.checkValidRecords(t, label, id, ml.Valid)
		}
		for wi, w := range p.workers {
			pb, err := p.payloadClients[wi].PendingMigrationBytes(path, w)
			if err != nil {
				t.Fatal(err)
			}
			mb, err := p.metaClients[wi].PendingMigrationBytes(path, w)
			if err != nil {
				t.Fatal(err)
			}
			if pb != mb {
				t.Fatalf("%s: pending bytes to %s for %s payload=%d meta=%d", label, w, path, pb, mb)
			}
		}
	}
	slices.Sort(blocks)
	for _, id := range blocks {
		loc, _ := p.meta.Master().BlockLocations(id)
		want = append(want, p.oraclePlan(loc)...)
	}
	if fmt.Sprint(want) != fmt.Sprint(mTasks) {
		t.Fatalf("%s: UnderReplicated = %v, oracle wants %v", label, mTasks, want)
	}
}

// oraclePlan is the documented re-replication plan of one block, derived
// from its replica sets alone: copy from the first valid holder in WorkerID
// order to the stale holders, then to the workers holding nothing, each in
// WorkerID order, until the block has `replication` valid replicas.
func (p *planePair) oraclePlan(loc *BlockInfo) []ReplicationTask {
	valid := slices.Sorted(slices.Values(loc.Valid))
	stale := slices.Sorted(slices.Values(loc.Stale))
	need := p.replication - len(valid)
	if len(valid) == 0 || need <= 0 {
		return nil
	}
	dests := stale
	for _, w := range p.workers {
		if !slices.Contains(valid, w) && !slices.Contains(stale, w) {
			dests = append(dests, w)
		}
	}
	var out []ReplicationTask
	for _, d := range dests[:min(need, len(dests))] {
		out = append(out, ReplicationTask{Block: loc.ID, Source: valid[0], Dest: d})
	}
	return out
}

// checkValidRecords requires every valid replica of a block on the metadata
// plane to hold the same record: a copy marked valid must be a copy of the
// current content, however writes and replication rounds interleaved.
func (p *planePair) checkValidRecords(t *testing.T, label string, id BlockID, valid []WorkerID) {
	t.Helper()
	var first BlockMeta
	for i, w := range valid {
		s, _ := p.meta.store(w)
		rec, ok := s.(*MetaWorker).BlockMeta(id)
		if !ok {
			t.Fatalf("%s: block %d valid on %s but not stored there", label, id, w)
		}
		if i == 0 {
			first = rec
		} else if rec != first {
			t.Fatalf("%s: block %d valid replicas differ: %s=%+v %s=%+v", label, id, valid[0], first, w, rec)
		}
	}
}

// TestMetaPayloadEquivalence drives both planes through the emulation's op
// mix — create, whole-block dirty writes, re-replication, pending-bytes
// queries — with a seeded random schedule and asserts byte-for-byte equal
// counters after every step.
func TestMetaPayloadEquivalence(t *testing.T) {
	p := newPlanePair(t, 3, 3)
	rng := rand.New(rand.NewSource(7))

	type file struct {
		home     int
		pfi, mfi *FileInfo
	}
	var files []file
	sizes := []int64{DefaultBlockSize * 4, DefaultBlockSize*2 + 12345, 777, DefaultBlockSize * 16}
	for i, size := range sizes {
		home := i % len(p.workers)
		path := fmt.Sprintf("/vm/%d/disk", i)
		pfi, err := p.payloadClients[home].Create(path, size)
		if err != nil {
			t.Fatal(err)
		}
		mfi, err := p.metaClients[home].Create(path, size)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, file{home: home, pfi: pfi, mfi: mfi})
	}
	p.check(t, "after create")

	for round := 0; round < 30; round++ {
		switch rng.Intn(3) {
		case 0: // dirty a random block of a random file at its home
			f := &files[rng.Intn(len(files))]
			b := rng.Intn(len(f.pfi.Blocks))
			if err := p.payloadClients[f.home].DirtyBlock(f.pfi, b); err != nil {
				t.Fatal(err)
			}
			if err := p.metaClients[f.home].DirtyBlock(f.mfi, b); err != nil {
				t.Fatal(err)
			}
		case 1: // the file "migrates": dirty writes start at a new home
			f := &files[rng.Intn(len(files))]
			f.home = rng.Intn(len(p.workers))
		case 2: // background re-replication round
			pc := p.payload.ReplicateOnce()
			mc := p.meta.ReplicateOnce()
			if pc != mc {
				t.Fatalf("round %d: ReplicateOnce payload=%d meta=%d", round, pc, mc)
			}
		}
		p.check(t, fmt.Sprintf("round %d", round))
	}
}

// TestMetaPayloadEquivalenceConcurrent dirties disjoint files from
// concurrent goroutines on both planes (run under -race by make test).
// Per-file writers keep the final state deterministic, so the planes must
// still agree counter-for-counter.
func TestMetaPayloadEquivalenceConcurrent(t *testing.T) {
	p := newPlanePair(t, 3, 3)
	const nFiles = 8
	type file struct {
		home     int
		pfi, mfi *FileInfo
	}
	files := make([]file, nFiles)
	for i := range files {
		home := i % len(p.workers)
		path := fmt.Sprintf("/vm/%d/disk", i)
		pfi, err := p.payloadClients[home].Create(path, DefaultBlockSize*4)
		if err != nil {
			t.Fatal(err)
		}
		mfi, err := p.metaClients[home].Create(path, DefaultBlockSize*4)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = file{home: home, pfi: pfi, mfi: mfi}
	}
	p.payload.ReplicateOnce()
	p.meta.ReplicateOnce()

	var wg sync.WaitGroup
	errs := make([]error, nFiles)
	for i := range files {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := files[i]
			// One writer per file with its own clients (DirtyBlock's zero
			// buffer makes a Client single-goroutine); different files
			// race only on the master's lock, not on any block.
			pc, err := p.payload.NewClient(p.workers[f.home])
			if err != nil {
				errs[i] = err
				return
			}
			mc, err := p.meta.NewClient(p.workers[f.home])
			if err != nil {
				errs[i] = err
				return
			}
			for round := 0; round < 20; round++ {
				b := (i + round) % len(f.pfi.Blocks)
				if err := pc.DirtyBlock(f.pfi, b); err != nil {
					errs[i] = err
					return
				}
				if err := mc.DirtyBlock(f.mfi, b); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if pc, mc := p.payload.ReplicateOnce(), p.meta.ReplicateOnce(); pc != mc {
		t.Fatalf("ReplicateOnce payload=%d meta=%d", pc, mc)
	}
	p.check(t, "after concurrent dirtying")
}

// TestMetaPayloadEquivalenceDense drives both planes through the cases the
// dense worker and block indices must get right: four workers registered in
// a different non-sorted order on each plane, dirty ranges that wrap past a
// file's last block, and a Delete mid-schedule followed by a Create whose
// blocks land after the tombstones.  It runs at replication equal to the
// worker count (the emulation's setting, where every round copies to all
// non-valid workers) and at replication 2, where the planner must choose
// which worker gets the one missing copy.  Plans, replica sets and counters
// must agree after every step, and the plan must match the WorkerID-order
// oracle.
func TestMetaPayloadEquivalenceDense(t *testing.T) {
	for _, replication := range []int{4, 2} {
		t.Run(fmt.Sprintf("replication=%d", replication), func(t *testing.T) {
			testDenseSchedule(t, replication)
		})
	}
}

func testDenseSchedule(t *testing.T, replication int) {
	p := newPlanePairOrdered(t,
		[]WorkerID{"dc-2", "dc-0", "dc-3", "dc-1"},
		[]WorkerID{"dc-3", "dc-1", "dc-2", "dc-0"}, replication)
	rng := rand.New(rand.NewSource(11))

	type file struct {
		path     string
		home     int
		pfi, mfi *FileInfo
	}
	var files []*file
	create := func(path string, size int64, home int) {
		t.Helper()
		pfi, err := p.payloadClients[home].Create(path, size)
		if err != nil {
			t.Fatal(err)
		}
		mfi, err := p.metaClients[home].Create(path, size)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, &file{path: path, home: home, pfi: pfi, mfi: mfi})
	}
	create("/vm/a/disk", DefaultBlockSize*2+100, 0)
	create("/vm/b/disk", DefaultBlockSize+5, 1)
	create("/vm/c/disk", 777, 3)
	p.check(t, "after create")

	// The wrapping range: the last block, then the first one.
	f := files[0]
	if err := p.payloadClients[f.home].DirtyRange(f.pfi, 2, 2); err != nil {
		t.Fatal(err)
	}
	if err := p.metaClients[f.home].DirtyRange(f.mfi, 2, 2); err != nil {
		t.Fatal(err)
	}
	p.check(t, "after wrapping dirty")

	for round := 0; round < 40; round++ {
		switch op := rng.Intn(4); {
		case round == 20: // delete a file mid-schedule, then create another
			gone := files[1]
			if err := p.payload.Master().Delete(gone.path); err != nil {
				t.Fatal(err)
			}
			if err := p.meta.Master().Delete(gone.path); err != nil {
				t.Fatal(err)
			}
			files = slices.Delete(files, 1, 2)
			create("/vm/d/disk", DefaultBlockSize+9, 2)
		case op == 0: // dirty a random (possibly wrapping) range at home
			f := files[rng.Intn(len(files))]
			n := len(f.pfi.Blocks)
			first, count := rng.Intn(n), 1+rng.Intn(n)
			if err := p.payloadClients[f.home].DirtyRange(f.pfi, first, count); err != nil {
				t.Fatal(err)
			}
			if err := p.metaClients[f.home].DirtyRange(f.mfi, first, count); err != nil {
				t.Fatal(err)
			}
		case op == 1: // the file "migrates": dirty writes start at a new home
			files[rng.Intn(len(files))].home = rng.Intn(len(p.workers))
		default: // background re-replication round
			if pc, mc := p.payload.ReplicateOnce(), p.meta.ReplicateOnce(); pc != mc {
				t.Fatalf("round %d: ReplicateOnce payload=%d meta=%d", round, pc, mc)
			}
		}
		p.check(t, fmt.Sprintf("round %d", round))
	}
}

// TestReplicateOnceConcurrent is the emulation's sharing pattern under
// -race: two goroutines per cluster run replication rounds back to back
// (so rounds race each other on the payload workers) while migration
// shards read pending bytes and writers dirty disjoint files, on both
// planes.  Once the writers stop and the clusters are re-replicated,
// the planes must agree and every valid replica must hold current content.
func TestReplicateOnceConcurrent(t *testing.T) {
	p := newPlanePair(t, 3, 3)
	const nFiles = 4
	type file struct {
		path     string
		home     int
		pfi, mfi *FileInfo
	}
	files := make([]file, nFiles)
	for i := range files {
		home := i % len(p.workers)
		path := fmt.Sprintf("/vm/%d/disk", i)
		pfi, err := p.payloadClients[home].Create(path, DefaultBlockSize+4096)
		if err != nil {
			t.Fatal(err)
		}
		mfi, err := p.metaClients[home].Create(path, DefaultBlockSize+4096)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = file{path: path, home: home, pfi: pfi, mfi: mfi}
	}
	var writers, others sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, nFiles+2) // each writer and pricing shard fails at most once
	round := func(c *Cluster) {
		defer others.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.ReplicateOnce()
			}
		}
	}
	for i := range files {
		writers.Add(1)
		go func(f file) { // one writer per file, with its own clients
			defer writers.Done()
			pc, err := p.payload.NewClient(p.workers[f.home])
			if err != nil {
				errs <- err
				return
			}
			mc, err := p.meta.NewClient(p.workers[f.home])
			if err != nil {
				errs <- err
				return
			}
			for round := 0; round < 30; round++ {
				first := round % len(f.pfi.Blocks)
				if err := pc.DirtyRange(f.pfi, first, 2); err != nil {
					errs <- err
					return
				}
				if err := mc.DirtyRange(f.mfi, first, 2); err != nil {
					errs <- err
					return
				}
			}
		}(files[i])
	}
	for _, c := range []*Cluster{p.payload, p.meta} {
		others.Add(3)
		go round(c)
		go round(c)
		go func(c *Cluster) { // a migration shard pricing moves
			defer others.Done()
			cl, err := c.NewClient(p.workers[0])
			if err != nil {
				errs <- err
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, f := range files {
					for _, w := range p.workers {
						if _, err := cl.PendingMigrationBytes(f.path, w); err != nil {
							errs <- err
							return
						}
						if _, err := c.Master().StaleBytesOn(f.path, w); err != nil {
							errs <- err
							return
						}
					}
				}
			}
		}(c)
	}
	writers.Wait()
	close(stop)
	others.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	p.payload.ReplicateOnce()
	p.meta.ReplicateOnce()
	if n := len(p.meta.Master().UnderReplicated()); n != 0 {
		t.Fatalf("%d copies still planned after a quiet round", n)
	}
	p.check(t, "after concurrent rounds")
}

// TestMetaWorkerReadIsMetadataOnly pins the one deliberate contract gap of
// the metadata plane.
func TestMetaWorkerReadIsMetadataOnly(t *testing.T) {
	w := NewMetaWorker("dc-0")
	if err := w.CreateBlock(1, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ReadBlock(1); !errors.Is(err, ErrMetadataOnly) {
		t.Fatalf("want ErrMetadataOnly, got %v", err)
	}
}

// TestMetaWorkerRejectsBadRecords pins the dense table's input checks: a
// record without a version would read back as an absent block, and a
// negative BlockID has no slot, so both are refused and nothing is stored.
func TestMetaWorkerRejectsBadRecords(t *testing.T) {
	w := NewMetaWorker("dc-0")
	if err := w.PutBlockMeta(3, BlockMeta{Length: 64}); err == nil {
		t.Fatal("unversioned record accepted")
	}
	if err := w.CreateBlock(-1, 64); !errors.Is(err, ErrBlockNotFound) {
		t.Fatalf("negative block ID: want ErrBlockNotFound, got %v", err)
	}
	if w.HasBlock(3) || w.HasBlock(-1) || w.BytesStored() != 0 {
		t.Fatalf("rejected records left state behind: %d bytes", w.BytesStored())
	}
}

// TestWorkerCreateBlockLazyZero pins the payload worker's lazy zero blocks:
// CreateBlock accounts the bytes without materializing them, and the first
// ReadBlock returns real zeroes.
func TestWorkerCreateBlockLazyZero(t *testing.T) {
	w := NewWorker("dc-0")
	if err := w.CreateBlock(1, 100); err != nil {
		t.Fatal(err)
	}
	if got := w.BytesStored(); got != 100 {
		t.Fatalf("BytesStored = %d, want 100", got)
	}
	data, err := w.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 100 {
		t.Fatalf("len = %d, want 100", len(data))
	}
	for i, b := range data {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
	// borrowBlock must lend the shared zero payload without copying.
	var borrowed int
	if err := w.borrowBlock(1, func(data []byte) error {
		borrowed = len(data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if borrowed != 100 {
		t.Fatalf("borrowed %d bytes, want 100", borrowed)
	}
}

// TestDirtyRangeRacingRoundKeepsWrite races a metadata-plane write on a
// stale holder against a round that plans a copy onto that holder.  Either
// order is fine, but the write must survive: the round may not install the
// older record between the store's dirty and the master's commit, which
// would leave the writer the only valid holder of the content it just
// overwrote.
func TestDirtyRangeRacingRoundKeepsWrite(t *testing.T) {
	cluster := NewCluster(NewMaster(2))
	a, b := NewMetaWorker("dc-a"), NewMetaWorker("dc-b")
	for _, w := range []*MetaWorker{a, b} {
		if err := cluster.AddWorker(w, string(w.ID())); err != nil {
			t.Fatal(err)
		}
	}
	ca, err := cluster.NewClient("dc-a")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := cluster.NewClient("dc-b")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		fi, err := ca.Create(fmt.Sprintf("/f%d", i), DefaultBlockSize)
		if err != nil {
			t.Fatal(err)
		}
		cluster.ReplicateOnce()   // dc-b holds version 1
		for k := 0; k < 10; k++ { // dc-a moves far ahead; dc-b is stale
			if err := ca.DirtyRange(fi, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		done := make(chan struct{})
		go func() {
			cluster.ReplicateOnce()
			close(done)
		}()
		if err := cb.DirtyRange(fi, 0, 1); err != nil {
			t.Fatal(err)
		}
		<-done
		id := fi.Blocks[0]
		loc, err := cluster.Master().BlockLocations(id)
		if err != nil {
			t.Fatal(err)
		}
		ra, _ := a.BlockMeta(id)
		rb, _ := b.BlockMeta(id)
		if len(loc.Stale) == 1 && loc.Stale[0] == "dc-a" && ra == rb {
			t.Fatalf("file %d: dc-b is the valid holder but holds dc-a's older record %+v", i, rb)
		}
	}
}

// TestWriteBlockRacingRoundKeepsWrite is the payload-plane WriteBlock case
// of TestDirtyRangeRacingRoundKeepsWrite: a write on a stale holder races a
// round that plans a copy onto that holder.  Either order is fine, but
// every valid replica must end up holding the last write's bytes.
func TestWriteBlockRacingRoundKeepsWrite(t *testing.T) {
	cluster := NewCluster(NewMaster(2))
	a, b := NewWorker("dc-a"), NewWorker("dc-b")
	for _, w := range []*Worker{a, b} {
		if err := cluster.AddWorker(w, string(w.ID())); err != nil {
			t.Fatal(err)
		}
	}
	ca, err := cluster.NewClient("dc-a")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := cluster.NewClient("dc-b")
	if err != nil {
		t.Fatal(err)
	}
	const size = 4096
	older, last := bytes.Repeat([]byte{1}, size), bytes.Repeat([]byte{2}, size)
	for i := 0; i < 2000; i++ {
		path := fmt.Sprintf("/f%d", i)
		fi, err := ca.Create(path, size)
		if err != nil {
			t.Fatal(err)
		}
		cluster.ReplicateOnce() // dc-b holds the zero block
		if err := ca.WriteBlock(path, 0, older); err != nil {
			t.Fatal(err) // dc-b is stale
		}
		done := make(chan struct{})
		go func() {
			cluster.ReplicateOnce()
			close(done)
		}()
		if err := cb.WriteBlock(path, 0, last); err != nil {
			t.Fatal(err)
		}
		<-done
		loc, err := cluster.Master().BlockLocations(fi.Blocks[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range loc.Valid {
			s, _ := cluster.store(w)
			data, err := s.ReadBlock(fi.Blocks[0])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, last) {
				t.Fatalf("file %d: valid holder %s holds %#x..., want the last write %#x...", i, w, data[0], last[0])
			}
		}
	}
}
