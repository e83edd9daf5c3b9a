package gdfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// newTestCluster builds a 3-datacenter in-memory cluster.
func newTestCluster(t *testing.T) (*Cluster, []*Worker) {
	t.Helper()
	master := NewMaster(2)
	cluster := NewCluster(master)
	workers := []*Worker{NewWorker("dc-a"), NewWorker("dc-b"), NewWorker("dc-c")}
	for _, w := range workers {
		if err := cluster.AddWorker(w, string(w.ID())); err != nil {
			t.Fatalf("AddWorker(%s): %v", w.ID(), err)
		}
	}
	return cluster, workers
}

func TestMasterCreateStatDelete(t *testing.T) {
	cluster, _ := newTestCluster(t)
	m := cluster.Master()

	fi, err := m.Create("/vm/disk0", 10<<20, "dc-a")
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if fi.Size != 10<<20 {
		t.Errorf("size = %d", fi.Size)
	}
	if len(fi.Blocks) != 3 { // 10 MiB over 4 MiB blocks → 3 blocks
		t.Errorf("blocks = %d, want 3", len(fi.Blocks))
	}
	if _, err := m.Create("/vm/disk0", 1, "dc-a"); !errors.Is(err, ErrFileExists) {
		t.Errorf("duplicate create: want ErrFileExists, got %v", err)
	}
	if _, err := m.Create("/x", 1, "nope"); !errors.Is(err, ErrWorkerNotFound) {
		t.Errorf("unknown worker: want ErrWorkerNotFound, got %v", err)
	}
	if _, err := m.Create("/neg", -1, "dc-a"); err == nil {
		t.Error("negative size should error")
	}

	got, err := m.Stat("/vm/disk0")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if got.Size != fi.Size || len(got.Blocks) != len(fi.Blocks) {
		t.Error("Stat mismatch")
	}
	if _, err := m.Stat("/missing"); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("want ErrFileNotFound, got %v", err)
	}
	if files := m.Files(); len(files) != 1 || files[0] != "/vm/disk0" {
		t.Errorf("Files() = %v", files)
	}
	if err := m.Delete("/vm/disk0"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := m.Delete("/vm/disk0"); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("double delete: want ErrFileNotFound, got %v", err)
	}
	if len(m.Workers()) != 3 {
		t.Errorf("Workers() = %v", m.Workers())
	}
}

func TestWriteInvalidatesRemoteReplicas(t *testing.T) {
	cluster, _ := newTestCluster(t)
	clientA, err := cluster.NewClient("dc-a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.NewClient("dc-zzz"); err == nil {
		t.Error("client for unknown worker should error")
	}

	fi, err := clientA.Create("/vm/disk", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Replicate everything so dc-b holds valid copies too.
	if copied := cluster.ReplicateOnce(); copied != len(fi.Blocks) {
		t.Fatalf("ReplicateOnce copied %d blocks, want %d", copied, len(fi.Blocks))
	}
	loc, err := cluster.Master().BlockLocations(fi.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(loc.Valid) != 2 {
		t.Fatalf("after replication: %d valid replicas, want 2", len(loc.Valid))
	}

	// A write from dc-a invalidates the copy on the other datacenter.
	payload := bytes.Repeat([]byte{0xAB}, int(fi.BlockSize))
	if err := clientA.WriteBlock("/vm/disk", 0, payload); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	loc, err = cluster.Master().BlockLocations(fi.Blocks[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(loc.Valid) != 1 || loc.Valid[0] != "dc-a" {
		t.Errorf("after write: valid replicas = %v, want only dc-a", loc.Valid)
	}
	if len(loc.Stale) != 1 {
		t.Errorf("after write: stale replicas = %v, want the old copy", loc.Stale)
	}

	// Reads from a remote datacenter still see the new data via the valid
	// replica.
	clientB, err := cluster.NewClient("dc-b")
	if err != nil {
		t.Fatal(err)
	}
	data, err := clientB.ReadBlock("/vm/disk", 0)
	if err != nil {
		t.Fatalf("remote ReadBlock: %v", err)
	}
	if !bytes.Equal(data, payload) {
		t.Error("remote read returned stale data")
	}

	// A re-replication round repairs the stale copy.
	if copied := cluster.ReplicateOnce(); copied == 0 {
		t.Error("expected re-replication work after the write")
	}
	loc, _ = cluster.Master().BlockLocations(fi.Blocks[0])
	if len(loc.Valid) != 2 {
		t.Errorf("after re-replication: %d valid replicas, want 2", len(loc.Valid))
	}
}

func TestPartialWriteFetchesBlockFirst(t *testing.T) {
	cluster, workers := newTestCluster(t)
	clientA, _ := cluster.NewClient("dc-a")
	fi, err := clientA.Create("/vm/mem", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the block with a known pattern from dc-a.
	full := bytes.Repeat([]byte{0x11}, int(fi.BlockSize))
	if err := clientA.WriteBlock("/vm/mem", 0, full); err != nil {
		t.Fatal(err)
	}
	// A partial write from dc-b must first fetch the valid copy, then merge.
	clientB, _ := cluster.NewClient("dc-b")
	patch := bytes.Repeat([]byte{0x22}, 1024)
	if err := clientB.WriteBlock("/vm/mem", 0, patch); err != nil {
		t.Fatalf("partial remote write: %v", err)
	}
	if !workers[1].HasBlock(fi.Blocks[0]) {
		t.Fatal("dc-b should hold the block after its write")
	}
	data, err := clientB.ReadBlock("/vm/mem", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:1024], patch) {
		t.Error("patched bytes missing")
	}
	if data[2048] != 0x11 {
		t.Error("partial write clobbered the rest of the block")
	}
	// dc-a's copy is now stale; only dc-b is valid.
	loc, _ := cluster.Master().BlockLocations(fi.Blocks[0])
	if len(loc.Valid) != 1 || loc.Valid[0] != "dc-b" {
		t.Errorf("valid replicas = %v, want only dc-b", loc.Valid)
	}
}

func TestStaleBlocksDriveMigrationCost(t *testing.T) {
	cluster, _ := newTestCluster(t)
	clientA, _ := cluster.NewClient("dc-a")
	fi, err := clientA.Create("/vm/disk", 12<<20)
	if err != nil {
		t.Fatal(err)
	}
	cluster.ReplicateOnce() // dc-b has copies now
	// Initially nothing needs to move to dc-b.
	pending, err := clientA.PendingMigrationBytes("/vm/disk", "dc-b")
	if err != nil {
		t.Fatal(err)
	}
	if pending != 0 {
		t.Errorf("pending bytes = %d, want 0 right after replication", pending)
	}
	// Everything must move to dc-c (no replicas there).
	pending, _ = clientA.PendingMigrationBytes("/vm/disk", "dc-c")
	if pending != fi.Size {
		t.Errorf("pending to dc-c = %d, want full size %d", pending, fi.Size)
	}
	// Dirty one block; only that block is pending for dc-b.
	if err := clientA.WriteBlock("/vm/disk", 1, bytes.Repeat([]byte{1}, int(fi.BlockSize))); err != nil {
		t.Fatal(err)
	}
	pending, _ = clientA.PendingMigrationBytes("/vm/disk", "dc-b")
	if pending != fi.BlockSize {
		t.Errorf("pending after one dirty block = %d, want %d", pending, fi.BlockSize)
	}
	if _, _, err := cluster.Master().StaleBlocksOn("/missing", "dc-a"); !errors.Is(err, ErrFileNotFound) {
		t.Errorf("want ErrFileNotFound, got %v", err)
	}
}

func TestWorkerStore(t *testing.T) {
	w := NewWorker("w1")
	if w.ID() != "w1" {
		t.Errorf("ID = %s", w.ID())
	}
	if _, err := w.ReadBlock(7); !errors.Is(err, ErrBlockNotFound) {
		t.Errorf("want ErrBlockNotFound, got %v", err)
	}
	data := []byte{1, 2, 3}
	if err := w.WriteBlock(7, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 99 // the store must have copied
	got, err := w.ReadBlock(7)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Error("WriteBlock did not copy its input")
	}
	got[1] = 88
	again, _ := w.ReadBlock(7)
	if again[1] != 2 {
		t.Error("ReadBlock did not copy its output")
	}
	if !w.HasBlock(7) || w.HasBlock(8) {
		t.Error("HasBlock wrong")
	}
	if w.BytesStored() != 3 {
		t.Errorf("BytesStored = %d", w.BytesStored())
	}
	if err := w.DeleteBlock(7); err != nil {
		t.Fatal(err)
	}
	if w.HasBlock(7) {
		t.Error("block still present after delete")
	}
}

func TestUnderReplicatedPlanPrefersStaleHolders(t *testing.T) {
	cluster, _ := newTestCluster(t)
	clientA, _ := cluster.NewClient("dc-a")
	fi, err := clientA.Create("/f", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	cluster.ReplicateOnce()
	// Invalidate dc-b's copy by writing from dc-a.
	if err := clientA.WriteBlock("/f", 0, bytes.Repeat([]byte{9}, int(fi.BlockSize))); err != nil {
		t.Fatal(err)
	}
	tasks := cluster.Master().UnderReplicated()
	if len(tasks) == 0 {
		t.Fatal("expected replication tasks")
	}
	// The stale holder (dc-b) should be chosen as the destination before an
	// absent worker (dc-c).
	if tasks[0].Dest != "dc-b" {
		t.Errorf("first destination = %s, want dc-b (stale holder)", tasks[0].Dest)
	}
	if tasks[0].Source != "dc-a" {
		t.Errorf("source = %s, want dc-a (only valid holder)", tasks[0].Source)
	}
}

// TestMasterWorkerLimit pins the dense index's bound: replica sets are
// one-word bitmasks, so the 65th distinct worker is refused with
// ErrTooManyWorkers, while re-registering a known worker still works.
func TestMasterWorkerLimit(t *testing.T) {
	m := NewMaster(2)
	for i := 0; i < MaxWorkers; i++ {
		if err := m.RegisterWorker(WorkerID(fmt.Sprintf("w%02d", i)), "dc"); err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := m.RegisterWorker("one-too-many", "dc"); !errors.Is(err, ErrTooManyWorkers) {
		t.Fatalf("worker %d: want ErrTooManyWorkers, got %v", MaxWorkers+1, err)
	}
	if err := m.RegisterWorker("w00", "elsewhere"); err != nil {
		t.Fatalf("re-registering a known worker: %v", err)
	}
	if got := len(m.Workers()); got != MaxWorkers {
		t.Fatalf("Workers() has %d entries, want %d", got, MaxWorkers)
	}
}

// TestUnderReplicatedSourceIsFirstValidByID pins the planner's source when a
// block has several valid replicas: the first valid holder in WorkerID
// order, not in registration order.
func TestUnderReplicatedSourceIsFirstValidByID(t *testing.T) {
	m := NewMaster(4)
	for _, w := range []WorkerID{"dc-3", "dc-1", "dc-2", "dc-0"} {
		if err := m.RegisterWorker(w, string(w)); err != nil {
			t.Fatal(err)
		}
	}
	fi, err := m.Create("/f", DefaultBlockSize, "dc-3")
	if err != nil {
		t.Fatal(err)
	}
	id := fi.Blocks[0]
	if err := m.CommitReplica(id, "dc-2"); err != nil {
		t.Fatal(err)
	}
	want := []ReplicationTask{{Block: id, Source: "dc-2", Dest: "dc-0"}, {Block: id, Source: "dc-2", Dest: "dc-1"}}
	if got := m.UnderReplicated(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("UnderReplicated = %v, want %v", got, want)
	}
}
