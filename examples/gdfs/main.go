// GDFS: using GreenNebula's distributed file system directly.
//
// This example builds a three-datacenter GDFS cluster in one process (one
// in-memory payload store per datacenter), stores a VM disk image, shows
// how writes invalidate remote replicas and how a re-replication round,
// which the program runs itself with Cluster.ReplicateOnce, repairs them,
// and measures how much data a migration to each datacenter would have to
// ship at any point in time.
package main

import (
	"bytes"
	"fmt"
	"log"

	"greencloud/internal/gdfs"
)

func main() {
	master := gdfs.NewMaster(2)
	cluster := gdfs.NewCluster(master)
	for _, dc := range []string{"kenya", "mexico", "guam"} {
		if err := cluster.AddWorker(gdfs.NewWorker(gdfs.WorkerID(dc)), dc); err != nil {
			log.Fatal(err)
		}
	}
	kenya, err := cluster.NewClient("kenya")
	if err != nil {
		log.Fatal(err)
	}

	// The VM's disk image starts its life in Kenya.
	const disk = "/vm/hpc-001/disk"
	fi, err := kenya.Create(disk, 32<<20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %s: %d MB in %d blocks\n", disk, fi.Size>>20, len(fi.Blocks))

	// Replicate it so a second datacenter holds a warm copy: the round
	// picks the first worker in WorkerID order that holds none, Guam.
	copied := cluster.ReplicateOnce()
	fmt.Printf("a replication round copied %d blocks\n", copied)

	// The VM dirties a couple of blocks while running in Kenya.
	payload := bytes.Repeat([]byte{0xCA}, int(fi.BlockSize))
	for _, block := range []int{0, 3} {
		if err := kenya.WriteBlock(disk, block, payload); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("VM dirtied blocks 0 and 3 in Kenya (remote replicas invalidated)")

	// How much would a migration have to ship right now?
	for _, dest := range []gdfs.WorkerID{"mexico", "guam"} {
		pending, err := kenya.PendingMigrationBytes(disk, dest)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pending migration bytes to %-7s %6.1f MB\n", dest, float64(pending)/(1<<20))
	}

	// The next replication round repairs the stale copies.
	cluster.ReplicateOnce()
	pending, err := kenya.PendingMigrationBytes(disk, "guam")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after re-replication, pending bytes to guam: %.1f MB\n", float64(pending)/(1<<20))

	// A client in Mexico reads the freshest data regardless of where it was
	// written.
	mexico, err := cluster.NewClient("mexico")
	if err != nil {
		log.Fatal(err)
	}
	data, err := mexico.ReadBlock(disk, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mexico reads block 0: first byte 0x%X (written in Kenya)\n", data[0])
}
