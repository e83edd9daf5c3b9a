package plan

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeSnapshot feeds decodeSnapshot arbitrary bytes, seeded with a
// real snapshot written after a few ticks plus truncated and bit-flipped
// copies of it.  Each input is tried as given and with its header rebuilt
// (checksum and length recomputed over everything after the first
// newline), so mutations reach the JSON decoder and the payload checks
// instead of dying at the checksum.  decodeSnapshot must never panic, every
// rejection must wrap ErrSnapshot, and every accepted payload must carry
// exactly one recorded schedule per tick.
func FuzzDecodeSnapshot(f *testing.F) {
	snap := filepath.Join(f.TempDir(), "plan.snap")
	d, err := New(Config{Trace: testSpec(), SnapshotPath: snap})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.Tick(TickRequest{}); err != nil {
			f.Fatal(err)
		}
	}
	good, err := os.ReadFile(snap)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-8] ^= 0x40
	f.Add(flipped)
	f.Add([]byte(snapshotMagic + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeSnapshot(t, data)
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			body := data[nl+1:]
			h := fnv.New64a()
			h.Write(body)
			fixed := fmt.Appendf(nil, "%s %016x %d\n", snapshotMagic, h.Sum64(), len(body))
			checkDecodeSnapshot(t, append(fixed, body...))
		}
	})
}

// checkDecodeSnapshot asserts the decoder's contract on one input.
func checkDecodeSnapshot(t *testing.T, data []byte) {
	payload, err := decodeSnapshot(data)
	if err != nil {
		if !errors.Is(err, ErrSnapshot) {
			t.Fatalf("rejection does not wrap ErrSnapshot: %v", err)
		}
		return
	}
	if payload.Ticks != len(payload.Moves) {
		t.Fatalf("accepted payload with %d ticks but %d recorded schedules", payload.Ticks, len(payload.Moves))
	}
}
