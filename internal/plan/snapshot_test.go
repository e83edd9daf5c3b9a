package plan

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeSnapshot feeds decodeSnapshot arbitrary bytes, seeded with real
// snapshot journals — the file after a few ticks, a checkpoint followed by
// three tick records, and that journal cut mid-record — plus truncated and
// bit-flipped copies.  Each input is tried as given and with every frame
// header rebuilt (see reframe), so mutations reach the JSON decoder and the
// payload checks instead of dying at a checksum.  decodeSnapshot must never
// panic, every rejection must wrap ErrSnapshot, and every accepted payload
// must carry exactly one recorded schedule per tick.
func FuzzDecodeSnapshot(f *testing.F) {
	snap := filepath.Join(f.TempDir(), "plan.snap")
	d, err := New(Config{Trace: testSpec(), SnapshotPath: snap})
	if err != nil {
		f.Fatal(err)
	}
	var good, journal []byte
	for i := 0; journal == nil; i++ {
		if i == 200 {
			f.Fatal("no checkpoint followed by 3 tick records in 200 ticks")
		}
		if _, err := d.Tick(TickRequest{}); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(snap)
		if err != nil {
			f.Fatal(err)
		}
		if i == 2 {
			good = raw
		}
		if records, err := journalRecords(raw); err != nil {
			f.Fatal(err)
		} else if records == 3 {
			journal = raw
		}
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-8] ^= 0x40
	f.Add(flipped)
	f.Add([]byte(snapshotMagic + "\n"))
	f.Add(journal)
	last := bytes.LastIndex(journal, []byte(recordMagic+" "))
	f.Add(journal[:last+(len(journal)-last)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeSnapshot(t, data)
		checkDecodeSnapshot(t, reframe(data))
	})
}

// reframe rebuilds every frame header in data: each header line keeps its
// magic and gets the checksum and length of the bytes up to the next frame
// magic (or the end).  Trailing bytes with no newline are kept as they are.
func reframe(data []byte) []byte {
	var out []byte
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			return append(out, data...)
		}
		magic, _, _ := bytes.Cut(data[:nl], []byte(" "))
		body := data[nl+1:]
		end := len(body)
		for _, m := range []string{snapshotMagic, recordMagic} {
			if i := bytes.Index(body, []byte(m+" ")); i >= 0 && i < end {
				end = i
			}
		}
		out = appendFrame(out, string(magic), body[:end])
		data = body[end:]
	}
	return out
}

// checkDecodeSnapshot asserts the decoder's contract on one input.
func checkDecodeSnapshot(t *testing.T, data []byte) {
	payload, _, err := decodeSnapshot(data)
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

// journalRecords walks a snapshot journal's frames and returns the number
// of tick records after its checkpoint.
func journalRecords(raw []byte) (records int, err error) {
	_, rest, err := nextFrame(raw, snapshotMagic)
	if err != nil {
		return 0, err
	}
	for ; len(rest) > 0; records++ {
		if _, rest, err = nextFrame(rest, recordMagic); err != nil {
			return 0, err
		}
	}
	return records, nil
}

// checkSingleFrame asserts the rule every snapshot followed before the
// journal: one header whose length is the whole rest of the file and whose
// checksum covers all of it.  A checkpoint-only journal must still pass.
func checkSingleFrame(t *testing.T, raw []byte) {
	t.Helper()
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		t.Fatal("snapshot has no header line")
	}
	var magic string
	var sum uint64
	var n int
	if _, err := fmt.Sscanf(string(raw[:nl]), "%s %x %d", &magic, &sum, &n); err != nil {
		t.Fatal(err)
	}
	body := raw[nl+1:]
	h := fnv.New64a()
	h.Write(body)
	if magic != snapshotMagic || n != len(body) || h.Sum64() != sum {
		t.Fatalf("checkpoint-only snapshot breaks the single-frame rule: magic %q, header length %d for a %d-byte body, checksum match %v",
			magic, n, len(body), h.Sum64() == sum)
	}
}

// referenceViews runs an uninterrupted daemon without snapshots through
// reqs and returns its view after every tick.
func referenceViews(t *testing.T, spec TraceSpec, reqs []TickRequest) []PlanView {
	t.Helper()
	ref, err := New(Config{Trace: spec})
	if err != nil {
		t.Fatal(err)
	}
	views := make([]PlanView, len(reqs))
	for i, req := range reqs {
		if views[i], err = ref.Tick(req); err != nil {
			t.Fatal(err)
		}
	}
	return views
}

// checkTick compares a view from tick i against the reference.
func checkTick(t *testing.T, label string, i int, got PlanView, ref []PlanView) {
	t.Helper()
	if got.LastLPStats.ColdFallbacks != 0 {
		t.Fatalf("%s: tick %d fell back cold", label, i+1)
	}
	if !reflect.DeepEqual(stripRecords(got.LastRecords), stripRecords(ref[i].LastRecords)) {
		t.Fatalf("%s: tick %d records differ:\n  got=%+v\n  ref=%+v", label, i+1, got.LastRecords, ref[i].LastRecords)
	}
	if got.Totals != ref[i].Totals {
		t.Fatalf("%s: tick %d totals %+v, want %+v", label, i+1, got.Totals, ref[i].Totals)
	}
}

// resumeAndContinue resumes a daemon from the snapshot at path, written
// after the given number of ticks, and checks it against the reference:
// warm, at that tick, with the same totals and scales, and bit-identical on
// every following tick of reqs.
func resumeAndContinue(t *testing.T, spec TraceSpec, path string, tick int, reqs []TickRequest, ref []PlanView) {
	t.Helper()
	label := fmt.Sprintf("resume after tick %d", tick)
	d, err := New(Config{Trace: spec, SnapshotPath: path, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if resumed, warm := d.Resumed(); !resumed || !warm {
		t.Fatalf("%s: resumed=%v warm=%v, want true/true", label, resumed, warm)
	}
	v := d.PlanView()
	want := ref[tick-1]
	if v.Tick != tick || v.Totals != want.Totals || !reflect.DeepEqual(v.GreenScale, want.GreenScale) {
		t.Fatalf("%s: restored tick %d, totals %+v, scales %v; want tick %d, totals %+v, scales %v",
			label, v.Tick, v.Totals, v.GreenScale, tick, want.Totals, want.GreenScale)
	}
	for i := tick; i < len(reqs); i++ {
		v, err := d.Tick(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		checkTick(t, label, i, v, ref)
		// Warm from the persisted basis means the same simplex path as
		// the daemon that never stopped, not merely the same answer.
		if i == tick && v.LastLPStats.Pivots != ref[i].LastLPStats.Pivots {
			t.Fatalf("%s: first solve took %d pivots, the uninterrupted daemon %d",
				label, v.LastLPStats.Pivots, ref[i].LastLPStats.Pivots)
		}
	}
}

// TestDaemonSnapshotJournalShapes resumes a fresh daemon from a copy of the
// journal taken after every tick of a 24-tick run.  The copies cover a lone
// checkpoint, a checkpoint followed by one and by two tick records, and the
// checkpoint a compaction just rewrote; a green_scale update and its reset
// to 1 both land in tick records.  Every resume must be warm, at the copied
// tick, with the copied totals and scales, and bit-identical to an
// uninterrupted daemon on every following tick.
func TestDaemonSnapshotJournalShapes(t *testing.T) {
	const hours, update, reset = 24, 4, 7
	spec := testSpec()
	cfg, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	scaled := cfg.Datacenters[0].Name
	reqs := make([]TickRequest, hours)
	reqs[update].GreenScale = map[string]float64{scaled: 0.3}
	reqs[reset].GreenScale = map[string]float64{scaled: 1}
	ref := referenceViews(t, spec, reqs)

	dir := t.TempDir()
	snap := filepath.Join(dir, "plan.snap")
	d, err := New(Config{Trace: spec, SnapshotPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool) // record counts seen
	compactions := 0
	for i := 0; i < hours; i++ {
		v, err := d.Tick(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		checkTick(t, "journaling daemon", i, v, ref)
		raw, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		records, err := journalRecords(raw)
		if err != nil {
			t.Fatalf("tick %d: %v", i+1, err)
		}
		seen[records] = true
		if records == 0 {
			checkSingleFrame(t, raw)
			if i > 0 {
				compactions++
			}
		}
		if reqs[i].GreenScale != nil && records == 0 {
			t.Fatalf("tick %d: the green_scale change landed in a checkpoint; move it onto a tick record", i+1)
		}
		cp := filepath.Join(dir, fmt.Sprintf("after-%02d.snap", i+1))
		if err := os.WriteFile(cp, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		resumeAndContinue(t, spec, cp, i+1, reqs, ref)
	}
	if !seen[0] || !seen[1] || !seen[2] || compactions == 0 {
		t.Fatalf("journal shapes seen %v with %d compactions; want 0, 1 and 2 records and a compaction", seen, compactions)
	}
}

// TestDaemonSnapshotWriteFailure: a failed snapshot write is reported in
// PlanView.SnapshotError without stopping the tick stream; the next write is
// a full checkpoint, and the error clears once it succeeds; a daemon resumed
// from the healed file continues warm and bit-identically.  The writes are
// made to fail by putting a directory where the snapshot file was (tests
// may run as root, which file permissions do not stop).
func TestDaemonSnapshotWriteFailure(t *testing.T) {
	const hours = 12
	spec := testSpec()
	reqs := make([]TickRequest, hours)
	ref := referenceViews(t, spec, reqs)
	snap := filepath.Join(t.TempDir(), "plan.snap")
	d, err := New(Config{Trace: spec, SnapshotPath: snap, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	tick := func(i int) PlanView {
		t.Helper()
		v, err := d.Tick(reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		checkTick(t, "daemon", i, v, ref)
		return v
	}
	records := func() int {
		t.Helper()
		raw, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		n, err := journalRecords(raw)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	tick(0) // writes the checkpoint
	aside := snap + ".aside"
	if err := os.Rename(snap, aside); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(snap, 0o755); err != nil {
		t.Fatal(err)
	}
	// Tick 2 tries to append a record, tick 3 to rewrite the checkpoint.
	for i := 1; i <= 2; i++ {
		if v := tick(i); v.SnapshotError == "" {
			t.Fatalf("tick %d: failed snapshot write not reported", i+1)
		}
		if d.PlanView().SnapshotError == "" {
			t.Fatalf("tick %d: served view lost the snapshot error", i+1)
		}
	}
	if tmps, _ := filepath.Glob(snap + ".tmp-*"); len(tmps) != 0 {
		t.Fatalf("failed checkpoint left temp files %v", tmps)
	}
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(aside, snap); err != nil {
		t.Fatal(err)
	}

	if v := tick(3); v.SnapshotError != "" {
		t.Fatalf("snapshot error %q survived a successful write", v.SnapshotError)
	}
	if n := records(); n != 0 {
		t.Fatalf("first write after a failure appended to the journal (%d records), want a checkpoint", n)
	}
	tick(4)
	if n := records(); n != 1 {
		t.Fatalf("journal has %d records after the healing checkpoint, want 1", n)
	}
	resumeAndContinue(t, spec, snap, 5, reqs, ref)
}
