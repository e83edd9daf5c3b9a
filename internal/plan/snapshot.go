package plan

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"greencloud/internal/lp"
)

// ErrSnapshot wraps every snapshot decode/validation failure, so callers can
// distinguish "no usable snapshot" (cold start) from infrastructure errors.
var ErrSnapshot = errors.New("plan: invalid snapshot")

// The snapshot file is a journal: one checkpoint frame followed by zero or
// more tick-record frames.  Every frame is one header line — magic, FNV-1a
// 64 checksum of the body in hex, body length in bytes — followed by the
// JSON body.  The checksums turn truncation and bit rot into a clean
// ErrSnapshot instead of a half-restored daemon.  A file holding only a
// checkpoint is exactly the single-frame snapshot of earlier versions.
const (
	snapshotMagic = "GNPS1" // checkpoint: a snapshotPayload
	recordMagic   = "GNPR1" // tick record: a tickRecord
)

// snapshotPayload is everything a restarted daemon needs to continue the
// tick stream bit-identically: the trace identity (refuse foreign state),
// the migration-schedule log (replayed to rebuild fleet/storage state
// without LP work), the streamed weather scales in effect, the warm basis,
// and the serving view.
type snapshotPayload struct {
	TraceDigest string             `json:"trace_digest"`
	Ticks       int                `json:"ticks"`
	Scales      map[string]float64 `json:"scales,omitempty"`
	Moves       [][]moveRec        `json:"moves"`
	Basis       []byte             `json:"basis,omitempty"` // lp.Basis.MarshalBinary, base64 via encoding/json
	View        PlanView           `json:"view"`
}

// tickRecord is one tick appended after the checkpoint: that tick's
// migration schedule, and the scales, warm basis and serving view in effect
// after it (a resume takes those three from the newest record).
type tickRecord struct {
	Moves  []moveRec          `json:"moves"`
	Scales map[string]float64 `json:"scales,omitempty"`
	Basis  []byte             `json:"basis,omitempty"`
	View   PlanView           `json:"view"`
}

// persist writes the tick just applied to the snapshot journal at path.
// Normally that is one tick record appended to the file; when the file has
// no valid checkpoint, or the records appended since the checkpoint have
// grown as large as the checkpoint itself, the whole state is rewritten as
// a fresh checkpoint instead.  The doubling rule keeps the file under about
// twice its checkpoint and makes each tick's write amortized O(1) in the
// length of the log.  A failed write forces a checkpoint on the next tick.
// Callers hold d.tickMu.
func (d *Daemon) persist(path string) error {
	if d.checkpointBytes == 0 || d.appendedBytes >= d.checkpointBytes {
		n, err := d.writeCheckpoint(path)
		if err != nil {
			d.checkpointBytes = 0
			return err
		}
		d.checkpointBytes, d.appendedBytes = n, 0
		return nil
	}
	n, err := d.appendRecord(path)
	if err != nil {
		d.checkpointBytes = 0
		return err
	}
	d.appendedBytes += n
	return nil
}

// writeCheckpoint replaces the file at path with a checkpoint of the
// daemon's whole state, atomically (temp file + rename in the destination
// directory), and returns the checkpoint's size.
func (d *Daemon) writeCheckpoint(path string) (_ int64, err error) {
	payload := snapshotPayload{
		TraceDigest: d.cfg.Trace.Digest(),
		Ticks:       d.runner.Ticks(),
		Moves:       d.moveLog,
		View:        d.view,
	}
	if payload.Moves == nil {
		payload.Moves = [][]moveRec{}
	}
	if len(d.scales) > 0 {
		payload.Scales = d.scales
	}
	if payload.Basis, err = d.encodeBasis(); err != nil {
		return 0, err
	}
	body, err := json.Marshal(&payload)
	if err != nil {
		return 0, err
	}
	frame := appendFrame(nil, snapshotMagic, body)

	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(frame); err != nil {
		tmp.Close()
		return 0, err
	}
	if err = tmp.Close(); err != nil {
		return 0, err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return int64(len(frame)), nil
}

// appendRecord appends the last tick's record to the file at path with one
// write and returns the record's size.  A failed or short write is cut off
// again, so the file still ends on its last frame boundary.
func (d *Daemon) appendRecord(path string) (int64, error) {
	rec := tickRecord{Moves: d.moveLog[len(d.moveLog)-1], View: d.view}
	if len(d.scales) > 0 {
		rec.Scales = d.scales
	}
	var err error
	if rec.Basis, err = d.encodeBasis(); err != nil {
		return 0, err
	}
	body, err := json.Marshal(&rec)
	if err != nil {
		return 0, err
	}
	frame := appendFrame(make([]byte, 0, len(body)+64), recordMagic, body)

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(frame); err != nil {
		if terr := f.Truncate(d.checkpointBytes + d.appendedBytes); terr != nil {
			err = errors.Join(err, terr)
		}
		f.Close()
		return 0, err
	}
	return int64(len(frame)), f.Close()
}

// encodeBasis returns the runner's warm basis in lp.Basis.MarshalBinary
// form, or nil before the first solve.
func (d *Daemon) encodeBasis() ([]byte, error) {
	basis := d.runner.WarmBasis()
	if basis == nil {
		return nil, nil
	}
	enc, err := basis.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("plan: encode basis: %w", err)
	}
	return enc, nil
}

// appendFrame appends one frame — header line, then body — to dst.
func appendFrame(dst []byte, magic string, body []byte) []byte {
	h := fnv.New64a()
	h.Write(body)
	dst = fmt.Appendf(dst, "%s %016x %d\n", magic, h.Sum64(), len(body))
	return append(dst, body...)
}

// nextFrame verifies the frame at the start of raw against magic and
// returns its body and the bytes after it.
func nextFrame(raw []byte, magic string) (body, rest []byte, err error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, nil, fmt.Errorf("%w: missing %s header", ErrSnapshot, magic)
	}
	var got string
	var sum uint64
	var n int
	if _, err := fmt.Sscanf(string(raw[:nl]), "%s %x %d", &got, &sum, &n); err != nil {
		return nil, nil, fmt.Errorf("%w: malformed header: %v", ErrSnapshot, err)
	}
	if got != magic {
		return nil, nil, fmt.Errorf("%w: magic %q, want %q", ErrSnapshot, got, magic)
	}
	body = raw[nl+1:]
	if n < 0 || n > len(body) {
		return nil, nil, fmt.Errorf("%w: %s frame has %d bytes left, header says %d", ErrSnapshot, magic, len(body), n)
	}
	body, rest = body[:n], body[n:]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != sum {
		return nil, nil, fmt.Errorf("%w: %s checksum mismatch", ErrSnapshot, magic)
	}
	return body, rest, nil
}

// decodeSnapshot parses and verifies a snapshot journal: the checkpoint,
// then every tick record in order.  The records' schedules extend the
// checkpoint's log; the scales, basis and view come from the last record.
// It also returns the size of the checkpoint frame.
func decodeSnapshot(raw []byte) (*snapshotPayload, int, error) {
	body, rest, err := nextFrame(raw, snapshotMagic)
	if err != nil {
		return nil, 0, err
	}
	var payload snapshotPayload
	if err := json.Unmarshal(body, &payload); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	if payload.Ticks != len(payload.Moves) {
		return nil, 0, fmt.Errorf("%w: %d ticks but %d recorded schedules",
			ErrSnapshot, payload.Ticks, len(payload.Moves))
	}
	checkpoint := len(raw) - len(rest)
	for len(rest) > 0 {
		if body, rest, err = nextFrame(rest, recordMagic); err != nil {
			return nil, 0, err
		}
		var rec tickRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return nil, 0, fmt.Errorf("%w: %v", ErrSnapshot, err)
		}
		payload.Ticks++
		if rec.View.Tick != payload.Ticks {
			return nil, 0, fmt.Errorf("%w: record for tick %d follows tick %d",
				ErrSnapshot, rec.View.Tick, payload.Ticks-1)
		}
		payload.Moves = append(payload.Moves, rec.Moves)
		payload.Scales, payload.Basis, payload.View = rec.Scales, rec.Basis, rec.View
	}
	return &payload, checkpoint, nil
}

// resumeFromSnapshot restores the daemon from the snapshot at path: decode
// and verify, replay the recorded migration schedules against the freshly
// Started runner (rebuilding fleet and storage state deterministically with
// zero LP work), install the persisted warm basis and serving view.  Any
// error leaves restoration to the caller's cold-start fallback.
func (d *Daemon) resumeFromSnapshot(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("%w: %v", ErrSnapshot, err)
		}
		return err
	}
	payload, checkpoint, err := decodeSnapshot(raw)
	if err != nil {
		return err
	}
	if got, want := payload.TraceDigest, d.cfg.Trace.Digest(); got != want {
		return fmt.Errorf("%w: trace digest %s, daemon runs %s", ErrSnapshot, got, want)
	}
	var basis *lp.Basis
	if len(payload.Basis) > 0 {
		if basis, err = lp.DecodeBasis(payload.Basis); err != nil {
			return fmt.Errorf("%w: %v", ErrSnapshot, err)
		}
	}

	// Scales first: replay must see the same streamed weather the recorded
	// ticks ran under so realized-green records rebuild bit-identically.
	for name, scale := range payload.Scales {
		if err := d.runner.SetGreenScale(name, scale); err != nil {
			return fmt.Errorf("%w: %v", ErrSnapshot, err)
		}
	}
	if err := d.replayLog(payload.Moves); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshot, err)
	}
	d.runner.SetWarmBasis(basis)
	d.moveLog = payload.Moves
	d.scales = make(map[string]float64)
	for name, scale := range payload.Scales {
		d.scales[name] = scale
	}
	view := copyView(payload.View)
	view.Resumed = true
	view.WarmResume = basis != nil
	view.SnapshotError = ""
	d.view = view
	// The next tick appends to the journal just verified.
	d.checkpointBytes, d.appendedBytes = int64(checkpoint), int64(len(raw)-checkpoint)
	return nil
}
