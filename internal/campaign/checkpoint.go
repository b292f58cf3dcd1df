package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sync"

	"anyopt/internal/core/discovery"
	"anyopt/internal/core/prefs"
)

// CheckpointVersion guards against loading incompatible checkpoint files.
// Version 3 is the append-only frame log described on Checkpoint; versions 1
// and 2 were whole-file JSON documents and are refused, not read.
const CheckpointVersion = 3

// checkpointHeader opens every journal: seven magic bytes and the version.
var checkpointHeader = [8]byte{'A', 'N', 'Y', 'O', 'P', 'T', 'J', CheckpointVersion}

// The journal's frame types (frame.go has the layout).
const (
	// frameExperiment: uvarint nonce, kind, uvarint probe count, uvarint
	// trace length and the trace lines, then the sweep's columns
	// (appendSweep). Strings are a uvarint length and bytes.
	// A trace line is the length of the prefix it shares with the line
	// before it and then the rest as a string: a faulted experiment logs
	// "exp N attempt M: probe lost" thousands of times over, and written out
	// in full those lines are four fifths of the journal.
	frameExperiment byte = 1
	// framePatchPending: the patch id, then the PatchRecord as JSON.
	framePatchPending byte = 2
	// framePatchDone: the patch id.
	framePatchDone byte = 3
)

// fsync is (*os.File).Sync; the durability test counts calls through it.
var fsync = (*os.File).Sync

// PatchRecord journals one reconciler repair: the snapshot generation whose
// rows the churn invalidated, the affected client cone, and the churn events
// themselves (opaque JSON — the api layer owns the concrete type). A record
// still pending after a crash means the rows it names were marked stale but
// never repaired; a resuming server must re-apply the events and re-run
// exactly those cone repairs instead of silently serving pre-churn rows as
// fresh.
type PatchRecord struct {
	Gen     uint64          `json:"gen"`
	Clients []prefs.Client  `json:"clients"`
	Events  json.RawMessage `json:"events,omitempty"`
}

// Checkpoint is a file-backed discovery.Journal: an append-only log that is
// the journal. The file is an 8-byte header followed by one checksummed
// frame per completed experiment (and per reconciler patch event). Record
// appends its frame with one write and fsyncs before returning, so a killed
// campaign — or one that lost power — loses at most the frames that were
// still in flight; whatever the crash tore off the tail is truncated on the
// next open and re-measured, experiments being idempotent by nonce.
// Re-running the same campaign with the same checkpoint replays completed
// experiments from the file — results, probe counts, and fault traces —
// making the resumed run byte-identical to an uninterrupted one.
//
// Memory holds an index, nonce → frame position, and the pending patches —
// never the sweeps: Lookup reads its frame back, checks the CRC and decodes
// it. The file is opened per operation (an open-append-close costs
// microseconds against the fsync's fraction of a millisecond), so a
// Checkpoint owns no descriptor and needs no Close.
//
// Lookup and Record are safe for concurrent use by worker goroutines.
type Checkpoint struct {
	mu   sync.Mutex
	path string
	// size is the length of the header plus every valid frame: where the
	// next frame goes. Zero until the file exists.
	size    int64
	index   map[uint64]frameRef
	patches map[string]PatchRecord // pending repairs only
	// buf is the frame being written or read back, reused under mu.
	buf     []byte
	dropped int64
}

// frameRef locates one frame, header included.
type frameRef struct {
	off int64
	n   int
}

// NewCheckpoint opens the checkpoint at path for replay, or starts an empty
// journal if there is none (the file is created by the first append). The
// frames are scanned into the index; at the first frame whose length, CRC or
// type does not hold the file is truncated — a torn tail is what a crash
// leaves, costs only the re-measurement of what followed, and is reported by
// Dropped, not as an error. A file that does not start with this version's
// header (any JSON-era checkpoint included) is refused and left untouched —
// the caller decides whether to delete and restart.
func NewCheckpoint(path string) (*Checkpoint, error) {
	c := &Checkpoint{path: path, index: make(map[uint64]frameRef), patches: make(map[string]PatchRecord)}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: reading checkpoint %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("campaign: reading checkpoint %s: %w", path, err)
	}
	fileSize := st.Size()

	var head [len(checkpointHeader)]byte
	n, err := f.ReadAt(head[:], 0)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("campaign: reading checkpoint %s: %w", path, err)
	}
	switch got := head[:n]; {
	case n < len(head) && bytes.HasPrefix(checkpointHeader[:], got):
		// A torn creation: nothing was journaled yet.
	case n < len(head) || !bytes.Equal(got[:7], checkpointHeader[:7]):
		return nil, fmt.Errorf("campaign: checkpoint %s is not a version %d journal (earlier versions were JSON and are not read; delete it to restart)",
			path, CheckpointVersion)
	case got[7] != CheckpointVersion:
		return nil, fmt.Errorf("campaign: checkpoint %s has version %d, want %d", path, got[7], CheckpointVersion)
	default:
		c.size = int64(len(head))
		for {
			payload, ok := c.readFrame(f, c.size, fileSize)
			if !ok || !c.apply(frameRef{c.size, frameHeaderLen + len(payload)}, payload) {
				break
			}
			c.size += int64(frameHeaderLen + len(payload))
		}
	}
	if c.dropped = fileSize - c.size; c.dropped > 0 {
		if err := os.Truncate(path, c.size); err != nil {
			return nil, fmt.Errorf("campaign: truncating torn checkpoint %s: %w", path, err)
		}
	}
	return c, nil
}

// readFrame reads the frame at off into c.buf and returns its payload, or
// false if the frame runs past limit or fails its CRC. The length is checked
// against the bytes that remain before anything is allocated for it.
func (c *Checkpoint) readFrame(f *os.File, off, limit int64) ([]byte, bool) {
	var head [frameHeaderLen]byte
	if off+frameHeaderLen > limit {
		return nil, false
	}
	if _, err := f.ReadAt(head[:], off); err != nil {
		return nil, false
	}
	n := frameLen(head[:])
	if off+frameHeaderLen+n > limit {
		return nil, false
	}
	if int64(cap(c.buf)) < n {
		c.buf = make([]byte, n)
	}
	payload := c.buf[:n]
	if _, err := f.ReadAt(payload, off+frameHeaderLen); err != nil {
		return nil, false
	}
	return payload, frameIntact(head[:], payload)
}

// apply folds one frame into the index, or returns false if its payload is
// not a frame this version writes.
func (c *Checkpoint) apply(ref frameRef, payload []byte) bool {
	if len(payload) == 0 {
		return false
	}
	r := frameReader{b: payload[1:]}
	switch payload[0] {
	case frameExperiment:
		nonce := r.uvarint()
		if r.bad {
			return false
		}
		c.index[nonce] = ref
	case framePatchPending:
		id := r.str()
		var rec PatchRecord
		if r.bad || json.Unmarshal(r.b, &rec) != nil {
			return false
		}
		c.patches[id] = rec
	case framePatchDone:
		delete(c.patches, string(r.b))
	default:
		return false
	}
	return true
}

// appendFrame seals the frame begun by beginFrame — length and CRC filled in
// — and writes it at the end of the log with one write and one fsync,
// creating the file — header written, file and directory synced — if this
// is the first append.
func (c *Checkpoint) appendFrame(b []byte) (frameRef, error) {
	c.buf = b
	sealFrame(b)
	if c.size == 0 {
		err := writeFileSynced(c.path, func(w io.Writer) error {
			_, err := w.Write(checkpointHeader[:])
			return err
		})
		if err != nil {
			return frameRef{}, fmt.Errorf("campaign: creating checkpoint: %w", err)
		}
		c.size = int64(len(checkpointHeader))
	}
	f, err := os.OpenFile(c.path, os.O_WRONLY, 0)
	if err != nil {
		return frameRef{}, fmt.Errorf("campaign: opening checkpoint: %w", err)
	}
	if _, err = f.WriteAt(b, c.size); err == nil {
		err = fsync(f)
	}
	if err != nil {
		_ = f.Truncate(c.size) // best effort: the next open drops a torn tail anyway
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return frameRef{}, fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	ref := frameRef{c.size, len(b)}
	c.size += int64(len(b))
	return ref, nil
}

// writeFileSynced creates (or replaces) path with what write produces such
// that a crash, power loss included, leaves either the previous state or the
// whole new file: a temp file in the same directory is written, fsynced,
// closed and renamed over path, and the directory is fsynced.
func writeFileSynced(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Chmod(0o644); err != nil {
		return err
	}
	if err = fsync(tmp); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}

// Len returns the number of checkpointed experiments.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Dropped returns how many bytes of torn tail NewCheckpoint truncated.
func (c *Checkpoint) Dropped() int64 { return c.dropped }

// Lookup implements discovery.Journal: it reads the experiment's frame back
// from the file. A frame that no longer reads back intact is a miss — the
// experiment is measured again.
func (c *Checkpoint) Lookup(nonce uint64) (ent discovery.JournalEntry, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ref, ok := c.index[nonce]
	if !ok {
		return ent, false
	}
	f, err := os.Open(c.path)
	if err != nil {
		return ent, false
	}
	defer f.Close()
	if payload, ok := c.readFrame(f, ref.off, ref.off+int64(ref.n)); ok {
		return decodeExperiment(payload)
	}
	return ent, false
}

// decodeExperiment decodes a frameExperiment payload; false if it is not one.
func decodeExperiment(payload []byte) (discovery.JournalEntry, bool) {
	r := frameReader{b: payload[1:]}
	r.uvarint() // the nonce, already in the index
	ent := discovery.JournalEntry{Kind: r.str(), Probes: r.uvarint()}
	// A line takes at least two bytes, so a count the payload cannot hold
	// is refused before the slice is made.
	if lines := r.uvarint(); lines > uint64(len(r.b)) {
		return ent, false
	} else if lines > 0 {
		ent.Trace = make([]string, lines)
	}
	prev := ""
	for i := range ent.Trace {
		shared, rest := r.uvarint(), r.str()
		switch {
		case shared > uint64(len(prev)):
			r.bad = true
		case rest != "" || shared < uint64(len(prev)):
			prev = prev[:shared] + rest
		} // else the line repeats the one before it and shares its string
		ent.Trace[i] = prev
	}
	ent.Result = readSweep(&r)
	return ent, !r.bad && len(r.b) == 0
}

// appendSweep appends the sweep's three columns to b — the end of an
// experiment frame. A column is its length as a uvarint followed by that
// many zig-zag varints (site IDs and the missing-RTT marker take one byte,
// an RTT in nanoseconds four); a column the sweep lacks is the single byte 0.
func appendSweep(b []byte, sw discovery.Sweep) []byte {
	b = appendVarints(b, sw.Site)
	b = appendVarints(b, sw.Link)
	return appendVarints(b, sw.RTT)
}

func appendVarints[T int32 | int64](b []byte, col []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(col)))
	for _, v := range col {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

// readSweep reads the columns appendSweep wrote. An empty column reads as
// nil.
func readSweep(r *frameReader) (sw discovery.Sweep) {
	sw.Site = readVarints[int32](r)
	sw.Link = readVarints[int32](r)
	sw.RTT = readVarints[int64](r)
	return sw
}

func readVarints[T int32 | int64](r *frameReader) []T {
	n := r.uvarint()
	// Every cell takes at least one byte, so a length the remaining bytes
	// cannot hold is refused before anything is allocated for it.
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	if n == 0 {
		return nil
	}
	col := make([]T, n)
	for i := range col {
		v := r.varint()
		if r.bad || int64(T(v)) != v {
			r.bad = true
			return nil
		}
		col[i] = T(v)
	}
	return col
}

// Record implements discovery.Journal: it appends the entry's frame and
// fsyncs. A persistence failure is returned so the campaign driver can abort
// instead of running unrecoverable experiments.
func (c *Checkpoint) Record(nonce uint64, ent discovery.JournalEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := binary.AppendUvarint(beginFrame(c.buf[:0], frameExperiment), nonce)
	b = appendString(b, ent.Kind)
	b = binary.AppendUvarint(b, ent.Probes)
	b = binary.AppendUvarint(b, uint64(len(ent.Trace)))
	prev := ""
	for _, line := range ent.Trace {
		shared := 0
		for shared < len(prev) && shared < len(line) && prev[shared] == line[shared] {
			shared++
		}
		b = appendString(binary.AppendUvarint(b, uint64(shared)), line[shared:])
		prev = line
	}
	ref, err := c.appendFrame(appendSweep(b, ent.Result))
	if err != nil {
		return err
	}
	c.index[nonce] = ref
	return nil
}

// RecordPatchPending journals a reconciler repair before it runs: the rows in
// rec are stale from this moment until RecordPatchDone. Appended and fsynced
// like experiment entries.
func (c *Checkpoint) RecordPatchPending(id string, rec PatchRecord) error {
	body, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("campaign: encoding patch record: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := appendString(beginFrame(c.buf[:0], framePatchPending), id)
	if _, err := c.appendFrame(append(b, body...)); err != nil {
		return err
	}
	c.patches[id] = rec
	return nil
}

// RecordPatchDone marks a patch record's repair as committed. Unknown ids are
// a no-op: a superseding full campaign may retire repairs wholesale.
func (c *Checkpoint) RecordPatchDone(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.patches[id]; !ok {
		return nil
	}
	if _, err := c.appendFrame(append(beginFrame(c.buf[:0], framePatchDone), id...)); err != nil {
		return err
	}
	delete(c.patches, id)
	return nil
}

// PendingPatches returns the patch records whose repairs never committed —
// the resume set after a crash mid-reconcile.
func (c *Checkpoint) PendingPatches() map[string]PatchRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.patches)
}
