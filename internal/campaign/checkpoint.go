package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"anyopt/internal/core/discovery"
	"anyopt/internal/core/prefs"
)

// CheckpointVersion guards against loading incompatible checkpoint files.
// Version 2 journals each experiment as a discovery.Sweep (dense
// target-indexed columns); version 1 journaled per-client maps.
const CheckpointVersion = 2

// checkpointFile is the on-disk shape: experiment nonces (as decimal
// strings, since JSON object keys are strings) to journal entries, plus the
// reconciler's patch records (absent in pre-churn checkpoints).
type checkpointFile struct {
	Version int                               `json:"version"`
	Entries map[string]discovery.JournalEntry `json:"entries"`
	Patches map[string]PatchRecord            `json:"patches,omitempty"`
}

// PatchRecord journals one reconciler repair: the snapshot generation whose
// rows the churn invalidated, the affected client cone, and the churn events
// themselves (opaque JSON — the api layer owns the concrete type). A record
// with Done still false after a crash means the rows it names were marked
// stale but never repaired; a resuming server must re-apply the events and
// re-run exactly those cone repairs instead of silently serving pre-churn
// rows as fresh.
type PatchRecord struct {
	Gen     uint64          `json:"gen"`
	Clients []prefs.Client  `json:"clients"`
	Events  json.RawMessage `json:"events,omitempty"`
	Done    bool            `json:"done,omitempty"`
}

// Checkpoint is a file-backed discovery.Journal: every completed experiment
// is recorded under its campaign nonce and persisted atomically
// (write-temp-then-rename), so a killed campaign loses at most the
// experiments that were still in flight. Re-running the same campaign with
// the same checkpoint replays completed experiments from the file — results,
// probe counts, and fault traces — making the resumed run byte-identical to
// an uninterrupted one.
//
// Lookup and Record are safe for concurrent use by worker goroutines.
type Checkpoint struct {
	mu      sync.Mutex
	path    string
	entries map[uint64]discovery.JournalEntry
	patches map[string]PatchRecord
}

// NewCheckpoint opens (or creates) the checkpoint at path. An existing file
// is loaded for replay; a corrupt or truncated file is a clean error, never
// a panic — the caller decides whether to delete and restart.
func NewCheckpoint(path string) (*Checkpoint, error) {
	c := &Checkpoint{path: path, entries: make(map[uint64]discovery.JournalEntry)}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return c, nil
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: reading checkpoint %s: %w", path, err)
	}
	var f checkpointFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("campaign: checkpoint %s is corrupt (delete it to restart): %w", path, err)
	}
	if f.Version != CheckpointVersion {
		return nil, fmt.Errorf("campaign: checkpoint %s has version %d, want %d", path, f.Version, CheckpointVersion)
	}
	for k, ent := range f.Entries {
		nonce, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("campaign: checkpoint %s has invalid experiment key %q", path, k)
		}
		c.entries[nonce] = ent
	}
	for id, p := range f.Patches {
		if c.patches == nil {
			c.patches = make(map[string]PatchRecord)
		}
		c.patches[id] = p
	}
	return c, nil
}

// Len returns the number of checkpointed experiments.
func (c *Checkpoint) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Lookup implements discovery.Journal.
func (c *Checkpoint) Lookup(nonce uint64) (discovery.JournalEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.entries[nonce]
	return ent, ok
}

// Record implements discovery.Journal: it stores the entry and persists the
// whole journal atomically. A persistence failure is returned (and the entry
// kept in memory) so the campaign driver can abort instead of running
// unrecoverable experiments.
func (c *Checkpoint) Record(nonce uint64, ent discovery.JournalEntry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[nonce] = ent
	return c.persistLocked()
}

// RecordPatchPending journals a reconciler repair before it runs: the rows in
// rec are stale from this moment until RecordPatchDone. Persisted atomically,
// like experiment entries.
func (c *Checkpoint) RecordPatchPending(id string, rec PatchRecord) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.patches == nil {
		c.patches = make(map[string]PatchRecord)
	}
	rec.Done = false
	c.patches[id] = rec
	return c.persistLocked()
}

// RecordPatchDone marks a patch record's repair as committed. Unknown ids are
// a no-op: a superseding full campaign may retire repairs wholesale.
func (c *Checkpoint) RecordPatchDone(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.patches[id]
	if !ok {
		return nil
	}
	rec.Done = true
	c.patches[id] = rec
	return c.persistLocked()
}

// PendingPatches returns the patch records whose repairs never committed —
// the resume set after a crash mid-reconcile.
func (c *Checkpoint) PendingPatches() map[string]PatchRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]PatchRecord)
	for id, rec := range c.patches {
		if !rec.Done {
			out[id] = rec
		}
	}
	return out
}

// persistLocked writes the journal to a temp file in the same directory and
// renames it over the checkpoint path, so readers never observe a torn file.
func (c *Checkpoint) persistLocked() error {
	f := checkpointFile{
		Version: CheckpointVersion,
		Entries: make(map[string]discovery.JournalEntry, len(c.entries)),
		Patches: c.patches,
	}
	for nonce, ent := range c.entries {
		f.Entries[strconv.FormatUint(nonce, 10)] = ent
	}
	data, err := json.Marshal(&f)
	if err != nil {
		return fmt.Errorf("campaign: encoding checkpoint: %w", err)
	}
	dir := filepath.Dir(c.path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("campaign: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("campaign: writing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("campaign: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, c.path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("campaign: installing checkpoint: %w", err)
	}
	return nil
}
