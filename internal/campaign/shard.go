package campaign

// Shard coordination for distributed discovery campaigns: `anyopt discover
// -shard i/n` runs shard i of n as its own OS process, journaling only its
// contiguous nonce range (see discovery.ShardRange) to a per-shard checkpoint
// file derived from the operator's base path. `-shard merge/n` folds the n
// shard journals into one checkpoint and replays the full schedule through
// it, reproducing the single-process campaign byte for byte. Shards never
// share a checkpoint file: each Checkpoint appends at the end of the log it
// opened, so two writers would overwrite each other's frames — and they have
// no reason to, since the shards' nonce ranges are disjoint and the merge is
// a copy of their frames.

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Shard identifies one worker of an n-way sharded campaign (Index 1..n), or
// the merge step (Index 0).
type Shard struct {
	Index int
	Count int
}

// Merge reports whether this is the merge step.
func (s Shard) Merge() bool { return s.Index == 0 }

// ParseShard parses a -shard specification: "i/n" with 1 <= i <= n runs
// worker shard i, "merge/n" merges the n shard journals and replays.
func ParseShard(spec string) (Shard, error) {
	part, countStr, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("campaign: shard spec %q is not i/n or merge/n", spec)
	}
	n, err := strconv.Atoi(countStr)
	if err != nil || n < 1 {
		return Shard{}, fmt.Errorf("campaign: shard count in %q must be a positive integer", spec)
	}
	if part == "merge" {
		return Shard{Index: 0, Count: n}, nil
	}
	i, err := strconv.Atoi(part)
	if err != nil || i < 1 || i > n {
		return Shard{}, fmt.Errorf("campaign: shard index in %q must be merge or 1..%d", spec, n)
	}
	return Shard{Index: i, Count: n}, nil
}

// ShardCheckpointPath derives shard i's private checkpoint file from the
// operator's base checkpoint path.
func ShardCheckpointPath(base string, i, n int) string {
	return fmt.Sprintf("%s.shard-%d-of-%d", base, i, n)
}

// MergeShardCheckpoints folds the n per-shard journals for base into a single
// checkpoint at base and returns it with the merged entry count. Every shard
// file must exist (a missing file means that shard never ran — launch it
// first); a partial file is fine, since the merge replay runs any experiment
// the journals lack. Overlapping entries must agree byte for byte — shards
// own disjoint nonce ranges, so a conflict means the files belong to
// different campaigns.
func MergeShardCheckpoints(base string, n int) (*Checkpoint, int, error) {
	merged, err := NewCheckpoint(base)
	if err != nil {
		return nil, 0, err
	}
	for i := 1; i <= n; i++ {
		path := ShardCheckpointPath(base, i, n)
		shard, err := NewCheckpoint(path)
		if err != nil {
			return nil, 0, err
		}
		if shard.Len() == 0 {
			return nil, 0, fmt.Errorf("campaign: shard journal %s is missing or empty — run shard %d/%d first", path, i, n)
		}
		if err := merged.absorb(shard); err != nil {
			return nil, 0, fmt.Errorf("campaign: merging %s: %w", path, err)
		}
	}
	return merged, merged.Len(), nil
}

// absorb appends other's experiment frames to c's log, verbatim and in nonce
// order, with one write and one fsync. A nonce c already holds must carry the
// same frame byte for byte and is not copied again, so a repeated merge adds
// nothing.
func (c *Checkpoint) absorb(other *Checkpoint) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	other.mu.Lock()
	defer other.mu.Unlock()
	nonces := make([]uint64, 0, len(other.index))
	for nonce := range other.index {
		nonces = append(nonces, nonce)
	}
	slices.Sort(nonces)

	var batch []byte
	var added []uint64
	for _, nonce := range nonces {
		frame, err := other.rawFrame(other.index[nonce])
		if err != nil {
			return err
		}
		if have, dup := c.index[nonce]; dup {
			mine, err := c.rawFrame(have)
			if err != nil {
				return err
			}
			if !bytes.Equal(mine, frame) {
				return fmt.Errorf("conflicting results for experiment %d", nonce)
			}
			continue
		}
		added = append(added, nonce)
		batch = append(batch, frame...)
	}
	if len(batch) == 0 {
		return nil
	}
	off, err := c.appendBytes(batch)
	if err != nil {
		return err
	}
	for _, nonce := range added {
		n := other.index[nonce].n
		c.index[nonce] = frameRef{off, n}
		off += int64(n)
	}
	return nil
}

// rawFrame reads the frame at ref as it lies in the file, header included.
func (c *Checkpoint) rawFrame(ref frameRef) ([]byte, error) {
	f, err := os.Open(c.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	frame := make([]byte, ref.n)
	_, err = f.ReadAt(frame, ref.off)
	return frame, err
}
