package campaign

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"anyopt"
	"anyopt/internal/core/discovery"
	"anyopt/internal/fault"
)

// runShard runs shard i of n (1-based) of the campaign schedule in its own
// fresh system — the in-process stand-in for an independent OS process —
// journaling to the shard's checkpoint file under base.
func runShard(t *testing.T, base string, i, n int) {
	t.Helper()
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	total := discovery.CampaignExperiments(sys.TB, sys.Options().UseRTTHeuristic)
	lo, hi := discovery.ShardRange(total, i-1, n)
	sys.Disc.Cfg.ShardLo, sys.Disc.Cfg.ShardHi = lo, hi
	ck, err := NewCheckpoint(ShardCheckpointPath(base, i, n))
	if err != nil {
		t.Fatal(err)
	}
	sys.Disc.SetJournal(ck)
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Disc.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := ck.Len(), int(hi-lo); got != want {
		t.Fatalf("shard %d/%d journaled %d experiments, want %d", i, n, got, want)
	}
}

// mergeAndSave merges the n shard journals under base, replays the campaign
// through them, and returns the saved snapshot bytes. The merge must be pure
// replay: every nonce of the schedule is already journaled.
func mergeAndSave(t *testing.T, base string, n int) []byte {
	t.Helper()
	ck, merged, err := MergeShardCheckpoints(base, n)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	total := discovery.CampaignExperiments(sys.TB, sys.Options().UseRTTHeuristic)
	if merged != total {
		t.Fatalf("merged %d experiments, schedule has %d", merged, total)
	}
	sys.Disc.SetJournal(ck)
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Disc.Err(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardMergeDeterminism proves the sharding contract: splitting the
// campaign into 1, 2, or 7 shards, running each shard in a fresh system, and
// merging the journals yields a saved snapshot byte-identical to the
// single-process campaign.
func TestShardMergeDeterminism(t *testing.T) {
	var want bytes.Buffer
	if err := Save(&want, discovered(t)); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 7} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			base := filepath.Join(t.TempDir(), "campaign.ck")
			for i := 1; i <= n; i++ {
				runShard(t, base, i, n)
			}
			got := mergeAndSave(t, base, n)
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("merged %d-shard campaign differs from single-process snapshot (%d vs %d bytes)",
					n, len(got), want.Len())
			}
		})
	}
}

// failAfter wraps a Checkpoint and fails every Record after the first n —
// simulating a shard process killed mid-campaign: the journal keeps what was
// persisted before the crash, and the campaign aborts.
type failAfter struct {
	ck *Checkpoint
	n  int
	// mu guards records: campaign workers record concurrently.
	mu      sync.Mutex
	records int
}

func (f *failAfter) Lookup(nonce uint64) (discovery.JournalEntry, bool) { return f.ck.Lookup(nonce) }

func (f *failAfter) Record(nonce uint64, ent discovery.JournalEntry) error {
	f.mu.Lock()
	crashed := f.records >= f.n
	if !crashed {
		f.records++
	}
	f.mu.Unlock()
	if crashed {
		return fmt.Errorf("simulated crash after %d records", f.n)
	}
	return f.ck.Record(nonce, ent)
}

// TestShardResumeAfterKill kills shard 1 of 2 partway through, re-runs it to
// completion against the same journal file, and checks the merged campaign is
// still byte-identical to the single-process run.
func TestShardResumeAfterKill(t *testing.T) {
	var want bytes.Buffer
	if err := Save(&want, discovered(t)); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "campaign.ck")

	// Shard 1 "crashes" after five journaled experiments.
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	total := discovery.CampaignExperiments(sys.TB, sys.Options().UseRTTHeuristic)
	lo, hi := discovery.ShardRange(total, 0, 2)
	sys.Disc.Cfg.ShardLo, sys.Disc.Cfg.ShardHi = lo, hi
	ck, err := NewCheckpoint(ShardCheckpointPath(base, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	sys.Disc.SetJournal(&failAfter{ck: ck, n: 5})
	if err := sys.RunDiscovery(); err != nil {
		t.Fatal(err)
	}
	if sys.Disc.Err() == nil {
		t.Fatal("crashing journal did not abort the shard")
	}

	// Resume shard 1 (fresh process, same journal file), run shard 2, merge.
	runShard(t, base, 1, 2)
	runShard(t, base, 2, 2)
	got := mergeAndSave(t, base, 2)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("merged campaign after shard crash+resume differs from single-process snapshot")
	}
}

// TestShardRejectsFaults checks the guard: a sharded campaign with fault
// injection enabled must refuse to run rather than quarantine sites a single
// shard cannot see.
func TestShardRejectsFaults(t *testing.T) {
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sys.Disc.Cfg.ShardLo, sys.Disc.Cfg.ShardHi = 1, 10
	sys.Disc.Cfg.Faults = &fault.Config{Seed: 1, ProbeLossProb: 0.01}
	if err := sys.RunDiscovery(); err == nil && sys.Disc.Err() == nil {
		t.Fatal("sharded campaign ran with fault injection enabled")
	}
}
