package campaign

import (
	"path/filepath"
	"testing"

	"anyopt/internal/core/discovery"
)

// recordAllocs is the allocation budget of one Checkpoint.Record: opening
// the log for the append (the path's C string and the *os.File with its
// file state). The frame is encoded into the checkpoint's reused buffer, so
// nothing is allocated per row or per trace line.
const recordAllocs = 3

// TestRecordAllocationBudget journals paper-scale catchment experiments, a
// 2,780-row sweep with all three columns and two trace lines each, under a
// new nonce per record as a campaign does.
func TestRecordAllocationBudget(t *testing.T) {
	const rows = 2780
	sw := discovery.Sweep{Site: make([]int32, rows), Link: make([]int32, rows), RTT: make([]int64, rows)}
	for i := range rows {
		sw.Site[i], sw.Link[i], sw.RTT[i] = int32(1+i%15), int32(700+i%40), int64(20_000_000+i*997)
	}
	ent := discovery.JournalEntry{
		Kind:   "provider",
		Result: sw,
		Probes: rows,
		Trace:  []string{"exp 7 attempt 0: probe lost", "exp 7 attempt 0: session reset site=4"},
	}
	ck, err := NewCheckpoint(filepath.Join(t.TempDir(), "campaign.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	nonce := uint64(0)
	got := testing.AllocsPerRun(50, func() {
		nonce++
		if err := ck.Record(nonce, ent); err != nil {
			t.Fatal(err)
		}
	})
	if got != recordAllocs {
		t.Errorf("Record of a %d-row sweep with %d trace lines allocates %v, budget %d", rows, len(ent.Trace), got, recordAllocs)
	}
}
