package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"anyopt/internal/core/discovery"
	"anyopt/internal/core/prefs"
)

// What a crash can do to the log, held against the resume oracle of
// checkpoint_test.go: whatever is torn off or damaged, the reopened journal
// is a clean prefix of whole frames and the resumed campaign is
// byte-identical to the uninterrupted one.

// campaignOutcome is everything the resume property compares.
type campaignOutcome struct {
	rtts     map[int]map[prefs.Client]int64
	faultLog []string
	probes   uint64
}

// runOn runs the faulted resume schedule in a fresh system journaling to
// path, replaying whatever the file already holds.
func runOn(t *testing.T, path string) (campaignOutcome, *Checkpoint) {
	t.Helper()
	sys := newSystem(t, resumeFaults())
	ck, err := NewCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	sys.Disc.SetJournal(ck)
	tbl, err := sys.Disc.MeasureRTTs(resumeSites)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Disc.Err(); err != nil {
		t.Fatal(err)
	}
	return campaignOutcome{tbl.Export(), sys.Disc.FaultLog(), sys.Disc.ProbesSent}, ck
}

// journaledCampaign journals the faulted resume schedule to a fresh file and
// returns the uninterrupted outcome, the file's bytes and its frame
// boundaries (the offset each frame starts at, then the file's length).
func journaledCampaign(t *testing.T) (want campaignOutcome, data []byte, bounds []int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	want, ck := runOn(t, path)
	if ck.Len() != len(resumeSites) {
		t.Fatalf("journaled %d experiments, want %d", ck.Len(), len(resumeSites))
	}
	if len(want.faultLog) == 0 {
		t.Fatal("the faulted schedule logged no fault; the trace would go untested")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := len(checkpointHeader); off < len(data); {
		bounds = append(bounds, off)
		off += frameHeaderLen + int(binary.LittleEndian.Uint32(data[off:]))
	}
	return want, data, append(bounds, len(data))
}

// reopen writes damaged to a fresh file, opens it, and checks that the
// journal kept exactly the frames of wantPrefix: the file is now those bytes
// (so it ends on a frame boundary and nothing past the last valid frame
// survives), everything else is reported dropped, and frames experiments
// replay.
func reopen(t *testing.T, damaged, wantPrefix []byte, frames int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "damaged.ckpt")
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := NewCheckpoint(path)
	if err != nil {
		t.Fatalf("a torn log must open: %v", err)
	}
	if ck.Len() != frames {
		t.Fatalf("reopened journal holds %d experiments, want %d", ck.Len(), frames)
	}
	if got, want := ck.Dropped(), int64(len(damaged)-len(wantPrefix)); got != want {
		t.Fatalf("Dropped() = %d, want %d", got, want)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantPrefix) {
		t.Fatalf("reopened file is %d bytes, want the %d bytes of its valid frames", len(got), len(wantPrefix))
	}
	return path
}

func checkResume(t *testing.T, path string, want campaignOutcome) {
	t.Helper()
	got, ck := runOn(t, path)
	if ck.Len() != len(resumeSites) {
		t.Errorf("resumed journal holds %d experiments, want %d", ck.Len(), len(resumeSites))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed campaign differs from the uninterrupted run (probes %d vs %d, %d vs %d fault lines)",
			got.probes, want.probes, len(got.faultLog), len(want.faultLog))
	}
}

// TestCheckpointTornWriteSweep cuts the journal at every byte of its last
// frame — what a crash during Record leaves — and once inside the header.
// Every cut must reopen, without error, to exactly the frames before it. The
// reopened files are compared byte for byte, so they are all the same file;
// the campaign is resumed on a spread of them rather than on each.
func TestCheckpointTornWriteSweep(t *testing.T) {
	want, data, bounds := journaledCampaign(t)
	n := len(bounds) - 1
	last := bounds[n-1]
	for cut := last; cut < len(data); cut++ {
		path := reopen(t, data[:cut], data[:last], n-1)
		if (cut-last)%509 == 1 || cut == last+frameHeaderLen || cut == len(data)-1 {
			checkResume(t, path, want)
		}
	}
	// A zero-filled tail is the other shape power loss leaves: the length
	// landed, the data did not.
	path := reopen(t, append(bytes.Clone(data), make([]byte, 4096)...), data, n)
	checkResume(t, path, want)

	checkResume(t, reopen(t, data[:5], nil, 0), want)
}

// TestCheckpointBitFlipDropsTheRest flips one bit in a middle frame: the
// frames before it replay, it and everything after are dropped and measured
// again, and the result is still the uninterrupted one.
func TestCheckpointBitFlipDropsTheRest(t *testing.T) {
	want, data, bounds := journaledCampaign(t)
	for _, at := range []int{bounds[1], bounds[1] + 4, (bounds[1] + bounds[2]) / 2, bounds[2] - 1} {
		damaged := bytes.Clone(data)
		damaged[at] ^= 0x10
		path := reopen(t, damaged, data[:bounds[1]], 1)
		checkResume(t, path, want)
	}
}

// TestCheckpointPatchFrames: a pending patch frame survives reopen, a done
// frame retires it, and a torn done frame leaves it pending — the repair is
// run again, never skipped.
func TestCheckpointPatchFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reconcile.ckpt")
	open := func() *Checkpoint {
		t.Helper()
		ck, err := NewCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}
	rec := PatchRecord{Gen: 4, Clients: []prefs.Client{65, 66}, Events: []byte(`[{"kind":"link_cost"}]`)}
	ck := open()
	if err := ck.RecordPatchPending("churn-4", rec); err != nil {
		t.Fatal(err)
	}
	if err := ck.RecordPatchPending("churn-5", PatchRecord{Gen: 5}); err != nil {
		t.Fatal(err)
	}
	if err := ck.RecordPatchDone("churn-unknown"); err != nil {
		t.Fatal(err)
	}
	beforeDone, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	ck = open()
	if got := ck.PendingPatches(); len(got) != 2 || !reflect.DeepEqual(got["churn-4"], rec) {
		t.Fatalf("pending after reopen = %v, want churn-4 and churn-5 intact", got)
	}
	if err := ck.RecordPatchDone("churn-4"); err != nil {
		t.Fatal(err)
	}
	if got := ck.PendingPatches(); len(got) != 1 || got["churn-5"].Gen != 5 {
		t.Fatalf("pending after done = %v, want only churn-5", got)
	}
	if got := open().PendingPatches(); len(got) != 1 || got["churn-5"].Gen != 5 {
		t.Fatalf("pending after done and reopen = %v, want only churn-5", got)
	}

	withDone, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(beforeDone); cut < len(withDone); cut++ {
		if err := os.WriteFile(path, withDone[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got := open().PendingPatches(); len(got) != 2 {
			t.Fatalf("done frame torn at %d of %d bytes: pending = %v, want both records", cut-len(beforeDone), len(withDone)-len(beforeDone), got)
		}
	}
}

// TestCheckpointSyncsOncePerFrame counts the fsyncs: creating the file syncs
// it and its directory once, and each experiment or patch frame is one fsync.
func TestCheckpointSyncsOncePerFrame(t *testing.T) {
	var files, dirs int
	defer func(orig func(*os.File) error) { fsync = orig }(fsync)
	fsync = func(f *os.File) error {
		if st, err := f.Stat(); err == nil && st.IsDir() {
			dirs++
		} else {
			files++
		}
		return f.Sync()
	}
	expect := func(what string, wantFiles, wantDirs int) {
		t.Helper()
		if files != wantFiles || dirs != wantDirs {
			t.Errorf("%s: %d file and %d directory fsyncs, want %d and %d", what, files, dirs, wantFiles, wantDirs)
		}
		files, dirs = 0, 0
	}
	ent := discovery.JournalEntry{Kind: "rtt", Result: discovery.Sweep{RTT: []int64{1, -1, 3}}, Probes: 3}

	ck, err := NewCheckpoint(filepath.Join(t.TempDir(), "campaign.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	expect("opening a missing file", 0, 0)
	if err := ck.Record(2, ent); err != nil {
		t.Fatal(err)
	}
	expect("first record", 2, 1) // the new file with its header, the directory, the frame
	if err := ck.Record(3, ent); err != nil {
		t.Fatal(err)
	}
	expect("second record", 1, 0)
	if _, ok := ck.Lookup(2); !ok {
		t.Fatal("recorded entry not found")
	}
	if err := ck.RecordPatchPending("p", PatchRecord{Gen: 1}); err != nil {
		t.Fatal(err)
	}
	expect("pending patch", 1, 0)
	if err := ck.RecordPatchDone("p"); err != nil {
		t.Fatal(err)
	}
	expect("done patch", 1, 0)
}

// TestCheckpointConcurrentRecordLookup has two writers and a reader share the
// journal, as campaign workers do; run it under -race.
func TestCheckpointConcurrentRecordLookup(t *testing.T) {
	ck, err := NewCheckpoint(filepath.Join(t.TempDir(), "campaign.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	const perWriter = 40
	entry := func(nonce uint64) discovery.JournalEntry {
		return discovery.JournalEntry{
			Kind:   "rtt",
			Result: discovery.Sweep{Site: []int32{int32(nonce), 0}, RTT: []int64{int64(nonce) * 1000, -1}},
			Probes: nonce,
			Trace:  []string{fmt.Sprintf("exp %d", nonce)},
		}
	}
	var wg sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < perWriter; i++ {
				if err := ck.Record(2*i+w, entry(2*i+w)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20*perWriter; i++ {
			nonce := uint64(i % (2 * perWriter))
			if got, ok := ck.Lookup(nonce); ok && !reflect.DeepEqual(got, entry(nonce)) {
				t.Errorf("Lookup(%d) = %+v", nonce, got)
				return
			}
		}
	}()
	wg.Wait()
	if ck.Len() != 2*perWriter {
		t.Fatalf("journal holds %d experiments, want %d", ck.Len(), 2*perWriter)
	}
	for nonce := uint64(0); nonce < 2*perWriter; nonce++ {
		if got, ok := ck.Lookup(nonce); !ok || !reflect.DeepEqual(got, entry(nonce)) {
			t.Fatalf("Lookup(%d) after the writers finished = %+v, %v", nonce, got, ok)
		}
	}
}
