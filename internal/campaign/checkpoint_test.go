package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"anyopt"
	"anyopt/internal/fault"
)

// resumeSites is the singleton schedule used by the resume tests: small
// enough to stay fast, large enough that a "killed" run leaves work behind.
var resumeSites = []int{1, 3, 4, 5}

// resumeFaults is the fault mix the faulted resume tests run under: hot
// enough that the four-experiment schedule always logs a trace.
func resumeFaults() *fault.Config {
	return &fault.Config{
		Seed:          5,
		ProbeLossProb: 0.005,
		FlapProb:      0.1,
		FlapWindow:    20 * time.Minute,
		FlapDownMin:   30 * time.Second,
		FlapDownMax:   2 * time.Minute,
	}
}

func newSystem(t *testing.T, faults *fault.Config) *anyopt.System {
	t.Helper()
	opts := anyopt.DefaultOptions()
	opts.Discovery.Faults = faults
	sys, err := anyopt.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCheckpointResumeByteIdentical is the kill-and-restart property: a
// campaign checkpointed mid-run and resumed by a fresh process must produce
// results and probe accounting byte-identical to an uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")

	// Reference: uninterrupted, no checkpoint.
	ref := newSystem(t, nil)
	refTbl, err := ref.Disc.MeasureRTTs(resumeSites)
	if err != nil {
		t.Fatal(err)
	}

	// Partial run, "killed" after three of four experiments.
	part := newSystem(t, nil)
	ck1, err := NewCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	part.Disc.SetJournal(ck1)
	if _, err := part.Disc.MeasureRTTs(resumeSites[:3]); err != nil {
		t.Fatal(err)
	}
	if err := part.Disc.Err(); err != nil {
		t.Fatal(err)
	}
	if ck1.Len() != 3 {
		t.Fatalf("checkpoint holds %d experiments, want 3", ck1.Len())
	}

	// Resume: a fresh system loads the same file and runs the full schedule.
	res := newSystem(t, nil)
	ck2, err := NewCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Len() != 3 {
		t.Fatalf("reloaded checkpoint holds %d experiments, want 3", ck2.Len())
	}
	res.Disc.SetJournal(ck2)
	resTbl, err := res.Disc.MeasureRTTs(resumeSites)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Disc.Err(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(refTbl.Export(), resTbl.Export()) {
		t.Error("resumed campaign results differ from an uninterrupted run")
	}
	if ref.Disc.ProbesSent != res.Disc.ProbesSent {
		t.Errorf("probe accounting diverged: uninterrupted %d vs resumed %d",
			ref.Disc.ProbesSent, res.Disc.ProbesSent)
	}
}

// TestCheckpointResumeReplaysFaultTrace extends the resume property to a
// faulted campaign: replayed experiments must restore their recorded fault
// traces so the resumed campaign's failure log matches the uninterrupted one.
func TestCheckpointResumeReplaysFaultTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	ref := newSystem(t, resumeFaults())
	refTbl, err := ref.Disc.MeasureRTTs(resumeSites)
	if err != nil {
		t.Fatal(err)
	}

	part := newSystem(t, resumeFaults())
	ck1, err := NewCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	part.Disc.SetJournal(ck1)
	if _, err := part.Disc.MeasureRTTs(resumeSites[:2]); err != nil {
		t.Fatal(err)
	}

	res := newSystem(t, resumeFaults())
	ck2, err := NewCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	res.Disc.SetJournal(ck2)
	resTbl, err := res.Disc.MeasureRTTs(resumeSites)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Disc.Err(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(refTbl.Export(), resTbl.Export()) {
		t.Error("faulted resume produced different results")
	}
	if !reflect.DeepEqual(ref.Disc.FaultLog(), res.Disc.FaultLog()) {
		t.Errorf("fault logs diverged: uninterrupted %d lines vs resumed %d",
			len(ref.Disc.FaultLog()), len(res.Disc.FaultLog()))
	}
	if ref.Disc.ProbesSent != res.Disc.ProbesSent {
		t.Errorf("probe accounting diverged: %d vs %d", ref.Disc.ProbesSent, res.Disc.ProbesSent)
	}
}

// TestCheckpointScheduleMismatch pins the safety check: resuming a checkpoint
// against a different campaign schedule is a loud error, never a silent
// misattribution of results.
func TestCheckpointScheduleMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.ckpt")
	a := newSystem(t, nil)
	ck1, err := NewCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	a.Disc.SetJournal(ck1)
	if _, err := a.Disc.MeasureRTTs([]int{1}); err != nil {
		t.Fatal(err)
	}

	b := newSystem(t, nil)
	ck2, err := NewCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	b.Disc.SetJournal(ck2)
	b.Disc.RunConfiguration([]int{1, 3}) // kind "config" where the file says "rtt"
	if err := b.Disc.Err(); err == nil || !strings.Contains(err.Error(), "schedule changed") {
		t.Errorf("schedule mismatch not detected: err = %v", err)
	}

	// Same schedule, different Internet: sweeps are read by target position,
	// so a journal from another topology must be refused, not indexed.
	opts := anyopt.DefaultOptions()
	opts.Topology.NumStub += 10
	c, err := anyopt.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ck3, err := NewCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	c.Disc.SetJournal(ck3)
	if _, err := c.Disc.MeasureRTTs([]int{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Disc.Err(); err == nil || !strings.Contains(err.Error(), "different topology") {
		t.Errorf("topology mismatch not detected: err = %v", err)
	}
}

// TestCheckpointRejectsCorruptFiles: a file that is not this version's log is
// a clean error naming the version — never a panic, never silently treated as
// empty, and never modified: there is one format, and a JSON-era journal is
// turned away whole, not migrated. (A log that is this version's but torn is
// not an error at all; see checkpoint_log_test.go.)
func TestCheckpointRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	future := checkpointHeader
	future[7] = 9
	cases := map[string]struct{ data, wantErr string }{
		"garbage":        {"not json{{{", "not a version 3 journal"},
		"short garbage":  {"ANX", "not a version 3 journal"},
		"version-2 JSON": {`{"version":2,"entries":{"1":{"kind":"rtt","result":{"rtt":[1000000]},"probes":7}}}`, "not a version 3 journal"},
		"future version": {string(future[:]) + "whatever follows", "version 9, want 3"},
	}
	for name, tc := range cases {
		p := filepath.Join(dir, strings.ReplaceAll(name, " ", "-"))
		if err := os.WriteFile(p, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewCheckpoint(p); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, tc.wantErr)
		}
		if got, err := os.ReadFile(p); err != nil || string(got) != tc.data {
			t.Errorf("%s: a refused file was modified (%d bytes now, err %v)", name, len(got), err)
		}
	}
	// A missing file is a fresh campaign, not an error.
	ck, err := NewCheckpoint(filepath.Join(dir, "absent.ckpt"))
	if err != nil {
		t.Fatalf("missing checkpoint file: %v", err)
	}
	if ck.Len() != 0 {
		t.Errorf("fresh checkpoint has %d entries", ck.Len())
	}
}

// TestSaveLoadQuarantine rides the snapshot round-trip test for the new
// Quarantined field: a campaign that pulled sites restores them on load.
func TestSaveLoadQuarantine(t *testing.T) {
	src := discovered(t)
	src.Disc.QuarantineSite(11, "blackout: no RTT responses")
	defer src.Disc.RestoreQuarantine(nil)

	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}
	want := map[int]string{11: "blackout: no RTT responses"}
	if got := dst.Disc.Quarantined(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored quarantine = %v, want %v", got, want)
	}
	if !dst.Disc.IsQuarantined(11) {
		t.Error("site 11 not quarantined after load")
	}
	// Representatives must skip the restored quarantine (NTT falls back from
	// nothing here — 11 is not a representative — but the skip must hold).
	for _, rep := range dst.Disc.Representatives() {
		if rep == 11 {
			t.Error("quarantined site chosen as representative after load")
		}
	}
}
