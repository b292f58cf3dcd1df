package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"anyopt"
	"anyopt/internal/core/discovery"
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

// failAfter wraps a Checkpoint and fails every Record after the first n — a
// campaign killed mid-run: the journal keeps what was persisted before the
// crash, and the campaign aborts.
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

// wholeCampaign is what a resumed campaign must reproduce of the
// uninterrupted one.
type wholeCampaign struct {
	saved       []byte
	faultLog    []string
	probes      uint64
	quarantined []int
}

// runWholeCampaign runs RunDiscovery in a fresh system under faults,
// journaling to j, and returns the system and the error the campaign ended
// with, if any.
func runWholeCampaign(t *testing.T, faults *fault.Config, j discovery.Journal) (*anyopt.System, error) {
	t.Helper()
	sys := newSystem(t, faults)
	sys.Disc.SetJournal(j)
	if err := sys.RunDiscovery(); err != nil {
		return sys, err
	}
	return sys, sys.Disc.Err()
}

func outcomeOf(t *testing.T, sys *anyopt.System) wholeCampaign {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, sys); err != nil {
		t.Fatal(err)
	}
	return wholeCampaign{buf.Bytes(), sys.Disc.FaultLog(), sys.Disc.ProbesSent, sys.Disc.QuarantinedSites()}
}

// TestCampaignResumeAfterKill kills a whole campaign partway through — once
// inside each of the RTT, provider and site phases — and resumes it in a
// fresh system from the same journal file. The resumed campaign must save the
// same bytes, log the same faults, count the same probes and quarantine the
// same sites as the uninterrupted one. It runs fault-free, under the harsh
// scenario, and under harsh with site 1 blacked out: the harsh scenario
// quarantines nothing at this scale, and a dead representative makes the
// resumed campaign re-derive from replayed rows a quarantine that changes
// which sites the later phases announce.
func TestCampaignResumeAfterKill(t *testing.T) {
	harsh, err := fault.Scenario("harsh", 1)
	if err != nil {
		t.Fatal(err)
	}
	blackout := *harsh
	blackout.BlackoutSites = []int{1}
	for _, tc := range []struct {
		faults      string
		cfg         *fault.Config
		quarantines bool
	}{
		{"none", nil, false},
		{"harsh", harsh, false},
		{"harsh+blackout", &blackout, true},
	} {
		ref, err := NewCheckpoint(filepath.Join(t.TempDir(), "reference.ckpt"))
		if err != nil {
			t.Fatal(err)
		}
		sys, err := runWholeCampaign(t, tc.cfg, ref)
		if err != nil {
			t.Fatal(err)
		}
		want := outcomeOf(t, sys)
		if tc.cfg != nil && len(want.faultLog) == 0 {
			t.Fatalf("%s: the campaign logged no fault; the trace would go untested", tc.faults)
		}
		if tc.quarantines != (len(want.quarantined) > 0) {
			t.Fatalf("%s: quarantined %v", tc.faults, want.quarantined)
		}
		// The journal holds one entry per nonce, in schedule order: count
		// each phase's experiments to place a crash inside it.
		perKind := map[string]int{}
		for nonce := uint64(1); nonce <= uint64(ref.Len()); nonce++ {
			ent, ok := ref.Lookup(nonce)
			if !ok {
				t.Fatalf("%s: reference journal lacks experiment %d of %d", tc.faults, nonce, ref.Len())
			}
			perKind[ent.Kind]++
		}
		nRTT, nProv, nSite := perKind["rtt"], perKind["config"], perKind["simpair"]
		if nRTT+nProv+nSite != ref.Len() || nRTT < 2 || nProv < 2 || nSite < 2 {
			t.Fatalf("%s: unexpected schedule %v", tc.faults, perKind)
		}
		t.Logf("%s: schedule %v, %d fault-log lines, quarantined %v", tc.faults, perKind, len(want.faultLog), want.quarantined)
		for _, crash := range []struct {
			phase string
			after int
		}{
			{"rtt", nRTT / 2},
			{"provider", nRTT + nProv/2},
			{"site", nRTT + nProv + nSite/2},
		} {
			t.Run(tc.faults+"/"+crash.phase, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "campaign.ckpt")
				ck, err := NewCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := runWholeCampaign(t, tc.cfg, &failAfter{ck: ck, n: crash.after}); err == nil {
					t.Fatal("the crashing journal did not abort the campaign")
				}

				ck, err = NewCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				if ck.Len() != crash.after {
					t.Fatalf("killed campaign left %d experiments journaled, want %d", ck.Len(), crash.after)
				}
				sys, err := runWholeCampaign(t, tc.cfg, ck)
				if err != nil {
					t.Fatal(err)
				}
				if ck.Len() != ref.Len() {
					t.Errorf("resumed journal holds %d experiments, want %d", ck.Len(), ref.Len())
				}
				got := outcomeOf(t, sys)
				if !bytes.Equal(got.saved, want.saved) {
					t.Errorf("resumed campaign saves %d bytes that differ from the uninterrupted run's %d", len(got.saved), len(want.saved))
				}
				if !reflect.DeepEqual(got.faultLog, want.faultLog) {
					t.Errorf("fault logs diverged: uninterrupted %d lines vs resumed %d", len(want.faultLog), len(got.faultLog))
				}
				if got.probes != want.probes {
					t.Errorf("probe accounting diverged: uninterrupted %d vs resumed %d", want.probes, got.probes)
				}
				if !reflect.DeepEqual(got.quarantined, want.quarantined) {
					t.Errorf("quarantine diverged: uninterrupted %v vs resumed %v", want.quarantined, got.quarantined)
				}
			})
		}
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
	b.Disc.Measure([]discovery.Deployment{{Sites: []int{1, 3}}}, false) // kind "config" where the file says "rtt"
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

// TestSaveLoadQuarantine round-trips a published quarantine: Save writes the
// quarantine the snapshot carries, not the System's Discovery, which holds
// none here (as after an API discovery job, which measures on a Discovery of
// its own), and Load restores it.
func TestSaveLoadQuarantine(t *testing.T) {
	sn := discovered(t).CurrentSnapshot()
	src, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	src.InstallCampaign(sn.Pred, sn.RTT, sn.AnnOrder, sn.Experiments, map[int]string{11: "blackout: no RTT responses"})
	if q := src.Disc.Quarantined(); len(q) != 0 {
		t.Fatalf("source Discovery quarantine = %v, want none", q)
	}

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
