package campaign

import (
	"bytes"
	"encoding/json"
	"maps"
	"strings"
	"testing"

	"anyopt"
	"anyopt/internal/core/prefs"
	"anyopt/internal/topology"
)

// The JSON campaign file of format version 1, kept here as the oracle of the
// frame file that replaced it: a campaign saved as frames and loaded back must
// marshal, through legacyMarshal, to the very bytes version 1 saved — the
// hashes TestCampaignBytesPinned recorded before the change hold it to that.
const legacyVersion = 1

// storeDump serializes one preference store.
type storeDump struct {
	Items     []prefs.Item           `json:"items"`
	Relations []prefs.DumpedRelation `json:"relations"`
}

// Snapshot is the serialized form of a campaign in format version 1.
type Snapshot struct {
	Version int `json:"version"`
	// Sites echoes the testbed layout for sanity checking at load time.
	Sites int `json:"sites"`
	// UseRTTHeuristic records the discovery mode.
	UseRTTHeuristic bool `json:"use_rtt_heuristic"`
	// AnnOrder is the chosen provider announcement order.
	AnnOrder []prefs.Item `json:"ann_order"`

	Providers   storeDump                      `json:"providers"`
	SiteStores  map[topology.ASN]storeDump     `json:"site_stores,omitempty"`
	RTT         map[int]map[prefs.Client]int64 `json:"rtt"`
	Experiments int                            `json:"experiments"`

	// Quarantined records sites the campaign pulled out after detecting
	// them dead (site ID → reason); absent for fault-free campaigns.
	Quarantined map[int]string `json:"quarantined,omitempty"`
}

func dumpStore(s *prefs.Store) storeDump {
	return storeDump{Items: s.Items(), Relations: s.Dump()}
}

// legacyMarshal is the version 1 SaveSnapshot: materialize the whole
// nested-map Snapshot struct and hand it to json.Encoder.
func legacyMarshal(t *testing.T, sn *anyopt.Snapshot) []byte {
	t.Helper()
	snap := Snapshot{
		Version:         legacyVersion,
		Sites:           len(sn.TB.Sites),
		UseRTTHeuristic: sn.Pred.UseRTTHeuristic,
		AnnOrder:        append([]prefs.Item(nil), sn.AnnOrder...),
		Providers:       dumpStore(sn.Pred.Providers),
		RTT:             sn.RTT.Export(),
		Experiments:     sn.Experiments,
		Quarantined:     maps.Clone(sn.Quarantined),
	}
	if len(sn.Pred.Sites) > 0 {
		snap.SiteStores = make(map[topology.ASN]storeDump, len(sn.Pred.Sites))
		for prov, st := range sn.Pred.Sites {
			if st != nil {
				snap.SiteStores[prov] = dumpStore(st)
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(&snap); err != nil {
		t.Fatalf("legacy marshal: %v", err)
	}
	return buf.Bytes()
}

// reload saves sn as frames, loads them into a fresh system and returns the
// snapshot that system published.
func reload(t *testing.T, sn *anyopt.Snapshot) *anyopt.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveSnapshot(&buf, sn); err != nil {
		t.Fatalf("save: %v", err)
	}
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(&buf, sys); err != nil {
		t.Fatalf("load: %v", err)
	}
	return sys.CurrentSnapshot()
}

func firstDiff(a, b []byte) (int, string, string) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			hiA, hiB := i+40, i+40
			if hiA > len(a) {
				hiA = len(a)
			}
			if hiB > len(b) {
				hiB = len(b)
			}
			return i, string(a[lo:hiA]), string(b[lo:hiB])
		}
	}
	return n, "", ""
}

func assertStreamMatchesLegacy(t *testing.T, sn *anyopt.Snapshot) {
	t.Helper()
	want := legacyMarshal(t, sn)
	got := legacyMarshal(t, reload(t, sn))
	if !bytes.Equal(want, got) {
		off, a, b := firstDiff(want, got)
		t.Fatalf("saved and loaded campaign marshals differently at offset %d (lens %d vs %d)\nbefore: %q\nafter:  %q",
			off, len(want), len(got), a, b)
	}
}

// TestStreamMatchesLegacyFullCampaign runs a real campaign through the frame
// file and back and checks the version 1 encoding of what comes back against
// that of what went in, byte for byte — site stores, RTT rows and the
// announcement order included.
func TestStreamMatchesLegacyFullCampaign(t *testing.T) {
	sys := discovered(t)
	sn := sys.CurrentSnapshot()
	assertStreamMatchesLegacy(t, sn)
}

// TestStreamMatchesLegacyEdgeShapes drives the corners the full campaign
// never hits through the frame file: a quarantine map whose IDs sort
// differently as strings (site 10 before 2) and whose reasons need escaping
// in JSON, no site stores, and a nil announcement order.
func TestStreamMatchesLegacyEdgeShapes(t *testing.T) {
	sys := discovered(t)
	base := sys.CurrentSnapshot()

	t.Run("quarantined", func(t *testing.T) {
		view := *base
		view.Quarantined = map[int]string{
			2:  "blackout <sim> & probe loss",
			10: "operator pull",
			1:  "no RTT responses",
		}
		assertStreamMatchesLegacy(t, &view)
	})

	t.Run("nil-ann-order-no-sites", func(t *testing.T) {
		view := *base
		pred := *base.Pred
		pred.Sites = nil
		view.Pred = &pred
		view.AnnOrder = nil
		assertStreamMatchesLegacy(t, &view)
	})
}

// TestStreamLoadRoundTrip confirms Load accepts the saved bytes and the
// reloaded system saves to the identical file.
func TestStreamLoadRoundTrip(t *testing.T) {
	sys := discovered(t)
	var first bytes.Buffer
	if err := Save(&first, sys); err != nil {
		t.Fatalf("save: %v", err)
	}
	sys2, errNew := anyopt.New(anyopt.DefaultOptions())
	if errNew != nil {
		t.Fatal(errNew)
	}
	if err := Load(strings.NewReader(first.String()), sys2); err != nil {
		t.Fatalf("load: %v", err)
	}
	var second bytes.Buffer
	if err := Save(&second, sys2); err != nil {
		t.Fatalf("second save: %v", err)
	}
	if first.String() != second.String() {
		t.Fatalf("save→load→save not identical: %d vs %d bytes", first.Len(), second.Len())
	}
}
