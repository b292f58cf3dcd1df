package topology

import (
	"strings"
	"testing"
)

func TestExportImportRoundTrip(t *testing.T) {
	orig := mustGen(t, TestParams())
	data, err := orig.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ImportJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumASes() != orig.NumASes() {
		t.Fatalf("AS count %d vs %d", got.NumASes(), orig.NumASes())
	}
	for _, a := range orig.ASes() {
		asn := a.ASN
		b := got.AS(asn)
		if b == nil {
			t.Fatalf("AS %d missing after import", asn)
		}
		if a.Name != b.Name || a.Tier != b.Tier || a.RouterID != b.RouterID ||
			a.Multipath != b.Multipath || a.Coord != b.Coord {
			t.Fatalf("AS %d differs: %+v vs %+v", asn, a, b)
		}
		if len(a.PoPs) != len(b.PoPs) {
			t.Fatalf("AS %d PoP count differs", asn)
		}
		for i := range a.PoPs {
			if a.PoPs[i] != b.PoPs[i] {
				t.Fatalf("AS %d PoP %d differs", asn, i)
			}
		}
		if len(a.LocalPrefDelta) != len(b.LocalPrefDelta) {
			t.Fatalf("AS %d deltas differ", asn)
		}
		for n, d := range a.LocalPrefDelta {
			if b.LocalPrefDelta[n] != d {
				t.Fatalf("AS %d delta for %d differs", asn, n)
			}
		}
	}
	if len(got.Links) != len(orig.Links) {
		t.Fatalf("link count %d vs %d", len(got.Links), len(orig.Links))
	}
	for i, la := range orig.Links {
		lb := got.Links[i]
		if la.From != lb.From || la.To != lb.To || la.Rel != lb.Rel ||
			la.FromPoP != lb.FromPoP || la.ToPoP != lb.ToPoP || la.Delay != lb.Delay ||
			la.exitKm != lb.exitKm || la.slot != lb.slot {
			t.Fatalf("link %d differs: %+v vs %+v", i, la, lb)
		}
	}
	if len(got.Targets) != len(orig.Targets) {
		t.Fatalf("target counts differ")
	}
	for i := range orig.Targets {
		if got.Targets[i] != orig.Targets[i] {
			t.Fatalf("target %d differs", i)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("imported topology invalid: %v", err)
	}
	// The imported topology must accept further construction.
	a := got.AddAS("extra", TierOrigin, orig.Tier1s()[0].Coord)
	l := got.AddLink(a.ASN, got.Tier1s()[0].ASN, CustomerProvider, -1, 0)
	if got.Link(l.ID) != l {
		t.Error("links added after import are not addressable")
	}
	if orig.AS(a.ASN) != nil {
		t.Error("import aliases the original topology")
	}
}

// TestImportJSONDenseASNs: per-AS state is indexed by ASN − base, so an
// import must list ASNs ascending from the first one with no gap and no
// duplicate — which is exactly what ExportJSON writes, testbed additions
// included.
func TestImportJSONDenseASNs(t *testing.T) {
	for _, tc := range []struct{ name, ases string }{
		{"gap", `{"asn": 100}, {"asn": 102}`},
		{"duplicate", `{"asn": 100}, {"asn": 100}`},
		{"descending", `{"asn": 101}, {"asn": 100}`},
	} {
		_, err := ImportJSON([]byte(`{"version": 1, "ases": [` + tc.ases + `]}`))
		if err == nil || !strings.Contains(err.Error(), "contiguous") {
			t.Errorf("%s: err = %v, want a contiguity refusal", tc.name, err)
		}
	}

	orig := mustGen(t, TestParams())
	origin := orig.AddAS("origin", TierOrigin, orig.Tier1s()[0].Coord)
	orig.AddLink(origin.ASN, orig.Tier1s()[0].ASN, CustomerProvider, -1, 0)
	data, err := orig.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ImportJSON(data)
	if err != nil {
		t.Fatalf("round trip refused: %v", err)
	}
	for i, a := range got.ASes() {
		if got.Index(a.ASN) != i || got.AS(a.ASN) != a {
			t.Fatalf("AS %d at index %d does not resolve to itself", a.ASN, i)
		}
	}
	if got.Index(origin.ASN+1) != -1 || got.Index(firstASN-1) != -1 || got.AS(origin.ASN+1) != nil {
		t.Error("an ASN outside the topology resolves")
	}
}

func TestImportJSONSecondExportIdentical(t *testing.T) {
	orig := mustGen(t, TestParams())
	d1, err := orig.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	imported, err := ImportJSON(d1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := imported.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Error("export → import → export is not a fixed point")
	}
}

func TestImportJSONErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":       "][",
		"wrong version": `{"version": 9}`,
		"dup AS":        `{"version": 1, "ases": [{"asn": 1}, {"asn": 1}]}`,
		"unknown link AS": `{"version": 1, "ases": [{"asn": 1}],
			"links": [{"from": 1, "to": 2, "delay_ns": 5}]}`,
		"bad delay": `{"version": 1, "ases": [{"asn": 1}, {"asn": 2}],
			"links": [{"from": 1, "to": 2, "delay_ns": 0}]}`,
		"bad target addr": `{"version": 1, "ases": [{"asn": 1}],
			"targets": [{"addr": "nope", "as": 1}]}`,
		"unknown target AS": `{"version": 1, "ases": [{"asn": 1}],
			"targets": [{"addr": "10.0.0.1", "as": 7}]}`,
	}
	for name, data := range cases {
		if _, err := ImportJSON([]byte(data)); err == nil {
			t.Errorf("%s: imported successfully", name)
		} else if strings.Contains(err.Error(), "panic") {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestImportJSONTargetsSorted: targets must arrive sorted by address, each
// address once, because they are the campaign's row order and
// Testbed.TargetIndex binary-searches them; and they must be IPv4, the only
// family the measurement plane speaks.
func TestImportJSONTargetsSorted(t *testing.T) {
	const head = `{"version": 1, "ases": [{"asn": 1}], "targets": [`
	got, err := ImportJSON([]byte(head + `{"addr": "10.0.0.1", "as": 1}, {"addr": "10.0.0.2", "as": 1}]}`))
	if err != nil || len(got.Targets) != 2 {
		t.Fatalf("sorted targets: %v", err)
	}
	for _, tc := range []struct{ name, targets string }{
		{"unsorted", `{"addr": "10.0.0.2", "as": 1}, {"addr": "10.0.0.1", "as": 1}`},
		{"duplicate", `{"addr": "10.0.0.1", "as": 1}, {"addr": "10.0.0.1", "as": 1}`},
	} {
		_, err := ImportJSON([]byte(head + tc.targets + `]}`))
		if err == nil || !strings.Contains(err.Error(), "sorted by address") {
			t.Errorf("%s targets: err = %v, want a sort-order refusal", tc.name, err)
		}
	}
	for _, a := range []string{"2001:db8::1", "::ffff:10.0.0.1"} {
		_, err := ImportJSON([]byte(head + `{"addr": "` + a + `", "as": 1}]}`))
		if err == nil || !strings.Contains(err.Error(), "not IPv4") {
			t.Errorf("target %s: err = %v, want an IPv4-only refusal", a, err)
		}
	}
}
