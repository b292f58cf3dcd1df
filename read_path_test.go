package anyopt

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"anyopt/internal/core/splpo"
)

// TestPredictSiteLoadsBitIdentical holds PredictSiteLoads to one answer per
// question. Fractional loads do not add associatively, so a sum taken in map
// iteration order moves in its last bits from call to call; the sweep adds in
// ascending client order.
func TestPredictSiteLoadsBitIdentical(t *testing.T) {
	snap := getSystem(t).CurrentSnapshot()
	loads := map[Client]float64{}
	for k, c := range snap.Pred.Providers.Clients() {
		loads[c] = 0.1 * float64(k)
	}
	cfg := Config{1, 4, 6, 9, 12}
	first := snap.PredictSiteLoads(cfg, loads)
	if len(first) < 3 {
		t.Fatalf("only %d sites carry load: %v", len(first), first)
	}
	for call := 1; call < 20; call++ {
		again := snap.PredictSiteLoads(cfg, loads)
		if len(again) != len(first) {
			t.Fatalf("call %d: %d sites, first call %d", call, len(again), len(first))
		}
		for site, l := range again {
			if math.Float64bits(l) != math.Float64bits(first[site]) {
				t.Fatalf("call %d: site %d carries %.17g, first call %.17g", call, site, l, first[site])
			}
		}
	}
}

// TestFlatInstanceDiffsCleanAgainstRankingOracle holds the flat instance
// build to an instance assembled one Ranking and one RTT lookup at a time:
// the same population and the same rows.
func TestFlatInstanceDiffsCleanAgainstRankingOracle(t *testing.T) {
	snap := getSystem(t).CurrentSnapshot()
	p := snap.Pred
	loads := map[Client]float64{}
	for k, c := range p.Providers.Clients() {
		if k%2 == 0 {
			loads[c] = 0.5 + float64(k%9)
		}
	}
	for _, tc := range []struct {
		loads map[Client]float64
		caps  map[int]float64
	}{{nil, nil}, {loads, map[int]float64{3: 25, 11: 60}}} {
		want := &splpo.Instance{NumSites: len(snap.TB.Sites)}
		var wantClients []Client
		for _, c := range p.Providers.Clients() {
			ranking, ok := p.Ranking(c, snap.AnnOrder)
			if !ok {
				continue
			}
			row := splpo.Client{Load: 1, Weight: 1}
			if l, ok := tc.loads[c]; ok {
				row.Load, row.Weight = l, l
			}
			for _, site := range ranking {
				cost := 1e9
				if rtt, ok := snap.RTT.RTT(site, c); ok {
					cost = float64(rtt) / float64(time.Millisecond)
				}
				row.Ranking = append(row.Ranking, site-1)
				row.RankCost = append(row.RankCost, cost)
			}
			want.Clients = append(want.Clients, row)
			wantClients = append(wantClients, c)
		}
		got, gotClients := p.BuildInstanceWeighted(snap.AnnOrder, tc.loads, tc.caps)
		if tc.caps != nil {
			want.Cap = got.Cap
		}
		if !reflect.DeepEqual(want, got) || !slices.Equal(wantClients, gotClients) {
			t.Errorf("caps %v: the flat instance differs from the oracle's %d rows", tc.caps, len(wantClients))
		}
		if len(wantClients) < 100 {
			t.Errorf("only %d orderable clients", len(wantClients))
		}
	}
}
