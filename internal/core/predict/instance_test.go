package predict

import (
	"testing"

	"anyopt/internal/core/prefs"
	"anyopt/internal/core/splpo"
)

func TestBuildInstanceStructure(t *testing.T) {
	pl := getPipeline(t)
	annProv, _ := pl.pred.Providers.BestAnnouncementOrder(6)
	in, clients := pl.pred.BuildInstance(annProv)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.NumSites != 15 {
		t.Errorf("NumSites = %d", in.NumSites)
	}
	if in.Cap != nil {
		t.Error("uncapacitated instance has caps")
	}
	for i, c := range in.Clients {
		if len(c.Ranking) != 15 {
			t.Fatalf("client %d ranking has %d sites", i, len(c.Ranking))
		}
		if c.Load != 1 || c.Weight != 1 {
			t.Fatalf("client %d load/weight = %v/%v, want 1/1", i, c.Load, c.Weight)
		}
		seen := map[int]bool{}
		for _, s := range c.Ranking {
			if s < 0 || s >= 15 || seen[s] {
				t.Fatalf("client %d ranking invalid: %v", i, c.Ranking)
			}
			seen[s] = true
		}
	}
	if len(clients) != len(in.Clients) {
		t.Error("client mapping length mismatch")
	}
}

func TestBuildInstanceWeighted(t *testing.T) {
	pl := getPipeline(t)
	annProv, _ := pl.pred.Providers.BestAnnouncementOrder(6)

	loads := map[prefs.Client]float64{}
	for i, c := range pl.pred.Providers.Clients() {
		if i%2 == 0 {
			loads[c] = 5
		}
	}
	caps := map[int]float64{1: 100, 6: 50}
	in, clients := pl.pred.BuildInstanceWeighted(annProv, loads, caps)
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if in.Cap == nil {
		t.Fatal("caps not installed")
	}
	if in.Cap[0] != 100 || in.Cap[5] != 50 {
		t.Errorf("caps = %v, %v", in.Cap[0], in.Cap[5])
	}
	if in.Cap[2] < splpo.Infinity {
		t.Error("uncapped site has a finite cap")
	}
	fives, ones := 0, 0
	for i, c := range in.Clients {
		want := 1.0
		if l, ok := loads[clients[i]]; ok {
			want = l
		}
		if c.Load != want || c.Weight != want {
			t.Fatalf("client %d load %v, want %v", i, c.Load, want)
		}
		if want == 5 {
			fives++
		} else {
			ones++
		}
	}
	if fives == 0 || ones == 0 {
		t.Errorf("load mix missing: fives=%d ones=%d", fives, ones)
	}
}

func TestSiteSetToConfigRoundTrip(t *testing.T) {
	pl := getPipeline(t)
	annProv, _ := pl.pred.Providers.BestAnnouncementOrder(6)
	n := len(pl.tb.Sites)
	for _, subset := range []splpo.SiteSet{
		splpo.SiteSetOf(n, 0),
		splpo.SiteSetOf(n, 0, 2, 4, 6, 8),
		allSites(n),
	} {
		cfg := pl.pred.SiteSetToConfig(subset, annProv)
		if got := ConfigToSiteSet(n, cfg); !got.Equal(subset) {
			t.Errorf("subset %v → config %v → %v", subset, cfg, got)
		}
		// Sites of the same provider must be adjacent in the config.
		lastProv := map[int64]int{}
		for i, id := range cfg {
			prov := int64(pl.tb.Site(id).Transit)
			if at, seen := lastProv[prov]; seen && at != i-1 {
				t.Errorf("subset %v: provider %d's sites not adjacent in %v", subset, prov, cfg)
			}
			lastProv[prov] = i
		}
	}
}

// allSites opens every one of n sites.
func allSites(n int) splpo.SiteSet {
	s := splpo.NewSiteSet(n)
	for i := 0; i < n; i++ {
		s.Add(i)
	}
	return s
}

func TestRankingPrefixStability(t *testing.T) {
	// For any client with a full ranking, the top item must equal the
	// Catchment prediction under the all-sites config — Ranking and
	// Catchment must never disagree.
	pl := getPipeline(t)
	annProv, _ := pl.pred.Providers.BestAnnouncementOrder(6)
	all := pl.pred.SiteSetToConfig(allSites(len(pl.tb.Sites)), annProv)
	checked := 0
	for _, c := range pl.pred.Providers.Clients() {
		ranking, ok := pl.pred.Ranking(c, annProv)
		if !ok {
			continue
		}
		got, ok := pl.pred.Catchment(c, all)
		if !ok {
			continue
		}
		checked++
		if got != ranking[0] {
			t.Fatalf("client %d: top of ranking %d != catchment %d", c, ranking[0], got)
		}
	}
	if checked < 200 {
		t.Fatalf("only %d clients checked", checked)
	}
}
