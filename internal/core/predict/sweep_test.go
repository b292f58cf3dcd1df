package predict

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"anyopt/internal/core/discovery"
	"anyopt/internal/core/prefs"
	"anyopt/internal/core/splpo"
	"anyopt/internal/testbed"
	"anyopt/internal/topology"
)

// The differential oracles of the read side. Sweep and BuildInstanceWeighted
// resolve a question once and walk the provider key column once; Catchment
// and Ranking answer one client at a time through the map-keyed ClientPrefs
// API. Every predictor below is bent so that one of the fallbacks decides
// clients, and on each the fast path must give the slow one's answer.

// rewriteStore rebuilds st with fn applied to each client's relations: fn
// returns the relations to keep for the client (nil drops it from the store).
// An equal relation is recorded as two ordered experiments whose winner
// followed the announcement, a strict one as a naive experiment its winner
// won.
func rewriteStore(t *testing.T, st *prefs.Store, fn func(c prefs.Client, rels []prefs.DumpedRelation) []prefs.DumpedRelation) *prefs.Store {
	t.Helper()
	out, err := prefs.NewStore(st.Items())
	if err != nil {
		t.Fatal(err)
	}
	dump := st.Dump()
	for len(dump) > 0 {
		n := 1
		for n < len(dump) && dump[n].Client == dump[0].Client {
			n++
		}
		for _, r := range fn(dump[0].Client, dump[:n]) {
			if r.Rel == prefs.RelEqual {
				err = out.RecordOrdered(r.Client, r.I, r.J, r.I, r.J)
			} else {
				err = out.RecordSimultaneous(r.Client, r.I, r.J, r.Winner)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		dump = dump[n:]
	}
	out.Compact()
	return out
}

// bend spoils a share of a store's rows: every fifth client loses its row,
// every seventh a pair (an unknown relation), and every eleventh has its
// first three items wound into a cycle.
func bend(t *testing.T, st *prefs.Store) *prefs.Store {
	items := st.Items()
	return rewriteStore(t, st, func(c prefs.Client, rels []prefs.DumpedRelation) []prefs.DumpedRelation {
		switch {
		case c%5 == 0:
			return nil
		case c%7 == 0:
			return rels[1:]
		case c%11 == 0 && len(items) >= 3:
			a, b, d := items[0], items[1], items[2]
			out := []prefs.DumpedRelation{
				{Client: c, I: a, J: b, Rel: prefs.RelStrict, Winner: a},
				{Client: c, I: b, J: d, Rel: prefs.RelStrict, Winner: b},
				{Client: c, I: a, J: d, Rel: prefs.RelStrict, Winner: d},
			}
			for _, r := range rels {
				if (r.I == a || r.I == b || r.I == d) && (r.J == a || r.J == b || r.J == d) {
					continue
				}
				out = append(out, r)
			}
			return out
		}
		return rels
	})
}

// bendRTT rebuilds an RTT table with whole clients, single cells and one
// site's column missing, and every RTT rounded to 20 ms so that sites tie.
func bendRTT(t *testing.T, rtt *discovery.RTTTable, dropSite int) *discovery.RTTTable {
	t.Helper()
	data := rtt.Export()
	delete(data, dropSite)
	for site, row := range data {
		for c, ns := range row {
			switch {
			case c%6 == 0, (int(c)+site)%9 == 0:
				delete(row, c)
			default:
				row[c] = ns / int64(20*time.Millisecond) * int64(20*time.Millisecond)
			}
		}
	}
	// Back to columns: the sorted sites, the sorted clients some site still
	// measures, and the slab with −1 where a cell is gone.
	var sites []int
	var clients []prefs.Client
	for site, row := range data {
		sites = append(sites, site)
		for c := range row {
			clients = append(clients, c)
		}
	}
	slices.Sort(sites)
	slices.Sort(clients)
	clients = slices.Compact(clients)
	slab := make([]int64, 0, len(sites)*len(clients))
	for _, site := range sites {
		for _, c := range clients {
			ns, ok := data[site][c]
			if !ok {
				ns = -1
			}
			slab = append(slab, ns)
		}
	}
	out, err := discovery.NewRTTTableColumns(sites, clients, slab)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

type variant struct {
	name string
	pred *Predictor
}

// oracleVariants derives, from the shared campaign, one predictor per
// fallback the read path has.
func oracleVariants(t *testing.T) []variant {
	pl := getPipeline(t)
	base := *pl.pred
	heuristic, noRTT, heuristicNoRTT := base, base, base
	heuristic.UseRTTHeuristic = true
	noRTT.RTT = nil
	heuristicNoRTT.UseRTTHeuristic, heuristicNoRTT.RTT = true, nil

	// Site stores with missing, incomplete and cyclic rows; one provider's
	// store gone altogether.
	siteHoles := base
	siteHoles.Sites = map[topology.ASN]*prefs.Store{}
	for prov, st := range base.Sites {
		if len(siteHoles.Sites) == 1 {
			continue
		}
		siteHoles.Sites[prov] = bend(t, st)
	}

	provHoles := base
	provHoles.Providers = bend(t, base.Providers)

	rttHoles := base
	rttHoles.RTT = bendRTT(t, base.RTT, 3)
	rttHolesHeuristic := rttHoles
	rttHolesHeuristic.UseRTTHeuristic = true

	// What a cone repair publishes: every structure replaced by a patched
	// copy whose client columns no longer line up with each other.
	patched := base
	patched.Providers = provHoles.Providers
	patched.Sites = siteHoles.Sites
	patched.RTT = base.RTT.Patch(rttHoles.RTT, func(c prefs.Client) bool { return c%2 == 0 })

	return []variant{
		{"measured", &base},
		{"rtt-heuristic", &heuristic},
		{"no-rtt", &noRTT},
		{"rtt-heuristic-no-rtt", &heuristicNoRTT},
		{"site-store-holes", &siteHoles},
		{"provider-store-holes", &provHoles},
		{"rtt-holes", &rttHoles},
		{"rtt-holes-heuristic", &rttHolesHeuristic},
		{"patched", &patched},
	}
}

// checkSweep holds one sweep, and the consumers built on it, to the
// per-client oracle.
func checkSweep(t *testing.T, name string, p *Predictor, cfg Config) {
	t.Helper()
	sw := p.Sweep(cfg)
	clients := p.Providers.Clients()
	if len(sw.Catch) != len(clients) {
		t.Fatalf("%s %v: catchment column has %d rows for %d clients", name, cfg, len(sw.Catch), len(clients))
	}
	wantAll := map[prefs.Client]int{}
	wantCounts := map[int]int{}
	var wantSum time.Duration
	wantMeasured := 0
	for row, c := range clients {
		want, ok := p.Catchment(c, cfg)
		got, gotOK := 0, sw.Catch[row] >= 0
		if gotOK {
			got = sw.Sites[sw.Catch[row]]
		}
		if got != want || gotOK != ok {
			t.Fatalf("%s %v: client %d swept to %d, %v; oracle %d, %v", name, cfg, c, got, gotOK, want, ok)
		}
		if !ok {
			continue
		}
		wantAll[c] = want
		wantCounts[want]++
		if p.RTT != nil {
			if rtt, ok := p.RTT.RTT(want, c); ok {
				wantSum += rtt
				wantMeasured++
			}
		}
	}
	gotCounts := map[int]int{}
	for at, site := range sw.Sites {
		if sw.Counts[at] > 0 {
			gotCounts[site] += sw.Counts[at]
		}
	}
	if !reflect.DeepEqual(gotCounts, wantCounts) || sw.Predicted != len(wantAll) {
		t.Fatalf("%s %v: per-site counts %v (%d predicted), oracle %v (%d)", name, cfg, gotCounts, sw.Predicted, wantCounts, len(wantAll))
	}
	if sw.RTTSum != wantSum || sw.Measured != wantMeasured {
		t.Fatalf("%s %v: RTT sum %v over %d clients, oracle %v over %d", name, cfg, sw.RTTSum, sw.Measured, wantSum, wantMeasured)
	}

	if got := p.All(cfg); !reflect.DeepEqual(got, wantAll) {
		t.Fatalf("%s %v: All differs from the oracle", name, cfg)
	}
	wantMean := time.Duration(0)
	if wantMeasured > 0 {
		wantMean = wantSum / time.Duration(wantMeasured)
	}
	if mean, n := p.Sweep(cfg).MeanRTT(); mean != wantMean || n != wantMeasured {
		t.Fatalf("%s %v: MeanRTT = %v, %d; oracle %v, %d", name, cfg, mean, n, wantMean, wantMeasured)
	}
}

func TestSweepMatchesPerClientOracle(t *testing.T) {
	variants := oracleVariants(t)
	n := len(variants[0].pred.TB.Sites)
	rng := rand.New(rand.NewSource(20))
	cfgs := []Config{nil, {}, {n + 1}, {0}, {1, n + 7, 2}, {4, 4}, {2, 5, 2}}
	for len(cfgs) < 320 {
		// 1–15 sites in a random announcement order, so a provider's sites
		// need not be adjacent.
		cfg := Config(rng.Perm(n)[:1+rng.Intn(n)])
		for i := range cfg {
			cfg[i]++
		}
		cfgs = append(cfgs, cfg)
	}
	decided := 0
	for _, v := range variants {
		for _, cfg := range cfgs {
			checkSweep(t, v.name, v.pred, cfg)
		}
		decided += v.pred.Sweep(cfgs[len(cfgs)-1]).Predicted
	}
	if decided == 0 {
		t.Fatal("no variant predicted any client")
	}
}

// oracleInstance is BuildInstanceWeighted as it was before it was built on
// the plan: one Ranking and one RTT lookup per client and site.
func oracleInstance(p *Predictor, annProv []prefs.Item, loads map[prefs.Client]float64, caps map[int]float64) (*splpo.Instance, []prefs.Client) {
	n := len(p.TB.Sites)
	in := &splpo.Instance{NumSites: n}
	if caps != nil {
		in.Cap = make([]float64, n)
		for i := range in.Cap {
			in.Cap[i] = splpo.Infinity
		}
		for siteID, cap := range caps {
			if siteID >= 1 && siteID <= n {
				in.Cap[siteID-1] = cap
			}
		}
	}
	var clients []prefs.Client
	for _, c := range p.Providers.Clients() {
		ranking, ok := p.Ranking(c, annProv)
		if !ok {
			continue
		}
		idxRank := make([]int, len(ranking))
		rankCost := make([]float64, len(ranking))
		for i, siteID := range ranking {
			idxRank[i] = siteID - 1
			rankCost[i] = unmeasuredCost
			if rtt, ok := p.rttOrHuge(siteID, c); ok {
				rankCost[i] = float64(rtt) / float64(time.Millisecond)
			}
		}
		load, ok := loads[c]
		if !ok {
			load = 1
		}
		in.Clients = append(in.Clients, splpo.Client{
			Ranking: idxRank, RankCost: rankCost, Load: load, Weight: load,
		})
		clients = append(clients, c)
	}
	return in, clients
}

func TestBuildInstanceMatchesRankingOracle(t *testing.T) {
	variants := oracleVariants(t)
	tb := variants[0].pred.TB
	var all []prefs.Item
	for _, prov := range tb.TransitProviders() {
		all = append(all, prefs.Item(prov))
	}
	rng := rand.New(rand.NewSource(21))
	best, _ := variants[0].pred.Providers.BestAnnouncementOrder(7)
	orders := [][]prefs.Item{best, all[:len(all)-2], append(append([]prefs.Item(nil), all...), 999999)}
	for i := 0; i < 5; i++ {
		perm := append([]prefs.Item(nil), all...)
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		orders = append(orders, perm)
	}
	loads := map[prefs.Client]float64{}
	for _, c := range variants[0].pred.Providers.Clients() {
		if c%3 != 0 {
			loads[c] = 0.25 + float64(c%17)
		}
	}
	caps := map[int]float64{2: 40, 9: 12.5, len(tb.Sites) + 3: 1}

	rows := 0
	for _, v := range variants {
		for _, annProv := range orders {
			for _, weighted := range []bool{false, true} {
				var l map[prefs.Client]float64
				var k map[int]float64
				if weighted {
					l, k = loads, caps
				}
				got, gotClients := v.pred.BuildInstanceWeighted(annProv, l, k)
				want, wantClients := oracleInstance(v.pred, annProv, l, k)
				if got.NumSites != want.NumSites || !reflect.DeepEqual(got.Cap, want.Cap) {
					t.Fatalf("%s %v: shape %d %v, oracle %d %v", v.name, annProv, got.NumSites, got.Cap, want.NumSites, want.Cap)
				}
				if len(gotClients) != len(wantClients) || len(got.Clients) != len(want.Clients) ||
					(len(wantClients) > 0 && !reflect.DeepEqual(gotClients, wantClients)) {
					t.Fatalf("%s %v: %d clients, oracle %d", v.name, annProv, len(gotClients), len(wantClients))
				}
				for i := range want.Clients {
					if !reflect.DeepEqual(got.Clients[i], want.Clients[i]) {
						t.Fatalf("%s %v: client %d row %+v, oracle %+v", v.name, annProv, wantClients[i], got.Clients[i], want.Clients[i])
					}
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s %v: %v", v.name, annProv, err)
				}
				rows += len(want.Clients)
			}
		}
	}
	if rows == 0 {
		t.Fatal("no orderable client in any variant")
	}
}

// paperPipeline is the campaign at the paper's client population, for the
// gates and benchmarks that must not depend on it.
var paperPipeline *Predictor

func getPaperPredictor(tb testing.TB) *Predictor {
	tb.Helper()
	if paperPipeline != nil {
		return paperPipeline
	}
	topo, err := topology.Generate(topology.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	bed, err := testbed.New(topo, testbed.Options{Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	pred, _, err := NewPredictor(bed, discovery.New(bed, discovery.DefaultConfig()), false)
	if err != nil {
		tb.Fatal(err)
	}
	paperPipeline = pred
	return pred
}

// allSitesConfig enables every site, provider by provider: the widest plan.
func allSitesConfig(p *Predictor) (Config, []prefs.Item) {
	annProv, _ := p.Providers.BestAnnouncementOrder(7)
	return p.SiteSetToConfig(allSites(len(p.TB.Sites)), annProv), annProv
}

// TestReadPathAllocations is the gate on what a question costs the heap: a
// plan and its result, whatever the number of clients.
func TestReadPathAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a paper-scale campaign")
	}
	small, paper := getPipeline(t).pred, getPaperPredictor(t)
	if small.Providers.NumClients()*4 > paper.Providers.NumClients() {
		t.Fatalf("paper scale has %d clients against %d", paper.Providers.NumClients(), small.Providers.NumClients())
	}
	cfg, annProv := allSitesConfig(small)
	sweep := testing.AllocsPerRun(10, func() { small.Sweep(cfg) })
	if at := testing.AllocsPerRun(10, func() { paper.Sweep(cfg) }); at != sweep || sweep > 32 {
		t.Errorf("Sweep allocates %v at test scale and %v at paper scale, want the same and at most 32", sweep, at)
	}
	build := testing.AllocsPerRun(10, func() { small.BuildInstance(annProv) })
	if at := testing.AllocsPerRun(10, func() { paper.BuildInstance(annProv) }); at != build || build > 16 {
		t.Errorf("BuildInstance allocates %v at test scale and %v at paper scale, want the same and at most 16", build, at)
	}
}

var benchSink int

// BenchmarkPredictSweep answers one 15-site configuration for the paper's
// client population: catchments, per-site counts and RTT sum.
func BenchmarkPredictSweep(b *testing.B) {
	p := getPaperPredictor(b)
	cfg, _ := allSitesConfig(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := p.Sweep(cfg)
		benchSink += sw.Predicted
	}
}

// BenchmarkBuildInstance builds the SPLPO instance every optimization and
// every heal solves, at the paper's client population.
func BenchmarkBuildInstance(b *testing.B) {
	p := getPaperPredictor(b)
	_, annProv := allSitesConfig(p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, _ := p.BuildInstance(annProv)
		benchSink += len(in.Clients)
	}
}
