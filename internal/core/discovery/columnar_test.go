package discovery

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"anyopt/internal/core/prefs"
)

// importRTT builds a table from Export's site → client → RTT form through
// NewRTTTableColumns, the constructor a saved campaign is loaded with.
func importRTT(t *testing.T, data map[int]map[prefs.Client]int64) *RTTTable {
	t.Helper()
	var sites []int
	var clients []prefs.Client
	for site, row := range data {
		sites = append(sites, site)
		for c := range row {
			clients = append(clients, c)
		}
	}
	sort.Ints(sites)
	slices.Sort(clients)
	clients = slices.Compact(clients)
	cells := missingRTTs(len(sites) * len(clients))
	for si, site := range sites {
		for ci, c := range clients {
			if ns, ok := data[site][c]; ok {
				cells[si*len(clients)+ci] = ns
			}
		}
	}
	tbl, err := NewRTTTableColumns(sites, clients, cells)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// refRTT is the nested-map reference model: the exact semantics of the
// pre-columnar RTTTable. The columnar table must be observationally
// identical under every build / patch / export sequence.
type refRTT struct {
	bySite map[int]map[prefs.Client]time.Duration
}

func (t *refRTT) rtt(site int, c prefs.Client) (time.Duration, bool) {
	d, ok := t.bySite[site][c]
	return d, ok
}

func (t *refRTT) sites() []int {
	var out []int
	for s := range t.bySite {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func (t *refRTT) mean(site int) time.Duration {
	m := t.bySite[site]
	if len(m) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range m {
		sum += d
	}
	return sum / time.Duration(len(m))
}

func (t *refRTT) patch(patch *refRTT, cone func(prefs.Client) bool) *refRTT {
	out := &refRTT{bySite: map[int]map[prefs.Client]time.Duration{}}
	for site, m := range t.bySite {
		row := make(map[prefs.Client]time.Duration, len(m))
		for c, d := range m {
			if !cone(c) {
				row[c] = d
			}
		}
		for c, d := range patch.bySite[site] {
			if cone(c) {
				row[c] = d
			}
		}
		out.bySite[site] = row
	}
	return out
}

func (t *refRTT) export() map[int]map[prefs.Client]int64 {
	out := make(map[int]map[prefs.Client]int64, len(t.bySite))
	for site, m := range t.bySite {
		row := make(map[prefs.Client]int64, len(m))
		for c, d := range m {
			row[c] = int64(d)
		}
		out[site] = row
	}
	return out
}

func randRTTData(rng *rand.Rand, sites []int, clientPool []prefs.Client) map[int]map[prefs.Client]int64 {
	data := make(map[int]map[prefs.Client]int64, len(sites))
	for _, s := range sites {
		row := make(map[prefs.Client]int64)
		for _, c := range clientPool {
			if rng.Intn(3) > 0 { // sparse: some cells missing per site
				row[c] = int64(rng.Intn(200)+1) * int64(time.Millisecond)
			}
		}
		data[s] = row
	}
	return data
}

func checkRTTEquiv(t *testing.T, step int, tbl *RTTTable, ref *refRTT, probeSites []int, probeClients []prefs.Client) {
	t.Helper()
	if got, want := tbl.Sites(), ref.sites(); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
		t.Fatalf("step %d: sites %v, want %v", step, got, want)
	}
	for _, s := range probeSites {
		if got, want := tbl.Clients(s), len(ref.bySite[s]); got != want {
			t.Fatalf("step %d: Clients(%d) = %d, want %d", step, s, got, want)
		}
		if got, want := tbl.MeanUnicast(s), ref.mean(s); got != want {
			t.Fatalf("step %d: MeanUnicast(%d) = %v, want %v", step, s, got, want)
		}
		for _, c := range probeClients {
			gd, gok := tbl.RTT(s, c)
			wd, wok := ref.rtt(s, c)
			if gd != wd || gok != wok {
				t.Fatalf("step %d: RTT(%d, %d) = (%v, %v), want (%v, %v)", step, s, c, gd, gok, wd, wok)
			}
		}
	}
	// The positional read the prediction sweep makes — a column resolved per
	// site, one forward walk of the client column — sees the same cells.
	walk := append([]prefs.Client(nil), probeClients...)
	sort.Slice(walk, func(i, j int) bool { return walk[i] < walk[j] })
	row := 0
	for _, c := range walk {
		var found bool
		row, found = tbl.Seek(row, c)
		for _, s := range probeSites {
			col := tbl.Column(s)
			var gd time.Duration
			gok := false
			if col >= 0 && found {
				gd, gok = tbl.At(col, row)
			}
			if wd, wok := ref.rtt(s, c); gd != wd || gok != wok {
				t.Fatalf("step %d: At(Column(%d), Seek(%d)) = (%v, %v), want (%v, %v)", step, s, c, gd, gok, wd, wok)
			}
		}
	}
	if got, want := tbl.Export(), ref.export(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: export mismatch:\n got %v\nwant %v", step, got, want)
	}
}

// TestRTTColumnarDifferential drives random import / patch / export
// sequences through the columnar RTT table and the nested-map reference
// model in lockstep.
func TestRTTColumnarDifferential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sites := []int{3, 0, 11, 7}
		probeSites := append([]int{99}, sites...) // 99 is never present
		clientPool := make([]prefs.Client, 30)
		for i := range clientPool {
			clientPool[i] = prefs.Client(rng.Intn(900))
		}
		data := randRTTData(rng, sites, clientPool)
		tbl := importRTT(t, data)
		ref := &refRTT{bySite: map[int]map[prefs.Client]time.Duration{}}
		for s, row := range data {
			m := make(map[prefs.Client]time.Duration, len(row))
			for c, ns := range row {
				m[c] = time.Duration(ns)
			}
			ref.bySite[s] = m
		}
		checkRTTEquiv(t, 0, tbl, ref, probeSites, clientPool)

		for step := 1; step <= 20; step++ {
			switch rng.Intn(3) {
			case 0: // cone patch with freshly measured rows
				cut := prefs.Client(rng.Intn(900))
				cone := func(c prefs.Client) bool { return c >= cut }
				pd := randRTTData(rng, sites[:rng.Intn(len(sites))+1], clientPool)
				ptbl := importRTT(t, pd)
				pref := &refRTT{bySite: map[int]map[prefs.Client]time.Duration{}}
				for s, row := range pd {
					m := make(map[prefs.Client]time.Duration, len(row))
					for c, ns := range row {
						m[c] = time.Duration(ns)
					}
					pref.bySite[s] = m
				}
				tbl = tbl.Patch(ptbl, cone)
				ref = ref.patch(pref, cone)
			case 1: // columns → constructor round trip
				sites, clients, cells := tbl.Columns()
				var err error
				tbl, err = NewRTTTableColumns(slices.Clone(sites), slices.Clone(clients), slices.Clone(cells))
				if err != nil {
					t.Fatal(err)
				}
			case 2: // empty-cone patch must hand the receiver back
				empty := importRTT(t, nil)
				got := tbl.Patch(empty, func(prefs.Client) bool { return false })
				if got != tbl {
					t.Fatalf("step %d: empty-cone patch did not return the receiver", step)
				}
			}
			checkRTTEquiv(t, step, tbl, ref, probeSites, clientPool)
		}
	}
}
