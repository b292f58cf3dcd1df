package bgp

import (
	"strings"
	"testing"
	"time"

	"anyopt/internal/topology"
)

func TestStatsConvergedState(t *testing.T) {
	s, topo, origin, links := buildAnycast(t, topology.TestParams(), DefaultConfig(), 1)
	for i, l := range links {
		s.AnnounceAt(time.Duration(i)*6*time.Minute, 0, origin, l.ID, 0)
	}
	s.Converge()

	st := s.Stats(0)
	if st.ReachableASes < topo.NumASes()*9/10 {
		t.Errorf("reachable = %d of %d ASes", st.ReachableASes, topo.NumASes())
	}
	if st.Routes < st.ReachableASes {
		t.Errorf("routes (%d) < reachable (%d); multihomed ASes should hold alternates", st.Routes, st.ReachableASes)
	}
	if st.TiedBest == 0 {
		t.Error("no tied best paths; the Fig 4a population is missing")
	}
	if st.LastUpdate <= 0 {
		t.Error("no settle time recorded")
	}
	out := st.String()
	for _, want := range []string{"reachable=", "tied=", "lens="} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered stats missing %q: %s", want, out)
		}
	}

	// The catchment must cover every routable target and use only
	// announced links.
	cm := s.CatchmentMap(0, topo.Targets)
	announced := map[topology.LinkID]bool{}
	for _, l := range links {
		announced[l.ID] = true
	}
	for _, tg := range topo.Targets {
		link, ok := cm[tg.AS]
		if !ok {
			t.Errorf("target AS%d has no catchment", tg.AS)
		} else if !announced[link] {
			t.Errorf("AS%d's catchment is unannounced link %d", tg.AS, link)
		}
	}
}

func TestStatsUnknownPrefix(t *testing.T) {
	s, _, _, _ := buildAnycast(t, topology.TestParams(), DefaultConfig(), 1)
	st := s.Stats(9)
	if st.ReachableASes != 0 || st.Routes != 0 {
		t.Errorf("stats for unknown prefix: %+v", st)
	}
}
