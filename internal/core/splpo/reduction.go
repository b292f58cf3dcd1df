package splpo

// This file implements the Appendix B.1 reduction from Dominating Set to
// SPLPO, both as executable documentation of the hardness proof and as a
// test fixture: if a graph has a dominating set of size K, the reduced SPLPO
// instance has a zero-cost solution opening K+1 sites; otherwise every
// (K+1)-site solution has infinite cost.

// Graph is a simple undirected graph on vertices 0..N-1.
type Graph struct {
	N     int
	Edges [][2]int
}

// ReduceDominatingSet builds the Appendix B.1 SPLPO instance for g:
//
//   - every vertex v becomes a client c_v and a site s_v with cost 0;
//   - one extra site s* (index N) with its own client c* at cost 0;
//   - c_v ranks s_v first, then its neighbors' sites, then s*; every other
//     site is unacceptable. Serving c_v from s* costs Infinity-like (we use
//     a huge finite marker so Evaluate stays finite-arithmetic);
//   - c* accepts only s*.
func ReduceDominatingSet(g Graph) *Instance {
	const huge = 1e12
	n := g.N
	adj := make([][]int, n)
	for _, e := range g.Edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	in := &Instance{NumSites: n + 1}
	for v := 0; v < n; v++ {
		ranking := append([]int{v}, adj[v]...)
		ranking = append(ranking, n)
		cost := make([]float64, len(ranking)) // s_v and its neighbours cost 0
		cost[len(cost)-1] = huge              // s* is acceptable but hugely costly
		in.Clients = append(in.Clients, Client{Ranking: ranking, RankCost: cost})
	}
	// c*: accepts only s*, at zero cost.
	in.Clients = append(in.Clients, Client{Ranking: []int{n}, RankCost: []float64{0}})
	return in
}

// HasZeroCostSolution reports whether the reduced instance admits a zero-cost
// assignment opening exactly k+1 sites (i.e., g has a dominating set of size
// ≤ k). It enumerates exhaustively, so use small graphs.
func HasZeroCostSolution(in *Instance, kPlusOne int) bool {
	a, _, err := Exhaustive(in, Options{ExactSize: kPlusOne})
	if err != nil {
		return false
	}
	return a.TotalCost == 0
}
