// Package reconcile keeps served predictions tracking a churning topology
// without re-running the full N² measurement campaign. Given a structured
// routing delta from internal/fault, it infers the affected client-AS cone
// (the clients whose routes could have traversed the changed state), runs a
// cone-scoped re-measurement campaign that replays the canonical experiment
// schedule while probing only cone targets, and assembles copy-on-write
// patched campaign structures for publication through anyopt.PatchCampaign.
//
// The package is pure derivation: no goroutines (the background loop lives in
// internal/api), no entropy (churn planning entropy lives in internal/fault).
// Everything here is a deterministic function of the topology, the delta, and
// the campaign configuration — which is what makes the differential
// churn-convergence test possible: a churned campaign healed through this
// package is byte-identical to a from-scratch campaign on the post-churn
// topology.
package reconcile

import (
	"sort"

	"anyopt/internal/core/prefs"
	"anyopt/internal/fault"
	"anyopt/internal/topology"
)

// Cone is the set of client ASes whose measured rows a routing delta may have
// invalidated. Structural inference over-approximates (valley-free reachability
// says "could a route through the changed state reach this client", not "did
// one"); the catchment walker refines observability by adding clients whose
// full-deployment catchment demonstrably moved.
type Cone struct {
	// Clients are the affected client ASes — the re-measurement target set.
	Clients map[prefs.Client]bool
	// Observed counts clients added by the catchment walker's diff rather
	// than the structural walk — defense in depth against an inference gap.
	Observed int
}

// Contains reports cone membership for a client.
func (c *Cone) Contains(cl prefs.Client) bool { return c.Clients[cl] }

// SortedClients returns the cone's clients in ascending order.
func (c *Cone) SortedClients() []prefs.Client {
	out := make([]prefs.Client, 0, len(c.Clients))
	for cl := range c.Clients {
		out = append(out, cl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge folds other into c (set union), for coalescing repairs when several
// churn batches queue up behind one repair pass. A nil Clients map in c is
// allocated lazily, so the zero Cone is a valid merge target.
func (c *Cone) Merge(other *Cone) {
	if c.Clients == nil && len(other.Clients) > 0 {
		c.Clients = make(map[prefs.Client]bool, len(other.Clients))
	}
	for cl := range other.Clients {
		c.Clients[cl] = true
	}
	c.Observed += other.Observed
}

// routeState classifies how an AS holds the anycast route in the valley-free
// propagation model (Gao-Rexford): routes learned from customers may be
// exported to anyone; routes learned from peers or providers only to
// customers. Per-neighbor LOCAL_PREF deviations stay within the topology's
// deviant spread, which reorders choices inside a relationship class but never
// across classes — so this classification is churn-stable and the walk below
// is sound even on policy-deviant topologies.
type routeState uint8

const (
	routeNone routeState = iota
	// routeDown: the AS holds the route learned from a peer or provider.
	routeDown
	// routeUp: the AS originated the route or learned it from a customer —
	// it may export to providers and peers as well as customers.
	routeUp
)

// routeStates computes, for every AS, the strongest way it can hold the
// anycast route under valley-free export. All anycast prefixes originate at
// the testbed origin, so a single rooted walk covers every deployment the
// campaign can announce: announcing from fewer sites only shrinks the set of
// first-hop providers, never grows reachability.
func routeStates(t *topology.Topology, origin topology.ASN) map[topology.ASN]routeState {
	states := make(map[topology.ASN]routeState, t.NumASes())
	states[origin] = routeUp
	queue := []topology.ASN{origin}
	push := func(a topology.ASN, s routeState) {
		if states[a] >= s {
			return
		}
		states[a] = s
		queue = append(queue, a)
	}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		s := states[x]
		for _, l := range t.LinksOf(x) {
			b := l.Other(x)
			switch l.RoleOf(x) {
			case topology.RoleCustomer:
				// x exports to its customer b regardless of how it learned;
				// b learns from a provider.
				push(b, routeDown)
			default:
				// b is x's peer or provider: only customer-learned routes
				// cross. b learns from a peer/provider — unless b is x's
				// provider, in which case x is b's customer and b may
				// re-export upward.
				if s != routeUp {
					continue
				}
				if l.RoleOf(b) == topology.RoleCustomer {
					push(b, routeUp)
				} else {
					push(b, routeDown)
				}
			}
		}
	}
	return states
}

// downstream walks every AS whose route selection can depend on what start
// exports, given how start holds the route (fromCustomer: start learned it
// from a customer or originated it). An AS that learned from a customer
// exports to all neighbors; otherwise only to customers. Visited ASes are
// added to visited; an AS already visited in an equal-or-stronger state is
// not re-expanded.
func downstream(t *topology.Topology, start topology.ASN, fromCustomer bool, visited map[topology.ASN]routeState) {
	s := routeDown
	if fromCustomer {
		s = routeUp
	}
	if visited[start] >= s {
		return
	}
	visited[start] = s
	queue := []topology.ASN{start}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, l := range t.LinksOf(x) {
			if visited[x] != routeUp && l.RoleOf(x) != topology.RoleCustomer {
				continue
			}
			b := l.Other(x)
			bs := routeDown
			if l.RoleOf(b) == topology.RoleCustomer {
				bs = routeUp
			}
			if visited[b] >= bs {
				continue
			}
			visited[b] = bs
			queue = append(queue, b)
		}
	}
}

// feasibleExport reports whether x can export the anycast route to y over
// link l under valley-free rules: to a customer whenever x holds the route at
// all, to a peer or provider only when x holds a customer-learned route.
func feasibleExport(l *topology.Link, x topology.ASN, states map[topology.ASN]routeState) bool {
	if l.RoleOf(x) == topology.RoleCustomer {
		return states[x] != routeNone
	}
	return states[x] == routeUp
}

// StructuralCone computes the conservative affected-client cone of a routing
// delta by pure graph analysis — no simulator state required, so it is the
// cold-start fallback as well as the soundness floor the walker refines.
//
// For a changed link, every route whose export set the change can perturb
// traverses the link in one of its two directions; for each valley-free
// feasible direction, the clients downstream of the receiving endpoint (in
// the learned-role state the link pins) are affected. A policy flip at an AS
// perturbs that AS's own selection, hence everything downstream of its
// feasible exports. Both link endpoints (and the flipping AS) join the cone
// unconditionally: their own RTT paths cross the changed state even when no
// third party reroutes.
func StructuralCone(t *topology.Topology, origin topology.ASN, delta *fault.RoutingDelta) *Cone {
	states := routeStates(t, origin)
	visited := make(map[topology.ASN]routeState)
	for _, ev := range delta.Events {
		switch ev.Kind {
		case fault.ChurnLinkCost, fault.ChurnLinkDown, fault.ChurnLinkUp:
			l := t.Link(ev.Link)
			if l == nil {
				continue
			}
			for _, x := range []topology.ASN{l.From, l.To} {
				y := l.Other(x)
				visited[x] = max(visited[x], routeDown)
				if feasibleExport(l, x, states) {
					downstream(t, y, l.RoleOf(y) == topology.RoleCustomer, visited)
				}
			}
		case fault.ChurnPolicyFlip:
			visited[ev.AS] = max(visited[ev.AS], routeDown)
			for _, l := range t.LinksOf(ev.AS) {
				if !feasibleExport(l, ev.AS, states) {
					continue
				}
				b := l.Other(ev.AS)
				downstream(t, b, l.RoleOf(b) == topology.RoleCustomer, visited)
			}
		}
	}
	cone := &Cone{Clients: make(map[prefs.Client]bool)}
	for _, tg := range t.Targets {
		if _, ok := visited[tg.AS]; ok {
			cone.Clients[prefs.Client(tg.AS)] = true
		}
	}
	return cone
}
