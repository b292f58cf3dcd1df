package bgp

import (
	"fmt"
	"time"

	"anyopt/internal/topology"
)

// maxForwardHops bounds the AS-level forwarding walk; real anycast paths are
// a handful of AS hops, so hitting the cap indicates a model bug.
const maxForwardHops = 64

// ForwardResult describes where a packet from a client network ends up.
type ForwardResult struct {
	// EntryLink is the origin-side link the packet arrives over — for an
	// anycast deployment this identifies the catchment site.
	EntryLink topology.LinkID
	// ASPath lists the ASes traversed, client first, excluding the origin.
	ASPath []topology.ASN
	// Delay is the accumulated one-way forwarding delay, including intra-AS
	// PoP-to-PoP segments inside transit providers.
	Delay time.Duration
}

// Forwarding memoization
//
// After convergence the walk below re-derives the same per-AS choice for
// every target routed through that AS. The choice's inputs split cleanly:
//
//   - simple ASes (one candidate, or several but neither multiple direct
//     origin links nor multipath): the choice is the best route, independent
//     of ingress PoP and flow — cacheable per AS.
//   - hot-potato ASes (>1 direct link to the origin): the choice depends on
//     the ingress PoP only — cacheable per (AS, ingress PoP). It is terminal:
//     the chosen link lands at the origin.
//   - multipath ASes: the choice hashes the flow over the candidate set —
//     inherently per-target, never cached.
//
// All of it is valid only while no decision process runs anywhere: Sim.fwdGen
// advances on every runDecision and the caches clear lazily when their
// generation falls behind.

// fwdKind classifies how an AS picks among its forwarding candidates.
type fwdKind uint8

const (
	fwdUnresolved fwdKind = iota // not classified yet this generation
	fwdSimple
	fwdHot
	fwdMulti
)

// fwdHotKey identifies an AS plus the PoP a packet entered it at (-1 when
// the packet originates inside that AS).
type fwdHotKey struct {
	as      topology.ASN
	ingress int32
}

// termState says what a term slot holds.
type termState uint8

const (
	termUnknown  termState = iota // not resolved yet this generation
	termOK                        // a compressed suffix
	termPoisoned                  // must not be compressed
)

// fwdTerm is a path-compressed walk suffix: a packet entering an AS at an
// ingress PoP deterministically reaches the origin over link after delay more
// one-way latency, for every target. termPoisoned records states that must
// not be compressed because a multipath AS, a routeless AS, or an over-long
// chain lies downstream — those walks stay per-hop. Sixteen bytes a slot.
type fwdTerm struct {
	delay time.Duration
	link  topology.LinkID
	state termState
}

// fwdCache memoizes forwarding resolution for one prefix within one routing
// generation. classes is indexed by AS index, term by termSlot.
type fwdCache struct {
	gen     uint64
	classes []fwdKind
	hot     map[fwdHotKey]*route
	term    []fwdTerm
}

// fwdCacheOf returns ps's cache, cleared if a decision ran since it was last
// used.
func (s *Sim) fwdCacheOf(ps *prefixState) *fwdCache {
	c := &ps.fwd
	if c.gen != s.fwdGen {
		if s.termLinks != len(s.Topo.Links) || len(s.termBase) != s.Topo.NumASes()+1 {
			s.layoutTerms()
		}
		n, slots := s.Topo.NumASes(), int(s.termBase[len(s.termBase)-1])
		if len(c.classes) != n || len(c.term) != slots {
			c.classes = make([]fwdKind, n)
			c.hot = make(map[fwdHotKey]*route)
			c.term = make([]fwdTerm, slots)
		} else {
			clear(c.classes)
			clear(c.hot)
			clear(c.term)
		}
		c.gen = s.fwdGen
	}
	return c
}

// layoutTerms gives every AS one term slot per ingress PoP a packet can
// enter it at, plus one for packets originating inside it: a PoP-less AS
// gets one slot, an AS with PoPs at most len(PoPs)+1. Ingress PoPs are
// attachment PoPs of incident links, so the layout follows the adjacency.
func (s *Sim) layoutTerms() {
	ases := s.Topo.ASes()
	s.termBase = make([]int32, len(ases)+1)
	next := int32(0)
	for i, a := range ases {
		s.termBase[i] = next
		slots := int32(1)
		for _, l := range s.Topo.LinksOf(a.ASN) {
			slots = max(slots, int32(l.PoPAt(a.ASN))+2)
		}
		next += slots
	}
	s.termBase[len(ases)] = next
	s.termLinks = len(s.Topo.Links)
}

// termSlot returns the term slot of a packet entering AS index i at ingress
// PoP ingress, or -1 when the layout has none (the state is then walked per
// hop).
func (s *Sim) termSlot(i, ingress int) int {
	if i < 0 || i+1 >= len(s.termBase) {
		return -1
	}
	j := int(s.termBase[i]) + 1 + ingress
	if j >= int(s.termBase[i+1]) {
		return -1
	}
	return j
}

// fwdClassOf resolves (once per AS per generation) how cur chooses among its
// candidates.
func (s *Sim) fwdClassOf(c *fwdCache, ps *prefixState, cur topology.ASN, rib *ribState) fwdKind {
	i := s.Topo.Index(cur)
	if k := c.classes[i]; k != fwdUnresolved {
		return k
	}
	k := fwdSimple
	if len(rib.candidates) > 1 {
		nDirect := 0
		for _, cand := range rib.candidates {
			if cand.link.Other(cur) == ps.origin {
				nDirect++
			}
		}
		switch {
		case nDirect > 1:
			k = fwdHot
		case s.Topo.AS(cur).Multipath:
			k = fwdMulti
		}
	}
	c.classes[i] = k
	return k
}

// resolveHot picks (once per (AS, ingress PoP) per generation) the direct
// origin link hot potato delivers a packet to. MED precedes interior cost in
// the decision process: among routes from the same neighbor (the origin), the
// lowest MED wins before hot potato compares IGP distances (§4.3 — "the
// interior routing inside an AS determines the intra-AS catchments").
func (s *Sim) resolveHot(c *fwdCache, ps *prefixState, cur topology.ASN, ingressPoP int, rib *ribState) *route {
	k := fwdHotKey{cur, int32(ingressPoP)}
	if r, ok := c.hot[k]; ok {
		return r
	}
	minMED, seen := 0, false
	for _, cand := range rib.candidates {
		if cand.link.Other(cur) != ps.origin {
			continue
		}
		if !seen || cand.med < minMED {
			minMED, seen = cand.med, true
		}
	}
	var best *route
	bestCost := 0.0
	for _, cand := range rib.candidates {
		if cand.link.Other(cur) != ps.origin || cand.med != minMED {
			continue
		}
		cost := s.Topo.IGPCost(cur, ingressPoP, cand.link.PoPAt(cur))
		if best == nil || cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	c.hot[k] = best
	return best
}

// Forward traces the AS-level forwarding path of a packet sent by target
// toward prefix p and reports the origin link (catchment site attachment) it
// reaches. ok is false when the target's AS has no route.
//
// The walk realizes the paper's two-level catchment structure: inter-AS hops
// follow each AS's BGP best route, an AS holding several equally preferred
// direct links to the origin picks one by hot-potato (least IGP cost from
// the packet's ingress PoP), and ASes flagged Multipath choose among
// equal-cost candidates by per-target flow hash.
//
// After convergence, strictly following best routes walks the selected AS
// path and must terminate at the origin. The multipath override can in
// principle bounce a flow between two load-sharing ASes (each hashing the
// flow onto the other); on detecting a revisit the walk falls back to
// strict best-path forwarding, which models the packet escaping the
// transient ECMP disagreement.
func (s *Sim) Forward(p PrefixID, target topology.Target) (ForwardResult, bool) {
	ps := s.prefix(p)
	if ps == nil {
		return ForwardResult{}, false
	}
	c := s.fwdCacheOf(ps)
	cur := target.AS
	ingressPoP := -1 // targets sit at the client network itself
	var res ForwardResult
	strictBest := false
	visited := s.fwdScratch[:0]

	for hop := 0; ; hop++ {
		if hop > maxForwardHops {
			panic(fmt.Sprintf("bgp: forwarding walk exceeded %d hops for target %s toward prefix %d",
				maxForwardHops, target.Addr, p))
		}
		visited = append(visited, cur)

		rib := s.ribOf(ps, cur)
		if rib == nil || rib.best == nil {
			s.fwdScratch = visited
			return ForwardResult{}, false
		}
		r := s.chooseVia(c, ps, cur, ingressPoP, rib, target, strictBest)
		next := r.link.Other(cur)
		// visited doubles as the revisit set: walks are at most
		// maxForwardHops long, so a linear scan beats a per-call map.
		if next != ps.origin && asPathContains(visited, next) && !strictBest {
			// ECMP ping-pong: re-resolve under strict best-path forwarding.
			strictBest = true
			r = s.chooseVia(c, ps, cur, ingressPoP, rib, target, true)
			next = r.link.Other(cur)
		}

		// Intra-AS segment from ingress PoP to the egress attachment PoP.
		egressPoP := r.link.PoPAt(cur)
		res.Delay += s.Topo.IGPDelay(cur, ingressPoP, egressPoP)
		// Inter-AS link.
		res.Delay += r.link.Delay

		if next == ps.origin {
			res.EntryLink = r.link.ID
			res.ASPath = append([]topology.ASN(nil), visited...)
			s.fwdScratch = visited
			return res, true
		}
		ingressPoP = r.link.PoPAt(next)
		cur = next
	}
}

// CatchmentEntry resolves where target's traffic enters the anycast
// deployment — the origin-side link and the one-way delay — without
// materializing the AS path. It is the hot-path form of Forward: besides
// skipping the path copy, it path-compresses multipath-free walk suffixes.
// Entering a given AS at a given PoP leads every flow to the same site over
// the same remaining delay as long as no multipath AS lies downstream, so
// after the first walk the whole suffix costs one map lookup.
func (s *Sim) CatchmentEntry(p PrefixID, target topology.Target) (topology.LinkID, time.Duration, bool) {
	ps := s.prefix(p)
	if ps == nil {
		return 0, 0, false
	}
	c := s.fwdCacheOf(ps)
	cur := target.AS
	ingressPoP := -1
	var delay time.Duration
	strictBest := false
	visited := s.fwdScratch[:0]

	for hop := 0; ; hop++ {
		if hop > maxForwardHops {
			panic(fmt.Sprintf("bgp: forwarding walk exceeded %d hops for target %s toward prefix %d",
				maxForwardHops, target.Addr, p))
		}
		// Path compression: a memoized multipath-free suffix ends the walk.
		// This is byte-equivalent to walking hop by hop — strict-mode flips
		// only change choices at multipath ASes, and a suffix containing one
		// is never compressed (resolveTerm poisons it).
		if t, ok := s.resolveTerm(c, ps, cur, ingressPoP); ok {
			s.fwdScratch = visited
			return t.link, delay + t.delay, true
		}
		visited = append(visited, cur)

		rib := s.ribOf(ps, cur)
		if rib == nil || rib.best == nil {
			s.fwdScratch = visited
			return 0, 0, false
		}
		r := s.chooseVia(c, ps, cur, ingressPoP, rib, target, strictBest)
		next := r.link.Other(cur)
		if next != ps.origin && asPathContains(visited, next) && !strictBest {
			strictBest = true
			r = s.chooseVia(c, ps, cur, ingressPoP, rib, target, true)
			next = r.link.Other(cur)
		}

		delay += s.Topo.IGPDelay(cur, ingressPoP, r.link.PoPAt(cur)) + r.link.Delay

		if next == ps.origin {
			s.fwdScratch = visited
			return r.link.ID, delay, true
		}
		ingressPoP = r.link.PoPAt(next)
		cur = next
	}
}

// resolveTerm returns the path-compressed suffix from (cur, ingressPoP),
// computing and recording it — for every state along the chain — on first
// use. Compression covers only flow-independent stretches: simple ASes chase
// their best route, and a hot-potato AS terminates at the origin. The first
// multipath AS, routeless AS, or over-long chain poisons every state on the
// stretch so those walks stay per-hop (where revisit detection and the
// original panic semantics apply).
func (s *Sim) resolveTerm(c *fwdCache, ps *prefixState, cur topology.ASN, ingressPoP int) (fwdTerm, bool) {
	first := s.termSlot(s.Topo.Index(cur), ingressPoP)
	if first < 0 {
		return fwdTerm{}, false
	}
	if t := c.term[first]; t.state != termUnknown {
		return t, t.state == termOK
	}
	// chain records every state traversed plus the delay accumulated before
	// entering it, so each gets its own term entry (path compression).
	var chain [maxForwardHops + 1]struct {
		slot  int
		delay time.Duration
	}
	n := 0
	var delay time.Duration
	var link topology.LinkID
	good := false

	as, ing, slot := cur, ingressPoP, first
walk:
	for {
		if n > 0 { // state 0's absence was just checked
			if slot = s.termSlot(s.Topo.Index(as), ing); slot < 0 {
				break walk // outside the layout: poison the stretch
			}
			if t := c.term[slot]; t.state != termUnknown {
				// Splice onto an already-resolved suffix.
				if t.state == termOK {
					link = t.link
					delay += t.delay
					good = true
				}
				break walk
			}
		}
		if n == len(chain) {
			break walk // over-long chain: leave good=false, poison the stretch
		}
		chain[n].slot = slot
		chain[n].delay = delay
		n++

		rib := s.ribOf(ps, as)
		if rib == nil || rib.best == nil {
			break walk // unreachable downstream: per-hop walk reports it
		}
		switch s.fwdClassOf(c, ps, as, rib) {
		case fwdMulti:
			break walk // flow-dependent: never compress through here
		case fwdHot:
			r := s.resolveHot(c, ps, as, ing, rib)
			delay += s.Topo.IGPDelay(as, ing, r.link.PoPAt(as)) + r.link.Delay
			link = r.link.ID
			good = true // hot-potato routes are direct: terminal at the origin
			break walk
		default: // fwdSimple: follow the best route
			r := rib.best
			next := r.link.Other(as)
			delay += s.Topo.IGPDelay(as, ing, r.link.PoPAt(as)) + r.link.Delay
			if next == ps.origin {
				link = r.link.ID
				good = true
				break walk
			}
			ing = r.link.PoPAt(next)
			as = next
		}
	}
	for i := 0; i < n; i++ {
		if good {
			c.term[chain[i].slot] = fwdTerm{link: link, delay: delay - chain[i].delay, state: termOK}
		} else {
			c.term[chain[i].slot] = fwdTerm{state: termPoisoned}
		}
	}
	t := c.term[first]
	return t, t.state == termOK
}

// chooseVia picks the route a packet entering AS cur at ingressPoP actually
// follows, against c, a cache fwdCacheOf has validated. In strict mode only
// the hot-potato direct-site override applies (it terminates the walk
// immediately).
func (s *Sim) chooseVia(c *fwdCache, ps *prefixState, cur topology.ASN, ingressPoP int, rib *ribState, target topology.Target, strict bool) *route {
	switch s.fwdClassOf(c, ps, cur, rib) {
	case fwdHot:
		return s.resolveHot(c, ps, cur, ingressPoP, rib)
	case fwdMulti:
		// Multipath ASes hash the flow across all equally preferred routes.
		// The hash covers the candidate next hops themselves, as real ECMP
		// does: when the set of equal-cost routes changes (a different
		// experiment enables different sites), the flow re-hashes, so a
		// multipath AS's apparent preferences are stable per pair but not
		// transitive across pairs — one of the paper's sources of clients
		// without total orders (§4.2).
		if !strict {
			return rib.candidates[flowIndex(target, cur, rib.candidates)]
		}
	}
	return rib.best
}

// flowIndex deterministically maps a target's flow onto one of the candidate
// routes, keyed by flow salt, the AS doing the hashing, and the identities of
// all candidate links.
func flowIndex(target topology.Target, at topology.ASN, candidates []*route) int {
	h := fnvU64(fnvU64(fnvOffset64, target.FlowSalt), uint64(at))
	for _, c := range candidates {
		h = fnvU64(h, uint64(c.link.ID))
	}
	return int(h % uint64(len(candidates)))
}

func asPathContains(path []topology.ASN, a topology.ASN) bool {
	for _, hop := range path {
		if hop == a {
			return true
		}
	}
	return false
}

// CatchmentMap computes, for every target, the origin link (site attachment)
// its traffic reaches under the current routing state. Targets with no route
// are absent from the map.
func (s *Sim) CatchmentMap(p PrefixID, targets []topology.Target) map[topology.ASN]topology.LinkID {
	out := make(map[topology.ASN]topology.LinkID, len(targets))
	for _, t := range targets {
		if link, _, ok := s.CatchmentEntry(p, t); ok {
			out[t.AS] = link
		}
	}
	return out
}
