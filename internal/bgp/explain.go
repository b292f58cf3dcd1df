package bgp

import (
	"fmt"
	"strings"
	"time"

	"anyopt/internal/topology"
)

// DecisionStep identifies the attribute that decided a route comparison.
type DecisionStep int

const (
	// StepOnlyRoute means there was no competition.
	StepOnlyRoute DecisionStep = iota
	// StepLocalPref: LOCAL_PREF differed (relationship or deviant policy).
	StepLocalPref
	// StepASPath: AS-path length differed.
	StepASPath
	// StepMED: MED differed between routes from the same neighbor.
	StepMED
	// StepInteriorCost: hot-potato exit distance differed.
	StepInteriorCost
	// StepArrivalOrder: the oldest route won — the implementation
	// tie-breaker the paper studies (§4.2).
	StepArrivalOrder
	// StepRouterID: the neighbor router ID broke the tie.
	StepRouterID
	// StepLinkID: the neighbor address (link) broke the tie.
	StepLinkID
)

func (s DecisionStep) String() string {
	switch s {
	case StepOnlyRoute:
		return "only route"
	case StepLocalPref:
		return "LOCAL_PREF"
	case StepASPath:
		return "AS-path length"
	case StepMED:
		return "MED"
	case StepInteriorCost:
		return "interior cost (hot potato)"
	case StepArrivalOrder:
		return "arrival order (oldest route)"
	case StepRouterID:
		return "neighbor router ID"
	case StepLinkID:
		return "neighbor address"
	default:
		return fmt.Sprintf("step(%d)", int(s))
	}
}

// CandidateInfo is a read-only view of one Adj-RIB-In route for explanation.
type CandidateInfo struct {
	Neighbor  topology.ASN
	Link      topology.LinkID
	Path      []topology.ASN
	LocalPref int
	MED       int
	Interior  int
	Arrival   time.Duration
	Selected  bool
}

// HopExplanation explains one AS's routing decision along a client's path.
type HopExplanation struct {
	AS   topology.ASN
	Name string
	// Candidates are all routes in the Adj-RIB-In, the selected one marked.
	Candidates []CandidateInfo
	// Decisive is the first decision-process step that separated the
	// selected route from its strongest rival.
	Decisive DecisionStep
	// ForwardingNote is set when forwarding diverged from the best path
	// (hot-potato site choice or multipath hashing).
	ForwardingNote string
}

// Explanation traces a client's packet toward the prefix, one AS at a time.
type Explanation struct {
	Client    topology.ASN
	EntryLink topology.LinkID
	Delay     time.Duration
	Hops      []HopExplanation
}

// String renders the trace for operators.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "client AS%d → entry link %d (%.1fms one-way)\n",
		e.Client, e.EntryLink, float64(e.Delay)/1e6)
	for _, h := range e.Hops {
		fmt.Fprintf(&b, "  AS%d %s: decisive attribute %s\n", h.AS, h.Name, h.Decisive)
		for _, c := range h.Candidates {
			mark := " "
			if c.Selected {
				mark = "*"
			}
			fmt.Fprintf(&b, "   %s via AS%-6d path %v pref=%d med=%d cost=%d age=%.0fms\n",
				mark, c.Neighbor, c.Path, c.LocalPref, c.MED, c.Interior,
				float64(c.Arrival)/1e6)
		}
		if h.ForwardingNote != "" {
			fmt.Fprintf(&b, "    note: %s\n", h.ForwardingNote)
		}
	}
	return b.String()
}

// Explain traces the forwarding path of target toward prefix p and explains
// every AS's route selection along it. ok is false when the target has no
// route.
func (s *Sim) Explain(p PrefixID, target topology.Target) (*Explanation, bool) {
	ps := s.prefix(p)
	if ps == nil {
		return nil, false
	}
	res, ok := s.Forward(p, target)
	if !ok {
		return nil, false
	}
	exp := &Explanation{Client: target.AS, EntryLink: res.EntryLink, Delay: res.Delay}

	ingressPoP := -1
	for i, asn := range res.ASPath {
		rib := s.ribOf(ps, asn)
		if rib == nil || rib.best == nil {
			break
		}
		as := s.Topo.AS(asn)
		hop := HopExplanation{AS: asn, Name: as.Name}

		// The route the packet actually followed at this hop.
		var nextLink topology.LinkID
		if i+1 < len(res.ASPath) {
			followed := s.chooseVia(s.fwdCacheOf(ps), ps, asn, ingressPoP, rib, target, false)
			nextLink = followed.link.ID
		} else {
			nextLink = res.EntryLink
		}

		// Candidates in link-ID order, the Adj-RIB-In's own.
		var selected, rival *route
		for _, r := range rib.in {
			if r == nil {
				continue
			}
			ci := CandidateInfo{
				Neighbor:  r.link.Other(asn),
				Link:      r.link.ID,
				Path:      append([]topology.ASN(nil), r.path...),
				LocalPref: r.localPref,
				MED:       r.med,
				Interior:  r.interiorCost,
				Arrival:   r.arrival,
				Selected:  r.link.ID == nextLink,
			}
			hop.Candidates = append(hop.Candidates, ci)
			if ci.Selected {
				selected = r
			}
		}
		// Strongest rival: the best among the rest.
		for _, r := range rib.in {
			if r == nil || r == selected {
				continue
			}
			if rival == nil || s.better(r, rival) {
				rival = r
			}
		}
		switch {
		case selected == nil:
			hop.Decisive = StepOnlyRoute // forwarding override chose a candidate not in RIB? defensive
		case rival == nil:
			hop.Decisive = StepOnlyRoute
		default:
			hop.Decisive = s.decisiveStep(selected, rival)
		}
		if selected != nil && selected != rib.best {
			if as.Multipath {
				hop.ForwardingNote = "multipath: flow hashed onto a non-best equal route"
			} else {
				hop.ForwardingNote = "hot potato: ingress-nearest site link overrode the best path"
			}
		}
		exp.Hops = append(exp.Hops, hop)

		if i+1 < len(res.ASPath) {
			l := s.Topo.Link(nextLink)
			ingressPoP = l.PoPAt(res.ASPath[i+1])
		}
	}
	return exp, true
}

// decisiveStep returns the first decision-process attribute on which x and y
// differ (x is the winner).
func (s *Sim) decisiveStep(x, y *route) DecisionStep {
	switch {
	case x.localPref != y.localPref:
		return StepLocalPref
	case x.pathLen() != y.pathLen():
		return StepASPath
	case len(x.path) > 0 && len(y.path) > 0 && x.path[0] == y.path[0] && x.med != y.med:
		return StepMED
	case x.interiorCost != y.interiorCost:
		return StepInteriorCost
	case s.Cfg.ArrivalOrderTieBreak && x.arrival != y.arrival:
		return StepArrivalOrder
	case x.neighborRouterID != y.neighborRouterID:
		return StepRouterID
	default:
		return StepLinkID
	}
}

// DecisiveBreakdown counts, over all targets, which decision step determined
// each client's first-hop route — quantifying how often the arrival-order
// tie-breaker actually decides catchments.
func (s *Sim) DecisiveBreakdown(p PrefixID, targets []topology.Target) map[DecisionStep]int {
	out := map[DecisionStep]int{}
	for _, tg := range targets {
		exp, ok := s.Explain(p, tg)
		if !ok || len(exp.Hops) == 0 {
			continue
		}
		// The client's own decision is the first hop with >1 candidate;
		// walk until one is found (single-homed stubs inherit upstream
		// decisions).
		step := StepOnlyRoute
		for _, h := range exp.Hops {
			if len(h.Candidates) > 1 {
				step = h.Decisive
				break
			}
		}
		out[step]++
	}
	return out
}
