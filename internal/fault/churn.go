package fault

// Persistent routing churn: long-lived topology changes, as opposed to the
// transient per-experiment faults in fault.go. A churn event mutates the live
// topology — a link's cost changes, a link goes down or comes back, an AS
// flips a per-neighbor LOCAL_PREF — and stays that way for every subsequent
// experiment, which is exactly the situation a production anycast operator
// faces: the measured campaign no longer matches the Internet it was measured
// on. internal/reconcile consumes the emitted RoutingDelta to work out which
// client cone needs re-measurement.
//
// Planning is seeded here (this is the one transport-path package allowed to
// own entropy); application is a deterministic function of the event list, so
// the same events replayed onto an identically generated topology reproduce
// the post-churn world bit-for-bit — the property the differential
// churn-convergence test rests on.

import (
	"fmt"
	"math/rand"
	"time"

	"anyopt/internal/topology"
)

// ChurnKind classifies a persistent routing-churn event.
type ChurnKind uint8

const (
	// ChurnLinkCost changes a link's propagation delay (IGP/queueing cost
	// shift): BGP update timing through the link moves, flipping
	// arrival-order tie-breaks, and measured RTTs across the link change.
	ChurnLinkCost ChurnKind = iota
	// ChurnLinkDown takes a link out of service until a ChurnLinkUp.
	ChurnLinkDown
	// ChurnLinkUp restores a previously downed link.
	ChurnLinkUp
	// ChurnPolicyFlip changes one AS's per-neighbor LOCAL_PREF delta on a
	// transit edge — the §4.1 "deviant policy" class, applied live.
	ChurnPolicyFlip
)

func (k ChurnKind) String() string {
	switch k {
	case ChurnLinkCost:
		return "link_cost"
	case ChurnLinkDown:
		return "link_down"
	case ChurnLinkUp:
		return "link_up"
	case ChurnPolicyFlip:
		return "policy_flip"
	default:
		return fmt.Sprintf("churn(%d)", uint8(k))
	}
}

// ChurnKindByName parses a ChurnKind name as used in the HTTP API.
func ChurnKindByName(name string) (ChurnKind, error) {
	for _, k := range []ChurnKind{ChurnLinkCost, ChurnLinkDown, ChurnLinkUp, ChurnPolicyFlip} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("fault: unknown churn kind %q", name)
}

// ChurnEvent is one persistent routing change. The struct is JSON-friendly so
// the reconciler's checkpoint records can persist unfinished repairs and
// replay them after a crash.
type ChurnEvent struct {
	Kind ChurnKind `json:"kind"`
	// Link identifies the affected link for the three link event kinds.
	Link topology.LinkID `json:"link,omitempty"`
	// NewDelay is the link's post-event delay for ChurnLinkCost.
	NewDelay time.Duration `json:"new_delay,omitempty"`
	// AS and Neighbor identify the policy edge for ChurnPolicyFlip: AS's
	// LOCAL_PREF delta toward Neighbor becomes PrefDelta.
	AS        topology.ASN `json:"as,omitempty"`
	Neighbor  topology.ASN `json:"neighbor,omitempty"`
	PrefDelta int          `json:"pref_delta,omitempty"`
}

// AppliedEvent pairs an event with the state it replaced, for the delta log.
type AppliedEvent struct {
	ChurnEvent
	// OldDelay is the pre-event delay for ChurnLinkCost.
	OldDelay time.Duration `json:"old_delay,omitempty"`
	// OldPrefDelta is the pre-event LOCAL_PREF delta for ChurnPolicyFlip.
	OldPrefDelta int `json:"old_pref_delta,omitempty"`
}

// RoutingDelta is the structured summary of one applied churn batch — the
// unit the reconciler schedules repairs against.
type RoutingDelta struct {
	Events []AppliedEvent `json:"events"`
}

// Links returns the distinct links touched by the delta, in event order.
func (d *RoutingDelta) Links() []topology.LinkID {
	var out []topology.LinkID
	seen := make(map[topology.LinkID]bool)
	for _, ev := range d.Events {
		switch ev.Kind {
		case ChurnLinkCost, ChurnLinkDown, ChurnLinkUp:
			if !seen[ev.Link] {
				seen[ev.Link] = true
				out = append(out, ev.Link)
			}
		}
	}
	return out
}

// String renders the delta for traces and logs.
func (d *RoutingDelta) String() string {
	s := "delta["
	for i, ev := range d.Events {
		if i > 0 {
			s += " "
		}
		switch ev.Kind {
		case ChurnLinkCost:
			s += fmt.Sprintf("cost(link=%d %v→%v)", ev.Link, ev.OldDelay, ev.NewDelay)
		case ChurnLinkDown:
			s += fmt.Sprintf("down(link=%d)", ev.Link)
		case ChurnLinkUp:
			s += fmt.Sprintf("up(link=%d)", ev.Link)
		case ChurnPolicyFlip:
			s += fmt.Sprintf("policy(AS%d→AS%d %d→%d)", ev.AS, ev.Neighbor, ev.OldPrefDelta, ev.PrefDelta)
		}
	}
	return s + "]"
}

// PlanChurn draws n persistent churn events from the given kinds (all four
// when kinds is empty), deterministically in seed. Events are planned against
// the topology's current state: down events pick live links, up events pick
// currently-down links (falling back to a cost change when none are down),
// and policy flips land on a transit edge — a customer/provider link with a
// non-stub customer side, or any link of a transit AS. A kind the topology
// has no room left for (every link already down, no transit edge) cannot
// stall the plan: after a long run of fruitless draws it returns the events
// it has, possibly fewer than n.
func PlanChurn(t *topology.Topology, seed int64, n int, kinds []ChurnKind) []ChurnEvent {
	if n <= 0 || len(t.Links) == 0 {
		return nil
	}
	if len(kinds) == 0 {
		kinds = []ChurnKind{ChurnLinkCost, ChurnLinkDown, ChurnLinkUp, ChurnPolicyFlip}
	}
	rng := rand.New(rand.NewSource(mix(seed, 0, 0, saltChurn)))
	// planned tracks down-state as events accumulate, so one plan can down a
	// link and later bring it back.
	down := make(map[topology.LinkID]bool)
	for _, id := range t.DownLinks() {
		down[id] = true
	}
	events := make([]ChurnEvent, 0, n)
	for have, misses := 0, 0; len(events) < n && misses < 1000; misses++ {
		if len(events) > have {
			have, misses = len(events), 0
		}
		kind := kinds[rng.Intn(len(kinds))]
		if kind == ChurnLinkUp {
			var cand []topology.LinkID
			for _, l := range t.Links {
				if down[l.ID] {
					cand = append(cand, l.ID)
				}
			}
			if len(cand) == 0 {
				kind = ChurnLinkCost
			} else {
				id := cand[rng.Intn(len(cand))]
				down[id] = false
				events = append(events, ChurnEvent{Kind: ChurnLinkUp, Link: id})
				continue
			}
		}
		switch kind {
		case ChurnLinkCost:
			l := t.Links[rng.Intn(len(t.Links))]
			// Scale by 0.5×–1.8×, floored like topology.Churn.
			nd := time.Duration(float64(l.Delay) * (0.5 + 1.3*rng.Float64()))
			if nd < 100*time.Microsecond {
				nd = 100 * time.Microsecond
			}
			events = append(events, ChurnEvent{Kind: ChurnLinkCost, Link: l.ID, NewDelay: nd})
		case ChurnLinkDown:
			l := t.Links[rng.Intn(len(t.Links))]
			if down[l.ID] {
				continue
			}
			down[l.ID] = true
			events = append(events, ChurnEvent{Kind: ChurnLinkDown, Link: l.ID})
		case ChurnPolicyFlip:
			ev, ok := planPolicyFlip(t, rng)
			if !ok {
				continue
			}
			events = append(events, ev)
		}
	}
	return events
}

// planPolicyFlip picks a transit edge and a new per-neighbor LOCAL_PREF
// delta. Deltas stay within the topology's deviant spread so relationship
// classes (customer > peer > provider) are reordered within, never across.
func planPolicyFlip(t *topology.Topology, rng *rand.Rand) (ChurnEvent, bool) {
	var cand []*topology.Link
	for _, l := range t.Links {
		if t.AS(l.From).Tier != topology.TierStub || t.AS(l.To).Tier != topology.TierStub {
			cand = append(cand, l)
		}
	}
	if len(cand) == 0 {
		cand = t.Links
	}
	l := cand[rng.Intn(len(cand))]
	as := l.From
	if rng.Intn(2) == 1 {
		as = l.To
	}
	spread := t.Params.DeviantPrefSpread
	if spread <= 0 {
		spread = 2
	}
	old := t.AS(as).LocalPrefDelta[l.Other(as)]
	delta := rng.Intn(2*spread+1) - spread
	if delta == old {
		delta++
		if delta > spread {
			delta = -spread
		}
	}
	return ChurnEvent{Kind: ChurnPolicyFlip, AS: as, Neighbor: l.Other(as), PrefDelta: delta}, true
}

// validateChurn checks an event list against t without mutating anything, so
// ApplyChurn can reject a bad batch whole instead of applying a prefix of it.
func validateChurn(t *topology.Topology, events []ChurnEvent) error {
	for i, ev := range events {
		switch ev.Kind {
		case ChurnLinkCost:
			if t.Link(ev.Link) == nil {
				return fmt.Errorf("fault: churn event %d: unknown link %d", i, ev.Link)
			}
			if ev.NewDelay <= 0 {
				return fmt.Errorf("fault: churn event %d: non-positive delay %v", i, ev.NewDelay)
			}
		case ChurnLinkDown, ChurnLinkUp:
			if t.Link(ev.Link) == nil {
				return fmt.Errorf("fault: churn event %d: unknown link %d", i, ev.Link)
			}
		case ChurnPolicyFlip:
			if t.AS(ev.AS) == nil {
				return fmt.Errorf("fault: churn event %d: unknown AS %d", i, ev.AS)
			}
			found := false
			for _, l := range t.LinksOf(ev.AS) {
				if l.Other(ev.AS) == ev.Neighbor {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("fault: churn event %d: policy flip AS%d→AS%d without a link", i, ev.AS, ev.Neighbor)
			}
		default:
			return fmt.Errorf("fault: churn event %d: unknown kind %d", i, ev.Kind)
		}
	}
	return nil
}

// ApplyChurn mutates the live topology with the given events and returns the
// structured delta (each event annotated with the state it replaced). It is
// all-or-nothing: a batch with any invalid event is rejected before the
// first one applies. Application is deterministic and idempotent per event
// list; callers must quiesce concurrent simulator sessions first, since
// topology reads are otherwise lock-free.
func ApplyChurn(t *topology.Topology, events []ChurnEvent) (*RoutingDelta, error) {
	if err := validateChurn(t, events); err != nil {
		return nil, err
	}
	delta := &RoutingDelta{Events: make([]AppliedEvent, 0, len(events))}
	for _, ev := range events {
		ae := AppliedEvent{ChurnEvent: ev}
		switch ev.Kind {
		case ChurnLinkCost:
			l := t.Link(ev.Link)
			ae.OldDelay = l.Delay
			l.Delay = ev.NewDelay
		case ChurnLinkDown:
			t.SetLinkDown(ev.Link, true)
		case ChurnLinkUp:
			t.SetLinkDown(ev.Link, false)
		case ChurnPolicyFlip:
			as := t.AS(ev.AS)
			ae.OldPrefDelta = as.LocalPrefDelta[ev.Neighbor]
			if as.LocalPrefDelta == nil {
				as.LocalPrefDelta = make(map[topology.ASN]int)
			}
			as.LocalPrefDelta[ev.Neighbor] = ev.PrefDelta
		}
		delta.Events = append(delta.Events, ae)
	}
	return delta, nil
}
