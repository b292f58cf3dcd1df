// Package bgp is an event-driven simulator of inter-domain routing.
//
// It propagates anycast prefix announcements over a topology.Topology under
// the Gao-Rexford policy model and reproduces the full BGP decision process
// the paper analyzes, including the non-standard tie-breaker AnyOpt
// discovered to matter in practice: real routers (Cisco, Juniper) prefer the
// route that arrived first when all standard attributes tie. Announcement
// and withdrawal events ride the netsim engine, and per-link propagation
// delays plus per-AS processing delays determine arrival order at every AS —
// so announcing two sites six minutes apart produces globally controlled
// arrival order, while announcing them "simultaneously" leaves arrival order
// to uncontrolled jitter, exactly the contrast §4.2 and Figure 4 explore.
//
// A Sim is its engine's one Handler. Every event is a typed netsim.Payload
// whose op byte says what it does: deliver an update, or run one of the
// operations AnnounceAt, WithdrawAt, FailLinkAt and RestoreLinkAt schedule.
// A scheduled operation runs when its event fires, exactly as if it were
// called then. Routes, AS paths and candidate sets are carved from arenas
// that Reset rewinds, so a reused Sim runs an experiment without allocating.
//
// Abstraction level: one BGP speaker per AS for route selection and export
// (the level at which the paper's Theorems A.1/A.2 operate), with intra-AS
// hot-potato (ingress-PoP-based) selection when an AS has several direct
// links to the anycast origin — the paper's two-level inter-AS/intra-AS
// catchment structure (§4.3). ASes flagged Multipath split traffic across
// equally preferred routes by flow hash (§4.2). Deliberately unmodeled:
// MRAI timers, route flap damping, iBGP topologies; the testbed layer spaces
// experiments far apart, as the paper does, precisely so these do not matter.
package bgp

import (
	"fmt"
	"slices"
	"time"

	"anyopt/internal/netsim"
	"anyopt/internal/topology"
)

// PrefixID identifies one of the simulated anycast test prefixes.
type PrefixID int

// Config tunes simulator behavior.
type Config struct {
	// ArrivalOrderTieBreak enables the implementation tie-breaker (oldest
	// route wins) after the standard attributes. Real deployed routers have
	// it; turning it off falls back to router-ID comparison immediately,
	// which is what the BGP specification prescribes. The ablation benches
	// flip this.
	ArrivalOrderTieBreak bool
	// JitterNonce identifies the experiment run; it keys the race component
	// of every processing delay (see procDelay).
	JitterNonce uint64
	// InteriorCostBucketKm enables the "lowest interior cost" decision step
	// (hot potato): routes are compared by the distance from the AS to the
	// route's exit point, quantized into buckets of this many kilometers.
	// Exits in the same bucket still tie and fall through to the
	// arrival-order step. 0 disables the step entirely (all exits tie),
	// maximizing arrival-order sensitivity.
	InteriorCostBucketKm float64
	// Chaos, when non-nil, is consulted on every update/withdrawal delivery
	// and may drop it or add queueing delay — the fault-injection hook for
	// internal/fault. The model must be deterministic for the simulation to
	// stay reproducible; nil injects nothing.
	Chaos ChaosModel
}

// ChaosModel decides the fate of individual update deliveries. The prefix is
// passed as a plain int so fault deciders need not import this package.
type ChaosModel interface {
	// UpdateFate is called once per scheduled delivery; drop loses the
	// message entirely, otherwise extra is added to its in-flight delay.
	UpdateFate(link topology.LinkID, dst topology.ASN, prefix int) (drop bool, extra time.Duration)
}

// DefaultConfig matches deployed-router behavior.
func DefaultConfig() Config {
	return Config{
		ArrivalOrderTieBreak: true,
		JitterNonce:          0,
		InteriorCostBucketKm: 300,
	}
}

// route is one Adj-RIB-In entry: a path to the anycast prefix learned from a
// neighbor over a specific link.
type route struct {
	link *topology.Link
	// path lists ASNs from the advertising neighbor to the origin,
	// inclusive; prepending repeats the origin ASN.
	path []topology.ASN
	// localPref is assigned at import by the receiving AS.
	localPref int
	// med is the Multi-Exit Discriminator carried on the announcement.
	med int
	// arrival is the virtual time this route (with this content) was
	// installed; the "oldest route" tie-breaker compares it.
	arrival time.Duration
	// interiorCost is the quantized hot-potato cost of this route's exit
	// point from the receiving AS (see Config.InteriorCostBucketKm).
	interiorCost int
	// neighborRouterID and linkID break the final ties.
	neighborRouterID uint32
}

func (r *route) pathLen() int { return len(r.path) }

// ribState is the per-AS, per-prefix routing state.
type ribState struct {
	// in is the Adj-RIB-In, parallel to Topo.LinksOf(a): in[l.Slot(a)] is
	// the route learned over link l, nil when there is none. The adjacency
	// is in ascending link-ID order, so walking in is the decision process's
	// deterministic base order.
	in []*route
	// best is the route selected by the full decision process; nil if the
	// prefix is unreachable from this AS.
	best *route
	// candidates are the routes tied with best through LOCAL_PREF and
	// AS-path length (the attributes propagated beyond one hop); forwarding
	// features — hot-potato site choice and multipath splitting — choose
	// among them.
	candidates []*route
}

// Sim is the simulator for a set of anycast prefixes over one topology.
// It is not safe for concurrent use.
type Sim struct {
	Topo   *topology.Topology
	Engine *netsim.Engine
	Cfg    Config

	// prefixes holds per-prefix state at index PrefixID; nil marks a prefix
	// never announced.
	prefixes []*prefixState

	// Updates counts BGP update messages delivered, for reporting.
	Updates uint64

	// failed marks, by link ID, links that are administratively or
	// physically down.
	failed []bool

	// paths hands out announced-path storage without a make per update.
	paths arena[topology.ASN]
	// routes backs the routes, the per-update object.
	routes arena[route]
	// cands backs the candidate sets stored in RIBs.
	cands arena[*route]
	// termBase lays out the forwarding memo's term slots (forward.go):
	// AS index i owns slots [termBase[i], termBase[i+1]). termLinks is the
	// link count the layout was computed for.
	termBase  []int32
	termLinks int
	// linkScratch backs WithdrawAll's snapshot of announced links.
	linkScratch []topology.LinkID
	// fwdScratch backs the forwarding walk's visited list (forward.go).
	fwdScratch []topology.ASN

	// fwdGen numbers routing generations. It advances whenever any RIB's
	// selection state may have changed; forwarding memoization (forward.go)
	// is valid only within one generation.
	fwdGen uint64
}

// arena hands out slices carved from chunked backing arrays: one allocation
// per chunk instead of one per object. Reset rewinds every arena wholesale,
// so chunks are carved again by the next session; it is safe because a
// Reset drops every route, path and candidate set handed out before it.
type arena[T any] struct {
	chunks [][]T
	chunk  int // elements per chunk; a larger request gets a chunk its size
	cur    int // chunk currently being carved
	used   int // elements handed out from chunks[cur]
}

// alloc returns n elements with capacity n, so an append by the caller can
// never clobber a neighbor. The contents are unspecified (chunks are reused
// across reset): every caller writes all n elements.
func (a *arena[T]) alloc(n int) []T {
	for {
		if a.cur == len(a.chunks) {
			a.chunks = append(a.chunks, make([]T, max(a.chunk, n)))
		}
		if c := a.chunks[a.cur]; a.used+n <= len(c) {
			p := c[a.used : a.used+n : a.used+n]
			a.used += n
			return p
		}
		a.cur++
		a.used = 0
	}
}

func (a *arena[T]) reset() { a.cur, a.used = 0, 0 }

// newPath builds the path [first, rest...] in s's path arena.
func (s *Sim) newPath(first topology.ASN, rest []topology.ASN) []topology.ASN {
	p := s.paths.alloc(1 + len(rest))
	p[0] = first
	copy(p[1:], rest)
	return p
}

// origination is one origin link carrying a prefix, with the path (the
// origin ASN, repeated once per prepend) and the MED it is announced with.
type origination struct {
	link topology.LinkID
	path []topology.ASN
	med  int
}

type prefixState struct {
	origin topology.ASN
	// announced lists the origin links currently carrying the announcement,
	// in ascending link-ID order.
	announced []origination
	// ribs holds the RIB of the AS with dense index i at i.
	ribs []ribState
	// fwd memoizes forwarding resolution for the current routing generation
	// (see forward.go).
	fwd fwdCache
}

// New creates a simulator over topo.
func New(topo *topology.Topology, cfg Config) *Sim {
	s := &Sim{
		Topo:   topo,
		Cfg:    cfg,
		failed: make([]bool, len(topo.Links)),
		paths:  arena[topology.ASN]{chunk: 4096},
		routes: arena[route]{chunk: 512},
		cands:  arena[*route]{chunk: 1024},
		fwdGen: 1, // so a zero-valued fwdCache (gen 0) is never current
	}
	s.Engine = &netsim.Engine{Handler: s}
	return s
}

// Reset returns a used simulator to the state New(s.Topo, cfg) would produce
// while retaining every topology-sized allocation: prefix states and RIB
// slices are cleared in place, the route, path and candidate arenas are
// rewound, and the event engine keeps its queue storage and event pool. A
// warm session therefore runs a whole new experiment with near-zero
// steady-state allocation. Callers must not hold references into the old
// session (candidate slices); copies such as BestRoute results are fine.
func (s *Sim) Reset(cfg Config) {
	s.Cfg = cfg
	s.Engine.Reset()
	s.Updates = 0
	clear(s.failed)
	for _, ps := range s.prefixes {
		if ps == nil {
			continue
		}
		ps.origin = 0
		ps.announced = ps.announced[:0]
		for i := range ps.ribs {
			rib := &ps.ribs[i]
			clear(rib.in)
			rib.best = nil
			rib.candidates = nil
		}
	}
	s.routes.reset()
	s.paths.reset()
	s.cands.reset()
	// A new generation invalidates all forwarding memoization; the per-prefix
	// caches clear themselves lazily on first use.
	s.fwdGen++
}

// state returns (creating if needed) the per-prefix state. A converged
// announcement reaches essentially every AS, so the RIBs are laid out for the
// whole topology at once: one ribState per AS, and every Adj-RIB-In carved
// from a single backing array in adjacency order.
func (s *Sim) state(p PrefixID) *prefixState {
	ps := s.prefix(p)
	if ps == nil {
		for len(s.prefixes) <= int(p) {
			s.prefixes = append(s.prefixes, nil)
		}
		ases := s.Topo.ASes()
		ps = &prefixState{ribs: make([]ribState, len(ases))}
		in := make([]*route, 2*len(s.Topo.Links))
		for i, a := range ases {
			n := len(s.Topo.LinksOf(a.ASN))
			ps.ribs[i].in, in = in[:n:n], in[n:]
		}
		s.prefixes[p] = ps
	}
	return ps
}

// prefix returns p's state, or nil when p was never announced. A negative
// ID is an error in the model and panics.
func (s *Sim) prefix(p PrefixID) *prefixState {
	if p < 0 {
		panic(fmt.Sprintf("bgp: negative prefix ID %d", p))
	}
	if int(p) >= len(s.prefixes) {
		return nil
	}
	return s.prefixes[p]
}

// rib returns AS a's per-prefix RIB for writing. The layout covers the
// topology as it was when the prefix state was created; an AS or link added
// since then grows it here.
func (s *Sim) rib(ps *prefixState, a topology.ASN) *ribState {
	i := s.Topo.Index(a)
	if i >= len(ps.ribs) {
		ps.ribs = append(ps.ribs, make([]ribState, i+1-len(ps.ribs))...)
	}
	r := &ps.ribs[i]
	if n := len(s.Topo.LinksOf(a)); len(r.in) < n {
		r.in = append(r.in, make([]*route, n-len(r.in))...)
	}
	return r
}

// ribOf returns AS a's per-prefix RIB for reading, or nil when a has none.
func (s *Sim) ribOf(ps *prefixState, a topology.ASN) *ribState {
	i := s.Topo.Index(a)
	if i < 0 || i >= len(ps.ribs) {
		return nil
	}
	return &ps.ribs[i]
}

// Announce starts advertising prefix from origin over the given origin-side
// link at the current virtual time, with the origin ASN prepended prepend
// extra times. Announcing an already-announced link updates its prepending.
func (s *Sim) Announce(p PrefixID, origin topology.ASN, link topology.LinkID, prepend int) {
	s.AnnounceMED(p, origin, link, prepend, 0)
}

// AnnounceMED is Announce with an explicit Multi-Exit Discriminator. MED is
// one of the paper's control knobs (§2.3): it is compared only between
// routes from the same neighboring AS, so it steers which of several links
// *into the same provider* that provider prefers — lower wins. MED is
// non-transitive: it is not propagated beyond the receiving AS.
func (s *Sim) AnnounceMED(p PrefixID, origin topology.ASN, link topology.LinkID, prepend, med int) {
	l, path := s.originate(origin, link, prepend)
	s.announce(p, l, path, med)
}

// AnnounceAt schedules Announce(p, origin, link, prepend) to run at virtual
// time at. The link and prepend are checked now; everything else — the
// origin check against the prefix's state, the processing delay and the
// fault draw — happens when the event fires, as if Announce were called
// then.
func (s *Sim) AnnounceAt(at time.Duration, p PrefixID, origin topology.ASN, link topology.LinkID, prepend int) {
	l, path := s.originate(origin, link, prepend)
	s.Engine.Schedule(at, netsim.Payload{Op: opAnnounce, Link: l, Path: path, Prefix: int32(p)})
}

// WithdrawAt schedules Withdraw(p, link) to run at virtual time at.
func (s *Sim) WithdrawAt(at time.Duration, p PrefixID, link topology.LinkID) {
	s.scheduleOp(at, opWithdraw, p, link, "WithdrawAt")
}

// originate checks an announcement by origin over link with prepend extra
// copies of its ASN, and returns the link and the path it announces.
func (s *Sim) originate(origin topology.ASN, link topology.LinkID, prepend int) (*topology.Link, []topology.ASN) {
	l := s.Topo.Link(link)
	if l == nil {
		panic(fmt.Sprintf("bgp: Announce over unknown link %d", link))
	}
	if l.From != origin && l.To != origin {
		panic(fmt.Sprintf("bgp: link %d does not touch origin AS %d", link, origin))
	}
	if prepend < 0 {
		panic("bgp: negative prepend")
	}
	path := s.paths.alloc(1 + prepend)
	for i := range path {
		path[i] = origin
	}
	return l, path
}

// announce originates p over l with path, which originate built.
func (s *Sim) announce(p PrefixID, l *topology.Link, path []topology.ASN, med int) {
	origin := path[0]
	ps := s.state(p)
	if ps.origin != 0 && ps.origin != origin {
		panic(fmt.Sprintf("bgp: prefix %d already originated by AS %d", p, ps.origin))
	}
	ps.origin = origin
	o := origination{link: l.ID, path: path, med: med}
	if i, ok := ps.origination(l.ID); ok {
		ps.announced[i] = o
	} else {
		ps.announced = slices.Insert(ps.announced, i, o)
	}
	s.deliver(p, l, l.Other(origin), path, med)
}

// origination returns the index of link's record in ps.announced and
// whether it is there; when it is not, the index is where it would go.
func (ps *prefixState) origination(link topology.LinkID) (int, bool) {
	return slices.BinarySearchFunc(ps.announced, link, func(o origination, l topology.LinkID) int {
		return int(o.link) - int(l)
	})
}

// Withdraw stops advertising prefix over the given origin-side link.
// Withdrawing a link that is not announced is a no-op.
func (s *Sim) Withdraw(p PrefixID, link topology.LinkID) {
	ps := s.prefix(p)
	if ps == nil {
		return
	}
	i, ok := ps.origination(link)
	if !ok {
		return
	}
	ps.announced = slices.Delete(ps.announced, i, i+1)
	l := s.Topo.Link(link)
	s.deliver(p, l, l.Other(ps.origin), nil, 0)
}

// WithdrawAll withdraws the prefix from every currently announced link, in
// ascending link-ID order so the resulting event schedule is reproducible.
// The link snapshot lives in Sim-owned scratch, so repeated deploy/withdraw
// cycles allocate nothing here.
func (s *Sim) WithdrawAll(p PrefixID) {
	s.linkScratch = s.AppendAnnouncedLinks(p, s.linkScratch[:0])
	for _, link := range s.linkScratch {
		s.Withdraw(p, link)
	}
}

// AppendAnnouncedLinks appends the origin links currently carrying prefix p
// to buf in ascending link-ID order and returns the extended slice, letting
// callers reuse a buffer across calls.
func (s *Sim) AppendAnnouncedLinks(p PrefixID, buf []topology.LinkID) []topology.LinkID {
	if ps := s.prefix(p); ps != nil {
		for _, o := range ps.announced {
			buf = append(buf, o.link)
		}
	}
	return buf
}

// deliver schedules the arrival of an update (path != nil) or withdrawal
// (path == nil) at AS dst over link l, after the link's propagation delay
// plus the sender-side serialization and receiver processing delay.
func (s *Sim) deliver(p PrefixID, l *topology.Link, dst topology.ASN, path []topology.ASN, med int) {
	if s.LinkFailed(l.ID) {
		return
	}
	delay := l.Delay + s.procDelay(dst, p)
	if s.Cfg.Chaos != nil {
		drop, extra := s.Cfg.Chaos.UpdateFate(l.ID, dst, int(p))
		if drop {
			return
		}
		delay += extra
	}
	s.Engine.After(delay, netsim.Payload{
		Link:   l,
		Path:   path,
		Dst:    dst,
		Prefix: int32(p),
		MED:    int32(med),
	})
}

// The operations an event carries, in netsim.Payload.Op.
const (
	// opDeliver: an update (Path != nil) or withdrawal (Path == nil)
	// arriving at Dst over Link.
	opDeliver uint8 = iota
	// opAnnounce: Announce over Link, with Path the origin path and MED.
	opAnnounce
	// opWithdraw, opFailLink, opRestoreLink: Withdraw, FailLink and
	// RestoreLink on Link.
	opWithdraw
	opFailLink
	opRestoreLink
)

// HandleEvent implements netsim.Handler: it runs the operation an event
// carries, when the event fires. The *Payload points into pooled event
// storage; only its fields — which alias Sim-owned arena memory — are kept.
func (s *Sim) HandleEvent(ev *netsim.Payload) {
	p := PrefixID(ev.Prefix)
	switch ev.Op {
	case opDeliver:
		if s.LinkFailed(ev.Link.ID) {
			return // the link went down while the update was in flight
		}
		s.receive(p, ev.Link, ev.Dst, ev.Path, int(ev.MED))
	case opAnnounce:
		s.announce(p, ev.Link, ev.Path, int(ev.MED))
	case opWithdraw:
		s.Withdraw(p, ev.Link.ID)
	case opFailLink:
		s.FailLink(ev.Link.ID)
	case opRestoreLink:
		s.RestoreLink(ev.Link.ID)
	default:
		panic(fmt.Sprintf("bgp: event with unknown op %d", ev.Op))
	}
}

// scheduleOp schedules op on link for prefix p at virtual time at; caller
// names the exported method for the unknown-link panic.
func (s *Sim) scheduleOp(at time.Duration, op uint8, p PrefixID, link topology.LinkID, caller string) {
	l := s.Topo.Link(link)
	if l == nil {
		panic(fmt.Sprintf("bgp: %s on unknown link %d", caller, link))
	}
	s.Engine.Schedule(at, netsim.Payload{Op: op, Link: l, Prefix: int32(p)})
}

// The per-update processing delay has a stable component in
// [procDelayMin, procDelayMax), drawn from (AS, prefix): a router's
// update-handling speed is a property of the box and its configuration, so
// the same race mostly resolves the same way across experiments. On top sits
// a race component below raceJitter, drawn from (AS, prefix, JitterNonce):
// only races whose stable delay gap is within that window re-roll between
// experiments — the run-to-run variability that makes naive simultaneous
// announcements inconsistent (§5.1) without destabilizing everything.
const (
	procDelayMin = 5 * time.Millisecond
	procDelayMax = 150 * time.Millisecond
	raceJitter   = 220 * time.Millisecond
)

// procDelay derives the per-AS processing delay for a prefix: the stable
// component plus the race component re-rolled per experiment nonce.
func (s *Sim) procDelay(a topology.ASN, p PrefixID) time.Duration {
	base := fnvU64(fnvU64(fnvOffset64, uint64(a)), uint64(p))
	return procDelayMin +
		time.Duration(fnvU64(base, 0x57ab1e)%uint64(procDelayMax-procDelayMin)) +
		time.Duration(fnvU64(base, s.Cfg.JitterNonce)%uint64(raceJitter))
}

// receive processes an update or withdrawal at AS a.
func (s *Sim) receive(p PrefixID, l *topology.Link, a topology.ASN, path []topology.ASN, med int) {
	s.Updates++
	ps := s.state(p)
	rib := s.rib(ps, a)
	slot := l.Slot(a)
	if path == nil {
		// Withdrawal.
		if rib.in[slot] == nil {
			return
		}
		rib.in[slot] = nil
	} else {
		// Loop prevention: drop paths containing our own ASN.
		for _, hop := range path {
			if hop == a {
				return
			}
		}
		r := &s.routes.alloc(1)[0]
		*r = route{
			link:             l,
			path:             path,
			localPref:        s.importPref(s.Topo.AS(a), l),
			med:              med,
			arrival:          s.Engine.Now(),
			neighborRouterID: s.Topo.AS(l.Other(a)).RouterID,
			interiorCost:     s.interiorCost(a, l),
		}
		if old := rib.in[slot]; old != nil {
			if samePath(old.path, path) && old.med == med {
				return // duplicate re-advertisement; keep original arrival time
			}
		}
		rib.in[slot] = r
	}
	s.runDecision(p, ps, a, rib)
}

// importPref assigns LOCAL_PREF at import, relationship-based with optional
// deviant per-neighbor deltas.
func (s *Sim) importPref(as *topology.AS, l *topology.Link) int {
	var pref int
	switch l.RoleOf(as.ASN) {
	case topology.RoleCustomer:
		pref = 300
	case topology.RolePeer:
		pref = 200
	case topology.RoleProvider:
		pref = 100
	}
	if as.LocalPrefDelta != nil {
		pref += as.LocalPrefDelta[l.Other(as.ASN)]
	}
	return pref
}

// runDecision re-runs best-path selection at AS a and propagates any change.
func (s *Sim) runDecision(p PrefixID, ps *prefixState, a topology.ASN, rib *ribState) {
	// Any decision run invalidates forwarding memoization, even one that is
	// export-equivalent: the candidate set feeds multipath flow hashing and
	// hot-potato choice, so export equivalence is not forwarding equivalence.
	s.fwdGen++
	oldBest := rib.best
	rib.best, rib.candidates = s.selectBest(rib)
	s.invCheckBest(a, rib)

	if routesEquivalentForExport(oldBest, rib.best) {
		return
	}
	s.export(p, ps, a, rib, oldBest)
}

// routesEquivalentForExport reports whether swapping oldBest for newBest is
// invisible to neighbors (same AS path and same learned-role class).
func routesEquivalentForExport(a, b *route) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.link == b.link && samePath(a.path, b.path)
}

// export advertises AS a's new best route (or a withdrawal) to the neighbors
// eligible under Gao-Rexford export policy.
func (s *Sim) export(p PrefixID, ps *prefixState, a topology.ASN, rib *ribState, oldBest *route) {
	newBest := rib.best

	var newPath []topology.ASN
	if newBest != nil {
		newPath = s.newPath(a, newBest.path)
	}

	for _, nl := range s.Topo.LinksOf(a) {
		neighbor := nl.Other(a)
		if neighbor == ps.origin {
			continue // never advertise the origin's own prefix back at it
		}
		exportedOld := oldBest != nil && exportAllowed(oldBest.link.RoleOf(a), nl.RoleOf(a))
		exportNew := newBest != nil && exportAllowed(newBest.link.RoleOf(a), nl.RoleOf(a))
		if newBest != nil && nl == newBest.link {
			// Split horizon: don't advertise a route back over the link it
			// was learned from.
			exportNew = false
		}
		switch {
		case exportNew:
			s.invCheckExport(a, newBest.link.RoleOf(a), nl.RoleOf(a))
			s.deliver(p, nl, neighbor, newPath, 0)
		case exportedOld:
			// The neighbor previously heard a route from us but the new
			// best is not exportable to it (or we lost the route): withdraw.
			s.deliver(p, nl, neighbor, nil, 0)
		}
	}
}

// exportAllowed implements Gao-Rexford export policy: routes learned from
// customers go to everyone; routes learned from peers or providers go only to
// customers.
func exportAllowed(learnedFrom, to topology.NeighborRole) bool {
	if learnedFrom == topology.RoleCustomer {
		return true
	}
	return to == topology.RoleCustomer
}

// Converge runs the event engine until no BGP events remain and returns the
// number of events processed.
func (s *Sim) Converge() uint64 { return s.Engine.Run() }

func samePath(a, b []topology.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RouteInfo is a read-only view of an AS's best route for tests and tools.
type RouteInfo struct {
	Neighbor  topology.ASN
	Link      topology.LinkID
	Path      []topology.ASN
	LocalPref int
	Arrival   time.Duration
}

// BestRoute returns the selected route at AS a for prefix p, or nil when the
// prefix is unreachable from a. The Path is an independent copy, safe to hold
// across further simulation.
func (s *Sim) BestRoute(p PrefixID, a topology.ASN) *RouteInfo {
	ps := s.prefix(p)
	if ps == nil {
		return nil
	}
	rib := s.ribOf(ps, a)
	if rib == nil || rib.best == nil {
		return nil
	}
	b := rib.best
	return &RouteInfo{
		Neighbor:  b.link.Other(a),
		Link:      b.link.ID,
		Path:      append([]topology.ASN(nil), b.path...),
		LocalPref: b.localPref,
		Arrival:   b.arrival,
	}
}

// ReachableCount returns how many ASes currently have a route to prefix p.
func (s *Sim) ReachableCount(p PrefixID) int {
	ps := s.prefix(p)
	if ps == nil {
		return 0
	}
	n := 0
	for i := range ps.ribs {
		if ps.ribs[i].best != nil {
			n++
		}
	}
	return n
}
