// Package topology generates and represents synthetic AS-level Internet
// topologies for anycast experiments.
//
// The real AnyOpt testbed announces prefixes into the production Internet; we
// substitute a generated topology with the structural features the paper's
// analysis depends on: a clique of tier-1 transit providers, a middle tier of
// regional transit ASes, thousands of stub (client) networks, settlement-free
// peering edges, and — inside transit providers — PoP-level structure with
// IGP costs so that intra-AS (hot-potato) catchment selection is meaningful.
//
// Everything is placed geographically (see package geo) so link delays,
// BGP-advertisement arrival order, and client RTTs all derive from the same
// coherent model.
package topology

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"anyopt/internal/geo"
)

// ASN is an autonomous-system number.
type ASN uint32

// Tier classifies an AS's role in the hierarchy.
type Tier uint8

const (
	// TierT1 is a tier-1 transit provider: no providers of its own, peers
	// with every other tier-1 (settlement-free clique).
	TierT1 Tier = iota
	// TierTransit is a regional/national transit provider: customer of one
	// or more tier-1s, provider to stubs, peers laterally.
	TierTransit
	// TierStub is a client network (enterprise, campus, eyeball ISP).
	TierStub
	// TierOrigin is the anycast network itself (added by the testbed).
	TierOrigin
)

func (t Tier) String() string {
	switch t {
	case TierT1:
		return "tier1"
	case TierTransit:
		return "transit"
	case TierStub:
		return "stub"
	case TierOrigin:
		return "origin"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// Relationship is the business relationship of a link, following the
// Gao-Rexford model.
type Relationship uint8

const (
	// CustomerProvider marks a link whose From side is the customer and
	// whose To side is the provider.
	CustomerProvider Relationship = iota
	// PeerPeer marks a settlement-free peering link.
	PeerPeer
)

func (r Relationship) String() string {
	switch r {
	case CustomerProvider:
		return "customer-provider"
	case PeerPeer:
		return "peer-peer"
	default:
		return fmt.Sprintf("rel(%d)", uint8(r))
	}
}

// PoP is a point of presence of a transit AS.
type PoP struct {
	City  string
	Coord geo.Coord
}

// AS is one autonomous system.
type AS struct {
	ASN  ASN
	Name string
	Tier Tier
	// Coord is the AS's primary location (for stubs, the network itself;
	// for transit ASes, the headquarters — PoPs carry the real footprint).
	Coord geo.Coord
	// PoPs is non-empty for transit ASes. Links attach to a specific PoP.
	PoPs []PoP
	// RouterID breaks final BGP ties, as in the last step of the decision
	// process.
	RouterID uint32
	// Multipath marks ASes that load-share across equally preferred routes
	// per flow hash instead of picking a single best path. The paper (§4.2)
	// identifies these as one source of inconsistent preference orders.
	Multipath bool
	// LocalPrefDelta holds per-neighbor LOCAL_PREF adjustments for
	// "policy-deviant" ASes whose preferences are not purely
	// relationship-based (traffic engineering). These violate the paper's
	// sufficient conditions (§4.1) and produce clients without total orders.
	LocalPrefDelta map[ASN]int
}

// PoPCount returns the number of PoPs, treating PoP-less ASes as one.
func (a *AS) PoPCount() int {
	if len(a.PoPs) == 0 {
		return 1
	}
	return len(a.PoPs)
}

// PoPCoord returns the coordinate of PoP i, falling back to the AS coordinate
// for single-location ASes (i < 0 or no PoPs).
func (a *AS) PoPCoord(i int) geo.Coord {
	if i < 0 || i >= len(a.PoPs) {
		return a.Coord
	}
	return a.PoPs[i].Coord
}

// LinkID identifies a link within a Topology.
type LinkID int32

// Link is an inter-AS adjacency. For CustomerProvider links, From is the
// customer and To the provider. Each endpoint attaches at a PoP index of the
// respective AS (-1 when the AS has no PoP structure).
type Link struct {
	ID      LinkID
	From    ASN
	To      ASN
	Rel     Relationship
	FromPoP int
	ToPoP   int
	// Delay is the one-way propagation delay of the link.
	Delay time.Duration

	// Per endpoint, indexed by side (0: From, 1: To), fixed when the link is
	// added: exitKm is the distance ExitKm reports, and slot the link's
	// position in that endpoint's LinksOf list.
	exitKm [2]float64
	slot   [2]int32
}

// side returns 0 when a is the From end of l, else 1.
func (l *Link) side(a ASN) int {
	if l.From == a {
		return 0
	}
	return 1
}

// Slot returns l's position in LinksOf(a), for either endpoint a.
func (l *Link) Slot(a ASN) int { return int(l.slot[l.side(a)]) }

// ExitKm returns the distance from AS a's location to where a route learned
// over l leaves a's network: a's own attachment PoP when a has PoPs, else the
// far end's attachment PoP. The BGP interior-cost step buckets it. It is
// computed once when the link is added, since coordinates and PoP lists never
// change after an AS has links.
func (l *Link) ExitKm(a ASN) float64 { return l.exitKm[l.side(a)] }

// Other returns the far endpoint as seen from a.
func (l *Link) Other(a ASN) ASN {
	if l.From == a {
		return l.To
	}
	return l.From
}

// PoPAt returns the attachment PoP index on the a side of the link.
func (l *Link) PoPAt(a ASN) int {
	if l.From == a {
		return l.FromPoP
	}
	return l.ToPoP
}

// RelFrom classifies the far endpoint from a's point of view:
// the returned value is the role of the *other* end.
type NeighborRole uint8

const (
	// RoleCustomer: the other end is a's customer.
	RoleCustomer NeighborRole = iota
	// RolePeer: the other end is a's settlement-free peer.
	RolePeer
	// RoleProvider: the other end is a's provider.
	RoleProvider
)

func (r NeighborRole) String() string {
	switch r {
	case RoleCustomer:
		return "customer"
	case RolePeer:
		return "peer"
	case RoleProvider:
		return "provider"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// RoleOf returns the role of the neighbor on link l from a's perspective.
func (l *Link) RoleOf(a ASN) NeighborRole {
	if l.Rel == PeerPeer {
		return RolePeer
	}
	if l.From == a {
		// a is the customer, so the other end is a's provider.
		return RoleProvider
	}
	return RoleCustomer
}

// Target is a ping target: a router inside (or near) a client network, one
// representative per client network, mirroring §3.2 of the paper.
type Target struct {
	// Addr is the target's synthetic IPv4 address.
	Addr netip.Addr
	// AS is the client network the target represents.
	AS ASN
	// FlowSalt seeds per-flow hashing at multipath ASes.
	FlowSalt uint64
}

// firstASN is where AddAS starts counting, leaving room below for
// well-known test ASNs.
const firstASN ASN = 100

// Topology is an immutable-after-generation AS graph.
//
// ASNs are contiguous: AddAS counts up from base and ImportJSON refuses
// gaps, so ASN − base is a dense index (Index) that per-AS state elsewhere
// can key slices by.
type Topology struct {
	Links []*Link
	// Targets are the measurement targets, sorted by address.
	Targets []Target
	// Model converts distance to delay; shared by all consumers.
	Model geo.LatencyModel
	// Params echoes the generation parameters.
	Params Params

	// ases holds AS base+i at index i; adj holds its incident links at the
	// same index, in ascending link-ID order.
	ases []*AS
	adj  [][]*Link
	base ASN

	nextLinkID LinkID

	// down marks links taken out of service by persistent routing churn
	// (fault.ApplyChurn). Unlike an injected mid-experiment flap, a down link
	// stays down across experiments until a ChurnLinkUp restores it; every
	// fresh or reset simulator session re-fails these links before running.
	down map[LinkID]bool
}

// NewEmpty returns an empty topology ready for manual construction via AddAS
// and AddLink — used for hand-crafted scenarios in tests and examples.
func NewEmpty(model geo.LatencyModel) *Topology {
	return &Topology{Model: model, base: firstASN}
}

// Index returns a's dense index in [0, NumASes()), or -1 when the topology
// has no such AS.
func (t *Topology) Index(a ASN) int {
	i := int(a) - int(t.base)
	if uint(i) >= uint(len(t.ases)) {
		return -1
	}
	return i
}

// AS returns the AS with the given number, or nil.
func (t *Topology) AS(a ASN) *AS {
	if i := t.Index(a); i >= 0 {
		return t.ases[i]
	}
	return nil
}

// ASes returns every AS in ASN order; element i has index i. The returned
// slice must not be modified.
func (t *Topology) ASes() []*AS { return t.ases }

// LinksOf returns the links incident to a, in ascending link-ID order. The
// returned slice must not be modified.
func (t *Topology) LinksOf(a ASN) []*Link {
	if i := t.Index(a); i >= 0 {
		return t.adj[i]
	}
	return nil
}

// Link returns the link with the given ID, or nil.
func (t *Topology) Link(id LinkID) *Link {
	if id < 0 || int(id) >= len(t.Links) {
		return nil
	}
	return t.Links[id]
}

// NumASes returns the number of ASes.
func (t *Topology) NumASes() int { return len(t.ases) }

// AddAS inserts a new AS with the next free ASN and returns it.
func (t *Topology) AddAS(name string, tier Tier, c geo.Coord) *AS {
	asn := t.base + ASN(len(t.ases))
	a := &AS{ASN: asn, Name: name, Tier: tier, Coord: c, RouterID: uint32(asn)}
	t.ases = append(t.ases, a)
	t.adj = append(t.adj, nil)
	return a
}

// AddLink inserts a link between two existing ASes, computing its delay from
// the attachment-PoP coordinates, and returns it.
func (t *Topology) AddLink(from, to ASN, rel Relationship, fromPoP, toPoP int) *Link {
	fa, ta := t.AS(from), t.AS(to)
	if fa == nil || ta == nil {
		panic(fmt.Sprintf("topology: AddLink with unknown AS %d or %d", from, to))
	}
	l := &Link{
		From: from, To: to, Rel: rel, FromPoP: fromPoP, ToPoP: toPoP,
		Delay: t.Model.LinkDelay(fa.PoPCoord(fromPoP), ta.PoPCoord(toPoP)),
	}
	t.insertLink(l, fa, ta)
	return l
}

// insertLink numbers l, appends it to the adjacency of both endpoints (fa
// and ta, already resolved), and fixes its per-endpoint slots and exit
// distances.
func (t *Topology) insertLink(l *Link, fa, ta *AS) {
	l.ID = t.nextLinkID
	t.nextLinkID++
	t.Links = append(t.Links, l)
	ends := [2]*AS{fa, ta}
	for side, end := range ends {
		i := t.Index(end.ASN)
		l.slot[side] = int32(len(t.adj[i]))
		t.adj[i] = append(t.adj[i], l)
		far := ends[1-side]
		exit := end.PoPCoord(l.PoPAt(end.ASN))
		if len(end.PoPs) == 0 {
			exit = far.PoPCoord(l.PoPAt(far.ASN))
		}
		l.exitKm[side] = geo.DistanceKm(end.Coord, exit)
	}
}

// SetLinkDown marks a link persistently down (or restores it). Down links
// survive simulator resets: discovery re-fails them in every session, so the
// state models a long-lived outage rather than a transient flap.
func (t *Topology) SetLinkDown(id LinkID, down bool) {
	if t.Link(id) == nil {
		panic(fmt.Sprintf("topology: SetLinkDown on unknown link %d", id))
	}
	if down {
		if t.down == nil {
			t.down = make(map[LinkID]bool)
		}
		t.down[id] = true
		return
	}
	delete(t.down, id)
}

// LinkIsDown reports whether the link is persistently down.
func (t *Topology) LinkIsDown(id LinkID) bool { return t.down[id] }

// DownLinks returns the persistently-down link IDs in ascending order.
func (t *Topology) DownLinks() []LinkID {
	if len(t.down) == 0 {
		return nil
	}
	out := make([]LinkID, 0, len(t.down))
	for id := range t.down {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NearestPoP returns the index of the PoP of a closest to c, or -1 when the
// AS has no PoP structure.
func (t *Topology) NearestPoP(a ASN, c geo.Coord) int {
	as := t.AS(a)
	if as == nil || len(as.PoPs) == 0 {
		return -1
	}
	best, bestD := 0, geo.DistanceKm(as.PoPs[0].Coord, c)
	for i := 1; i < len(as.PoPs); i++ {
		if d := geo.DistanceKm(as.PoPs[i].Coord, c); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// IGPCost returns the intra-AS routing cost between two PoPs of a transit AS,
// modeled as the great-circle distance in kilometers. Indices outside the PoP
// list (including -1) denote the AS's primary location.
func (t *Topology) IGPCost(a ASN, popA, popB int) float64 {
	as := t.AS(a)
	if as == nil {
		return 0
	}
	return geo.DistanceKm(as.PoPCoord(popA), as.PoPCoord(popB))
}

// IGPDelay converts an intra-AS PoP-to-PoP traversal into a delay.
func (t *Topology) IGPDelay(a ASN, popA, popB int) time.Duration {
	as := t.AS(a)
	if as == nil || popA == popB {
		return 0
	}
	return t.Model.OneWay(geo.DistanceKm(as.PoPCoord(popA), as.PoPCoord(popB)), 1)
}
