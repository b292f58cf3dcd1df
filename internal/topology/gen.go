package topology

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"

	"anyopt/internal/geo"
)

// Params controls topology generation. The zero value is not useful; start
// from DefaultParams.
type Params struct {
	// Seed makes generation deterministic.
	Seed int64

	// NumTier1 is the size of the tier-1 clique (the paper's testbed uses 6
	// transit providers: Telia, Zayo, TATA, GTT, NTT, Sparkle).
	NumTier1 int
	// NumTransit is the number of mid-tier transit ASes.
	NumTransit int
	// NumStub is the number of client (stub) networks.
	NumStub int

	// Tier1PoPMin/Max bound the PoP footprint of each tier-1.
	Tier1PoPMin, Tier1PoPMax int
	// TransitPoPMin/Max bound the PoP footprint of each mid-tier transit.
	TransitPoPMin, TransitPoPMax int

	// StubProvidersMax bounds how many transit providers a stub buys from
	// (uniform in [1, StubProvidersMax]).
	StubProvidersMax int
	// TransitProvidersMax bounds how many tier-1s a mid-tier buys from.
	TransitProvidersMax int
	// TransitPeerProb is the probability that a pair of nearby mid-tier
	// transits peer with each other.
	TransitPeerProb float64
	// TransitViaTransitProb is the probability that a mid-tier transit buys
	// a given transit slot from another (earlier) mid-tier transit instead
	// of a tier-1, deepening the hierarchy and diversifying AS-path lengths
	// as on the real Internet.
	TransitViaTransitProb float64
	// StubDirectT1Prob is the probability a stub buys transit directly from
	// a tier-1 in addition to its mid-tier providers.
	StubDirectT1Prob float64
	// RemoteAttachProb is the probability that a customer link attaches at a
	// random PoP of the provider instead of the nearest one — remote
	// interconnection, which makes BGP's choices latency-oblivious and
	// anycast latency "unexpectedly inflated" (§1). This drives the gap
	// AnyOpt closes over the greedy baseline.
	RemoteAttachProb float64

	// AttachCandidates, when > 0, switches stub→transit attachment from
	// exhaustive inverse-distance weighting (O(NumTransit) per stub) to
	// sampled preferential attachment: each stub draws this many candidates
	// from a pool in which every transit appears once per customer link it
	// has already won, then picks nearest-weighted among just those
	// candidates. Early winners keep winning, so provider degrees converge
	// to the power-law (heavy-tailed) distribution measured on the real
	// Internet, and per-stub cost drops to O(AttachCandidates) — the only
	// way a ~100k-AS topology generates in seconds. Zero keeps the
	// exhaustive path (test/paper scales, byte-identical to older releases).
	AttachCandidates int

	// FracMultipath is the fraction of transit ASes that load-share across
	// equal-cost BGP routes (per-flow), one of the paper's sources of
	// inconsistent preference orders (§4.2).
	FracMultipath float64
	// FracDeviant is the fraction of ASes whose LOCAL_PREF assignments are
	// not purely relationship-based, violating the §4.1 sufficient
	// conditions.
	FracDeviant float64
	// DeviantPrefSpread is the +/- range of per-neighbor LOCAL_PREF deltas
	// assigned to deviant ASes.
	DeviantPrefSpread int

	// Model converts geography to delay.
	Model geo.LatencyModel
}

// DefaultParams returns a testbed-scale topology: 6 tier-1s and a few
// thousand client networks, matching the paper's target population (15,300
// targets in 5,317 ASes) in structure at a tractable size.
func DefaultParams() Params {
	return Params{
		Seed:                  1,
		NumTier1:              6,
		NumTransit:            180,
		NumStub:               2600,
		Tier1PoPMin:           8,
		Tier1PoPMax:           16,
		TransitPoPMin:         1,
		TransitPoPMax:         4,
		StubProvidersMax:      3,
		TransitProvidersMax:   3,
		TransitPeerProb:       0.035,
		TransitViaTransitProb: 0.4,
		StubDirectT1Prob:      0.04,
		RemoteAttachProb:      0.08,
		FracMultipath:         0.15,
		FracDeviant:           0.06,
		DeviantPrefSpread:     2,
		Model:                 geo.DefaultLatencyModel(),
	}
}

// TestParams returns a small topology for fast unit tests.
func TestParams() Params {
	p := DefaultParams()
	p.NumTransit = 40
	p.NumStub = 300
	return p
}

// InternetParams returns the ~100k-AS tier: tier-1/transit/stub ratios
// follow the real Internet's shape (a dozen tier-1s, a few thousand transit
// networks, everything else stub), stub attachment uses sampled preferential
// attachment so provider degrees come out power-law (heavy-tailed, as
// anycast CDN client-volume studies measure), and lateral transit peering is
// thinned to keep the link count linear in the AS count.
func InternetParams() Params {
	p := DefaultParams()
	p.NumTier1 = 12
	p.NumTransit = 2400
	p.NumStub = 97500
	p.AttachCandidates = 24
	// At 2400 transits the O(NumTransit²) peering sweep stays cheap, but the
	// default acceptance probability would mint ~150k lateral peerings;
	// thin it so the peer-link count stays proportional to the AS count.
	p.TransitPeerProb = 0.008
	return p
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.NumTier1 < 2:
		return fmt.Errorf("topology: NumTier1 = %d, need >= 2", p.NumTier1)
	case p.NumTransit < 1:
		return fmt.Errorf("topology: NumTransit = %d, need >= 1", p.NumTransit)
	case p.NumStub < 1:
		return fmt.Errorf("topology: NumStub = %d, need >= 1", p.NumStub)
	case p.Tier1PoPMin < 1 || p.Tier1PoPMax < p.Tier1PoPMin:
		return fmt.Errorf("topology: bad tier-1 PoP bounds [%d, %d]", p.Tier1PoPMin, p.Tier1PoPMax)
	case p.TransitPoPMin < 1 || p.TransitPoPMax < p.TransitPoPMin:
		return fmt.Errorf("topology: bad transit PoP bounds [%d, %d]", p.TransitPoPMin, p.TransitPoPMax)
	case p.StubProvidersMax < 1:
		return fmt.Errorf("topology: StubProvidersMax = %d, need >= 1", p.StubProvidersMax)
	case p.TransitProvidersMax < 1:
		return fmt.Errorf("topology: TransitProvidersMax = %d, need >= 1", p.TransitProvidersMax)
	case p.AttachCandidates < 0:
		return fmt.Errorf("topology: AttachCandidates = %d, need >= 0", p.AttachCandidates)
	case p.FracMultipath < 0 || p.FracMultipath > 1:
		return fmt.Errorf("topology: FracMultipath = %v out of [0,1]", p.FracMultipath)
	case p.FracDeviant < 0 || p.FracDeviant > 1:
		return fmt.Errorf("topology: FracDeviant = %v out of [0,1]", p.FracDeviant)
	}
	return nil
}

// tier1Names are real tier-1 brands for the first few ASes (the testbed's six
// transit providers come first), then synthetic names.
var tier1Names = []string{"Telia", "Zayo", "TATA", "GTT", "NTT", "Sparkle",
	"Lumen", "Cogent", "Arelion2", "PCCW", "Orange", "Telxius",
	"DTAG", "Liberty", "Vocus", "Singtel", "HGC", "Telstra", "Verizon", "ATT"}

// Generate builds a topology from params. Generation is fully deterministic
// in params.Seed.
func Generate(p Params) (*Topology, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	t := &Topology{Model: p.Model, Params: p, base: firstASN}

	genTier1s(t, p, rng)
	transits := genTransits(t, p, rng)
	genStubs(t, p, rng, transits)
	markDeviants(t, p, rng)
	genTargets(t, rng)
	return t, nil
}

// attachPoP picks the provider-side attachment PoP for a customer link:
// usually the PoP nearest the customer, but with RemoteAttachProb the
// interconnection happens at an arbitrary PoP of the provider (remote
// peering/backhaul).
func attachPoP(t *Topology, rng *rand.Rand, prov *AS, near geo.Coord, remoteProb float64) int {
	if len(prov.PoPs) == 0 {
		return -1
	}
	if rng.Float64() < remoteProb {
		return rng.Intn(len(prov.PoPs))
	}
	return t.NearestPoP(prov.ASN, near)
}

// genTier1s creates the tier-1 clique with global PoP footprints.
func genTier1s(t *Topology, p Params, rng *rand.Rand) {
	var t1s []*AS
	for i := 0; i < p.NumTier1; i++ {
		name := fmt.Sprintf("T1-%d", i)
		if i < len(tier1Names) {
			name = tier1Names[i]
		}
		nPoPs := p.Tier1PoPMin + rng.Intn(p.Tier1PoPMax-p.Tier1PoPMin+1)
		pops := samplePoPs(rng, nPoPs)
		a := t.AddAS(name, TierT1, pops[0].Coord)
		a.PoPs = pops
		a.RouterID = rng.Uint32()
		t1s = append(t1s, a)
	}
	// Full settlement-free clique among tier-1s, attached at mutually
	// nearest PoPs.
	for i := 0; i < len(t1s); i++ {
		for j := i + 1; j < len(t1s); j++ {
			a, b := t1s[i], t1s[j]
			// Attach at the closest PoP pair so peering delay is realistic.
			pa, pb := closestPoPPair(a, b)
			t.AddLink(a.ASN, b.ASN, PeerPeer, pa, pb)
		}
	}
}

// genTransits creates the mid-tier: regional transit ASes, each a customer of
// 1..TransitProvidersMax tier-1s, with lateral peering among nearby transits.
func genTransits(t *Topology, p Params, rng *rand.Rand) []*AS {
	t1s := t.byTier(TierT1)
	var transits []*AS
	for i := 0; i < p.NumTransit; i++ {
		nPoPs := p.TransitPoPMin + rng.Intn(p.TransitPoPMax-p.TransitPoPMin+1)
		pops := samplePoPs(rng, nPoPs)
		a := t.AddAS(fmt.Sprintf("Transit-%d", i), TierTransit, pops[0].Coord)
		a.PoPs = pops
		a.RouterID = rng.Uint32()
		a.Multipath = rng.Float64() < p.FracMultipath
		transits = append(transits, a)

		nProv := 1 + rng.Intn(p.TransitProvidersMax)
		// Some transit slots are bought from earlier mid-tier transits
		// (never later ones, keeping the provider graph acyclic); the rest
		// from tier-1s. Every transit keeps at least one path toward the
		// clique because transit 0 can only buy from tier-1s.
		nViaTransit := 0
		if len(transits) > 1 {
			for k := 1; k < nProv; k++ {
				if rng.Float64() < p.TransitViaTransitProb {
					nViaTransit++
				}
			}
		}
		for _, prov := range pickNearestWeighted(rng, t1s, a.Coord, nProv-nViaTransit) {
			pp := attachPoP(t, rng, prov, a.Coord, p.RemoteAttachProb)
			cp := t.NearestPoP(a.ASN, prov.PoPCoord(pp))
			t.AddLink(a.ASN, prov.ASN, CustomerProvider, cp, pp)
		}
		if nViaTransit > 0 {
			// Candidates exclude the transit itself (it is not yet in the
			// slice at this point).
			for _, prov := range pickNearestWeighted(rng, transits[:len(transits)-1], a.Coord, nViaTransit) {
				pp := attachPoP(t, rng, prov, a.Coord, p.RemoteAttachProb)
				cp := t.NearestPoP(a.ASN, prov.PoPCoord(pp))
				t.AddLink(a.ASN, prov.ASN, CustomerProvider, cp, pp)
			}
		}
	}
	// Lateral peering: nearby transit pairs peer with probability
	// TransitPeerProb scaled up for close pairs.
	for i := 0; i < len(transits); i++ {
		for j := i + 1; j < len(transits); j++ {
			a, b := transits[i], transits[j]
			d := geo.DistanceKm(a.Coord, b.Coord)
			prob := p.TransitPeerProb
			if d < 2000 {
				prob *= 4
			} else if d < 6000 {
				prob *= 1.5
			}
			if rng.Float64() < prob {
				pa, pb := closestPoPPair(a, b)
				t.AddLink(a.ASN, b.ASN, PeerPeer, pa, pb)
			}
		}
	}
	return transits
}

// genStubs creates client networks, each multihomed to nearby transits and
// occasionally directly to a tier-1.
func genStubs(t *Topology, p Params, rng *rand.Rand, transits []*AS) {
	t1s := t.byTier(TierT1)
	var sampler *prefAttach
	if p.AttachCandidates > 0 {
		sampler = newPrefAttach(transits)
	}
	for i := 0; i < p.NumStub; i++ {
		city := geo.Cities[rng.Intn(len(geo.Cities))]
		// Jitter the location so stubs in the same metro differ slightly.
		c := geo.Coord{
			Lat: clampLat(city.Lat + rng.NormFloat64()*1.5),
			Lon: wrapLon(city.Lon + rng.NormFloat64()*1.5),
		}
		a := t.AddAS(fmt.Sprintf("Stub-%d", i), TierStub, c)
		a.RouterID = rng.Uint32()
		a.Multipath = rng.Float64() < p.FracMultipath

		nProv := 1 + rng.Intn(p.StubProvidersMax)
		var provs []*AS
		if sampler != nil {
			provs = sampler.pick(rng, c, nProv, p.AttachCandidates)
		} else {
			provs = pickNearestWeighted(rng, transits, c, nProv)
		}
		for _, prov := range provs {
			pp := attachPoP(t, rng, prov, c, p.RemoteAttachProb)
			t.AddLink(a.ASN, prov.ASN, CustomerProvider, -1, pp)
		}
		if rng.Float64() < p.StubDirectT1Prob {
			prov := t1s[rng.Intn(len(t1s))]
			pp := attachPoP(t, rng, prov, c, p.RemoteAttachProb)
			t.AddLink(a.ASN, prov.ASN, CustomerProvider, -1, pp)
		}
	}
}

// prefAttach samples stub providers by preferential attachment: the pool
// holds one entry per transit plus one per customer link it has won, so a
// draw lands on a transit with probability proportional to 1 + its customer
// degree. Repeatedly feeding winners back into the pool is the classic
// rich-get-richer process whose stationary degree distribution is a power
// law — the heavy tail anycast client-volume studies measure — and each
// draw is O(1), independent of the transit count.
type prefAttach struct {
	pool []*AS
}

func newPrefAttach(transits []*AS) *prefAttach {
	return &prefAttach{pool: append([]*AS(nil), transits...)}
}

// pick draws k distinct degree-weighted candidates, then chooses n of them
// by the same inverse-distance weighting the exhaustive path uses, and
// feeds the winners back into the pool.
func (pa *prefAttach) pick(rng *rand.Rand, c geo.Coord, n, k int) []*AS {
	if k < n {
		k = n
	}
	seen := make(map[ASN]bool, k)
	cands := make([]*AS, 0, k)
	// Bounded rejection: pool entries repeat, so distinct candidates can
	// run out before k draws; 4k draws finds what is findable.
	for tries := 0; len(cands) < k && tries < 4*k; tries++ {
		a := pa.pool[rng.Intn(len(pa.pool))]
		if !seen[a.ASN] {
			seen[a.ASN] = true
			cands = append(cands, a)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ASN < cands[j].ASN })
	out := pickNearestWeighted(rng, cands, c, n)
	pa.pool = append(pa.pool, out...)
	return out
}

// markDeviants flags a fraction of non-tier-1 ASes as policy-deviant: they
// apply random per-neighbor LOCAL_PREF deltas (e.g., traffic engineering),
// which violates the §4.1 sufficient conditions for total orders.
func markDeviants(t *Topology, p Params, rng *rand.Rand) {
	if p.FracDeviant <= 0 || p.DeviantPrefSpread <= 0 {
		return
	}
	for i, a := range t.ases {
		if a.Tier == TierT1 {
			continue // tier-1s receive anycast routes as peers uniformly
		}
		if rng.Float64() >= p.FracDeviant {
			continue
		}
		a.LocalPrefDelta = make(map[ASN]int)
		for _, l := range t.adj[i] {
			// Deltas are small so they reorder equally-related neighbors
			// without inverting customer/peer/provider classes.
			a.LocalPrefDelta[l.Other(a.ASN)] = rng.Intn(2*p.DeviantPrefSpread+1) - p.DeviantPrefSpread
		}
	}
}

// genTargets picks one ping target per stub AS plus one per transit AS,
// mirroring the paper's "one representative router per client network".
func genTargets(t *Topology, rng *rand.Rand) {
	var targets []Target
	for _, a := range t.ases {
		if a.Tier != TierStub && a.Tier != TierTransit {
			continue
		}
		targets = append(targets, Target{
			Addr:     targetAddr(a.ASN),
			AS:       a.ASN,
			FlowSalt: rng.Uint64(),
		})
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].Addr.Less(targets[j].Addr) })
	t.Targets = targets
}

// targetAddr synthesizes a unique IPv4 address for the representative router
// of an AS, inside 10.0.0.0/8.
func targetAddr(a ASN) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(a >> 16), byte(a >> 8), byte(a)})
}

// byTier returns ASes of the given tier in ASN order.
func (t *Topology) byTier(tier Tier) []*AS {
	var out []*AS
	for _, a := range t.ases {
		if a.Tier == tier {
			out = append(out, a)
		}
	}
	return out
}

// Tier1s returns the tier-1 ASes in ASN order.
func (t *Topology) Tier1s() []*AS { return t.byTier(TierT1) }

// Transits returns the mid-tier transit ASes in ASN order.
func (t *Topology) Transits() []*AS { return t.byTier(TierTransit) }

// Stubs returns the stub ASes in ASN order.
func (t *Topology) Stubs() []*AS { return t.byTier(TierStub) }

// samplePoPs picks n distinct cities for a transit footprint.
func samplePoPs(rng *rand.Rand, n int) []PoP {
	if n > len(geo.Cities) {
		n = len(geo.Cities)
	}
	idx := rng.Perm(len(geo.Cities))[:n]
	sort.Ints(idx)
	pops := make([]PoP, n)
	for i, j := range idx {
		pops[i] = PoP{City: geo.Cities[j].Name, Coord: geo.Cities[j].Coord}
	}
	return pops
}

// closestPoPPair returns the PoP index pair minimizing distance between two
// transit ASes.
func closestPoPPair(a, b *AS) (int, int) {
	ba, bb := -1, -1
	best := math.Inf(1)
	for i := 0; i < a.PoPCount(); i++ {
		for j := 0; j < b.PoPCount(); j++ {
			if d := geo.DistanceKm(a.PoPCoord(i), b.PoPCoord(j)); d < best {
				best, ba, bb = d, i, j
			}
		}
	}
	if len(a.PoPs) == 0 {
		ba = -1
	}
	if len(b.PoPs) == 0 {
		bb = -1
	}
	return ba, bb
}

// pickNearestWeighted samples n distinct ASes from candidates with
// probability weighted by inverse distance to c, so networks mostly buy
// transit locally but sometimes from far away — as on the real Internet.
func pickNearestWeighted(rng *rand.Rand, candidates []*AS, c geo.Coord, n int) []*AS {
	if n >= len(candidates) {
		out := make([]*AS, len(candidates))
		copy(out, candidates)
		return out
	}
	type weighted struct {
		as *AS
		w  float64
	}
	ws := make([]weighted, len(candidates))
	total := 0.0
	for i, a := range candidates {
		d := geo.DistanceKm(a.Coord, c)
		w := 1.0 / (500 + d) // flatten very-near dominance
		ws[i] = weighted{a, w}
		total += w
	}
	picked := make(map[ASN]bool, n)
	var out []*AS
	for len(out) < n {
		r := rng.Float64() * total
		for i := range ws {
			if ws[i].w == 0 {
				continue
			}
			r -= ws[i].w
			if r <= 0 {
				if !picked[ws[i].as.ASN] {
					picked[ws[i].as.ASN] = true
					out = append(out, ws[i].as)
				}
				total -= ws[i].w
				ws[i].w = 0
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}

func clampLat(lat float64) float64 {
	if lat > 89 {
		return 89
	}
	if lat < -89 {
		return -89
	}
	return lat
}

func wrapLon(lon float64) float64 {
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return lon
}
