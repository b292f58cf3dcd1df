package discovery

import (
	"anyopt/internal/probe"
	"anyopt/internal/testbed"
)

// Sweep is one experiment's result: a Verfploeter sweep (§3.1) — one flat
// (target → site, rtt) row per pinged target — held as dense columns over
// the position in tb.Topo.Targets. A column the experiment does not measure
// stays nil, and the zero Sweep (a quarantined pair's skipped slot, or an
// experiment an aborted batch never ran) reads as "no answer" everywhere. Every layer between the
// probe and the columnar stores — quorum, journal, store append — works on
// these columns by index.
type Sweep struct {
	// Site is each target's catchment site ID; 0 means no answer (site IDs
	// start at 1).
	Site []int32
	// Link is the origin-side link the reply entered over (transit or
	// peering), decoded from the per-interface GRE key; read only where
	// Site is non-zero.
	Link []int32
	// RTT is each target's measured RTT in nanoseconds, rttMissing where
	// unmeasured. A parallel-prefix slot lays its per-prefix rows end to end.
	RTT []int64
}

// row is one target's cells across a sweep's columns — the unit the quorum
// votes on and the ad-hoc map views read.
type row struct {
	site, link int32
	rtt        int64
}

// rows returns the sweep's row count: the length of its longest column.
func (sw Sweep) rows() int { return max(len(sw.Site), len(sw.Link), len(sw.RTT)) }

// row returns row i; a column the sweep lacks reads as no answer.
func (sw Sweep) row(i int) row {
	r := row{rtt: rttMissing}
	if i < len(sw.Site) {
		r.site = sw.Site[i]
	}
	if i < len(sw.Link) {
		r.link = sw.Link[i]
	}
	if i < len(sw.RTT) {
		r.rtt = sw.RTT[i]
	}
	return r
}

// measure is the campaign's one measurement loop: a single pass over the
// targets, one row per target. With via nil it probes each target's
// catchment (Site, plus Link when withLink) and, when withRTT, the RTT
// through the catchment site; with via set it measures only the RTT through
// that site's tunnel (singleton experiments). Targets that are filtered out,
// that the quorum has already locked, or whose probes are lost or
// unroutable, keep the column's no-answer value. row0 is the position of
// this call's first row in the attempt's sweep: a parallel-prefix slot lays
// its per-prefix rows end to end, so prefix k measures from row k·targets.
func (e *Exp) measure(p *probe.Prober, via *testbed.Site, withLink, withRTT bool, row0 int) Sweep {
	tb := e.d.TB
	n := len(tb.Topo.Targets)
	var sw Sweep
	if via == nil {
		sw.Site = make([]int32, n)
	}
	if withLink {
		sw.Link = make([]int32, n)
	}
	if withRTT {
		sw.RTT = missingRTTs(n)
	}
	for i, tg := range tb.Topo.Targets {
		if e.skipped(row0+i) || !e.d.targetIncluded(tg.AS) {
			continue
		}
		// Rewind the noise/fault streams to this target's position: each
		// target's measurement is then a pure function of (experiment,
		// attempt, target), independent of which other targets were probed —
		// what keeps a filtered campaign, and a quorum attempt that skips
		// locked rows, byte-identical to a full one.
		p.BeginTarget(uint64(tg.AS))
		site := via
		if site == nil {
			key, err := p.CatchmentRetry(tg.Addr, 3)
			if err != nil {
				continue
			}
			link, okLink := tb.LinkByTunnelKey(key)
			if site = tb.SiteByTunnelKey(key); site == nil || !okLink {
				continue
			}
			sw.Site[i] = int32(site.ID)
			if withLink {
				sw.Link[i] = int32(link)
			}
		}
		if withRTT {
			if rtt, err := p.RTT(site.TunnelKey, site.TunnelAddr, site.TunnelRTT, tg.Addr); err == nil {
				sw.RTT[i] = int64(rtt)
			}
		}
	}
	e.probes += p.Sent
	return sw
}
