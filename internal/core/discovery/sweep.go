package discovery

import (
	"encoding/binary"
	"errors"

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

// AppendBinary appends the sweep's three columns to b — the journal's
// experiment payload. A column is its length as a uvarint followed by that
// many zig-zag varints (site IDs and the missing-RTT marker take one byte,
// an RTT in nanoseconds four); a column the sweep lacks is the single byte 0.
func (sw Sweep) AppendBinary(b []byte) []byte {
	b = appendColumn(b, sw.Site)
	b = appendColumn(b, sw.Link)
	return appendColumn(b, sw.RTT)
}

func appendColumn[T int32 | int64](b []byte, col []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(col)))
	for _, v := range col {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

var errSweepCodec = errors.New("discovery: malformed sweep columns")

// DecodeSweep reads the columns AppendBinary wrote from the front of b and
// returns the bytes after them. An empty column decodes as nil.
func DecodeSweep(b []byte) (sw Sweep, rest []byte, err error) {
	if sw.Site, b, err = decodeColumn[int32](b); err != nil {
		return Sweep{}, nil, err
	}
	if sw.Link, b, err = decodeColumn[int32](b); err != nil {
		return Sweep{}, nil, err
	}
	if sw.RTT, b, err = decodeColumn[int64](b); err != nil {
		return Sweep{}, nil, err
	}
	return sw, b, nil
}

func decodeColumn[T int32 | int64](b []byte) ([]T, []byte, error) {
	n, w := binary.Uvarint(b)
	// Every cell takes at least one byte, so a length the remaining bytes
	// cannot hold is refused before anything is allocated for it.
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, errSweepCodec
	}
	b = b[w:]
	if n == 0 {
		return nil, b, nil
	}
	col := make([]T, n)
	for i := range col {
		v, w := binary.Varint(b)
		if w <= 0 || int64(T(v)) != v {
			return nil, nil, errSweepCodec
		}
		col[i] = T(v)
		b = b[w:]
	}
	return col, b, nil
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
