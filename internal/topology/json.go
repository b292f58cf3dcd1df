package topology

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"anyopt/internal/geo"
)

// jsonTopology is the serialized form of a Topology. The format is
// versioned; it captures everything generation produced, so an imported
// topology behaves identically to the original under simulation.
type jsonTopology struct {
	Version int        `json:"version"`
	Params  Params     `json:"params"`
	ASes    []jsonAS   `json:"ases"`
	Links   []jsonLink `json:"links"`
	Targets []jsonTgt  `json:"targets"`
}

type jsonAS struct {
	ASN       ASN         `json:"asn"`
	Name      string      `json:"name"`
	Tier      uint8       `json:"tier"`
	Lat       float64     `json:"lat"`
	Lon       float64     `json:"lon"`
	PoPs      []jsonPoP   `json:"pops,omitempty"`
	RouterID  uint32      `json:"router_id"`
	Multipath bool        `json:"multipath,omitempty"`
	Deltas    []jsonDelta `json:"deltas,omitempty"`
}

type jsonPoP struct {
	City string  `json:"city"`
	Lat  float64 `json:"lat"`
	Lon  float64 `json:"lon"`
}

type jsonDelta struct {
	Neighbor ASN `json:"n"`
	Delta    int `json:"d"`
}

type jsonLink struct {
	From    ASN   `json:"from"`
	To      ASN   `json:"to"`
	Rel     uint8 `json:"rel"`
	FromPoP int   `json:"from_pop"`
	ToPoP   int   `json:"to_pop"`
	DelayNs int64 `json:"delay_ns"`
}

type jsonTgt struct {
	Addr     string `json:"addr"`
	AS       ASN    `json:"as"`
	FlowSalt uint64 `json:"salt"`
}

// topologyFormatVersion guards the serialization format.
const topologyFormatVersion = 1

// ExportJSON serializes the topology, including any testbed additions made
// after generation (origin AS, site and peering links).
func (t *Topology) ExportJSON() ([]byte, error) {
	dump := jsonTopology{Version: topologyFormatVersion, Params: t.Params}
	for _, a := range t.ases {
		ja := jsonAS{
			ASN: a.ASN, Name: a.Name, Tier: uint8(a.Tier),
			Lat: a.Coord.Lat, Lon: a.Coord.Lon,
			RouterID: a.RouterID, Multipath: a.Multipath,
		}
		for _, p := range a.PoPs {
			ja.PoPs = append(ja.PoPs, jsonPoP{City: p.City, Lat: p.Coord.Lat, Lon: p.Coord.Lon})
		}
		if len(a.LocalPrefDelta) > 0 {
			neighbors := make([]ASN, 0, len(a.LocalPrefDelta))
			for n := range a.LocalPrefDelta {
				neighbors = append(neighbors, n)
			}
			sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
			for _, n := range neighbors {
				ja.Deltas = append(ja.Deltas, jsonDelta{Neighbor: n, Delta: a.LocalPrefDelta[n]})
			}
		}
		dump.ASes = append(dump.ASes, ja)
	}
	for _, l := range t.Links {
		dump.Links = append(dump.Links, jsonLink{
			From: l.From, To: l.To, Rel: uint8(l.Rel),
			FromPoP: l.FromPoP, ToPoP: l.ToPoP, DelayNs: int64(l.Delay),
		})
	}
	for _, tg := range t.Targets {
		dump.Targets = append(dump.Targets, jsonTgt{
			Addr: tg.Addr.String(), AS: tg.AS, FlowSalt: tg.FlowSalt,
		})
	}
	return json.MarshalIndent(&dump, "", " ")
}

// ImportJSON rebuilds a topology from ExportJSON's output.
func ImportJSON(data []byte) (*Topology, error) {
	var dump jsonTopology
	if err := json.Unmarshal(data, &dump); err != nil {
		return nil, fmt.Errorf("topology: decoding JSON: %w", err)
	}
	if dump.Version != topologyFormatVersion {
		return nil, fmt.Errorf("topology: format version %d, want %d", dump.Version, topologyFormatVersion)
	}
	t := &Topology{
		Model:  dump.Params.Model,
		Params: dump.Params,
		ases:   make([]*AS, 0, len(dump.ASes)),
		adj:    make([][]*Link, len(dump.ASes)),
		base:   firstASN,
	}
	if len(dump.ASes) > 0 {
		t.base = dump.ASes[0].ASN
	}
	for i, ja := range dump.ASes {
		// The dense AS index needs what ExportJSON writes: ascending ASNs
		// with no gap and no duplicate.
		if want := t.base + ASN(i); ja.ASN != want {
			return nil, fmt.Errorf("topology: AS %d listed where AS %d belongs: ASNs must be contiguous and ascending", ja.ASN, want)
		}
		a := &AS{
			ASN: ja.ASN, Name: ja.Name, Tier: Tier(ja.Tier),
			Coord:    geo.Coord{Lat: ja.Lat, Lon: ja.Lon},
			RouterID: ja.RouterID, Multipath: ja.Multipath,
		}
		for _, p := range ja.PoPs {
			a.PoPs = append(a.PoPs, PoP{City: p.City, Coord: geo.Coord{Lat: p.Lat, Lon: p.Lon}})
		}
		if len(ja.Deltas) > 0 {
			a.LocalPrefDelta = make(map[ASN]int, len(ja.Deltas))
			for _, d := range ja.Deltas {
				a.LocalPrefDelta[d.Neighbor] = d.Delta
			}
		}
		t.ases = append(t.ases, a)
	}
	t.Links = make([]*Link, 0, len(dump.Links))
	for i, jl := range dump.Links {
		fa, ta := t.AS(jl.From), t.AS(jl.To)
		if fa == nil || ta == nil {
			return nil, fmt.Errorf("topology: link %d references unknown AS", i)
		}
		if jl.DelayNs <= 0 {
			return nil, fmt.Errorf("topology: link %d has non-positive delay", i)
		}
		t.insertLink(&Link{
			From: jl.From, To: jl.To, Rel: Relationship(jl.Rel),
			FromPoP: jl.FromPoP, ToPoP: jl.ToPoP, Delay: time.Duration(jl.DelayNs),
		}, fa, ta)
	}
	for _, jt := range dump.Targets {
		addr, err := netip.ParseAddr(jt.Addr)
		if err != nil {
			return nil, fmt.Errorf("topology: target address %q: %w", jt.Addr, err)
		}
		// The measurement plane speaks IPv4 only, and resolves a target by
		// its address read as a uint32.
		if !addr.Is4() {
			return nil, fmt.Errorf("topology: target address %s is not IPv4", addr)
		}
		if t.AS(jt.AS) == nil {
			return nil, fmt.Errorf("topology: target references unknown AS %d", jt.AS)
		}
		// Targets are the campaign's row order and are looked up by binary
		// search, so they must arrive as ExportJSON writes them: sorted by
		// address, no address twice.
		if n := len(t.Targets); n > 0 && !t.Targets[n-1].Addr.Less(addr) {
			return nil, fmt.Errorf("topology: target %s follows %s: targets must be sorted by address, each once", addr, t.Targets[n-1].Addr)
		}
		t.Targets = append(t.Targets, Target{Addr: addr, AS: jt.AS, FlowSalt: jt.FlowSalt})
	}
	return t, nil
}
