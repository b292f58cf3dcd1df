// Package campaign persists and restores the outputs of a measurement
// campaign — provider- and site-level preference stores, the RTT table, and
// the chosen announcement order — as JSON.
//
// A real AnyOpt campaign costs weeks of wall-clock BGP experiments (§4.5),
// so its results are an asset: operators re-run the offline optimization
// against saved measurements whenever requirements change, and only
// re-measure on the paper's monthly cadence. Save/Load makes the predictor
// reproducible from a file.
package campaign

import (
	"encoding/json"
	"fmt"
	"io"

	"anyopt"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/topology"
)

// FormatVersion guards against loading incompatible snapshots.
const FormatVersion = 1

// storeDump serializes one preference store.
type storeDump struct {
	Items     []prefs.Item           `json:"items"`
	Relations []prefs.DumpedRelation `json:"relations"`
}

// Snapshot is the serialized form of a campaign.
type Snapshot struct {
	Version int `json:"version"`
	// Sites echoes the testbed layout for sanity checking at load time.
	Sites int `json:"sites"`
	// UseRTTHeuristic records the discovery mode.
	UseRTTHeuristic bool `json:"use_rtt_heuristic"`
	// AnnOrder is the chosen provider announcement order.
	AnnOrder []prefs.Item `json:"ann_order"`

	Providers   storeDump                      `json:"providers"`
	SiteStores  map[topology.ASN]storeDump     `json:"site_stores,omitempty"`
	RTT         map[int]map[prefs.Client]int64 `json:"rtt"`
	Experiments int                            `json:"experiments"`

	// Quarantined records sites the campaign pulled out after detecting
	// them dead (site ID → reason); absent for fault-free campaigns. The
	// field rides FormatVersion 1: older snapshots simply lack it.
	Quarantined map[int]string `json:"quarantined,omitempty"`
}

func dumpStore(s *prefs.Store) storeDump {
	return storeDump{Items: s.Items(), Relations: s.Dump()}
}

func restoreStore(d storeDump) (*prefs.Store, error) {
	s, err := prefs.NewStore(d.Items)
	if err != nil {
		return nil, err
	}
	if err := s.Restore(d.Relations); err != nil {
		return nil, err
	}
	s.Compact()
	return s, nil
}

// Save writes sys's discovery results to w. RunDiscovery must have been
// executed.
func Save(w io.Writer, sys *anyopt.System) error {
	sn := sys.CurrentSnapshot()
	if sn == nil {
		return fmt.Errorf("campaign: system has no discovery results to save")
	}
	// Quarantine is live Discovery state: operators may pull a site after the
	// campaign snapshot was published. The System-level Save captures the
	// current view; SaveSnapshot alone freezes the snapshot's own record.
	view := *sn
	//lint:mutinvariant view is a private struct copy; the published snapshot is untouched
	view.Quarantined = sys.Disc.Quarantined()
	return SaveSnapshot(w, &view)
}

// SaveFile saves sys's discovery results to path so that a crash leaves the
// previous file or the whole new one, never a truncated campaign: see
// writeFileSynced.
func SaveFile(path string, sys *anyopt.System) error {
	return writeFileSynced(path, func(w io.Writer) error { return Save(w, sys) })
}

// SaveSnapshot writes one immutable campaign snapshot to w. Because a
// snapshot is frozen at publication, this is safe to call from any number of
// goroutines — including concurrently with a discovery job publishing its
// successor.
//
// The write streams straight off the columnar stores (see stream.go): peak
// memory is one table row, not the whole nested-map export, and the bytes
// are identical to what json.Encoder produced for the Snapshot struct in
// earlier releases — stream_test.go holds the two encoders equal.
func SaveSnapshot(w io.Writer, sn *anyopt.Snapshot) error {
	return writeSnapshotStream(w, sn)
}

// Load restores discovery results from r into sys, replacing any previous
// campaign. The testbed must structurally match the one that produced the
// snapshot. On success the restored campaign is atomically published as
// sys's current snapshot, so lock-free readers see it immediately.
func Load(r io.Reader, sys *anyopt.System) error {
	var snap Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("campaign: decoding snapshot: %w", err)
	}
	if snap.Version != FormatVersion {
		return fmt.Errorf("campaign: snapshot version %d, want %d", snap.Version, FormatVersion)
	}
	if snap.Sites != len(sys.TB.Sites) {
		return fmt.Errorf("campaign: snapshot has %d sites, testbed has %d", snap.Sites, len(sys.TB.Sites))
	}
	providers, err := restoreStore(snap.Providers)
	if err != nil {
		return fmt.Errorf("campaign: provider store: %w", err)
	}
	siteStores := make(map[topology.ASN]*prefs.Store, len(snap.SiteStores))
	for prov, d := range snap.SiteStores {
		st, err := restoreStore(d)
		if err != nil {
			return fmt.Errorf("campaign: site store for provider %d: %w", prov, err)
		}
		siteStores[prov] = st
	}
	rtt := discovery.ImportRTTTable(snap.RTT)
	pred := &predict.Predictor{
		TB:              sys.TB,
		Providers:       providers,
		Sites:           siteStores,
		RTT:             rtt,
		UseRTTHeuristic: snap.UseRTTHeuristic,
	}
	sys.Disc.RestoreQuarantine(snap.Quarantined)
	sys.InstallCampaign(pred, rtt, snap.AnnOrder, snap.Experiments, snap.Quarantined)
	return nil
}
