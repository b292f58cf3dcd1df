// Package campaign persists and restores the outputs of a measurement
// campaign — provider- and site-level preference stores, the RTT table, and
// the chosen announcement order — as a file of checksummed binary frames, the
// framing the checkpoint journal uses too.
//
// A real AnyOpt campaign costs weeks of wall-clock BGP experiments (§4.5),
// so its results are an asset: operators re-run the offline optimization
// against saved measurements whenever requirements change, and only
// re-measure on the paper's monthly cadence. Save/Load makes the predictor
// reproducible from a file.
package campaign

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"anyopt"
	"anyopt/internal/core/discovery"
	"anyopt/internal/core/predict"
	"anyopt/internal/core/prefs"
	"anyopt/internal/topology"
)

// FormatVersion guards against loading incompatible campaign files. Version
// 2 is the frame file described on SaveSnapshot; version 1 was an indented
// JSON document and is refused, not read.
const FormatVersion = 2

// campaignHeader opens every campaign file: seven magic bytes and the
// version.
var campaignHeader = [8]byte{'A', 'N', 'Y', 'O', 'P', 'T', 'C', FormatVersion}

// The campaign file's frame types (frame.go has the layout), in the order
// the frames appear. Every number is fixed-width little-endian; a column is
// a u32 count and then its values, an item, client, site or RTT as an i64.
const (
	// frameCampaign: u32 site count, u8 use_rtt_heuristic (0 or 1), i64
	// experiments, the announcement order as a column, then a u32 count of
	// quarantined sites and, per site ascending, its i64 ID and its reason
	// as a u32 length and bytes.
	frameCampaign byte = 1
	// frameProviderStore: the provider store's items as a column, its
	// client column, then its relation cells (prefs.Store.Columns), one
	// byte each, to the end of the frame.
	frameProviderStore byte = 2
	// frameSiteStore: the i64 ASN of the provider, then the layout of
	// frameProviderStore. One per site store, by provider ASN ascending.
	frameSiteStore byte = 3
	// frameRTT: the site column, the client column, then the sites ×
	// clients slab of RTT nanoseconds, −1 for an unmeasured cell, to the end
	// of the frame (discovery.RTTTable.Columns).
	frameRTT byte = 4
)

// Save writes sys's current campaign snapshot to w, quarantine included as
// the snapshot records it. RunDiscovery must have been executed.
func Save(w io.Writer, sys *anyopt.System) error {
	sn := sys.CurrentSnapshot()
	if sn == nil {
		return fmt.Errorf("campaign: system has no discovery results to save")
	}
	return SaveSnapshot(w, sn)
}

// SaveFile saves sys's discovery results to path so that a crash leaves the
// previous file or the whole new one, never a truncated campaign: see
// writeFileSynced.
func SaveFile(path string, sys *anyopt.System) error {
	return writeFileSynced(path, func(w io.Writer) error { return Save(w, sys) })
}

// SaveSnapshot writes one immutable campaign snapshot to w: the header, then
// a frameCampaign, a frameProviderStore, the frameSiteStores and a frameRTT.
// Every column is written as the store or table holds it, so equal campaigns
// give equal bytes. One frame is in memory at a time. Because a snapshot is
// frozen at publication, this is safe to call from any number of goroutines
// — including concurrently with a discovery job publishing its successor.
func SaveSnapshot(w io.Writer, sn *anyopt.Snapshot) error {
	if _, err := w.Write(campaignHeader[:]); err != nil {
		return fmt.Errorf("campaign: writing snapshot: %w", err)
	}
	var buf []byte
	write := func(b []byte) error {
		sealFrame(b)
		buf = b
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("campaign: writing snapshot: %w", err)
		}
		return nil
	}

	b := binary.LittleEndian.AppendUint32(beginFrame(nil, frameCampaign), uint32(len(sn.TB.Sites)))
	heuristic := byte(0)
	if sn.Pred.UseRTTHeuristic {
		heuristic = 1
	}
	b = binary.LittleEndian.AppendUint64(append(b, heuristic), uint64(sn.Experiments))
	b = appendColumn(b, sn.AnnOrder)
	quarantined := make([]int, 0, len(sn.Quarantined))
	for id := range sn.Quarantined {
		quarantined = append(quarantined, id)
	}
	slices.Sort(quarantined)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(quarantined)))
	for _, id := range quarantined {
		b = binary.LittleEndian.AppendUint64(b, uint64(id))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(sn.Quarantined[id])))
		b = append(b, sn.Quarantined[id]...)
	}
	if err := write(b); err != nil {
		return err
	}

	if err := write(appendStore(beginFrame(buf[:0], frameProviderStore), sn.Pred.Providers)); err != nil {
		return err
	}
	provs := make([]topology.ASN, 0, len(sn.Pred.Sites))
	for p, st := range sn.Pred.Sites {
		if st != nil {
			provs = append(provs, p)
		}
	}
	slices.Sort(provs)
	for _, p := range provs {
		b := binary.LittleEndian.AppendUint64(beginFrame(buf[:0], frameSiteStore), uint64(p))
		if err := write(appendStore(b, sn.Pred.Sites[p])); err != nil {
			return err
		}
	}

	sites, clients, slab := sn.RTT.Columns()
	b = appendColumn(appendColumn(beginFrame(buf[:0], frameRTT), sites), clients)
	return write(appendWords(b, slab))
}

// appendStore appends a store's items, client column and relation cells.
func appendStore(b []byte, s *prefs.Store) []byte {
	clients, cells := s.Columns()
	return append(appendColumn(appendColumn(b, s.Items()), clients), cells...)
}

// word is what the file writes as an i64.
type word interface {
	~int | ~int64
}

// appendColumn appends col as a u32 count and the values.
func appendColumn[T word](b []byte, col []T) []byte {
	return appendWords(binary.LittleEndian.AppendUint32(b, uint32(len(col))), col)
}

// appendWords appends the values of col.
func appendWords[T word](b []byte, col []T) []byte {
	b = slices.Grow(b, 8*len(col))
	for _, v := range col {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// readColumn reads a column written by appendColumn into a fresh slice.
func readColumn[T word](r *frameReader) []T {
	return readWords[T](r, uint64(r.count(8)))
}

// readWords reads n values written by appendWords into a fresh slice, made
// only once the payload is known to hold them.
func readWords[T word](r *frameReader, n uint64) []T {
	if n > uint64(len(r.b)/8) {
		r.bad = true
	}
	b := r.take(8 * n)
	if r.bad {
		return nil
	}
	col := make([]T, n)
	for i := range col {
		col[i] = T(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return col
}

// saved is a campaign file cut into its columns: fresh slices, none of them
// a window of the file, not yet checked by the stores and table they build.
type saved struct {
	sites           int
	useRTTHeuristic bool
	experiments     int
	annOrder        []prefs.Item
	quarantined     map[int]string
	providers       savedStore
	siteStores      []savedStore
	rttSites        []int
	rttClients      []prefs.Client
	rtt             []int64
}

// savedStore is the columns of one preference store.
type savedStore struct {
	provider topology.ASN // site stores only
	items    []prefs.Item
	clients  []prefs.Client
	cells    []byte
}

// readStore reads the columns of a store frame; its cells run to the end of
// the payload and must be a whole number of rows.
func readStore(r *frameReader, st *savedStore) {
	st.items = readColumn[prefs.Item](r)
	st.clients = readColumn[prefs.Client](r)
	perRow, rows := len(st.items)*(len(st.items)-1)/2, 0
	if perRow > 0 {
		rows = len(r.b) / perRow
	}
	if r.bad || rows != len(st.clients) || rows*perRow != len(r.b) {
		r.bad = true
		return
	}
	st.cells = make([]byte, len(r.b))
	copy(st.cells, r.take(uint64(len(r.b))))
}

// decode cuts a campaign file into its columns. It reads the frames in the
// one order SaveSnapshot writes them, checks each frame's length and CRC
// before it reads anything out of it, and refuses anything SaveSnapshot
// would not have written: an unknown, missing, repeated or misplaced frame,
// bytes left over in a frame or after the last one, a flag byte other than
// 0 or 1, quarantined sites or site-store providers out of order.
func decode(data []byte) (*saved, error) {
	head := data[:min(len(data), len(campaignHeader))]
	switch {
	case bytes.Equal(head, campaignHeader[:]):
	case len(head) == len(campaignHeader) && bytes.Equal(head[:7], campaignHeader[:7]):
		return nil, fmt.Errorf("campaign: snapshot version %d, want %d", head[7], FormatVersion)
	case bytes.HasPrefix(bytes.TrimSpace(data), []byte("{")):
		return nil, fmt.Errorf("campaign: snapshot is a JSON campaign file (format version 1), which is not read; run discovery again and save it")
	default:
		return nil, fmt.Errorf("campaign: not a campaign file")
	}
	rest := data[len(campaignHeader):]
	next := func(want byte) (*frameReader, error) {
		if len(rest) == 0 {
			return nil, fmt.Errorf("campaign: file ends before its frame of type %d", want)
		}
		payload, after, ok := cutFrame(rest)
		if !ok {
			return nil, fmt.Errorf("campaign: frame at offset %d is torn or fails its checksum", len(data)-len(rest))
		}
		if len(payload) == 0 || payload[0] != want {
			return nil, fmt.Errorf("campaign: frame at offset %d is not of type %d", len(data)-len(rest), want)
		}
		rest = after
		return &frameReader{b: payload[1:]}, nil
	}
	malformed := func(what string) error { return fmt.Errorf("campaign: malformed %s frame", what) }

	s := &saved{}
	r, err := next(frameCampaign)
	if err != nil {
		return nil, err
	}
	s.sites = int(r.u32())
	switch flag := r.u8(); flag {
	case 0, 1:
		s.useRTTHeuristic = flag == 1
	default:
		r.bad = true
	}
	s.experiments = int(r.u64())
	s.annOrder = readColumn[prefs.Item](r)
	if n := r.count(12); n > 0 {
		s.quarantined = make(map[int]string, n)
		for i, prev := 0, 0; i < n && !r.bad; i++ {
			id := int(r.u64())
			why := r.take(uint64(r.u32()))
			if i > 0 && id <= prev {
				r.bad = true
			}
			s.quarantined[id], prev = string(why), id
		}
	}
	if r.bad || len(r.b) > 0 {
		return nil, malformed("campaign")
	}

	if r, err = next(frameProviderStore); err != nil {
		return nil, err
	}
	if readStore(r, &s.providers); r.bad {
		return nil, malformed("provider store")
	}
	for len(rest) > frameHeaderLen && rest[frameHeaderLen] == frameSiteStore {
		if r, err = next(frameSiteStore); err != nil {
			return nil, err
		}
		st := savedStore{provider: topology.ASN(r.u64())}
		readStore(r, &st)
		if n := len(s.siteStores); n > 0 && st.provider <= s.siteStores[n-1].provider {
			r.bad = true
		}
		if r.bad {
			return nil, malformed("site store")
		}
		s.siteStores = append(s.siteStores, st)
	}

	if r, err = next(frameRTT); err != nil {
		return nil, err
	}
	s.rttSites = readColumn[int](r)
	s.rttClients = readColumn[prefs.Client](r)
	s.rtt = readWords[int64](r, uint64(len(s.rttSites))*uint64(len(s.rttClients)))
	if r.bad || len(r.b) > 0 {
		return nil, malformed("RTT")
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("campaign: %d bytes after the last frame", len(rest))
	}
	return s, nil
}

// Load restores discovery results from r into sys, replacing any previous
// campaign. It reads r to the end once, decodes it and builds the stores and
// the RTT table from the decoded columns, which keep no reference to what was
// read. The testbed must have as many sites as the one that produced the
// snapshot. On success the restored campaign is atomically published as
// sys's current snapshot, so lock-free readers see it immediately.
func Load(r io.Reader, sys *anyopt.System) error {
	// A bytes.Buffer doubles as it reads where io.ReadAll grows by a quarter,
	// which halves what a load allocates at the internet tier.
	var in bytes.Buffer
	if _, err := in.ReadFrom(r); err != nil {
		return fmt.Errorf("campaign: reading snapshot: %w", err)
	}
	s, err := decode(in.Bytes())
	if err != nil {
		return err
	}
	return s.install(sys)
}

// install hands the decoded columns to the stores and the RTT table they
// build, which check them and own them from then on, and publishes the
// campaign on sys.
func (s *saved) install(sys *anyopt.System) error {
	if s.sites != len(sys.TB.Sites) {
		return fmt.Errorf("campaign: snapshot has %d sites, testbed has %d", s.sites, len(sys.TB.Sites))
	}
	providers, err := prefs.NewStoreColumns(s.providers.items, s.providers.clients, s.providers.cells)
	if err != nil {
		return fmt.Errorf("campaign: provider store: %w", err)
	}
	siteStores := make(map[topology.ASN]*prefs.Store, len(s.siteStores))
	for _, d := range s.siteStores {
		st, err := prefs.NewStoreColumns(d.items, d.clients, d.cells)
		if err != nil {
			return fmt.Errorf("campaign: site store for provider %d: %w", d.provider, err)
		}
		siteStores[d.provider] = st
	}
	rtt, err := discovery.NewRTTTableColumns(s.rttSites, s.rttClients, s.rtt)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	pred := &predict.Predictor{
		TB:              sys.TB,
		Providers:       providers,
		Sites:           siteStores,
		RTT:             rtt,
		UseRTTHeuristic: s.useRTTHeuristic,
	}
	sys.Disc.RestoreQuarantine(s.quarantined)
	sys.InstallCampaign(pred, rtt, s.annOrder, s.experiments, s.quarantined)
	return nil
}
