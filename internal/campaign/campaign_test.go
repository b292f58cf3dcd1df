package campaign

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"anyopt"
)

// discovered builds a system with a completed campaign (shared across tests).
var shared *anyopt.System

func discovered(t *testing.T) *anyopt.System {
	t.Helper()
	if shared == nil {
		sys, err := anyopt.New(anyopt.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RunDiscovery(); err != nil {
			t.Fatal(err)
		}
		shared = sys
	}
	return shared
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := discovered(t)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty snapshot")
	}

	// A fresh system with the same topology/testbed but no discovery.
	dst, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := Load(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}

	// The restored predictor must reproduce the original's predictions and
	// optimization outcome exactly.
	cfg := anyopt.Config{1, 3, 4, 5, 6, 10}
	a, err := src.PredictCatchments(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dst.PredictCatchments(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("prediction sizes differ: %d vs %d", len(a), len(b))
	}
	for c, site := range a {
		if b[c] != site {
			t.Fatalf("client %d: %d vs %d", c, site, b[c])
		}
	}
	optA, err := src.CurrentSnapshot().Optimize(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	optB, err := dst.CurrentSnapshot().Optimize(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	if optA.PredictedMean != optB.PredictedMean {
		t.Errorf("optimization means differ: %v vs %v", optA.PredictedMean, optB.PredictedMean)
	}
	for i := range optA.Config {
		if optA.Config[i] != optB.Config[i] {
			t.Fatalf("optimized configs differ: %v vs %v", optA.Config, optB.Config)
		}
	}
}

func TestSaveRequiresDiscovery(t *testing.T) {
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sys); err == nil {
		t.Error("saved a system without discovery results")
	}
}

// splitFrames cuts a saved campaign into its header and frame payloads.
func splitFrames(t *testing.T, file []byte) (head []byte, payloads [][]byte) {
	t.Helper()
	rest := file[len(campaignHeader):]
	for len(rest) > 0 {
		payload, after, ok := cutFrame(rest)
		if !ok {
			t.Fatalf("saved campaign has a bad frame %d bytes from the end", len(rest))
		}
		payloads = append(payloads, bytes.Clone(payload))
		rest = after
	}
	return bytes.Clone(file[:len(campaignHeader)]), payloads
}

// joinFrames seals the payloads into frames behind head.
func joinFrames(head []byte, payloads [][]byte) []byte {
	out := bytes.Clone(head)
	for _, p := range payloads {
		b := append(beginFrame(nil, p[0]), p[1:]...)
		sealFrame(b)
		out = append(out, b...)
	}
	return out
}

// TestLoadRejectsBadSnapshots edits a saved campaign in each way Save never
// writes — every edited frame resealed with a good CRC, so that the check
// under test is the one that refuses it — and wants each refused with its
// own error, without a panic.
func TestLoadRejectsBadSnapshots(t *testing.T) {
	src := discovered(t)
	var buf bytes.Buffer
	if err := Save(&buf, src); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	wrongVersion := bytes.Clone(file)
	wrongVersion[7] = 99
	head, payloads := splitFrames(t, file)
	rtt := len(payloads) - 1
	if payloads[0][0] != frameCampaign || payloads[1][0] != frameProviderStore || payloads[rtt][0] != frameRTT {
		t.Fatalf("frame types %d, %d, …, %d", payloads[0][0], payloads[1][0], payloads[rtt][0])
	}
	le := binary.LittleEndian
	// Offsets into a store payload (items, then clients, then cells) and an
	// RTT payload (sites, then clients, then the slab).
	nItems := int(le.Uint32(payloads[1][1:]))
	clients := 1 + 4 + 8*nItems + 4
	nClients := int(le.Uint32(payloads[1][clients-4:]))
	cells := clients + 8*nClients
	nPairs := nItems * (nItems - 1) / 2
	nSites := int(le.Uint32(payloads[rtt][1:]))
	slab := 1 + 4 + 8*nSites + 4 + 8*int(le.Uint32(payloads[rtt][1+4+8*nSites:]))

	edit := func(frame int, fn func(p []byte)) []byte {
		ps := slices.Clone(payloads)
		ps[frame] = bytes.Clone(ps[frame])
		fn(ps[frame])
		return joinFrames(head, ps)
	}
	swap8 := func(p []byte, i, j int) {
		a, b := bytes.Clone(p[i:i+8]), bytes.Clone(p[j:j+8])
		copy(p[i:], b)
		copy(p[j:], a)
	}
	for _, tc := range []struct {
		name, data, want string
	}{
		{"garbage", "not a campaign", "not a campaign file"},
		{"empty", "", "not a campaign file"},
		{"JSON-era file", "{\n \"version\": 1,\n \"sites\": 15\n}\n", "JSON campaign file"},
		{"wrong version", string(wrongVersion), "version 99"},
		{"wrong sites", string(edit(0, func(p []byte) { le.PutUint32(p[1:], 3) })), "3 sites"},
		{"no items", string(joinFrames(head, slices.Concat(payloads[:1], [][]byte{{frameProviderStore, 0, 0, 0, 0, 0, 0, 0, 0}}, payloads[2:]))),
			"needs at least one item"},
		{"unsorted clients", string(edit(1, func(p []byte) { swap8(p, clients, clients+8) })), "not strictly ascending"},
		{"repeated client", string(edit(1, func(p []byte) { copy(p[clients+8:], p[clients:clients+8]) })), "not strictly ascending"},
		{"cell above 3", string(edit(1, func(p []byte) { p[cells] = 4 })), "has cell 4"},
		{"row all unknown", string(edit(1, func(p []byte) { clear(p[cells : cells+nPairs]) })), "no known relation"},
		{"unsorted sites", string(edit(rtt, func(p []byte) { swap8(p, 5, 13) })), "site column is not strictly ascending"},
		{"RTT below -1", string(edit(rtt, func(p []byte) { le.PutUint64(p[slab:], uint64(0xFFFFFFFFFFFFFFFE)) })), "RTT -2"},
		{"client no site measured", string(edit(rtt, func(p []byte) {
			nRTTClients := (len(p) - slab) / 8 / nSites
			for si := 0; si < nSites; si++ {
				le.PutUint64(p[slab+8*si*nRTTClients:], uint64(0xFFFFFFFFFFFFFFFF))
			}
		})), "no site measured client"},
		{"flag byte 2", string(edit(0, func(p []byte) { p[5] = 2 })), "malformed campaign frame"},
		{"flipped CRC bit", string(func() []byte {
			b := bytes.Clone(file)
			b[len(campaignHeader)+4] ^= 1
			return b
		}()), "checksum"},
		{"frame length past the end", string(func() []byte {
			b := bytes.Clone(file)
			le.PutUint32(b[len(campaignHeader):], uint32(len(file)))
			return b
		}()), "torn"},
		{"truncated", string(file[:len(file)-1]), "torn"},
		{"trailing bytes", string(append(bytes.Clone(file), 0)), "after the last frame"},
		{"missing RTT frame", string(joinFrames(head, payloads[:rtt])), "ends before its frame of type 4"},
	} {
		sys, err := anyopt.New(anyopt.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		err = Load(strings.NewReader(tc.data), sys)
		switch {
		case err == nil:
			t.Errorf("%s: loaded successfully", tc.name)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: refused with %q, want an error naming %q", tc.name, err, tc.want)
		case sys.CurrentSnapshot() != nil:
			t.Errorf("%s: refused, but a campaign was published", tc.name)
		}
	}
}

func TestSnapshotIsStable(t *testing.T) {
	src := discovered(t)
	var a, b bytes.Buffer
	if err := Save(&a, src); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two saves of the same campaign differ; serialization is not deterministic")
	}
}

// TestSaveFileReplacesWholeOrNotAtAll: SaveFile writes what Save writes and
// leaves no temp file behind; a save that fails leaves the previous file as
// it was, never a truncated campaign.
func TestSaveFileReplacesWholeOrNotAtAll(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "campaign.bin")
	if err := os.WriteFile(path, []byte("previous"), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(what string, want []byte) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: file is %d bytes (err %v), want %d", what, len(got), err, len(want))
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Errorf("%s: directory holds %d entries, want only the campaign file", what, len(ents))
		}
	}
	undiscovered, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, undiscovered); err == nil {
		t.Fatal("saved a system with no campaign")
	}
	check("failed save", []byte("previous"))

	src := discovered(t)
	var want bytes.Buffer
	if err := Save(&want, src); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, src); err != nil {
		t.Fatal(err)
	}
	check("save", want.Bytes())
}
