package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"anyopt"
)

// The seed corpora under testdata/fuzz/ are real files — a journal and a
// saved campaign this package wrote, and a campaign file of format version 1
// (JSON) that Load must refuse — in the Go fuzzing corpus format, so
// `go test` runs them as unit tests and the fuzzer mutates from well-formed
// input. TestFuzzSeedsAreLive fails when a format change has made them stale.

// fuzzSystem is the smallest system the campaign seed was saved from (with
// site 7 quarantined, "operator pull"): the full 15-site testbed on an
// Internet of a dozen stub networks, so the seed stays a few tens of
// kilobytes.
func fuzzSystem(t testing.TB) *anyopt.System {
	t.Helper()
	opts := anyopt.DefaultOptions()
	opts.Topology.NumStub = 120
	sys, err := anyopt.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// readSeed returns the bytes of a single-[]byte corpus file.
func readSeed(t *testing.T, fuzzer, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", fuzzer, name))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok2 := strings.CutPrefix(lit, "[]byte(")
	lit, ok3 := strings.CutSuffix(lit, ")")
	s, err := strconv.Unquote(lit)
	if !ok || !ok2 || !ok3 || err != nil {
		t.Fatalf("%s/%s is not a one-[]byte corpus file: %v", fuzzer, name, err)
	}
	return []byte(s)
}

func TestFuzzSeedsAreLive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seed.ckpt")
	if err := os.WriteFile(path, readSeed(t, "FuzzCheckpointOpen", "journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := NewCheckpoint(path)
	if err != nil || ck.Len() < 2 || ck.Dropped() != 0 || len(ck.PendingPatches()) != 1 {
		t.Errorf("journal seed: err %v, %d experiments, %d bytes dropped, %d pending patches; want a whole journal",
			err, ck.Len(), ck.Dropped(), len(ck.PendingPatches()))
	}
	for nonce := range ck.index {
		if ent, ok := ck.Lookup(nonce); !ok || ent.Result.RTT == nil {
			t.Errorf("journal seed: experiment %d does not read back", nonce)
		}
	}
	sys := fuzzSystem(t)
	if err := Load(bytes.NewReader(readSeed(t, "FuzzCampaignLoad", "campaign")), sys); err != nil {
		t.Errorf("campaign seed no longer loads: %v", err)
	} else if len(sys.CurrentSnapshot().Pred.Sites) == 0 || len(sys.Disc.Quarantined()) != 1 {
		t.Errorf("campaign seed loads without site stores or without its quarantined site")
	}
	err = Load(bytes.NewReader(readSeed(t, "FuzzCampaignLoad", "json-v1")), sys)
	if err == nil || !strings.Contains(err.Error(), "JSON") {
		t.Errorf("json-v1 seed: Load returned %v, want a refusal naming JSON", err)
	}
}

// FuzzCheckpointOpen hands NewCheckpoint arbitrary bytes as a checkpoint
// file. It never panics; it never allocates for a frame more than the file
// holds; a refused file is left as it was; and what opens is a fixed point —
// every indexed experiment reads back or is a miss, and a second open finds
// the same index with nothing further to truncate.
func FuzzCheckpointOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := NewCheckpoint(path)
		after, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(after, data) {
				t.Fatalf("refused with %v, but the file changed", err)
			}
			return
		}
		if cap(ck.buf) > len(data) {
			t.Fatalf("a %d-byte file grew the frame buffer to %d bytes", len(data), cap(ck.buf))
		}
		if !bytes.HasPrefix(data, after) || int64(len(data)-len(after)) != ck.Dropped() {
			t.Fatalf("opened file is not the input less the %d bytes dropped", ck.Dropped())
		}
		for nonce := range ck.index {
			ck.Lookup(nonce)
		}
		again, err := NewCheckpoint(path)
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		if again.Dropped() != 0 || !reflect.DeepEqual(again.index, ck.index) ||
			!reflect.DeepEqual(again.PendingPatches(), ck.PendingPatches()) {
			t.Fatalf("second open differs: dropped %d more bytes, %d vs %d experiments, %d vs %d pending patches",
				again.Dropped(), again.Len(), ck.Len(), len(again.PendingPatches()), len(ck.PendingPatches()))
		}
	})
}

// FuzzCampaignLoad hands Load's decode and install arbitrary bytes as a saved
// campaign. They never panic; the columns decode makes never hold more bytes
// than the input does, and none of them is a window of it; and the encoding
// is canonical — what they accept, Save writes back byte for byte.
func FuzzCampaignLoad(f *testing.F) {
	sys := fuzzSystem(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.Clone(data)
		s, err := decode(in)
		if err != nil {
			return
		}
		if n := columnBytes(s); n > len(data) {
			t.Fatalf("a %d-byte file decoded into %d bytes of columns", len(data), n)
		}
		if err := s.install(sys); err != nil {
			return
		}
		clear(in) // the installed campaign must not read it
		var out bytes.Buffer
		if err := Save(&out, sys); err != nil {
			t.Fatalf("Load accepted a campaign Save rejects: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			off, _, _ := firstDiff(data, out.Bytes())
			t.Fatalf("Load accepted %d bytes that Save writes back as %d, differing from offset %d", len(data), out.Len(), off)
		}
	})
}

// columnBytes is the size of the columns decode made for s.
func columnBytes(s *saved) int {
	n := 8 * (cap(s.annOrder) + cap(s.rttSites) + cap(s.rttClients) + cap(s.rtt))
	for _, why := range s.quarantined {
		n += 8 + len(why)
	}
	for _, st := range append([]savedStore{s.providers}, s.siteStores...) {
		n += 8*(cap(st.items)+cap(st.clients)) + cap(st.cells)
	}
	return n
}
