package campaign

import (
	"bytes"
	"os"
	"path/filepath"
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

func TestLoadRejectsBadSnapshots(t *testing.T) {
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"garbage":        "not json",
		"wrong version":  `{"version": 99, "sites": 15}`,
		"wrong sites":    `{"version": 1, "sites": 3}`,
		"bad provider":   `{"version": 1, "sites": 15, "providers": {"items": [], "relations": []}}`,
		"unknown winner": `{"version": 1, "sites": 15, "providers": {"items": [1, 2], "relations": [{"c": 7, "i": 1, "j": 2, "r": 1, "w": 9}]}}`,
	}
	for name, data := range cases {
		if err := Load(strings.NewReader(data), sys); err == nil {
			t.Errorf("%s: loaded successfully", name)
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
	path := filepath.Join(dir, "campaign.json")
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
