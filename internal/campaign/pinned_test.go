package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"anyopt"
	"anyopt/internal/fault"
)

// TestCampaignBytesPinned holds campaign.Save at DefaultOptions() to
// recorded SHA-256s, fault-free and under both fault scenarios at fault seed
// 1, at one and four workers. Anything between the probe and the stores that
// moves a measured row, a quorum decision or a quarantine moves these bytes.
// A change that legitimately alters the measurements (a new RNG stream, a
// different schedule) re-records the hashes and says why.
//
// Each case checks two hashes. legacy is the campaign file of format version
// 1 (indented JSON): the saved frames are loaded and marshalled through
// legacyMarshal. frames is the saved file itself, format version 2, recorded
// when frames replaced JSON — a change of format that left every legacy hash
// as it was.
//
// none, paper and harsh were first recorded at 177d5a9, the commit before
// experiment results became dense sweeps, and re-recorded once since, by the
// change on top of cea8957 that moved the per-target noise and probe-loss
// streams from a reseeded math/rand source onto internal/splitmix: every
// noise and loss draw changed, nothing else did — which the noise-free case,
// recorded at cea8957 and identical after that change, is there to show.
func TestCampaignBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name, faults  string
		noisy         bool
		legacy, frame string
	}{
		{"none", "none", true,
			"96c4f622d819d6c49dd2e17fd8b8a8fc3bdbcc9f1e09c88fa6cb53a6a15a4976",
			"fa750e8ea6c2e5adb4a7fa1eb67327c5b07d1b5966df57615db42a7a381b0514"},
		{"paper", "paper", true,
			"932e8099e9dc06263cf69cc4900f04518df773d6dd9d61f7e161027f729cab14",
			"b1242c2f64cbdf36efe0147e2bd432ac7a8667b72eed6d0e966a5d09bc10e2fd"},
		{"harsh", "harsh", true,
			"afc03eca96316bbcb338728d13e9b8f94764905fa89d0c6217df5ef63247c13a",
			"74fe1cadfb445c71aca76dde2decf51a72499a9f7454593a9e21dca0f8f00a40"},
		// No noise model and no injector: no measurement generator is ever
		// consulted, so these hashes move only when routing, the schedule or
		// the stores do. They must survive any re-recording of the three above.
		{"noise-free", "none", false,
			"19c6f0a1d9549f756186e87058b01bdabc076ee7a5611eeaafc48c6aca4ba521",
			"e43b7257974e426de78e2696253141415e8cc842b21004ff1950c395bd9483d4"},
	} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				opts := anyopt.DefaultOptions()
				opts.Discovery.Noisy = tc.noisy
				sys, err := anyopt.New(opts)
				if err != nil {
					t.Fatal(err)
				}
				if sys.Disc.Cfg.Faults, err = fault.Scenario(tc.faults, 1); err != nil {
					t.Fatal(err)
				}
				sys.Disc.SetWorkers(workers)
				if err := sys.RunDiscovery(); err != nil {
					t.Fatal(err)
				}
				if err := sys.Disc.Err(); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := Save(&buf, sys); err != nil {
					t.Fatal(err)
				}
				if got := sha(buf.Bytes()); got != tc.frame {
					t.Errorf("campaign.Save is %d bytes with SHA-256 %s, pinned %s", buf.Len(), got, tc.frame)
				}
				loaded, err := anyopt.New(opts)
				if err != nil {
					t.Fatal(err)
				}
				if err := Load(&buf, loaded); err != nil {
					t.Fatal(err)
				}
				legacy := legacyMarshal(t, loaded.CurrentSnapshot())
				if got := sha(legacy); got != tc.legacy {
					t.Errorf("the loaded campaign marshals to %d bytes of version 1 with SHA-256 %s, pinned %s", len(legacy), got, tc.legacy)
				}
			})
		}
	}
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
