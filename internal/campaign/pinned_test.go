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

// TestCampaignBytesPinned holds campaign.Save at DefaultOptions() to a
// recorded SHA-256, fault-free and under both fault scenarios at fault seed
// 1, at one and four workers. Anything between the probe and the stores that
// moves a measured row, a quorum decision or a quarantine moves these bytes.
// A change that legitimately alters the measurements (a new RNG stream, a
// different schedule) re-records the hashes and says why.
//
// none, paper and harsh were first recorded at 177d5a9, the commit before
// experiment results became dense sweeps, and re-recorded once since, by the
// change on top of cea8957 that moved the per-target noise and probe-loss
// streams from a reseeded math/rand source onto internal/splitmix: every
// noise and loss draw changed, nothing else did — which the noise-free case,
// recorded at cea8957 and identical after that change, is there to show.
func TestCampaignBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		name, faults string
		noisy        bool
		sha          string
	}{
		{"none", "none", true, "96c4f622d819d6c49dd2e17fd8b8a8fc3bdbcc9f1e09c88fa6cb53a6a15a4976"},
		{"paper", "paper", true, "932e8099e9dc06263cf69cc4900f04518df773d6dd9d61f7e161027f729cab14"},
		{"harsh", "harsh", true, "afc03eca96316bbcb338728d13e9b8f94764905fa89d0c6217df5ef63247c13a"},
		// No noise model and no injector: no measurement generator is ever
		// consulted, so this hash moves only when routing, the schedule or
		// the stores do. It must survive any re-recording of the three above.
		{"noise-free", "none", false, "19c6f0a1d9549f756186e87058b01bdabc076ee7a5611eeaafc48c6aca4ba521"},
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
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != tc.sha {
					t.Errorf("campaign.Save is %d bytes with SHA-256 %s, pinned %s", buf.Len(), got, tc.sha)
				}
			})
		}
	}
}
