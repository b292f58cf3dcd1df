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

// TestCampaignBytesPinned holds campaign.Save at DefaultOptions() to the
// SHA-256 recorded at the commit before experiment results became dense
// sweeps (177d5a9), fault-free and under both fault scenarios at fault seed
// 1, at one and four workers. Anything between the probe and the stores that
// moves a measured row, a quorum decision or a quarantine moves these bytes.
// A change that legitimately alters the measurements (a new RNG stream, a
// different schedule) re-records the hashes and says why.
func TestCampaignBytesPinned(t *testing.T) {
	pinned := map[string]string{
		"none":  "9eadd86049e44d8dccd256db6f0f0608a087c6b61edfc55a2740cbba6c820a1c",
		"paper": "c731379acce3085e4b078507d233f6c3a7a97f898549318d370f8e4c022fcab9",
		"harsh": "0f3aeea3980b60f783ac3b00ecfa966efef00d22606ca04f5ecb223a91be9035",
	}
	for _, scenario := range []string{"none", "paper", "harsh"} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", scenario, workers), func(t *testing.T) {
				sys, err := anyopt.New(anyopt.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				if sys.Disc.Cfg.Faults, err = fault.Scenario(scenario, 1); err != nil {
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
				if got := hex.EncodeToString(sum[:]); got != pinned[scenario] {
					t.Errorf("campaign.Save is %d bytes with SHA-256 %s, pinned %s", buf.Len(), got, pinned[scenario])
				}
			})
		}
	}
}
