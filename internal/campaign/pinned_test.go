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
	for _, tc := range []struct {
		name, faults string
		noisy        bool
		sha          string
	}{
		{"none", "none", true, "9eadd86049e44d8dccd256db6f0f0608a087c6b61edfc55a2740cbba6c820a1c"},
		{"paper", "paper", true, "c731379acce3085e4b078507d233f6c3a7a97f898549318d370f8e4c022fcab9"},
		{"harsh", "harsh", true, "0f3aeea3980b60f783ac3b00ecfa966efef00d22606ca04f5ecb223a91be9035"},
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
