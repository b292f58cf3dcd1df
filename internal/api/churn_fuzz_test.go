package api

import (
	"bytes"
	"testing"

	"anyopt"
	"anyopt/internal/fault"
)

// FuzzChurnDecode stands at POST /v1/churn's door: whatever the body,
// decoding, planning and applying neither panic nor stall, a planned batch is
// never larger than asked and never larger than maxChurnCount, and every
// event ApplyChurn lets through names a link or a policy edge the topology
// has. Applied batches stay on the topology, so later inputs plan against a
// churned one. The seed corpus is the bodies the api tests and the benchmark
// post.
func FuzzChurnDecode(f *testing.F) {
	sys, err := anyopt.New(anyopt.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	topo := sys.Topo
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeChurn(bytes.NewReader(body))
		if err != nil {
			return
		}
		if req.Count < 1 || req.Count > maxChurnCount || len(req.kinds) != len(req.Kinds) {
			t.Fatalf("%q: decoded to count %d, kinds %v of %v", body, req.Count, req.kinds, req.Kinds)
		}
		events, err := req.batch(topo)
		if err != nil {
			return
		}
		if len(events) == 0 || (len(req.Events) == 0 && len(events) > req.Count) {
			t.Fatalf("%q: %d events for a count of %d", body, len(events), req.Count)
		}
		if _, err := fault.ApplyChurn(topo, events); err != nil {
			return
		}
		for _, ev := range events {
			switch ev.Kind {
			case fault.ChurnLinkCost, fault.ChurnLinkDown, fault.ChurnLinkUp:
				if topo.Link(ev.Link) == nil || (ev.Kind == fault.ChurnLinkCost && ev.NewDelay <= 0) {
					t.Fatalf("%q: let through %+v", body, ev)
				}
			case fault.ChurnPolicyFlip:
				if topo.AS(ev.AS) == nil || topo.AS(ev.Neighbor) == nil {
					t.Fatalf("%q: let through %+v", body, ev)
				}
			default:
				t.Fatalf("%q: let through an event of unknown kind: %+v", body, ev)
			}
		}
	})
}
