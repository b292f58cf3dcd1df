package orchestrator

import (
	"context"
	"errors"
	"testing"
	"time"
)

// flakySessions injects a session reset before the first maxResets control
// messages.
type flakySessions struct {
	resets    int
	maxResets int
}

func (f *flakySessions) ResetSession(siteID int) bool {
	if f.resets >= f.maxResets {
		return false
	}
	f.resets++
	return true
}

func TestSessionResetSelfHeals(t *testing.T) {
	o, tb, sim := setup(t)
	o.Chaos = &flakySessions{maxResets: 3}

	// Every message rides a freshly re-established session for the first
	// three sends; the deployment must still land exactly.
	for _, siteID := range []int{1, 4, 6} {
		if err := o.Announce(siteID, 0, 0, 0); err != nil {
			t.Fatalf("announce site %d across session reset: %v", siteID, err)
		}
		if n := o.Flush(6 * time.Minute); n != 1 {
			t.Fatalf("flush applied %d actions, want 1", n)
		}
	}
	if o.SessionResets != 3 {
		t.Errorf("SessionResets = %d, want 3", o.SessionResets)
	}
	if got := len(sim.AppendAnnouncedLinks(0, nil)); got != 3 {
		t.Fatalf("announced links = %d, want 3", got)
	}

	// The healed control plane must produce the same catchments as one that
	// never failed.
	viaChaos := sim.CatchmentMap(0, tb.Topo.Targets)
	o2, _, sim2 := setup(t)
	for _, siteID := range []int{1, 4, 6} {
		if err := o2.Announce(siteID, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
		o2.Flush(6 * time.Minute)
	}
	calm := sim2.CatchmentMap(0, tb.Topo.Targets)
	if len(viaChaos) != len(calm) {
		t.Fatalf("catchment sizes differ: %d vs %d", len(viaChaos), len(calm))
	}
	for asn, link := range calm {
		if viaChaos[asn] != link {
			t.Fatalf("AS%d: catchment %d with resets != %d without", asn, viaChaos[asn], link)
		}
	}
}

func TestResetSiteUnknown(t *testing.T) {
	o, _, _ := setup(t)
	if err := o.ResetSite(99); err == nil {
		t.Error("reset of unknown site accepted")
	}
}

func TestFlushContextReportsPendingPerSite(t *testing.T) {
	o, _, _ := setup(t)

	// Model a control message lost in flight at site 3: counted as sent, but
	// its router never decodes it (a real session would wedge exactly this
	// way between the speaker's write and the router's read).
	o.sent.Add(1)
	o.tallies[3].sent.Add(1)
	if err := o.Announce(1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	n, err := o.FlushContext(ctx, time.Minute)
	var fe *FlushError
	if !errors.As(err, &fe) {
		t.Fatalf("FlushContext err = %v, want *FlushError", err)
	}
	if len(fe.Sites) != 1 || fe.Sites[0].SiteID != 3 || fe.Sites[0].Pending != 1 {
		t.Fatalf("pending sites = %+v, want site 3 with 1 pending", fe.Sites)
	}
	if msg := fe.Error(); msg == "" {
		t.Error("empty FlushError message")
	}
	// The healthy site's action was decoded and still applied — degradation
	// is partial, not total.
	if n != 1 {
		t.Fatalf("deadline flush applied %d actions, want 1 (site 1's announce)", n)
	}

	// Self-heal: acknowledge the lost message, re-establish the session, and
	// the control plane is clean again.
	o.decoded.Add(1)
	o.tallies[3].decoded.Add(1)
	if err := o.ResetSite(3); err != nil {
		t.Fatal(err)
	}
	if err := o.Announce(3, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	n, err = o.FlushContext(context.Background(), time.Minute)
	if err != nil || n != 1 {
		t.Fatalf("flush after heal: n=%d err=%v", n, err)
	}
}

func TestFlushContextCleanReturnsNoError(t *testing.T) {
	o, _, _ := setup(t)
	if err := o.Announce(1, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	n, err := o.FlushContext(context.Background(), time.Minute)
	if err != nil {
		t.Fatalf("clean flush returned %v", err)
	}
	if n != 1 {
		t.Fatalf("applied %d actions, want 1", n)
	}
}
