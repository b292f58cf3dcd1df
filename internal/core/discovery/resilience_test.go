package discovery

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"anyopt/internal/fault"
)

// refRowVote is the naive reference the typed quorum is held to: replay one
// row's votes one at a time against a ballot list in first-appearance order.
// The row locks (lockedAt = attempt index) on the first value to gather k
// votes; otherwise it falls to the plurality ballot, earliest winning ties.
func refRowVote(votes []row, k int) (val row, lockedAt int) {
	type ballot struct {
		v row
		n int
	}
	var ballots []ballot
	for t, v := range votes {
		i := slices.IndexFunc(ballots, func(b ballot) bool { return b.v == v })
		if i < 0 {
			ballots = append(ballots, ballot{v: v})
			i = len(ballots) - 1
		}
		if ballots[i].n++; ballots[i].n >= k {
			return v, t
		}
	}
	best := 0
	for i := range ballots {
		if ballots[i].n > ballots[best].n {
			best = i
		}
	}
	return ballots[best].v, -1
}

// scriptedQuorum runs the real runQuorum over a scripted attempt sequence and
// returns the accepted sweep, the number of attempts it ran, and the
// experiment's trace.
func scriptedQuorum(t *testing.T, script []Sweep, k, n int) (Sweep, int, []string) {
	t.Helper()
	d := &Discovery{Cfg: Config{
		Faults:  &fault.Config{ProbeLossProb: 0.5}, // any enabled class: quorum on
		QuorumK: k, QuorumN: n,
	}}
	e := &Exp{d: d, nonce: 1}
	calls := 0
	got, err := d.runQuorum(e, 0, func(a *Exp, _ int) Sweep {
		calls++
		return script[a.attempt]
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(calls - 1); d.QuorumRetries() != want {
		t.Fatalf("QuorumRetries = %d after %d attempts", d.QuorumRetries(), calls)
	}
	return got, calls, e.trace.Entries()
}

// TestRowQuorumMatchesNaiveReplay drives the typed per-row quorum with random
// per-attempt columns and holds every accepted row, the attempt count and the
// plurality log line to the one-vote-at-a-time reference. Each trial plants
// the cases the dense representation must get right without special-casing:
// a row no attempt answers (a filtered target), a value that first appears
// only after K unanswered attempts (the row must stay unanswered), and a tie.
func TestRowQuorumMatchesNaiveReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(3)
		n := k + rng.Intn(4)
		nRows := 3 + rng.Intn(12)
		withSite, withLink, withRTT := true, rng.Intn(2) == 0, rng.Intn(2) == 0
		if rng.Intn(4) == 0 { // singleton shape: RTT column only
			withSite, withLink, withRTT = false, false, true
		}
		// cell draws one row from a small alphabet, so attempts agree, tie and
		// disagree often; 0 is the no-answer row.
		cell := func(v int) row {
			r := row{rtt: rttMissing}
			if v == 0 {
				return r
			}
			if withSite {
				r.site = int32(v)
			}
			if withLink {
				r.link = int32(10 * v)
			}
			if withRTT {
				r.rtt = int64(v) * int64(time.Millisecond)
			}
			return r
		}
		script := make([]Sweep, n)
		for a := range script {
			var sw Sweep
			for r := 0; r < nRows; r++ {
				v := cell(rng.Intn(4))
				switch r {
				case 0: // never answered
					v = cell(0)
				case 1: // answered only after k unanswered attempts
					if v = cell(0); a >= k {
						v = cell(3)
					}
				case 2: // two values alternating: a tie whenever n is even
					v = cell(1 + a%2)
				}
				if withSite {
					sw.Site = append(sw.Site, v.site)
				}
				if withLink {
					sw.Link = append(sw.Link, v.link)
				}
				if withRTT {
					sw.RTT = append(sw.RTT, v.rtt)
				}
			}
			script[a] = sw
		}

		want := make([]row, nRows)
		wantAttempts, unlocked := k, 0
		for r := range want {
			votes := make([]row, n)
			for a := range votes {
				votes[a] = script[a].row(r)
			}
			var at int
			if want[r], at = refRowVote(votes, k); at < 0 {
				unlocked++
			} else {
				wantAttempts = max(wantAttempts, at+1)
			}
		}
		if unlocked > 0 {
			wantAttempts = n
		}

		got, attempts, trace := scriptedQuorum(t, script, k, n)
		if attempts != wantAttempts {
			t.Fatalf("trial %d (k=%d n=%d): ran %d attempts, reference needs %d", trial, k, n, attempts, wantAttempts)
		}
		if got.rows() != nRows || len(got.Site) != len(script[0].Site) ||
			len(got.Link) != len(script[0].Link) || len(got.RTT) != len(script[0].RTT) {
			t.Fatalf("trial %d: accepted sweep has columns %d/%d/%d, attempts have %d/%d/%d", trial,
				len(got.Site), len(got.Link), len(got.RTT),
				len(script[0].Site), len(script[0].Link), len(script[0].RTT))
		}
		for r := range want {
			if got.row(r) != want[r] {
				t.Fatalf("trial %d (k=%d n=%d) row %d: accepted %+v, reference %+v", trial, k, n, r, got.row(r), want[r])
			}
		}
		logged := slices.ContainsFunc(trace, func(l string) bool { return strings.Contains(l, "plurality") })
		if logged != (unlocked > 0) {
			t.Fatalf("trial %d: %d rows fell to plurality, trace %q", trial, unlocked, trace)
		}
		if got.row(0) != cell(0) {
			t.Fatalf("trial %d: never-answered row accepted %+v", trial, got.row(0))
		}
		if n > k && got.row(1) != cell(0) {
			t.Fatalf("trial %d: row unanswered for the first %d attempts accepted late value %+v", trial, k, got.row(1))
		}
	}
}

// TestRowQuorumSkippedSlot pins the zero sweep (quarantined pair): it has no
// rows to lock, still runs K attempts, and is accepted as the zero sweep.
func TestRowQuorumSkippedSlot(t *testing.T) {
	got, attempts, trace := scriptedQuorum(t, make([]Sweep, 5), 2, 5)
	if got.rows() != 0 || attempts != 2 || len(trace) != 0 {
		t.Fatalf("zero sweep: %d rows after %d attempts, trace %q", got.rows(), attempts, trace)
	}
}

// TestQuorumTimedOutAttempts: an attempt that overruns ExperimentTimeout is
// traced and the next one runs at once — it casts no vote, so the quorum is
// gathered from the attempts that did finish — and an experiment whose every
// attempt overruns is an error, not an empty sweep.
func TestQuorumTimedOutAttempts(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	want := Sweep{Site: []int32{4, 0, 7}}
	newDisc := func() *Discovery {
		return &Discovery{Cfg: Config{
			Faults:  &fault.Config{ProbeLossProb: 0.5},
			QuorumK: 2, QuorumN: 4,
			ExperimentTimeout: 100 * time.Millisecond,
		}}
	}

	d := newDisc()
	e := &Exp{d: d, nonce: 9}
	got, err := d.runQuorum(e, 0, func(a *Exp, _ int) Sweep {
		if a.attempt == 1 {
			<-block
		}
		return want
	})
	if err != nil || !slices.Equal(got.Site, want.Site) {
		t.Fatalf("accepted %+v, err %v; want %+v from attempts 0 and 2", got, err, want)
	}
	if d.QuorumRetries() != 2 {
		t.Errorf("QuorumRetries = %d, want 2 (attempts 1 and 2)", d.QuorumRetries())
	}
	if trace := e.trace.Entries(); len(trace) != 1 || !strings.Contains(trace[0], "exp 9 attempt 1") || !strings.Contains(trace[0], "timed out") {
		t.Errorf("trace = %q, want the one timed-out attempt", trace)
	}

	d = newDisc()
	e = &Exp{d: d, nonce: 9}
	if _, err := d.runQuorum(e, 0, func(*Exp, int) Sweep { <-block; return want }); err == nil || !strings.Contains(err.Error(), "failed all 4 attempts") {
		t.Errorf("every attempt timed out: err = %v", err)
	}
	if trace := e.trace.Entries(); len(trace) != 4 {
		t.Errorf("trace has %d lines, want one per timed-out attempt: %q", len(trace), trace)
	}
}
