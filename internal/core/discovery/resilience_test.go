package discovery

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
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

// withoutSkipped returns a copy of sw in which every row a skips reads as no
// answer — what measure leaves in a row it does not probe.
func withoutSkipped(a *Exp, sw Sweep) Sweep {
	q := rowQuorum{out: Sweep{Site: slices.Clone(sw.Site), Link: slices.Clone(sw.Link), RTT: slices.Clone(sw.RTT)}}
	for r := range q.out.rows() {
		if a.skipped(r) {
			q.set(r, row{rtt: rttMissing})
		}
	}
	return q.out
}

// scriptedQuorum runs the real k-of-n vote over a scripted attempt sequence and
// returns the accepted sweep, the experiment's trace, and the skip vector
// each attempt it ran was handed. Like measure, a scripted attempt answers no
// row it was told to skip.
func scriptedQuorum(t *testing.T, script []Sweep, k, n int) (Sweep, []string, [][]bool) {
	t.Helper()
	d := &Discovery{}
	e := &Exp{d: d, nonce: 1}
	var skips [][]bool
	got := d.quorumOf(e, 0, k, n, func(a *Exp, _ int) Sweep {
		skips = append(skips, slices.Clone(a.skip))
		return withoutSkipped(a, script[a.attempt])
	})
	if want := uint64(len(skips) - 1); d.QuorumRetries() != want {
		t.Fatalf("QuorumRetries = %d after %d attempts", d.QuorumRetries(), len(skips))
	}
	return got, e.trace.Entries(), skips
}

// TestRowQuorumMatchesNaiveReplay drives the typed per-row quorum with random
// per-attempt columns and holds every accepted row, the attempt count and the
// plurality log line to the one-vote-at-a-time reference. Each trial plants
// the cases the dense representation must get right without special-casing:
// a row no attempt answers (a filtered target), a value that first appears
// only after K unanswered attempts (the row must stay unanswered), and a tie.
//
// It is also the oracle for the skip vector: each scripted attempt answers
// nothing on the rows its Exp says to skip, attempt t must skip exactly the
// rows the reference locked before t, and the outcome must be the
// reference's, computed from attempts that answered every row.
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
		lockedAt := make([]int, nRows)
		wantAttempts, unlocked := k, 0
		for r := range want {
			votes := make([]row, n)
			for a := range votes {
				votes[a] = script[a].row(r)
			}
			if want[r], lockedAt[r] = refRowVote(votes, k); lockedAt[r] < 0 {
				unlocked++
			} else {
				wantAttempts = max(wantAttempts, lockedAt[r]+1)
			}
		}
		if unlocked > 0 {
			wantAttempts = n
		}

		got, trace, skips := scriptedQuorum(t, script, k, n)
		if attempts := len(skips); attempts != wantAttempts {
			t.Fatalf("trial %d (k=%d n=%d): ran %d attempts, reference needs %d", trial, k, n, attempts, wantAttempts)
		}
		for a, skip := range skips {
			if len(skip) > nRows {
				t.Fatalf("trial %d attempt %d: skip vector has %d rows, sweep %d", trial, a, len(skip), nRows)
			}
			for r, at := range lockedAt {
				if skipped := r < len(skip) && skip[r]; skipped != (at >= 0 && at < a) {
					t.Fatalf("trial %d (k=%d n=%d) attempt %d row %d: skipped %v, reference locked it at attempt %d",
						trial, k, n, a, r, skipped, at)
				}
			}
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
	got, trace, skips := scriptedQuorum(t, make([]Sweep, 5), 2, 5)
	if got.rows() != 0 || len(skips) != 2 || len(trace) != 0 {
		t.Fatalf("zero sweep: %d rows after %d attempts, trace %q", got.rows(), len(skips), trace)
	}
}
