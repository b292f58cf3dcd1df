package discovery

// This file is the self-healing half of the campaign runner: every batch
// experiment flows through runBatch → runExperiment → runQuorum →
// runAttempt, which together add checkpoint replay, K-of-N quorum
// re-measurement under injected faults, and a deterministic campaign fault
// log on top of the plain worker-pool fan-out.
// With Cfg.Faults disabled and no journal installed, the path reduces
// exactly to the old single-attempt batch — byte-identical results.

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"anyopt/internal/fault"
)

// JournalEntry is one checkpointed experiment: its accepted Sweep, plus the
// probe count and fault trace that restore the campaign's accounting and
// fault log on replay, so a resumed campaign is byte-identical to an
// uninterrupted one.
type JournalEntry struct {
	Kind   string
	Result Sweep
	Probes uint64
	Trace  []string
}

// Journal checkpoints completed experiments, keyed by campaign nonce — the
// experiment's position in the deterministic submission schedule. Lookup and
// Record are called concurrently from worker goroutines; implementations
// must be safe for that. internal/campaign.Checkpoint is the file-backed
// implementation.
type Journal interface {
	Lookup(nonce uint64) (JournalEntry, bool)
	Record(nonce uint64, ent JournalEntry) error
}

// SetJournal installs (or, with nil, removes) the campaign checkpoint
// journal. Install it before the first experiment: replay matches entries by
// nonce, so the call sequence must reproduce the schedule that wrote them.
func (d *Discovery) SetJournal(j Journal) { d.journal = j }

// Err returns the first experiment-infrastructure error — checkpoint I/O
// failure, checkpoint/schedule mismatch, or a canceled campaign context —
// encountered by batch APIs that do not return errors themselves. Campaign
// drivers should check it after a run.
func (d *Discovery) Err() error { return d.runErr }

// FaultLog returns the campaign's failure trace: injected-fault events in
// experiment submission order plus quarantine and degradation notes. For a
// fixed fault seed and call sequence the log is reproduced verbatim.
func (d *Discovery) FaultLog() []string { return d.faultLog }

// QuarantineSite removes a site from the rest of the campaign: it loses
// representative eligibility and its pairwise experiments are skipped (slots
// still consumed, keeping the schedule aligned). The reason is recorded in
// the fault log — degradation is never silent.
func (d *Discovery) QuarantineSite(id int, reason string) {
	if d.quarantined == nil {
		d.quarantined = make(map[int]string)
	}
	if _, ok := d.quarantined[id]; ok {
		return
	}
	d.quarantined[id] = reason
	d.faultLog = append(d.faultLog, fmt.Sprintf("quarantine site %d: %s", id, reason))
}

// IsQuarantined reports whether the site has been quarantined.
func (d *Discovery) IsQuarantined(id int) bool {
	_, ok := d.quarantined[id]
	return ok
}

// Quarantined returns a copy of the quarantine map (site ID → reason).
func (d *Discovery) Quarantined() map[int]string {
	if len(d.quarantined) == 0 {
		return nil
	}
	out := make(map[int]string, len(d.quarantined))
	for id, why := range d.quarantined {
		out[id] = why
	}
	return out
}

// QuarantinedSites returns the quarantined site IDs in ascending order.
func (d *Discovery) QuarantinedSites() []int {
	out := make([]int, 0, len(d.quarantined))
	for id := range d.quarantined {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// RestoreQuarantine replaces the quarantine set, e.g. when reloading a saved
// campaign whose snapshot recorded dead sites.
func (d *Discovery) RestoreQuarantine(q map[int]string) {
	d.quarantined = nil
	for _, id := range sortedIntKeys(q) {
		d.QuarantineSite(id, q[id])
	}
}

func sortedIntKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// runBatch runs n experiments through the worker pool and gathers their
// sweeps in submission order. Nonces are drawn from the campaign counter in
// submission order before any experiment starts; probe counts and fault
// traces fold back into the campaign totals after all finish, also in
// submission order, so accounting and the fault log never depend on worker
// scheduling. An infrastructure error (checkpoint I/O, schedule mismatch)
// cancels the batch — in-flight experiments finish, queued ones never start
// — and is surfaced through Err.
func (d *Discovery) runBatch(kind string, n int, run func(e *Exp, i int) Sweep) []Sweep {
	out := make([]Sweep, n)
	exps := make([]*Exp, n)
	for i := range exps {
		d.nonce++
		exps[i] = &Exp{d: d, nonce: d.nonce}
	}
	parent := d.ctx
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	err := d.pool.ForEachCtx(ctx, n, func(ctx context.Context, i int) error {
		sw, err := d.runExperiment(exps[i], kind, i, run)
		if err != nil {
			return err
		}
		out[i] = sw
		d.completed.Add(1)
		return nil
	})
	if err != nil && d.runErr == nil {
		d.runErr = err
	}
	for _, e := range exps {
		d.ProbesSent += e.probes
		d.faultLog = append(d.faultLog, e.trace.Entries()...)
	}
	return out
}

// runExperiment runs one experiment with checkpoint replay: a journaled
// sweep short-circuits the run (restoring its probe count and fault trace),
// a fresh sweep is journaled after the quorum accepts it.
func (d *Discovery) runExperiment(e *Exp, kind string, i int, run func(*Exp, int) Sweep) (Sweep, error) {
	if d.journal != nil {
		if ent, ok := d.journal.Lookup(e.nonce); ok {
			if ent.Kind != kind {
				return Sweep{}, fmt.Errorf(
					"discovery: checkpoint entry for experiment %d is %q, want %q (campaign schedule changed?)",
					e.nonce, ent.Kind, kind)
			}
			sw := ent.Result
			// Columns are read by target position, so a journal written over
			// a different topology must fail here, not index out of range.
			if n := len(d.TB.Topo.Targets); n == 0 || sw.rows()%n != 0 {
				return Sweep{}, fmt.Errorf(
					"discovery: checkpoint entry for experiment %d has %d rows, testbed has %d targets (different topology?)",
					e.nonce, sw.rows(), n)
			}
			e.probes = ent.Probes
			if len(ent.Trace) > 0 {
				e.trace = &fault.Trace{}
				e.trace.Append(ent.Trace...)
			}
			return sw, nil
		}
	}
	sw := d.runQuorum(e, i, run)
	if d.journal != nil {
		ent := JournalEntry{Kind: kind, Result: sw, Probes: e.probes, Trace: e.trace.Entries()}
		if jerr := d.journal.Record(e.nonce, ent); jerr != nil {
			return Sweep{}, fmt.Errorf("discovery: checkpointing experiment %d: %w", e.nonce, jerr)
		}
	}
	return sw, nil
}

// runQuorum runs one experiment to an accepted sweep. Fault-free it is a
// single attempt, exactly the pre-chaos behavior. With faults enabled it
// re-runs the experiment — each attempt drawing fresh faults but reusing the
// experiment's jitter nonce and noise seed — and votes row by row over the
// attempts' columns: a row locks to the first value that gathers quorumK
// agreeing attempts, independent of every other row. Because only the faults
// vary between attempts, two attempts agreeing on a row almost surely means
// the faults touched neither, so each row converges on its fault-free value.
//
// Per-row voting matters twice over. It converges far faster under hot fault
// rates — a whole-sweep vote needs one attempt with zero faults across all
// targets, a row vote only needs two clean samples per row. And it makes the
// accepted row a pure function of (experiment nonce, target): a cone-scoped
// repair probing 10% of the targets accepts byte-identical rows to the full
// campaign, which is what the reconcile differential test checks.
//
// Rows are dense, so every attempt casts a vote on every row still open and
// "no answer" is a value like any other: a target that is filtered out, or
// silent for K attempts, locks as unanswered by the same rule that locks an
// answer — there is no set of known rows to maintain and nothing to
// backfill. A locked row is not probed again: each attempt reads the vote's
// locked vector, measure skips those rows, and the vote never reads them.
// Because a row's measurement is a pure function of (nonce, attempt,
// target), the rows that are probed come out exactly as if every row were;
// only probes that cannot change the outcome go unsent, so ProbesSent, the
// journaled probe count and the "probe lost" trace lines count probed rows
// only. Rows that never reach quorum within quorumN attempts degrade to their
// plurality value (earliest wins ties) and the degradation is logged.
func (d *Discovery) runQuorum(e *Exp, i int, run func(*Exp, int) Sweep) Sweep {
	if !d.Cfg.Faults.Enabled() {
		return d.runAttempt(e, i, 0, nil, run)
	}
	return d.quorumOf(e, i, quorumK, quorumN, run)
}

// A row is accepted once quorumK of up to quorumN attempts agree on it.
const (
	quorumK = 2
	quorumN = 5
)

// quorumOf is runQuorum's k-of-n vote, with k and n as parameters so the
// tests can vary them.
func (d *Discovery) quorumOf(e *Exp, i, k, n int, run func(*Exp, int) Sweep) Sweep {
	e.trace = &fault.Trace{}
	var q rowQuorum
	for attempt := 0; attempt < n; attempt++ {
		if attempt > 0 {
			d.quorumRetries.Add(1)
		}
		var skip []bool
		if !d.probeLocked {
			skip = q.locked
		}
		if q.vote(d.runAttempt(e, i, attempt, skip, run), k) == 0 && len(q.attempts) >= k {
			break
		}
	}
	if q.pending > 0 {
		d.pluralityExperiments.Add(1)
		e.trace.Addf("exp %d: %d of %d rows lacked %d-of-%d quorum; accepted per-row plurality",
			e.nonce, q.pending, len(q.locked), k, n)
	}
	return q.resolve()
}

// rowQuorum is the typed per-row K-of-N vote over sweep columns. Every
// decision on a row depends only on that row's own per-attempt value
// sequence — never on other rows — which keeps accepted rows identical
// between filtered and unfiltered campaigns.
type rowQuorum struct {
	// attempts holds every completed attempt's sweep, in attempt order.
	attempts []Sweep
	// out carries the accepted rows; it has the first attempt's columns.
	out Sweep
	// locked[r] marks rows whose value reached K votes; pending counts the
	// rest. Later attempts read it and do not probe these rows.
	locked  []bool
	pending int
}

// agree counts the attempts whose row r equals v.
func (q *rowQuorum) agree(r int, v row) int {
	n := 0
	for _, sw := range q.attempts {
		if sw.row(r) == v {
			n++
		}
	}
	return n
}

// set stores v as out's row r, in the columns out carries.
func (q *rowQuorum) set(r int, v row) {
	if r < len(q.out.Site) {
		q.out.Site[r] = v.site
	}
	if r < len(q.out.Link) {
		q.out.Link[r] = v.link
	}
	if r < len(q.out.RTT) {
		q.out.RTT[r] = v.rtt
	}
}

// vote adds one attempt's sweep: each still-open row whose value in this
// attempt now has K agreeing attempts locks to it. It returns the number of
// rows still open.
func (q *rowQuorum) vote(sw Sweep, k int) int {
	if q.attempts == nil {
		// Every row is overwritten when it locks or resolves; the clone only
		// fixes which columns the accepted sweep carries.
		q.out = Sweep{Site: slices.Clone(sw.Site), Link: slices.Clone(sw.Link), RTT: slices.Clone(sw.RTT)}
		q.locked = make([]bool, sw.rows())
		q.pending = len(q.locked)
	}
	q.attempts = append(q.attempts, sw)
	for r, done := range q.locked {
		if done {
			continue
		}
		if v := sw.row(r); q.agree(r, v) >= k {
			q.set(r, v)
			q.locked[r] = true
			q.pending--
		}
	}
	return q.pending
}

// resolve settles every still-open row on its plurality value — the value
// most attempts agree on, the earliest such value winning ties — and returns
// the accepted sweep.
func (q *rowQuorum) resolve() Sweep {
	for r, done := range q.locked {
		if done {
			continue
		}
		var best row
		votes := 0
		for _, sw := range q.attempts {
			v := sw.row(r)
			if n := q.agree(r, v); n > votes {
				best, votes = v, n
			}
		}
		q.set(r, best)
	}
	return q.out
}

// runAttempt runs a single experiment attempt on a private Exp carrying this
// attempt's fault injector, trace and skip vector (the rows not to probe),
// then folds its probe count and trace into the experiment's.
func (d *Discovery) runAttempt(e *Exp, i, attempt int, skip []bool, run func(*Exp, int) Sweep) Sweep {
	a := &Exp{d: d, nonce: e.nonce, attempt: attempt, trace: &fault.Trace{}, skip: skip}
	if d.Cfg.Faults.Enabled() {
		a.inj = d.Cfg.Faults.Injector(e.nonce, attempt, a.trace)
	}
	sw := run(a, i)
	a.release()
	e.probes += a.probes
	e.trace.Append(a.trace.Entries()...)
	return sw
}
