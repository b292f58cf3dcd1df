package api

// Churn reconciliation: POST /v1/churn applies persistent routing churn to
// the live topology, marks the affected client cone stale in a fresh
// snapshot, and queues a cone-scoped repair; a background loop (this package
// is the lint policy's sanctioned goroutine owner) heals the campaign and
// publishes the patched rows through anyopt.System.PatchCampaign. GET
// /v1/reconcile reports the health state machine, staleness, and repair
// statistics.
//
// Locking (extends DESIGN.md §10): the live topology is read lock-free by
// every simulator, so mutating it requires quiescence — s.topoMu is
// write-locked for the brief instant churn events apply (and while the
// catchment walker runs, which serializes the walker's memo as a bonus), and
// read-locked around every campaign that reads the topology: discovery jobs,
// measure sessions, and cone repairs. Repair cycles serialize on
// rec.repairMu; snapshot publication stays on writeMu; rec.mu is a leaf lock
// for counters and the pending-cone queue. No path holds topoMu while
// acquiring writeMu, so the lock order is acyclic.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"anyopt"
	"anyopt/internal/campaign"
	"anyopt/internal/core/prefs"
	"anyopt/internal/fault"
	"anyopt/internal/reconcile"
	"anyopt/internal/topology"
)

// reconciler is the server's churn-reconciliation state.
type reconciler struct {
	// repairMu serializes repair cycles (background loop vs ?sync=1).
	repairMu sync.Mutex

	// mu guards everything below.
	mu sync.Mutex

	machine reconcile.Machine
	walker  *reconcile.CatchmentWalker
	ckpt    *campaign.Checkpoint

	// pending is the merged cone awaiting the next repair cycle;
	// pendingIDs are its checkpoint patch-record ids.
	pending    *reconcile.Cone
	pendingIDs []string

	// wake signals the background loop; buffered so enqueue never blocks.
	wake     chan struct{}
	loopOnce sync.Once

	inFlight       int
	churnBatches   uint64
	repairs        uint64
	repairFailures uint64
	quorumRetries  uint64
	lastRepairMS   int64
	lastProbed     int
	lastTotal      int
	lastError      string
	quarantined    []quarantinedCone

	// The optimum of the generation the last successful repair published,
	// as GET /v1/optimize answers it with no options.
	optGen     uint64
	optConfig  anyopt.Config
	optMeanMS  float64
	optSubsets int
}

// quarantinedCone records a cone whose repair failed: its rows stay
// stale-flagged until a later repair or full campaign covers them.
type quarantinedCone struct {
	Clients int    `json:"clients"`
	Reason  string `json:"reason"`
}

// churnRequest is the POST /v1/churn body: either explicit events or a
// seeded plan drawn by fault.PlanChurn.
type churnRequest struct {
	Events []fault.ChurnEvent `json:"events"`
	Seed   int64              `json:"seed"`
	Count  int                `json:"count"`
	Kinds  []string           `json:"kinds"`

	kinds []fault.ChurnKind // Kinds, resolved
}

// maxChurnCount bounds a planned batch: the plan is built in memory before
// anything is applied, and the body is untrusted.
const maxChurnCount = 1024

// decodeChurn reads a POST /v1/churn body. Malformed JSON, an unknown kind
// name and a count beyond maxChurnCount are errors; a count below 1 means 1.
func decodeChurn(body io.Reader) (churnRequest, error) {
	var req churnRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return churnRequest{}, fmt.Errorf("bad churn request: %v", err)
	}
	for _, name := range req.Kinds {
		k, err := fault.ChurnKindByName(name)
		if err != nil {
			return churnRequest{}, err
		}
		req.kinds = append(req.kinds, k)
	}
	if req.Count > maxChurnCount {
		return churnRequest{}, fmt.Errorf("bad churn request: count %d exceeds %d", req.Count, maxChurnCount)
	}
	req.Count = max(req.Count, 1)
	return req, nil
}

// batch returns the events the request asks for — its explicit events, or a
// seeded plan against topo's current state. fault.ApplyChurn validates them
// whole, so no prefix of a bad batch reaches the topology. The caller holds
// topoMu.
func (req *churnRequest) batch(topo *topology.Topology) ([]fault.ChurnEvent, error) {
	events := req.Events
	if len(events) == 0 {
		events = fault.PlanChurn(topo, req.Seed, req.Count, req.kinds)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("no churn events to apply")
	}
	return events, nil
}

// recWalker returns the catchment walker, building it on first use. Caller
// holds rec.mu or topoMu exclusively.
func (s *Server) recWalker() *reconcile.CatchmentWalker {
	if s.rec.walker == nil {
		s.rec.walker = reconcile.NewCatchmentWalker(s.sys.TB, s.sys.Options().Discovery.SimCfg)
	}
	return s.rec.walker
}

// recCheckpoint opens (once) the reconciler's patch journal, or returns nil
// when checkpointing is disabled. Open errors surface in /v1/reconcile.
func (s *Server) recCheckpoint() *campaign.Checkpoint {
	if s.checkpointDir == "" {
		return nil
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	if s.rec.ckpt == nil {
		ck, err := campaign.NewCheckpoint(filepath.Join(s.checkpointDir, "reconcile.ckpt"))
		if err != nil {
			s.rec.lastError = err.Error()
			return nil
		}
		s.rec.ckpt = ck
	}
	return s.rec.ckpt
}

// startReconcileLoop launches the background repair goroutine exactly once.
func (s *Server) startReconcileLoop() {
	s.rec.loopOnce.Do(func() {
		s.rec.mu.Lock()
		if s.rec.wake == nil {
			s.rec.wake = make(chan struct{}, 1)
		}
		s.rec.mu.Unlock()
		go func() {
			for range s.rec.wake {
				s.runRepairCycle()
			}
		}()
	})
}

// enqueueRepair merges cone (and its checkpoint patch-record ids) into the
// pending queue and wakes the loop. Cone and ids land atomically, so a repair
// cycle never takes one without the other.
func (s *Server) enqueueRepair(cone *reconcile.Cone, ckptIDs ...string) {
	s.startReconcileLoop()
	s.rec.mu.Lock()
	if s.rec.pending == nil {
		s.rec.pending = cone
	} else {
		s.rec.pending.Merge(cone)
	}
	for _, id := range ckptIDs {
		if id != "" {
			s.rec.pendingIDs = append(s.rec.pendingIDs, id)
		}
	}
	wake := s.rec.wake
	s.rec.mu.Unlock()
	select {
	case wake <- struct{}{}:
	default:
	}
}

func (s *Server) handleChurn(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.snapshot(w); !ok {
		return
	}
	req, err := decodeChurn(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Apply under the exclusive topology lock: simulators read the topology
	// lock-free, so churn must quiesce every in-flight campaign. The walker
	// diff runs under the same lock — its memo update and the application it
	// observes are atomic.
	s.topoMu.Lock()
	events, err := req.batch(s.sys.Topo)
	if err != nil {
		s.topoMu.Unlock()
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	delta, err := fault.ApplyChurn(s.sys.Topo, events)
	if err != nil {
		s.topoMu.Unlock()
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	cone := reconcile.StructuralCone(s.sys.Topo, s.sys.TB.Origin, delta)
	s.rec.mu.Lock()
	walker := s.recWalker()
	s.rec.mu.Unlock()
	walker.ExpandCone(cone)
	s.topoMu.Unlock()

	// Publish the stale marks before answering: from this response on, no
	// consumer sees a pre-churn row presented as fresh.
	s.writeMu.Lock()
	cur := s.sys.CurrentSnapshot()
	staleRows := reconcile.MarkStale(cur.StaleRows, cone, cur.Gen)
	patched := s.sys.PatchCampaign(cur.Pred, cur.RTT, cur.AnnOrder, cur.Experiments, cur.Quarantined, staleRows)
	s.writeMu.Unlock()

	var ckptID string
	var journalErr error
	if ck := s.recCheckpoint(); ck != nil {
		raw, _ := json.Marshal(events)
		ckptID = fmt.Sprintf("churn-%d", patched.Gen)
		if err := ck.RecordPatchPending(ckptID, campaign.PatchRecord{
			Gen:     patched.Gen,
			Clients: cone.SortedClients(),
			Events:  raw,
		}); err != nil {
			// The churn is already live and the stale marks are published;
			// aborting here would strand the cone stale forever. Repair
			// without a journal record — only crash-resumability for this one
			// cone is lost — and surface the failure to the caller.
			journalErr = fmt.Errorf("journaling churn: %w", err)
			ckptID = ""
		}
	}

	s.rec.mu.Lock()
	s.rec.machine.OnChurn()
	s.rec.churnBatches++
	if journalErr != nil {
		s.rec.lastError = journalErr.Error()
	}
	health := s.rec.machine.State()
	s.rec.mu.Unlock()

	s.enqueueRepair(cone, ckptID)

	body := map[string]any{
		"applied":       len(delta.Events),
		"events":        delta.Events,
		"delta":         delta.String(),
		"cone_clients":  len(cone.Clients),
		"cone_observed": cone.Observed,
		"stale_rows":    len(staleRows),
		"snapshot_gen":  patched.Gen,
		"health":        health.String(),
	}
	if journalErr != nil {
		body["journal_error"] = journalErr.Error()
	}
	if r.URL.Query().Get("sync") == "1" {
		s.runRepairCycle()
		s.rec.mu.Lock()
		body["health"] = s.rec.machine.State().String()
		body["repairs"] = s.rec.repairs
		body["last_repair_ms"] = s.rec.lastRepairMS
		body["last_probed_targets"] = s.rec.lastProbed
		body["last_total_targets"] = s.rec.lastTotal
		if s.rec.lastError != "" {
			body["last_error"] = s.rec.lastError
		}
		s.rec.mu.Unlock()
		if cur := s.sys.CurrentSnapshot(); cur != nil {
			body["stale_rows"] = len(cur.StaleRows)
			body["snapshot_gen"] = cur.Gen
		}
	}
	// Accepted, not OK: unless ?sync=1 drained it, the repair is still queued.
	writeJSON(w, http.StatusAccepted, body)
}

// runRepairCycle drains the pending cone queue through one cone-scoped repair
// campaign and publishes the healed rows. Cycles are serialized; a cycle with
// nothing pending is a no-op.
func (s *Server) runRepairCycle() {
	s.rec.repairMu.Lock()
	defer s.rec.repairMu.Unlock()

	s.rec.mu.Lock()
	cone, ids := s.rec.pending, s.rec.pendingIDs
	s.rec.pending, s.rec.pendingIDs = nil, nil
	if cone != nil {
		s.rec.inFlight++
	}
	s.rec.mu.Unlock()
	if cone == nil || len(cone.Clients) == 0 {
		return
	}
	defer func() {
		s.rec.mu.Lock()
		s.rec.inFlight--
		s.rec.mu.Unlock()
	}()

	snap := s.sys.CurrentSnapshot()
	if snap == nil {
		return
	}
	start := time.Now()
	s.topoMu.RLock()
	res, err := reconcile.Repair(s.sys.TB, snap, cone, reconcile.RepairConfig{
		Discovery: s.sys.Options().Discovery,
	})
	s.topoMu.RUnlock()
	elapsed := time.Since(start)

	if err != nil {
		s.recordRepairFailure(cone, err)
		return
	}

	s.writeMu.Lock()
	cur := s.sys.CurrentSnapshot()
	if cur.Pred != snap.Pred || cur.RTT != snap.RTT {
		// A full campaign or import superseded the snapshot we repaired;
		// patching over it would resurrect retired rows. The new campaign is
		// fresh by construction, so the repair is simply obsolete.
		s.writeMu.Unlock()
		s.finishCheckpointPatches(ids)
		return
	}
	// cur may carry stale marks from churn that arrived after our cone was
	// taken; ClearRepaired keeps them (their repair is still queued) and
	// clears only the rows this repair re-measured on the live topology.
	// snap.Gen gates the overlap: a cone client re-marked at snap.Gen or later
	// was churned after our measurement baseline, so its mark survives too.
	staleRows := reconcile.ClearRepaired(cur.StaleRows, cone, snap.Gen)
	patched := s.sys.PatchCampaign(res.Pred, res.RTT, res.AnnOrder, res.Experiments, res.Quarantined, staleRows)
	s.writeMu.Unlock()

	s.finishCheckpointPatches(ids)

	// The healed state is the walker's next diff baseline.
	s.topoMu.Lock()
	s.rec.mu.Lock()
	walker := s.recWalker()
	s.rec.mu.Unlock()
	walker.Refresh()
	s.topoMu.Unlock()

	// Re-optimize the healed generation with /v1/optimize's solver, so the
	// two answer alike.
	opt, optErr := patched.OptimizeWith(anyopt.OptimizeOptions{})

	s.rec.mu.Lock()
	s.rec.repairs++
	s.rec.lastRepairMS = elapsed.Milliseconds()
	s.rec.lastProbed, s.rec.lastTotal = res.ProbedTargets, res.TotalTargets
	s.rec.quorumRetries += res.QuorumRetries
	s.rec.lastError = ""
	if optErr == nil {
		s.rec.optGen, s.rec.optConfig = patched.Gen, opt.Config
		s.rec.optMeanMS, s.rec.optSubsets = float64(opt.PredictedMean)/1e6, opt.SubsetsEvaluated
	} else {
		s.rec.lastError = optErr.Error()
	}
	morePending := s.rec.pending != nil
	if morePending {
		// Remaining stale rows belong to churn that queued behind this
		// repair — that is "reconciling", not a failed cycle.
		s.rec.machine.OnRepair(0, nil)
		s.rec.machine.OnChurn()
	} else {
		s.rec.machine.OnRepair(len(staleRows), nil)
	}
	s.rec.mu.Unlock()
}

// recordRepairFailure quarantines a cone whose repair failed: its rows stay
// stale-flagged, the health machine degrades, and the failure surfaces in
// /v1/reconcile and /metrics.
func (s *Server) recordRepairFailure(cone *reconcile.Cone, err error) {
	staleRows := 0
	if cur := s.sys.CurrentSnapshot(); cur != nil {
		staleRows = len(cur.StaleRows)
	}
	s.rec.mu.Lock()
	s.rec.repairFailures++
	s.rec.lastError = err.Error()
	s.rec.quarantined = append(s.rec.quarantined, quarantinedCone{
		Clients: len(cone.Clients),
		Reason:  err.Error(),
	})
	s.rec.machine.OnRepair(staleRows, err)
	s.rec.mu.Unlock()
}

// finishCheckpointPatches marks the given patch records committed.
func (s *Server) finishCheckpointPatches(ids []string) {
	if len(ids) == 0 {
		return
	}
	ck := s.recCheckpoint()
	if ck == nil {
		return
	}
	for _, id := range ids {
		if err := ck.RecordPatchDone(id); err != nil {
			s.rec.mu.Lock()
			s.rec.lastError = err.Error()
			s.rec.mu.Unlock()
			return
		}
	}
}

// ResumePendingRepairs replays unfinished cone repairs from the reconcile
// checkpoint after a crash: the journaled churn events are re-applied to the
// (pristine, regenerated) topology, the journaled cones are re-marked stale,
// and a repair is queued — so a restart never serves pre-churn rows as fresh.
// Call after the campaign snapshot is loaded; returns how many patch records
// were resumed.
func (s *Server) ResumePendingRepairs() (int, error) {
	ck := s.recCheckpoint()
	if ck == nil {
		return 0, nil
	}
	pend := ck.PendingPatches()
	if len(pend) == 0 {
		return 0, nil
	}
	if s.sys.CurrentSnapshot() == nil {
		return 0, fmt.Errorf("api: %d unfinished cone repairs journaled but no campaign is loaded", len(pend))
	}
	ids := make([]string, 0, len(pend))
	for id := range pend {
		ids = append(ids, id)
	}
	// Replay in generation order, not lexicographic id order ("churn-10"
	// sorts before "churn-2"): churn events carry absolute values, so
	// re-applying records that touch the same link or AS out of order would
	// reconstruct a topology different from the pre-crash one.
	sort.Slice(ids, func(i, j int) bool {
		gi, gj := pend[ids[i]].Gen, pend[ids[j]].Gen
		if gi != gj {
			return gi < gj
		}
		return ids[i] < ids[j]
	})

	cone := &reconcile.Cone{Clients: make(map[prefs.Client]bool)}
	s.topoMu.Lock()
	for _, id := range ids {
		rec := pend[id]
		var events []fault.ChurnEvent
		if len(rec.Events) > 0 {
			if err := json.Unmarshal(rec.Events, &events); err != nil {
				s.topoMu.Unlock()
				return 0, fmt.Errorf("api: resuming patch %s: %w", id, err)
			}
			if _, err := fault.ApplyChurn(s.sys.Topo, events); err != nil {
				s.topoMu.Unlock()
				return 0, fmt.Errorf("api: resuming patch %s: %w", id, err)
			}
		}
		for _, c := range rec.Clients {
			cone.Clients[c] = true
		}
	}
	s.topoMu.Unlock()

	s.writeMu.Lock()
	cur := s.sys.CurrentSnapshot()
	staleRows := reconcile.MarkStale(cur.StaleRows, cone, cur.Gen)
	s.sys.PatchCampaign(cur.Pred, cur.RTT, cur.AnnOrder, cur.Experiments, cur.Quarantined, staleRows)
	s.writeMu.Unlock()

	s.rec.mu.Lock()
	s.rec.machine.OnChurn()
	s.rec.mu.Unlock()

	// The old ids ride along with the resumed cone: they are marked Done only
	// when the resumed repair commits, so a second crash still resumes.
	s.enqueueRepair(cone, ids...)
	return len(ids), nil
}

// recHealth reads the reconciler's health state alone: what /v1/predict
// annotates every body with, without building recHealthView's stats map.
func (s *Server) recHealth() reconcile.Health {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	return s.rec.machine.State()
}

// recHealthView snapshots the reconciler state for responses and metrics.
func (s *Server) recHealthView() (health reconcile.Health, stats map[string]any) {
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	pendingClients := 0
	if s.rec.pending != nil {
		pendingClients = len(s.rec.pending.Clients)
	}
	stats = map[string]any{
		"health":              s.rec.machine.State().String(),
		"failures":            s.rec.machine.Failures(),
		"churn_batches":       s.rec.churnBatches,
		"pending_clients":     pendingClients,
		"cones_in_flight":     s.rec.inFlight,
		"repairs":             s.rec.repairs,
		"repair_failures":     s.rec.repairFailures,
		"quorum_retries":      s.rec.quorumRetries,
		"last_repair_ms":      s.rec.lastRepairMS,
		"last_probed_targets": s.rec.lastProbed,
		"last_total_targets":  s.rec.lastTotal,
		"walker_warm":         s.rec.walker != nil && s.rec.walker.Warm(),
	}
	if s.rec.lastError != "" {
		stats["last_error"] = s.rec.lastError
	}
	if len(s.rec.quarantined) > 0 {
		stats["quarantined_cones"] = append([]quarantinedCone(nil), s.rec.quarantined...)
	}
	if s.rec.optGen > 0 {
		stats["optimize"] = map[string]any{
			"gen":               s.rec.optGen,
			"config":            s.rec.optConfig,
			"predicted_mean_ms": s.rec.optMeanMS,
			"subsets":           s.rec.optSubsets,
		}
	}
	return s.rec.machine.State(), stats
}

func (s *Server) handleReconcileStatus(w http.ResponseWriter, r *http.Request) {
	_, stats := s.recHealthView()
	if snap := s.sys.CurrentSnapshot(); snap != nil {
		stats["snapshot_gen"] = snap.Gen
		stats["stale_rows"] = len(snap.StaleRows)
	} else {
		stats["snapshot_gen"] = 0
		stats["stale_rows"] = 0
	}
	writeJSON(w, http.StatusOK, stats)
}
