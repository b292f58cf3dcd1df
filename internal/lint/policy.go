package lint

import "strings"

// Policy selects the checks that differ between packages. Every package a
// rule matches also gets maporder and snapimmut: map iteration order must
// never leak into outputs anywhere, and snapshot immutability holds wherever
// a snapshot is in scope.
type Policy struct {
	Entropy bool // wall clock & global/unseeded rand bans
	NoRand  bool // with Entropy: ban math/rand outright, seeded or not
	NoGo    bool // go statements banned
}

// PolicyRule binds a package pattern to a policy. A pattern is either an
// exact import path or a prefix ending in "/..." matching the package and
// everything below it.
type PolicyRule struct {
	Pattern string
	Policy  Policy
}

// baseline applies module-wide: goroutines belong only to the packages
// explicitly granted goOwner below — everything else routes parallelism
// through internal/exec. Wall clocks are fine outside the simulator.
var baseline = Policy{NoGo: true}

// goOwner relaxes baseline for the sanctioned goroutine owners: the worker
// pool itself, the real-network BGP speaker (hold timers over TCP), the
// orchestrator's concurrent servers, and the API's async discovery job
// runner. The always-on checks still apply — goroutine owners are exactly
// where a stray snapshot write would race.
var goOwner = Policy{}

// sim is the full determinism contract for simulator packages: everything in
// baseline, plus no entropy except through seeded sources, and no goroutines
// — parallelism belongs exclusively to internal/exec.
var sim = Policy{Entropy: true, NoGo: true}

// simPure tightens sim for packages that should hold no entropy source at
// all, seeded or not: their randomness budget is zero, so an imported
// math/rand is a design smell regardless of how it is constructed. Jitter
// reaches bgp through explicit nonce parameters, noise reaches measurements
// through probe's NoiseModel, and chaos reaches the transport path only
// through internal/fault.
var simPure = Policy{Entropy: true, NoRand: true, NoGo: true}

// DefaultPolicies is the repository policy table. The most specific
// (longest) matching pattern wins.
var DefaultPolicies = []PolicyRule{
	{"anyopt/...", baseline},

	// Simulator packages: results must be a pure function of seeds — and
	// these hold no RNG of their own, so math/rand is banned outright. The
	// core/... rule is what holds the columnar campaign stores (core/prefs,
	// core/discovery) to the strictest contract in the repo: snapshot
	// contents must be byte-identical across worker counts and store layouts,
	// and a resumed campaign byte-identical to an uninterrupted one
	// (TestCampaignResumeAfterKill, TestCampaignBytesPinned), so any map-order
	// leak or entropy source in them invalidates those proofs.
	{"anyopt/internal/bgp", simPure},
	{"anyopt/internal/bgp/wire", simPure},
	{"anyopt/internal/bgp/invariant", simPure},
	{"anyopt/internal/netsim", simPure},
	{"anyopt/internal/core/...", simPure},

	// Campaign persistence: streaming snapshot serialization and checkpoint
	// journals must be byte-deterministic — resume byte-identity and
	// TestCampaignBytesPinned rest on it — so the package holds no entropy and
	// no goroutines of its own; a campaign's parallelism is internal/exec's.
	{"anyopt/internal/campaign", simPure},

	// Seeded-RNG owners: these construct their own *rand.Rand over a source
	// they key from explicit seeds — topology generation and SPLPO's
	// randomized search over rand.NewSource(seed), probe noise over a
	// splitmix.Source rekeyed per target — so they get sim without the
	// outright rand ban.
	{"anyopt/internal/topology", sim},
	{"anyopt/internal/core/splpo", sim},
	{"anyopt/internal/probe", sim},

	// The keyed generator under the per-target streams of probe and fault. It
	// implements math/rand's Source64 without importing math/rand and holds
	// no entropy of its own: every output is a function of the caller's key.
	{"anyopt/internal/splitmix", simPure},

	// The churn reconciler computes cones and patches snapshots — pure
	// derivation from topology state and measurement results. Its entropy
	// budget is zero (churn planning entropy lives in internal/fault) and its
	// goroutine budget is zero (the background loop lives in internal/api).
	{"anyopt/internal/reconcile", simPure},

	// The fault injector is the only package on the simulated transport path
	// allowed to own chaos entropy; every stream it holds is derived from
	// (seed, nonce, attempt), the probe-loss stream from the target as well.
	{"anyopt/internal/fault", sim},

	// The real-network BGP speaker runs hold timers and read deadlines over
	// TCP sessions; wall clock and goroutines are inherent to it.
	{"anyopt/internal/bgp/speaker", goOwner},

	// The worker pool is the canonical goroutine owner; it is also outside
	// the sim's entropy contract (it reads only worker counts).
	{"anyopt/internal/exec", goOwner},

	// The orchestrator serves concurrent measurement agents over real
	// sockets.
	{"anyopt/internal/orchestrator", goOwner},

	// The HTTP API runs async discovery jobs in the background so campaigns
	// never block the lock-free read path; the job runner is its goroutine.
	{"anyopt/internal/api", goOwner},
}

// PolicyFor resolves the policy for an import path: the longest matching
// pattern wins. ok is false when no rule matches, and such a package gets
// no checks at all.
func PolicyFor(rules []PolicyRule, path string) (p Policy, ok bool) {
	var best string
	for _, r := range rules {
		if !patternMatches(r.Pattern, path) {
			continue
		}
		if !ok || len(r.Pattern) > len(best) {
			best, p, ok = r.Pattern, r.Policy, true
		}
	}
	return p, ok
}

func patternMatches(pattern, path string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "/..."); ok {
		return path == prefix || strings.HasPrefix(path, prefix+"/")
	}
	return path == pattern
}
