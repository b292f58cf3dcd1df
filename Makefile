GO ?= go

.PHONY: build test vet lint fmt race invariants chaos chaos-churn fuzz examples bench bench-check splpo-bench size check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet runs go vet over the default build and the invariants-tagged variant;
# its copylocks check is the repo's guard against sync primitives copied by
# value (anyoptlint leaves them to vet).
vet:
	$(GO) vet ./...
	$(GO) vet -tags invariants ./...

# lint runs anyoptlint (internal/lint), the repo's own invariant analyzer:
# one process covers the default build and the invariants-tagged variant,
# sharing the module load. Allocation contracts are not static checks here:
# they are testing.AllocsPerRun budgets that `test` and `race` run (the
# ledger is DESIGN.md §9).
lint:
	$(GO) run ./cmd/anyoptlint -tags '' -tags invariants ./...

# fmt fails if any file is not gofmt-clean.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race exercises the parallel experiment executor under the race detector;
# the determinism tests run campaigns at several worker counts.
race:
	$(GO) test -race ./...

# invariants runs the BGP suite with the runtime invariant checker compiled
# in: Gao-Rexford export audits, best-route re-verification, and the
# arrival-order tie log, including a full discovery campaign.
invariants:
	$(GO) test -tags=invariants ./internal/bgp/...

# chaos runs the fault-injection suite: the differential tests (a faulted
# campaign must converge to the fault-free preference matrix modulo
# quarantined sites, and quorum retries that skip locked rows must match
# retries that probe every row), failure-trace determinism, and
# checkpoint/resume — the torn-write sweep over the journal and whole faulted
# campaigns killed mid-run included. The race pass covers batch and flush
# cancellation, session resets, and the row quorum with its skip vector.
chaos:
	$(GO) test -run 'Chaos|FaultsDisabled|Checkpoint|CampaignResume|SaveLoadQuarantine|Pooled' \
		./internal/core/discovery/ ./internal/campaign/
	$(GO) test -race -run 'ForEachCtx|Flush|SessionReset' \
		./internal/exec/ ./internal/orchestrator/
	$(GO) test -race -run 'RowQuorum' ./internal/core/discovery/

# chaos-churn runs the churn-reconciliation suite under the race detector:
# the differential convergence test (a healed churned campaign must be
# byte-identical to a from-scratch campaign on the post-churn topology, at
# several worker counts and under harsh fault injection), cone inference,
# the staleness/health state machine, the anyoptd churn endpoints including
# checkpoint resume of half-finished repairs, and churn planning and
# all-or-nothing application in internal/fault.
chaos-churn:
	$(GO) test -race -run 'Churn|Cone|Stale|Health|Repair|Reconcile' \
		./internal/reconcile/ ./internal/api/ ./internal/fault/

# fuzz runs every fuzzer in the repo for five seconds each, from the seed
# corpora checked in under testdata/fuzz/ or added in code (which plain
# `go test` already runs as unit tests): the BGP wire codec, the Internet
# checksum against its byte-pair oracle, the three decoders that take bytes
# from outside — a checkpoint file, a saved campaign, a /v1/churn body — and
# /v1/predict's config parser. `go test -fuzz` takes one fuzzer per run.
# Minimizing a new interesting input gets at most one of the five seconds;
# Go's 60 s default let one minimization eat the whole budget.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzUpdateDecode$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/bgp/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzChecksum$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/netproto/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointOpen$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/campaign/
	$(GO) test -run '^$$' -fuzz '^FuzzCampaignLoad$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/campaign/
	$(GO) test -run '^$$' -fuzz '^FuzzChurnDecode$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/api/
	$(GO) test -run '^$$' -fuzz '^FuzzParseConfig$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/api/

# examples runs the six programs under examples/ and cmd/verfploeter with
# and without -peers at test scale. None of them has a test of its own, so
# this is what keeps them running; their output is discarded and a non-zero
# exit fails the target.
examples:
	@for ex in $$($(GO) list ./examples/...); do \
		echo "$(GO) run $$ex"; $(GO) run $$ex > /dev/null || exit 1; done
	$(GO) run ./cmd/verfploeter -config 1,2,3,4 > /dev/null
	$(GO) run ./cmd/verfploeter -config 1,2,3,4 -peers > /dev/null

bench:
	$(GO) test -run xxx -bench . -benchmem .

# bench-check vets and tests the driver's benchmark (bench/, the contract in
# BENCHMARK.json). It is a Go module of its own, so the root module's
# `go build ./...` and `go test ./...` never see it — yet it compiles against
# this module's internals, and a change here can break it silently.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# splpo-bench runs the solver benchmarks with human-readable output:
# Exhaustive on a random 15-site instance, and the branch-and-bound on the
# 36-site dnscloud testbed at six sizes, with its node counts.
splpo-bench:
	$(GO) test -run xxx -bench 'BenchmarkSolver15Exhaustive|BenchmarkSolveDNSCloud' \
		-benchmem -benchtime 1x ./internal/core/splpo/

# size prints the root module's Go line counts, non-test and then test:
# every .go file of every package `go list ./...` finds, so bench/ (a module
# of its own) and testdata/ are not counted.
size:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do ls $$d/*.go | grep -v _test.go | xargs cat; done | wc -l | sed 's/^/non-test /'
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do ls $$d/*_test.go 2>/dev/null | xargs -r cat; done | wc -l | sed 's/^/test /'

# check is the whole gate: formatting, static analysis, the full suite with
# its allocation budgets, the race pass, the invariant-audited BGP suite, the
# chaos suites, a short run of every fuzzer, a run of every example program,
# and the benchmark module's own vet and tests.
check: fmt vet lint test race invariants chaos chaos-churn fuzz examples bench-check
