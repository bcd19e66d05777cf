# Development gates for the pandia repo.
#
#   make check   - the full tier-1+ gate: build, go vet, pandia-vet, race tests.
#                  Run this before sending changes; CI-equivalent.
#   make test    - the plain tier-1 gate (build + tests), as in ROADMAP.md.
#   make vet     - the custom static analyzers only (cmd/pandia-vet).
#   make bench-module - vet and test cmd/pandia-bench, a module of its own
#                  that the root `go build ./...` skips.
#   make fuzz    - short fuzzing pass over the parser/topology targets.
#   make bench   - core benchmarks with -benchmem, recorded as the "current"
#                  run in BENCH_core.json (the "baseline" run stays pinned).

GO ?= go

# The benchmarks whose trajectory BENCH_core.json tracks.
# BenchmarkSweepPruned covers the dominance-pruned sweep of DESIGN.md §12;
# BenchmarkTestbedRun and BenchmarkMeasureAll the simulated testbed (§8);
# BenchmarkCoScore, BenchmarkSubmit, BenchmarkRebalance and
# BenchmarkDrainSocket the scheduler rung over the score-only joint solve;
# BenchmarkRecommend the placement-advice rung (pruned sweep + two full
# predictions on the X5-2).
BENCH_CORE = BenchmarkFig10Curves|BenchmarkPredictOnce$$|BenchmarkPredictorReuse|BenchmarkPredictSweep$$|BenchmarkTestbedRun|BenchmarkMeasureAll$$|BenchmarkEnumeratePlacements|BenchmarkSweepPruned$$|BenchmarkCoScore$$|BenchmarkSubmit|BenchmarkRebalance$$|BenchmarkDrainSocket$$|BenchmarkRecommend$$

.PHONY: check test vet pandia-vet alloccheck lockcheck fuzz fuzz-smoke scenario-smoke journal-smoke bench bench-smoke bench-gate bench-module build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet: pandia-vet

pandia-vet:
	$(GO) vet ./...
	$(GO) run ./cmd/pandia-vet ./...

# alloccheck alone, for the local edit loop: the static zero-allocation
# proof of the annotated //pandia:noalloc hot path (PredictTime, iterate,
# the obs updates, the testbed's fixedPoint). `make check` already runs it
# as part of the full pandia-vet suite.
alloccheck:
	$(GO) run ./cmd/pandia-vet -only alloccheck ./...

# lockcheck alone, for the local edit loop: the lock-discipline proof of
# the concurrency surface — deadlockcheck (acquisition order, re-entry,
# wrong-flavour or missing unlocks, blocking under a lock) and guardcheck
# (//pandia:guardedby field accesses). `make check` already runs both as
# part of the full pandia-vet suite.
lockcheck:
	$(GO) run ./cmd/pandia-vet -only deadlockcheck,guardcheck ./...

check: build
	$(GO) vet ./...
	$(GO) run ./cmd/pandia-vet ./...
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	$(MAKE) bench-gate
	$(MAKE) scenario-smoke
	$(MAKE) journal-smoke
	$(MAKE) bench-module

# bench-module builds, vets, and tests the end-to-end benchmark. It is a
# separate Go module (its go.mod replaces pandia with ../..), so the root
# `go build ./...` never compiles it: without this target a change to the
# public API could break the benchmark unnoticed.
bench-module:
	cd cmd/pandia-bench && $(GO) vet ./... && $(GO) test ./...

# FUZZ_TARGETS lists every fuzz target as name:package; fuzz-smoke and
# fuzz both run each one in turn.
FUZZ_TARGETS = \
	FuzzParseShape:./internal/placement/ \
	FuzzShapeExpand:./internal/placement/ \
	FuzzMachineJSON:./internal/topology/ \
	FuzzScenarioParse:./internal/scenario/ \
	FuzzGuardAnnotation:./internal/analysis/locks/ \
	FuzzPredictClasses:./internal/core/ \
	FuzzSweepBound:./internal/core/ \
	FuzzSchedulerOps:./internal/scheduler/

# fuzz-smoke is the gate-sized fuzzing pass: 5 seconds per target, enough
# to catch parser/expander regressions on the corpus plus easy mutations.
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
	  echo "fuzz-smoke: $$t"; \
	  $(GO) test -fuzz $${t%%:*} -fuzztime 5s -run '^$$' $${t#*:}; \
	done

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
	  echo "fuzz: $$t"; \
	  $(GO) test -fuzz $${t%%:*} -fuzztime 30s $${t#*:}; \
	done

# -count=3 with benchjson's min-of-N collapsing: external load on a shared
# host only ever inflates a sample, so the fastest repeat is the stable
# estimator, on both the recording and the gating side.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_CORE)' -benchmem -count=3 . \
	  | $(GO) run ./cmd/pandia-benchjson -label current -out BENCH_core.json

# bench-smoke is the CI-sized pass: a few iterations of the allocation-
# sensitive micro-benchmarks, parsed but not recorded, so a broken bench or
# parser fails the gate without paying for a full measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPredictOnce$$|BenchmarkPredictorReuse|BenchmarkSweepPruned$$|BenchmarkTestbedRun$$|BenchmarkCoScore$$|BenchmarkSubmit|BenchmarkRebalance$$|BenchmarkRecommend$$' -benchtime 5x -benchmem . \
	  | $(GO) run ./cmd/pandia-benchjson -label smoke -out ''

# bench-gate is the perf/observability overhead gate: the PredictTime fast
# path (BenchmarkPredictorReuse) and the score-only joint solve
# (BenchmarkCoScore) must stay at 0 allocs/op, the scheduler's decision
# loop (BenchmarkSubmit, BenchmarkRebalance) at or below its recorded
# allocs/op (both exact, the primary regression teeth), and every gated
# benchmark within BENCH_TOLERANCE ns/op of the recorded "current" run in
# BENCH_core.json. Refresh the reference with `make bench` after
# intentional perf changes.
#
# The ns/op tolerance is wide because gate hosts are shared single-core
# containers where neighbour load swings measurements by double-digit
# percent for minutes at a time; min-of-5 sampling (benchjson collapses
# -count repeats to the fastest) plus this margin catches real structural
# regressions without flaking on load. benchjson is built before the
# benchmarks run so its compile never competes with the measurement.
BENCH_TOLERANCE ?= 0.35
bench-gate:
	$(GO) build -o /tmp/pandia-benchjson ./cmd/pandia-benchjson
	$(GO) test -run '^$$' -bench 'BenchmarkPredictOnce$$|BenchmarkPredictorReuse|BenchmarkSweepPruned$$|BenchmarkCoScore$$|BenchmarkSubmit|BenchmarkRebalance$$' -benchmem -count=5 . \
	  | /tmp/pandia-benchjson -gate current -gate-tolerance $(BENCH_TOLERANCE) -zero-alloc BenchmarkPredictorReuse,BenchmarkCoScore \
	      -max-allocs 'BenchmarkSubmit|BenchmarkRebalance$$' -out BENCH_core.json

# scenario-smoke is the replay-determinism gate: every bundled scenario in
# scenarios/ must pass its assertions and two separate replay processes
# must emit byte-identical incident records. A diff here means scheduler
# state leaked nondeterminism (map order, wall clock, unseeded randomness)
# into an incident record.
scenario-smoke:
	$(GO) build -o /tmp/pandia-scenario-smoke ./cmd/pandia
	@set -e; for f in scenarios/*.json; do \
	  /tmp/pandia-scenario-smoke replay -q -o /tmp/scenario-rec1.json $$f; \
	  /tmp/pandia-scenario-smoke replay -q -o /tmp/scenario-rec2.json $$f; \
	  cmp /tmp/scenario-rec1.json /tmp/scenario-rec2.json \
	    || { echo "scenario-smoke: $$f replay not byte-identical" >&2; exit 1; }; \
	  echo "scenario-smoke: $$f ok"; \
	done

# journal-smoke is the flight-recorder determinism gate: every bundled
# scenario is replayed twice with -journal and the decision-journal JSONL
# must be byte-identical across replays (DESIGN.md §13).
journal-smoke:
	$(GO) build -o /tmp/pandia-journal-smoke ./cmd/pandia
	@set -e; for f in scenarios/*.json; do \
	  /tmp/pandia-journal-smoke replay -q -o /dev/null -journal /tmp/journal-smoke1.jsonl $$f; \
	  /tmp/pandia-journal-smoke replay -q -o /dev/null -journal /tmp/journal-smoke2.jsonl $$f; \
	  cmp /tmp/journal-smoke1.jsonl /tmp/journal-smoke2.jsonl \
	    || { echo "journal-smoke: $$f journal not byte-identical" >&2; exit 1; }; \
	  echo "journal-smoke: $$f ok"; \
	done
