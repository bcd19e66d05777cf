# Development gates for the pandia repo.
#
#   make check   - the full tier-1+ gate: build, go vet, pandia-vet, race tests.
#                  Run this before sending changes; CI-equivalent.
#   make test    - the plain tier-1 gate (build + tests), as in ROADMAP.md.
#   make vet     - the custom static analyzers only (cmd/pandia-vet).
#   make fmt-check - fail if gofmt would change a .go file outside testdata/.
#   make bench-module - vet and test cmd/pandia-bench, a module of its own
#                  that the root `go build ./...` skips.
#   make results-check - regenerate results/ and compare it with the
#                  committed files byte for byte.
#   make examples-smoke - build and run every program under examples/.
#   make fuzz    - short fuzzing pass over the parser/topology targets.
#   make bench   - core benchmarks with -benchmem, recorded as the "current"
#                  run in BENCH_core.json (the "baseline" run stays pinned).

GO ?= go

# The benchmarks whose trajectory BENCH_core.json tracks.
# BenchmarkSweepPruned covers the dominance-pruned sweep of DESIGN.md §12;
# BenchmarkTestbedRun and BenchmarkMeasureAll the simulated testbed (§8);
# BenchmarkCoScore, BenchmarkSubmit, BenchmarkRebalance and
# BenchmarkDrainSocket the scheduler rung over the score-only joint solve;
# BenchmarkControlCycle one cycle of a cache-hit control loop over six
# services; BenchmarkRecommend the placement-advice rung (pruned sweep + two
# full predictions on the X5-2).
BENCH_CORE = BenchmarkFig10Curves|BenchmarkPredictOnce$$|BenchmarkPredictorReuse|BenchmarkPredictSweep$$|BenchmarkTestbedRun|BenchmarkMeasureAll$$|BenchmarkEnumeratePlacements|BenchmarkSweepPruned$$|BenchmarkCoScore$$|BenchmarkSubmit|BenchmarkRebalance$$|BenchmarkDrainSocket$$|BenchmarkControlCycle$$|BenchmarkRecommend$$

.PHONY: check test vet fmt-check pandia-vet alloccheck lockcheck fuzz fuzz-smoke scenario-golden results-check examples-smoke bench bench-smoke bench-gate bench-module build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet: pandia-vet

pandia-vet:
	$(GO) vet ./...
	$(GO) run ./cmd/pandia-vet ./...

# alloccheck alone, for the local edit loop: the static zero-allocation
# proof of the annotated //pandia:noalloc hot path — in internal/core
# Predictor.PredictTime, Predictor.speedupBound, sweepChunks,
# sortByBound, CoPredictor.Score and ScoreValidated, job.walk,
# engine.iterate, engine.layout, engine.addShared, engine.loadSummary,
# PlacedDigest and CoCache.Key; the run replay both solvers share,
# replay.Sum; the scheduler's candidatesLocked; the obs updates
# (Counter.Inc, Counter.Add, Gauge.Set, Histogram.Observe,
# RingTracer.Emit); and the testbed's fixedPoint with its per-run layout,
# saturation screen and per-iteration helpers (demandWalk.layout,
# demandWalk.screen, demandWalk.values, demandWalk.addends,
# resTable.countUsers, resTable.sumShared and runScratch.commPenalties),
# noiseZ, RunKey and NoiseSource's Seed, Uint64 and Int63. `make check`
# already runs it as part of the full pandia-vet suite.
alloccheck:
	$(GO) run ./cmd/pandia-vet -only alloccheck ./...

# lockcheck alone, for the local edit loop: the lock-discipline proof of
# the concurrency surface — deadlockcheck (acquisition order, re-entry,
# wrong-flavour or missing unlocks, blocking under a lock) and guardcheck
# (//pandia:guardedby field accesses). `make check` already runs both as
# part of the full pandia-vet suite.
lockcheck:
	$(GO) run ./cmd/pandia-vet -only deadlockcheck,guardcheck ./...

# check runs every step even after one fails, then names each failed step
# and fails if any did, so a bench-gate ns/op failure under host load does
# not hide whether the steps after it pass.
check:
	@failed=; \
	step() { name=$$1; shift; echo "check: $$name"; "$$@" || failed="$$failed $$name"; }; \
	step build $(GO) build ./...; \
	step gofmt $(MAKE) fmt-check; \
	step go-vet $(GO) vet ./...; \
	step pandia-vet $(GO) run ./cmd/pandia-vet ./...; \
	step race-tests $(GO) test -race ./...; \
	step fuzz-smoke $(MAKE) fuzz-smoke; \
	step bench-gate $(MAKE) bench-gate; \
	step scenario-golden $(MAKE) scenario-golden; \
	step results-check $(MAKE) results-check; \
	step examples-smoke $(MAKE) examples-smoke; \
	step bench-module $(MAKE) bench-module; \
	if [ -n "$$failed" ]; then echo "check: failed steps:$$failed" >&2; exit 1; fi; \
	echo "check: every step passed"

# fmt-check fails, naming the files, when gofmt -l lists any .go file
# outside testdata/ that git tracks or would track (untracked ones not
# ignored), and fails when gofmt itself fails on one. gofmt comes from the
# toolchain of $(GO). The analyzer fixtures under testdata/ keep the
# layout their expected findings are written against.
fmt-check:
	@gofmt="$$($(GO) env GOROOT)/bin/gofmt"; \
	list=$$(git ls-files --cached --others --exclude-standard '*.go' | grep -v '/testdata/'); \
	if [ -z "$$list" ]; then echo "fmt-check: git lists no .go file" >&2; exit 1; fi; \
	files=$$(echo "$$list" | xargs "$$gofmt" -l) || { echo "fmt-check: $$gofmt failed" >&2; exit 1; }; \
	if [ -n "$$files" ]; then echo "fmt-check: not gofmt-formatted:" >&2; echo "$$files" >&2; exit 1; fi; \
	echo "fmt-check: every .go file outside testdata/ is gofmt-formatted"

# bench-module builds, vets, and tests the end-to-end benchmark. It is a
# separate Go module (its go.mod replaces pandia with ../..), so the root
# `go build ./...` never compiles it: without this target a change to the
# public API could break the benchmark unnoticed.
bench-module:
	cd cmd/pandia-bench && $(GO) vet ./... && $(GO) test ./...

# examples-smoke builds and runs every program under examples/ and fails on
# a non-zero exit or an empty standard output. `go build ./...` compiles the
# examples but nothing else runs them, so without this step a change to the
# public API could break what an example does unnoticed. Each takes well
# under a second.
examples-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for d in examples/*/; do \
	  name=$$(basename "$$d"); \
	  $(GO) build -o "$$tmp/$$name" "./$$d"; \
	  "$$tmp/$$name" > "$$tmp/$$name.out" \
	    || { echo "examples-smoke: $$name exited non-zero" >&2; exit 1; }; \
	  [ -s "$$tmp/$$name.out" ] \
	    || { echo "examples-smoke: $$name printed nothing" >&2; exit 1; }; \
	  echo "examples-smoke: $$name ok"; \
	done

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
	FuzzSchedulerOps:./internal/scheduler/ \
	FuzzTestbedClasses:./internal/simhw/ \
	FuzzNoiseStream:./internal/simhw/

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
	$(GO) test -run '^$$' -bench 'BenchmarkPredictOnce$$|BenchmarkPredictorReuse|BenchmarkSweepPruned$$|BenchmarkTestbedRun$$|BenchmarkMeasureAll$$|BenchmarkCoScore$$|BenchmarkSubmit|BenchmarkRebalance$$|BenchmarkDrainSocket$$|BenchmarkControlCycle$$|BenchmarkRecommend$$' -benchtime 5x -benchmem . \
	  | $(GO) run ./cmd/pandia-benchjson -label smoke -out ''

# bench-gate is the perf/observability overhead gate: the PredictTime fast
# path (BenchmarkPredictorReuse) and the score-only joint solve
# (BenchmarkCoScore) must stay at 0 allocs/op, the scheduler's decision
# loop (BenchmarkSubmit, BenchmarkRebalance, BenchmarkDrainSocket,
# BenchmarkControlCycle) and one simulated testbed run
# (BenchmarkTestbedRun, only its returned ThreadRates) at or below their
# recorded allocs/op in BENCH_core.json's "current" run (exact, the
# primary regression teeth), and every gated benchmark within
# BENCH_TOLERANCE ns/op of a reference revision. Refresh the allocs/op
# record with `make bench` after intentional changes.
#
# The ns/op reference is a revision measured beside the working tree, not
# a recorded run: HEAD when the tree has uncommitted changes, and HEAD^
# when it is clean (a committed change, as in CI, where the checkout
# fetches two commits), so the gate never compares HEAD with itself; with
# a clean tree and no HEAD^ it fails. It builds a test binary from a
# temporary `git archive` of the reference and one from the tree (both
# -trimpath, so identical sources give the same binary), runs them
# alternately, benchmark by benchmark, five times each, and compares
# min-of-5 per side (benchjson -base). Both sides see the same host phase,
# so the tolerance measures the code, not the load of a shared host, where
# neighbours swing ns/op by double-digit percent for minutes at a time.
# benchjson and both binaries are built before any benchmark runs, so no
# compile competes with the measurement.
BENCH_TOLERANCE ?= 0.35
BENCH_GATED = BenchmarkPredictOnce$$ BenchmarkPredictorReuse BenchmarkSweepPruned$$ BenchmarkTestbedRun$$ BenchmarkCoScore$$ BenchmarkSubmit BenchmarkRebalance$$ BenchmarkDrainSocket$$ BenchmarkControlCycle$$
bench-gate:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	  if git diff --quiet HEAD --; then ref=HEAD^; else ref=HEAD; fi; \
	  git rev-parse -q --verify "$$ref^{commit}" >/dev/null || \
	    { echo "bench-gate: the tree is clean and HEAD has no parent to measure it against" >&2; exit 1; }; \
	  echo "bench-gate: ns/op reference is $$ref ($$(git rev-parse --short "$$ref"))"; \
	  $(GO) build -o "$$tmp/benchjson" ./cmd/pandia-benchjson; \
	  mkdir "$$tmp/ref"; git archive "$$ref" | tar -x -C "$$tmp/ref"; \
	  (cd "$$tmp/ref" && $(GO) test -trimpath -c -o "$$tmp/ref.test" .); \
	  $(GO) test -trimpath -c -o "$$tmp/tree.test" .; \
	  for i in 1 2 3 4 5; do \
	    for b in $(BENCH_GATED); do \
	      (cd "$$tmp/ref" && "$$tmp/ref.test" -test.run '^$$' -test.bench "$$b" -test.benchtime 500ms -test.benchmem) >> "$$tmp/ref.out"; \
	      "$$tmp/tree.test" -test.run '^$$' -test.bench "$$b" -test.benchtime 500ms -test.benchmem >> "$$tmp/tree.out"; \
	    done; \
	  done; \
	  "$$tmp/benchjson" -gate current -base "$$tmp/ref.out" -gate-tolerance $(BENCH_TOLERANCE) \
	    -zero-alloc BenchmarkPredictorReuse,BenchmarkCoScore \
	    -max-allocs 'BenchmarkTestbedRun$$|BenchmarkSubmit|BenchmarkRebalance$$|BenchmarkDrainSocket$$|BenchmarkControlCycle$$' \
	    -out BENCH_core.json < "$$tmp/tree.out"; \
	  echo "bench-gate: ns/op measured against $$ref ($$(git rev-parse --short "$$ref"))"

# scenario-golden is the CLI replay gate: one `pandia replay` per bundled
# scenario in scenarios/ must pass the scenario's assertions and write its
# incident record (-o) and decision journal (-journal, DESIGN.md §13) byte
# for byte as the goldens in internal/scenario/testdata/, the files
# TestCorpusGolden holds the in-process replay to. A diff means the CLI
# path changed what a replay records (flag handling, encoding, file
# writing) or leaked nondeterminism (map order, wall clock, unseeded
# randomness) into it; after an intended change, regenerate the goldens
# with `go test ./internal/scenario -run TestCorpusGolden -update`. The
# goldens are generated on amd64, where TestCorpusGolden runs, so the step
# is skipped on other architectures, as that test is.
scenario-golden:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	  if [ "$$($(GO) env GOARCH)" != amd64 ]; then \
	    echo "scenario-golden: the goldens are generated on amd64; skipped on $$($(GO) env GOARCH)"; exit 0; fi; \
	  $(GO) build -o "$$tmp/pandia" ./cmd/pandia; \
	  for f in scenarios/*.json; do \
	    name=$$(basename "$$f" .json); golden=internal/scenario/testdata/$$name; \
	    "$$tmp/pandia" replay -q -o "$$tmp/r.json" -journal "$$tmp/j.jsonl" "$$f"; \
	    cmp "$$tmp/r.json" "$$golden.record.json" \
	      || { echo "scenario-golden: $$f record differs from $$golden.record.json" >&2; exit 1; }; \
	    cmp "$$tmp/j.jsonl" "$$golden.journal.jsonl" \
	      || { echo "scenario-golden: $$f journal differs from $$golden.journal.jsonl" >&2; exit 1; }; \
	    echo "scenario-golden: $$f ok"; \
	  done

# results-check is the reproduction gate: it regenerates results/ (seed 1,
# the paper-default placement samples) into a temp dir and fails unless
# both hold the same files, each byte-identical to the committed one. The
# one exception is report.json's "metrics" section, the process-wide
# registry snapshot: its core.sweep.worker_predictions histogram follows
# how the sweep workers were scheduled, so the awk filter drops that
# section (MarshalIndent writes it from `  "metrics": {` to the next `  }`
# line) before the compare. The metricDeltas section is compared: its
# core.sweep.* and core.predict.total counters come from pruned sweeps,
# whose pruned set the round rule fixes whatever the worker count or the
# host's load (DESIGN.md §12). A diff means the numbers EXPERIMENTS.md quotes
# moved: regenerate with `go run ./cmd/pandia-eval` and say why in
# CHANGES.md. About 30 s of wall time on a 2-CPU host.
RESULTS_STRIP = /^  "metrics": \{/ { skip = 1 } skip { if (/^  }/) skip = 0; next } { print }
results-check:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	  $(GO) build -o "$$tmp/pandia-eval" ./cmd/pandia-eval; \
	  mkdir "$$tmp/out"; \
	  "$$tmp/pandia-eval" -out "$$tmp/out" > /dev/null; \
	  diff -r -q -x report.json results "$$tmp/out" \
	    || { echo "results-check: regenerated files differ from results/" >&2; exit 1; }; \
	  awk '$(RESULTS_STRIP)' results/report.json > "$$tmp/want.json"; \
	  awk '$(RESULTS_STRIP)' "$$tmp/out/report.json" > "$$tmp/got.json"; \
	  cmp "$$tmp/want.json" "$$tmp/got.json" \
	    || { echo "results-check: report.json differs outside its metrics section" >&2; exit 1; }; \
	  echo "results-check: results/ reproduced byte for byte"
