# Developer entry points.  `make verify` is the CI gate: tier-1 tests
# (which include every published experiment claim and the
# parallel-equivalence checks, see PERF.md), the static-analysis toolkit
# (see ANALYSIS.md), the dynamic replay-divergence gate (see REPLAY.md),
# and the chaos campaigns (see CHAOS.md).

PY := PYTHONPATH=src python

.PHONY: test test-par lint lint-tests lint-json replay replay-json chaos chaos-selftest strategy-matrix policy-matrix verify

test:
	$(PY) -m pytest -x -q

# The persistent-pool profile: the executor suite re-run with the shared
# worker pool exercised at jobs 1, 2 and 4 inside one interpreter, so
# pool reuse, resize-respawn and byte-identity across worker counts are
# all covered (see tests/perf/test_parallel_profile.py).
test-par:
	$(PY) -m pytest -x -q tests/perf

# Every rule family runs by default: determinism, COM contracts, the
# effects pass (same-tick handler races + parallel_map purity over one
# call graph), the hot-path pass (HOT001-HOT006 over the roots in
# src/repro/analysis/hotpath.manifest) and the lifecycle pass (LIFE001-
# LIFE006 against src/repro/analysis/lifecycle.manifest); `--only
# FAMILIES` narrows the run.  The planted-defect corpora that prove the
# whole-program passes work are gated by tests/analysis/test_*_corpus.py
# under `make test`.  Results are cached in .oftt-lint-cache.json (keyed
# by content hash + rule-set version); pass --no-cache to force a cold run.
lint:
	$(PY) -m repro.analysis src/repro --strict

# Tests are linted with the per-directory profile: the ambient DET rules
# (unseeded randomness, entropy, environment reads) are relaxed because
# property-style tests and CLI fixtures use them deliberately, and the
# PURE rules because test tasks exercise impurity on purpose.  The
# planted-defect corpus additionally violates both race families and all
# six lifecycle rules by design (the default lifecycle manifest matches
# by method name, so the planted corpus classes trip it directly).
lint-tests:
	$(PY) -m repro.analysis tests --strict \
		--relax tests=DET002,DET003,DET006,PURE001,PURE002,PURE003,PURE004 \
		--relax tests/analysis/corpus=RACE001,RACE002,RACE003,RACE101,RACE102,RACE103,LIFE001,LIFE002,LIFE003,LIFE004,LIFE005,LIFE006

lint-json:
	$(PY) -m repro.analysis src/repro --strict --format json

replay:
	$(PY) -m repro.replay --gate

replay-json:
	$(PY) -m repro.replay --gate --format json

# The smoke campaign must be violation-free (exit 0), and the sabotaged
# self-test must be caught by the monitors (exit 1) — both are gates.
chaos:
	$(PY) -m repro.chaos --smoke

chaos-selftest:
	@$(PY) -m repro.chaos --self-test > /dev/null; \
	status=$$?; \
	if [ $$status -eq 1 ]; then \
		echo "chaos self-test: monitors caught the sabotage (exit $$status, as expected)"; \
	else \
		echo "chaos self-test: expected exit 1, got $$status" >&2; exit 1; \
	fi

# The chaos smoke campaign under every replication strategy: the default
# cold-passive run (the `chaos` target) plus leader-follower and
# log-replay-dr, all violation-free.
strategy-matrix: chaos
	$(PY) -m repro.chaos --smoke --strategy leader-follower
	$(PY) -m repro.chaos --smoke --strategy log-replay-dr

# The mixed drifting fault-mix runs violation-free under the adaptive
# policy (runtime strategy switches included, flapping/thrash monitors
# live).  That adaptive beats every static policy on the mixed profile
# is a published claim (run_experiments S3), checked by `make test`.
policy-matrix:
	$(PY) -m repro.chaos --drift mixed --policy --seeds 3 --jobs 2

verify: test test-par lint lint-tests replay strategy-matrix policy-matrix chaos-selftest
