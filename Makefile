PYTHON ?= python
export PYTHONPATH := src

.PHONY: test shapes lint lint-rules chaos audit bench-selftest identical obs-cost crypto-cost console experiments census

test:
	$(PYTHON) -m pytest -x -q

# The paper's Section VIII shapes (Fig. 4-8, Tables I-II, ablations)
# asserted on the experiment drivers; outside testpaths (~30 s).
shapes:
	$(PYTHON) -m pytest benchmarks -q --benchmark-disable

# Protocol-aware lints always run; ruff (generic hygiene) only when
# installed — the offline dev container ships without it, CI installs it.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping generic hygiene checks"; \
	fi
	$(PYTHON) -m repro.analysis src tests

lint-rules:
	$(PYTHON) -m repro.analysis --list-rules

chaos:
	$(PYTHON) -m repro.chaos --seed 7 --runs 5 --profile mixed --shrink --strict

# Both verdicts per run, at the audit's plan sizes: --strict fails a
# run on any invariant violation or imperfect attribution.
AUDIT_SIZES = --batches 6 --horizon-ms 12000 --settle-ms 8000
audit:
	$(PYTHON) -m repro.chaos --seed 2 --runs 2 --profile byzantine $(AUDIT_SIZES) --strict --obs-out audit-artifacts
	$(PYTHON) -m repro.chaos --seed 7 --runs 2 --profile byzantine $(AUDIT_SIZES) --fault-free --strict --obs-out audit-artifacts/fault-free

# The repo benchmark (bench/, BENCHMARK.json) checking itself: every
# workload at 1/20 size, determinism, obs-on == obs-off work, and
# BENCHMARK.json <-> bench/run.py lockstep (~10 s).
bench-selftest:
	python3 bench/run.py --selftest

# A refactor must leave the seeded runs bit-identical: `make identical
# BASE=<rev>` exports BASE (`git archive`, so no worktree stays
# registered) into IDENTICAL_DIR, runs the traced benchmark there and in
# the working tree on seeds 7 and 11, and fails on any `changed` exact
# counter, any *_vms value that is not `same`, or any workload whose
# schedule_digest, failed or correct differs between the two result files
# (`--compare` itself only fails on REGRESSED/unresolved host-time rows).
IDENTICAL_DIR ?= /tmp/repro-identical
identical:
	@test -n "$(BASE)" || { echo "usage: make identical BASE=<rev>" >&2; exit 2; }
	rm -rf $(IDENTICAL_DIR) && mkdir -p $(IDENTICAL_DIR)/base
	git archive $(BASE) | tar -x -C $(IDENTICAL_DIR)/base
	@status=0; for seed in 7 11; do \
		run="bench/run.py --seed $$seed --repeats 1 --trace 1 --out"; \
		(cd $(IDENTICAL_DIR)/base && python3 $$run ../base-$$seed.json) >/dev/null; \
		python3 $$run $(IDENTICAL_DIR)/tree-$$seed.json >/dev/null; \
		python3 bench/run.py --compare $(IDENTICAL_DIR)/base-$$seed.json \
			$(IDENTICAL_DIR)/tree-$$seed.json >$(IDENTICAL_DIR)/compare-$$seed.txt; \
		test -s $(IDENTICAL_DIR)/compare-$$seed.txt || status=1; \
		awk -v seed=$$seed '$$NF == "changed" || ($$2 ~ /_vms$$/ && $$NF != "same") \
			{ print "seed " seed ": " $$0; bad = 1 } END { exit bad }' \
			$(IDENTICAL_DIR)/compare-$$seed.txt || status=1; \
		python3 -c 'import json, sys; \
			base, tree = (json.load(open(path))["workloads"] for path in sys.argv[2:]); \
			bad = ["seed %s: %s %s %r -> %r" % (sys.argv[1], name, key, \
				base.get(name, {}).get(key), tree.get(name, {}).get(key)) \
				for name in sorted(base.keys() | tree.keys()) \
				for key in ("schedule_digest", "failed", "correct") \
				if base.get(name, {}).get(key) != tree.get(name, {}).get(key)]; \
			print("\n".join(bad)) if bad else None; \
			sys.exit(1 if bad else 0)' \
			$$seed $(IDENTICAL_DIR)/base-$$seed.json $(IDENTICAL_DIR)/tree-$$seed.json \
			|| status=1; \
	done; \
	test $$status -ne 0 || echo "identical on seeds 7 and 11: every exact counter, *_vms value, schedule_digest, failed and correct"; \
	exit $$status

# What full observability costs: the same traffic with telemetry off
# and on. Budget: wan_mixed_obs commits_per_s >= 0.80 x wan_mixed and
# peak_rss_mb <= 1.4 x wan_mixed (docs/OBSERVABILITY.md).
obs-cost:
	@python3 bench/run.py --workload wan_mixed | awk '$$2 ~ /^(commits_per_s|peak_rss_mb)$$/'
	@python3 bench/run.py --workload wan_mixed_obs | awk '$$2 ~ /^(commits_per_s|peak_rss_mb)$$/'

# What digesting costs a Blockplane-Paxos round: untraced throughput,
# then the crypto layer's counters and host share from a traced run
# (--trace 1 prints no commits_per_s). See docs/PERFORMANCE.md.
crypto-cost:
	@python3 bench/run.py --workload paxos_aws | awk '$$2 == "commits_per_s"'
	@python3 bench/run.py --workload paxos_aws --trace 1 | awk '$$2 ~ /^crypto\./'

# Seeded audited chaos run -> schema-checked bundle -> offline replay.
console:
	$(PYTHON) -m repro.chaos --seed 2 --runs 1 --profile byzantine $(AUDIT_SIZES) --obs-out console-run
	$(PYTHON) -m repro console --validate console-run/run-0/console.json
	$(PYTHON) -m repro console --bundle console-run/run-0/console.json --out replay.html

experiments:
	$(PYTHON) -m repro

# Execution census (tools/census.py): every real path (the benchmark,
# the shapes, the examples, every CLI the Makefile and CI run) and then
# tier-1 run under a call tracer; lists each src/repro function no real
# path enters, by bucket (~8 min). Fails when more are unreached than
# CENSUS_MAX: lower it when a PR deletes, never raise it.
CENSUS_MAX = 68
census:
	python3 tools/census.py --max $(CENSUS_MAX)
