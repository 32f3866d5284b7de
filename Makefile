PYTHON ?= python

.PHONY: test bench check contracts docs examples hashseeds load-smoke lint perfbench-smoke

test:
	PYTHONPATH=src $(PYTHON) -m pytest -q

bench:
	$(PYTHON) benchmarks/run_benchmarks.py

# Tier-1 tests (which replay the contract corpus inline and pooled), the
# serve load smoke, then the perf regression gate: fails when any benchmark
# recorded in the committed BENCH_scaling.json snapshot slowed down >1.5x.
# Same round count as `make bench` so min-of-rounds is comparable.  The
# load smoke runs before the compare step so a compare failure cannot hide
# a load-smoke failure.
check: lint
	PYTHONPATH=src $(PYTHON) -m pytest -x -q
	$(PYTHON) scripts/load_smoke.py
	$(PYTHON) benchmarks/run_benchmarks.py --compare BENCH_scaling.json

# The vhdl-ifa/v1 contract gate: replay the committed interaction corpus
# (tests/contract/pacts), the v1 spec, against a live inline server, a
# live pool server (workers=2) and the JSON CLI.  Additive drift logs and
# passes; breaking drift fails with a field-level JSON-pointer diff.  Then
# re-record a scratch copy of the corpus from its own stimuli and diff it
# against the committed files: the corpus must be a fixed point of
# `contract record` (ids, matchers, schema and documents, byte for byte).
# Re-record after an intentional contract change with:
#   PYTHONPATH=src $(PYTHON) -m repro.cli contract record
contracts:
	PYTHONPATH=src $(PYTHON) -m repro.cli contract verify
	scratch=$$(mktemp -d); cp -R tests/contract/pacts "$$scratch/pacts" && \
		PYTHONPATH=src $(PYTHON) -m repro.cli contract record --pacts "$$scratch/pacts" && \
		diff -r tests/contract/pacts "$$scratch/pacts"; \
		status=$$?; rm -rf "$$scratch"; exit $$status

# Repo invariant gate (scripts/check_invariants.py: eight invariants checked
# by a stdlib AST lint) plus the mypy typed-core gate on repro.analysis.lint.
# mypy runs only when installed — CI installs it; the bare local toolchain
# may not have it.
lint:
	$(PYTHON) scripts/check_invariants.py
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy -p repro.analysis.lint; \
	else \
		echo "lint: mypy not installed, skipping typed-core gate"; \
	fi

# The disk-cache, demand-driven-run, hierarchy-invalidation, per-unit parse,
# reach, Table 5, rendered-graph-member and rendered-report tests under
# PYTHONHASHSEED 0-39: a universe, key or document that followed string
# hashing (the iteration order of a set of names) differs between seeds,
# and so does a Table 5 solution that depended on which process or name
# stood for its shape or class, a graph member or report one process
# renders and another splices, or a policy's key.
hashseeds:
	for seed in $$(seq 0 39); do \
		PYTHONHASHSEED=$$seed PYTHONPATH=src $(PYTHON) -m pytest -q \
			tests/test_disk_cache.py tests/test_goal_first.py \
			tests/test_hier_invalidation.py tests/test_parse_units.py \
			tests/test_reach.py tests/test_reaching_defs.py \
			tests/test_render_splice.py tests/test_check_splice.py \
			|| { echo "hashseeds: PYTHONHASHSEED=$$seed failed"; exit 1; }; \
	done

# A few seconds of concurrent traffic against the pooled serve mode:
# distinct-entity clients, a single-flight dedup wave, a warm re-post that
# must compute nothing, a structured 400, and a healthz/metrics scrape with
# asserted counters.
load-smoke:
	$(PYTHON) scripts/load_smoke.py

# Every perfbench workload for 3 s, untraced, then a traced warm_cli pass
# (the per-layer breakdown perf changes cite, plus its pooled serve leg):
# each fails unless the run's last line reports "correct": true, i.e. every
# served document matched its uncached reference (a disk-format change that
# alters a document fails).
PERFBENCH_CORRECT = $(PYTHON) -c "import json, sys; line = sys.stdin.read(); \
	ok = line.startswith('{') and json.loads(line)['correct']; \
	sys.exit(0 if ok else 'perfbench-smoke: not correct: ' + line.strip())"

perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload all --seed 1 --seconds 3 --trace 0 | tail -n 1 | \
		$(PERFBENCH_CORRECT)
	$(PYTHON) perfbench/run.py --workload warm_cli --seed 1 --seconds 2 --trace 1 | tail -n 1 | \
		$(PERFBENCH_CORRECT)

# Docs gate: internal links resolve, docs/cli.md matches cli.py, the
# policy-file keys documented in docs/api.md match security/policy_file.py,
# and the docs/api.md document table lists exactly the recorded kinds
# (scripts/check_docs.py lists all nine checks).
docs:
	$(PYTHON) scripts/check_docs.py

examples:
	scratch=$$(mktemp -d); for script in $(CURDIR)/examples/*.py; do \
		(cd $$scratch && PYTHONPATH=$(CURDIR)/src $(PYTHON) $$script > /dev/null) || exit 1; \
	done; rm -rf $$scratch
