PYTHON ?= python

.PHONY: test bench check contracts docs examples load-smoke lint perfbench-smoke

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
# passes; breaking drift fails with a field-level JSON-pointer diff.
# Re-record after an intentional contract change with:
#   PYTHONPATH=src $(PYTHON) -m repro.cli contract record
contracts:
	PYTHONPATH=src $(PYTHON) -m repro.cli contract verify

# Repo invariant gate (scripts/check_invariants.py: five invariants checked
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

# A few seconds of concurrent traffic against the pooled serve mode:
# distinct-entity clients, a single-flight dedup wave, a warm re-post that
# must compute nothing, a structured 400, and a healthz/metrics scrape with
# asserted counters.
load-smoke:
	$(PYTHON) scripts/load_smoke.py

# Every perfbench workload for 3 s, untraced: fails unless the run's last
# line reports "correct": true, i.e. every served document matched its
# uncached reference (a disk-format change that alters a document fails).
perfbench-smoke:
	$(PYTHON) perfbench/run.py --workload all --seed 1 --seconds 3 --trace 0 | tail -n 1 | \
		$(PYTHON) -c "import json, sys; line = sys.stdin.read(); \
		ok = line.startswith('{') and json.loads(line)['correct']; \
		sys.exit(0 if ok else 'perfbench-smoke: not correct: ' + line.strip())"

# Docs gate: internal links resolve, docs/cli.md matches cli.py, the
# policy-file keys documented in docs/api.md match security/policy_file.py,
# and the docs/api.md document table lists exactly the recorded kinds
# (scripts/check_docs.py lists all eight checks).
docs:
	$(PYTHON) scripts/check_docs.py

examples:
	scratch=$$(mktemp -d); for script in $(CURDIR)/examples/*.py; do \
		(cd $$scratch && PYTHONPATH=$(CURDIR)/src $(PYTHON) $$script > /dev/null) || exit 1; \
	done; rm -rf $$scratch
