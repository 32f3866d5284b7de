#!/usr/bin/env python
"""Run the scaling benchmark suite and snapshot a machine-readable summary.

The runner executes ``benchmarks/bench_scaling.py`` under pytest-benchmark and
distills the raw report into ``BENCH_scaling.json`` at the repository root:
one record per benchmark with its parameters, the reproduction facts the
benchmark asserted (``extra_info``) and the timing statistics.  The file is
committed, so every PR leaves a perf trajectory the next one can compare
against.

Usage::

    python benchmarks/run_benchmarks.py                 # writes BENCH_scaling.json
    python benchmarks/run_benchmarks.py --output out.json --min-rounds 3
    make bench                                          # the same, via the Makefile

With ``--compare SNAPSHOT`` the runner acts as a regression gate instead: it
re-runs the suite, does **not** overwrite the snapshot, and exits non-zero
when any benchmark recorded in the snapshot got slower than ``--max-ratio``
(default 1.5×, on the best-of-rounds ``min`` time, the most noise-robust
statistic).  ``make check`` wires this behind the test suite.  Min times
only compare across like hosts, so the gate warns first when the snapshot's
CPU count or Python version differs from the current run's.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BENCH_FILE = Path(__file__).resolve().parent / "bench_scaling.py"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_scaling.json"


def run_pytest_benchmark(bench_file: Path, raw_json: Path, min_rounds: int) -> None:
    """Run one benchmark file under pytest-benchmark, writing its raw report."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(bench_file),
        "-q",
        "--benchmark-only",
        f"--benchmark-min-rounds={min_rounds}",
        f"--benchmark-json={raw_json}",
    ]
    completed = subprocess.run(command, cwd=REPO_ROOT, env=env)
    if completed.returncode != 0:
        raise SystemExit(completed.returncode)


def distill(raw_report: dict) -> dict:
    """Reduce pytest-benchmark's raw report to the stable, comparable core."""
    records = []
    for bench in raw_report.get("benchmarks", []):
        stats = bench.get("stats", {})
        records.append(
            {
                "name": bench.get("name"),
                "group": bench.get("group"),
                "params": bench.get("params"),
                "extra_info": bench.get("extra_info", {}),
                "stats": {
                    key: stats.get(key)
                    for key in ("min", "max", "mean", "median", "stddev", "rounds")
                },
            }
        )
    records.sort(key=lambda record: record["name"] or "")
    machine = raw_report.get("machine_info", {})
    return {
        "datetime": raw_report.get("datetime"),
        "python": machine.get("python_version"),
        "machine": {
            key: machine.get(key) for key in ("system", "machine", "cpu", "node")
        },
        "benchmarks": records,
    }


def host_facts(report: dict) -> dict:
    """The host facts a min-time comparison silently depends on."""
    cpu = (report.get("machine") or {}).get("cpu") or {}
    return {"CPU count": cpu.get("count"), "Python version": report.get("python")}


def host_mismatches(snapshot: dict, current: dict) -> list[str]:
    """One warning per host fact the snapshot and the current run disagree on."""
    recorded, running = host_facts(snapshot), host_facts(current)
    return [
        f"warning: snapshot {fact} {recorded[fact]} differs from this run's "
        f"{running[fact]}; min times may not be comparable"
        for fact in recorded
        if recorded[fact] != running[fact]
    ]


def compare_against_snapshot(
    snapshot: dict, current: dict, max_ratio: float
) -> int:
    """Report per-benchmark slowdown vs. a snapshot; return the regression count.

    Compares the best-of-rounds ``min`` time of every benchmark present in
    both reports.  Benchmarks only present on one side are listed but never
    fail the gate (new benchmarks appear, retired ones disappear).
    """
    baseline = {
        record["name"]: record for record in snapshot.get("benchmarks", [])
    }
    regressions = 0
    print(f"{'benchmark':<42} {'snapshot':>10} {'current':>10} {'ratio':>7}")
    for record in current.get("benchmarks", []):
        name = record["name"]
        reference = baseline.pop(name, None)
        if reference is None:
            print(f"{name:<42} {'-':>10} (new benchmark, not gated)")
            continue
        old = reference["stats"]["min"]
        new = record["stats"]["min"]
        ratio = new / old if old else float("inf")
        verdict = "  REGRESSION" if ratio > max_ratio else ""
        if ratio > max_ratio:
            regressions += 1
        print(f"{name:<42} {old:>9.4f}s {new:>9.4f}s {ratio:>6.2f}x{verdict}")
    for name in sorted(baseline):
        print(f"{name:<42} (missing from this run, not gated)")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-file",
        type=Path,
        default=DEFAULT_BENCH_FILE,
        help="benchmark file to run (default: bench_scaling.py)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=DEFAULT_OUTPUT,
        help="where to write the distilled summary (default: BENCH_scaling.json)",
    )
    parser.add_argument(
        "--min-rounds",
        type=int,
        default=5,
        help="minimum pytest-benchmark rounds per benchmark",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        help=(
            "regression-gate mode: compare against this committed snapshot "
            "instead of overwriting it; exit 1 on any recorded benchmark "
            "slower than --max-ratio"
        ),
    )
    parser.add_argument(
        "--max-ratio",
        type=float,
        default=1.5,
        help="maximum tolerated min-time slowdown in --compare mode (default 1.5)",
    )
    args = parser.parse_args(argv)

    # Fail fast on a missing/corrupt snapshot before spending minutes
    # benchmarking.
    snapshot = None
    if args.compare is not None:
        try:
            snapshot = json.loads(args.compare.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot read snapshot {args.compare}: {error}")
            return 2

    with tempfile.TemporaryDirectory() as tmp:
        raw_json = Path(tmp) / "raw_benchmark.json"
        run_pytest_benchmark(args.bench_file, raw_json, args.min_rounds)
        raw_report = json.loads(raw_json.read_text())

    summary = distill(raw_report)

    if snapshot is not None:
        for warning in host_mismatches(snapshot, summary):
            print(warning)
        regressions = compare_against_snapshot(
            snapshot, summary, args.max_ratio
        )
        if regressions:
            print(
                f"{regressions} benchmark(s) regressed by more than "
                f"{args.max_ratio}x vs {args.compare}"
            )
            return 1
        print(f"no phase regressed by more than {args.max_ratio}x vs {args.compare}")
        return 0

    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.output} ({len(summary['benchmarks'])} benchmarks)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
