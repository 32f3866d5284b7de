"""The repository benchmark: user-facing workloads of vhdl-ifa.

    python3 perfbench/run.py --workload cold_cli --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload

Run it from the repository root. It imports nothing from ``src/`` itself.
Every step runs in a fresh interpreter (see ``drive.py``):

1. ``prepare`` builds the seeded corpus and every reference document;
2. with ``--trace 0``, ``setup`` probes the workload's set-up four times;
3. ``measure`` sets up once more, then runs the closed loop for
   ``--seconds``. With ``--trace 1`` it runs an untraced part and a traced
   part instead (warm_cli also an HTTP part), and reports the per-layer
   metrics.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. Each metric is ``{"value", "unit"}``. A table
above it repeats the metrics with their sample counts, and the machine facts
(CPU count and model, Python version). The full record, samples included,
goes to ``.perfbench/results/``. Spans of traced runs go to
``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

#: Set-up runs per measurement: this many probes plus the measuring one.
#: A set-up takes about a second, so host noise moves one by up to 30%.
SETUP_PROBES = 4

#: Seconds every step but the timed loop may take in one run: preparing,
#: five set-ups, and warm_cli's server start in a traced run.
STEP_ALLOWANCE_S = 110.0

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("analyze_p50_ms", "ms"),
    ("check_p50_ms", "ms"),
    ("lint_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: Printed beside the end-to-end metrics but not reported: it is 0 on a
#: correct run, and the result's ``failed`` count carries it.
FAILED_RATIO = ("failed_ratio", "ratio")

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("vhdl.parse_ms", "ms"),
    ("vhdl.parse_calls", "count"),
    ("vhdl.parse_kb", "KB"),
    ("vhdl.elaborate_ms", "ms"),
    ("cache.open_ms", "ms"),
    ("cache.disk.put_ms", "ms"),
    ("cache.disk.puts", "count"),
    ("cache.disk_mb", "MB"),
    ("cache.disk.get_ms", "ms"),
    ("cache.disk.hits", "count"),
    ("cache.memory.get_ms", "ms"),
    ("cache.memory.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("security.report_ms", "ms"),
    ("render.document_ms", "ms"),
    ("render.json_ms", "ms"),
    ("render.response_kb", "KB"),
    ("hier.build_ms", "ms"),
    ("hier.summary_ms", "ms"),
    ("hier.summaries_built", "count"),
    ("hier.summaries_reused", "count"),
    ("hier.link_ms", "ms"),
    ("hier.flatten_ms", "ms"),
    ("hier.flatten_calls", "count"),
    ("dataflow.solve_ms", "ms"),
    ("dataflow.solve_calls", "count"),
    ("cfg.build_ms", "ms"),
    ("analysis.active_ms", "ms"),
    ("analysis.reaching_ms", "ms"),
    ("analysis.local_ms", "ms"),
    ("analysis.specialize_ms", "ms"),
    ("analysis.closure_ms", "ms"),
    ("analysis.flow_graph_ms", "ms"),
    ("analysis.lint_ms", "ms"),
    ("workspace.self_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.dedup_hits", "count"),
    ("serve.timeouts", "count"),
    ("pool.worker_restarts", "count"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def machine() -> Dict[str, Any]:
    """The facts every result is stamped with."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
    }


class StepError(RuntimeError):
    """A child step failed or ran out of time."""


def run_step(step: str, args: argparse.Namespace, work: str, deadline: float, **extra: Any) -> Dict[str, Any]:
    """Run one ``drive.py`` step in a fresh interpreter; return its JSON."""
    command = [
        sys.executable, os.path.join(HERE, "drive.py"), step,
        "--workload", args.workload, "--seed", str(args.seed), "--work", work,
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spans-dir", os.path.join(STATE, "spans"),
    ]
    for key, value in extra.items():
        command += [f"--{key}", str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # A session of its own, so a timeout can stop the server and its workers.
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr, start_new_session=True)
    try:
        code = child.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise StepError(f"{step} ran out of time")
    if code != 0:
        raise StepError(f"{step} exited with code {code}")
    if step == "prepare":
        return {}
    name = f"{step}-{extra['probe']}" if "probe" in extra else step
    with open(os.path.join(work, f"{name}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def end_to_end(measured: Dict[str, Any], setups: List[float]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """The end-to-end metrics of one measured run, with sample counts."""
    latencies = measured["latencies"]
    everything = [value for values in latencies.values() for value in values]
    if not everything:
        raise StepError("no op completed")
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": measured["attempted"] / measured["wall_s"],
        "latency_p50_ms": statistics.median(everything) * 1e3,
        "latency_p90_ms": _p90(everything) * 1e3,
        "peak_rss_mb": measured["peak_rss_mb"],
        "failed_ratio": measured["failed"] / max(measured["attempted"], 1),
    }
    samples = {
        "setup_s": len(setups),
        "ops_per_s": measured["attempted"],
        "latency_p50_ms": len(everything),
        "latency_p90_ms": len(everything),
        "peak_rss_mb": 1,
        "failed_ratio": measured["attempted"],
    }
    for kind in ("analyze", "check", "lint"):
        kind_values = latencies.get(kind) or [0.0]
        values[f"{kind}_p50_ms"] = statistics.median(kind_values) * 1e3
        samples[f"{kind}_p50_ms"] = len(latencies.get(kind, []))
    return values, samples


def run_workload(args: argparse.Namespace) -> Dict[str, Any]:
    """Prepare, set up and measure one workload; return its record."""
    # The loop ends after --seconds plus its last op; twice that is ample.
    deadline = time.monotonic() + STEP_ALLOWANCE_S + 2 * args.seconds
    work = os.path.join(STATE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        run_step("prepare", args, work, deadline)
        setups: List[Dict[str, float]] = []
        if not args.trace:
            for probe in range(SETUP_PROBES):
                setups.append(run_step("setup", args, work, deadline, probe=probe))
        measured = run_step("measure", args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "attempted": measured["attempted"],
        "failed": measured["failed"],
    }
    if args.trace:
        record["metrics"] = {name: measured["per_layer"][name] for name, _ in PER_LAYER}
        record["units"] = dict(PER_LAYER)
        record["samples"] = {name: measured["traced_ops"] for name, _ in PER_LAYER}
        record["top_layers"] = measured["top_layers"]
    else:
        setups.append(measured)
        values, samples = end_to_end(measured, [setup["setup_s"] for setup in setups])
        record["metrics"] = values
        record["units"] = dict(END_TO_END + (FAILED_RATIO,))
        record["samples"] = samples
        raw = [value for values in measured["raw_latencies"].values() for value in values]
        record["wall_clock"] = {
            "setup_s": statistics.median(setup["raw_setup_s"] for setup in setups),
            "ops_per_s": measured["attempted"] / measured["raw_wall_s"],
            "latency_p50_ms": statistics.median(raw) * 1e3,
            "latency_p90_ms": _p90(raw) * 1e3,
        }
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    path = os.path.join(STATE, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    return record


def print_table(record: Dict[str, Any]) -> None:
    facts = record["machine"]
    print(
        f"{record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"attempted {record['attempted']}  failed {record['failed']}  "
        f"(nproc {facts['nproc']}, {facts['cpu_model']}, Python {facts['python']})"
    )
    print(f"  {'metric':<24} {'value':>12}  {'unit':<6} {'samples':>7}")
    for name, value in record["metrics"].items():
        print(f"  {name:<24} {value:>12.4f}  {record['units'][name]:<6} {record['samples'][name]:>7}")
    for kind, layers in record.get("top_layers", {}).items():
        shares = ", ".join(f"{name} {value:.2f}" for name, value in layers.items())
        print(f"  largest layers of {kind} ops (ms/op): {shares}")


def reported(record: Dict[str, Any], prefix: str = "") -> Dict[str, Dict[str, Any]]:
    """The metrics of the final JSON line (only the declared ones)."""
    declared = PER_LAYER if record["trace"] else END_TO_END
    return {
        prefix + name: {"value": record["metrics"][name], "unit": unit}
        for name, unit in declared
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="vhdl-ifa repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        log(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing")
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # Byte-compile once, so no run pays for compiling what an earlier one did not import.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for workload in workloads:
            args.workload = workload
            record = run_workload(args)
            print_table(record)
            records.append(record)
    except StepError as error:
        log(f"{args.workload}: {error}")
        return 1
    metrics: Dict[str, Dict[str, Any]] = {}
    for record in records:
        metrics.update(reported(record, f"{record['workload']}." if len(records) > 1 else ""))
    failed = sum(record["failed"] for record in records)
    summary = {
        "correct": failed == 0,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
