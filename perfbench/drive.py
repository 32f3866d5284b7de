"""One benchmark process: prepare a run, probe set-up, or measure.

``run.py`` starts every step in a fresh interpreter::

    drive.py prepare --workload W --seed N --work DIR   # corpus + references
    drive.py setup   --workload W --seed N --work DIR   # one set-up, timed
    drive.py measure --workload W --seed N --work DIR --seconds S --trace T

Each step writes ``DIR/<step>.json`` and prints nothing on stdout. ``prepare``
computes every reference document, and for cold_cli the cache-dir template
(see :class:`InProcess`), so the measuring process starts its set-up clock
before its first ``repro`` import. Only ``inputs``, ``oracle`` and ``spans``
are imported before that clock starts, and they import ``repro`` lazily.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from inputs import KINDS, Op, build_corpus, corpus_from_json, corpus_to_json, deck, op_stream, priming_design
from oracle import build_request, http_payload, matches

#: Seconds a server gets to drain after SIGTERM before it is killed.
_STOP_GRACE = 20.0

#: The cold_cli cache-dir template, under the step's work directory.
TEMPLATE = "cache-template"

#: Per-layer metrics that only the HTTP leg of warm_cli's traced run measures.
SERVE_METRICS = (
    "serve.server_ms", "serve.transport_ms", "serve.shed",
    "serve.dedup_hits", "serve.timeouts", "pool.worker_restarts",
)


def _log(message: str) -> None:
    print(f"[drive] {message}", file=sys.stderr, flush=True)


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


# --------------------------------------------------------------------- ops


def prime_corpus(execute: Callable[..., Any], workspace: Any, designs: List[Any]) -> None:
    """Run every (design, entity, command) of a corpus once on ``workspace``."""
    for design in designs:
        for entity in design.entities:
            for kind in KINDS:
                execute(workspace, kind, build_request(kind, design.source, entity, design.secret))


class InProcess:
    """Every op of a workload, run in this process.

    cold_cli and warm_cli open a fresh ``Workspace(cache_dir=D)`` per op, as
    a fresh CLI process would. hier_edit keeps one long-lived in-memory
    ``Workspace``, as an editor session would.

    Opening a disk cache scans the whole directory, so a cold_cli op costs
    more the more the directory holds. Each cold_cli deck therefore starts
    from a fresh copy of one template: the directory a CI job left behind
    at the previous commit, i.e. the base corpus run once. Every op then
    sees the same directory size on every run, however fast ops go.
    """

    def __init__(self, workload: str, plan: Dict[str, Any], work: str, name: str):
        self.workload = workload
        self.designs = corpus_from_json(plan["designs"])
        self.cache_dir = os.path.join(work, f"cache-{name}")
        self.template = os.path.join(work, TEMPLATE)
        self.deck: Optional[int] = None
        self.tracer: Optional[Any] = None
        self.session: Optional[Any] = None

    def _import(self) -> None:
        from repro.pipeline import render
        from repro.pipeline.serve import execute_request
        from repro.workspace import Workspace

        self.render = render
        self.execute = execute_request
        self.Workspace = Workspace

    def setup(self) -> None:
        self._import()
        if self.workload == "hier_edit":
            # The session is open: every base design linked and flattened once.
            self.session = self.Workspace()
            prime_corpus(self.execute, self.session, self.designs)
        elif self.workload == "warm_cli":
            # The cache dir of an unchanged commit: every op's artefacts, once.
            prime_corpus(self.execute, self.Workspace(cache_dir=self.cache_dir), self.designs)
        else:
            # First contact of the lazily imported layers (report, lint).
            prime = priming_design()
            for index, kind in enumerate(KINDS):
                self.run(Op(-1 - index, -1, kind, prime.id, "prime", prime.secret, prime.source))

    def between(self, op: Op) -> None:
        """Untimed work before ``op``: a cold_cli deck's fresh cache dir."""
        if self.workload == "cold_cli" and op.deck != self.deck:
            self.deck = op.deck
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            shutil.copytree(self.template, self.cache_dir)

    def run(self, op: Op) -> Tuple[float, int, str]:
        request = build_request(op.kind, op.source, op.entity, op.secret)
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(op.index, op.kind)
        started = time.perf_counter()
        workspace = self.session or self.Workspace(cache_dir=self.cache_dir)
        status, document = self.execute(workspace, op.kind, request)
        text = self.render.json_text(document)
        elapsed = time.perf_counter() - started
        if tracer is not None:
            tracer.end_op()
        return elapsed, status, text

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid`` (from /proc)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found: List[int] = []
    pending = [pid]
    while pending:
        for child in children.get(pending.pop(), []):
            found.append(child)
            pending.append(child)
    return found


class Served:
    """``vhdl-ifa serve`` as a subprocess over a cache dir; ops are HTTP posts.

    One connection per request (the server answers ``Connection: close``).
    """

    def __init__(self, cache_dir: str, log_path: str):
        self.cache_dir = cache_dir
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.workers: List[int] = []

    def start(self) -> None:
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--workers", str(cpu_count()), "--cache-dir", self.cache_dir,
        ]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(command, stdout=subprocess.DEVNULL, stderr=log)
        deadline = time.monotonic() + 60
        marker = "listening on http://"
        while not self.port:
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start; see {self.log_path}")
            with open(self.log_path, encoding="utf-8", errors="replace") as handle:
                text = handle.read()
            if marker in text:
                self.port = int(text.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])
            else:
                time.sleep(0.01)
        while self._get("/healthz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)
        self.workers = _descendants(self.process.pid)

    def _request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def _get(self, path: str) -> Tuple[int, bytes]:
        try:
            return self._request("GET", path)
        except OSError:
            return 0, b""

    def metrics(self) -> Dict[str, Any]:
        status, body = self._get("/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics answered {status}")
        return json.loads(body)

    def run(self, op: Op) -> Tuple[float, int, str]:
        body = json.dumps(http_payload(op.kind, op.source, op.entity, op.secret)).encode()
        started = time.perf_counter()
        status, payload = self._request("POST", f"/{op.kind}", body)
        elapsed = time.perf_counter() - started
        return elapsed, status, payload.decode("utf-8")

    def close(self) -> None:
        if self.process is None:
            return
        pids = set(self.workers) | set(_descendants(self.process.pid))
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=_STOP_GRACE)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        deadline = time.monotonic() + _STOP_GRACE
        for pid in pids:
            while _is_running(pid):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.02)
        self.process = None


def _is_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


# ---------------------------------------------------------------- timed loop


#: The slice time that reported times are scaled to: roughly what
#: :func:`calibrate`'s slice takes on an idle core of a 2-vCPU Xeon VM, so
#: scaled figures stay close to wall-clock milliseconds there.
REFERENCE_SLICE_S = 0.001


def calibrate() -> float:
    """Seconds one fixed slice of interpreter work takes right now.

    The slice mixes container churn and integer/string work, like the
    program's own ops. The collector is off while it runs, so it never pays
    for a collection that the program's heap has made due.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        table = {}
        for index in range(1000):
            key = str(index)
            table[key] = [index, key * 2]
        total = 0
        for index in range(5000):
            total += len(str(index)) * (index & 7)
        del table
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


#: Slices timed on each side of an op that its speed estimate takes the
#: median of. One slice jitters by several percent, and now and then a
#: preempted slice reads twice as long; the host's speed drifts over
#: seconds, so a few ops' worth of slices still tracks it.
SPEED_WINDOW = 4


def at_reference_speed(seconds: float, slices: List[float]) -> float:
    """``seconds`` of wall time, scaled to :data:`REFERENCE_SLICE_S` speed
    by the median of ``slices`` timed around it."""
    return seconds * REFERENCE_SLICE_S / statistics.median(slices)


def closed_loop(
    run: Callable[[Op], Tuple[float, int, str]],
    ops: Iterator[Op],
    seconds: Optional[float],
    references: Dict[str, Any],
    clients: int = 1,
    between: Optional[Callable[[Op], None]] = None,
) -> Dict[str, Any]:
    """Run ``clients`` closed-loop clients until ``seconds`` pass (or ``ops`` end).

    Each client sends its next op when the previous one has been answered
    and checked. An op fails on an exception, a non-200 status (a 429 shed
    included) or a document that differs from its reference; a failure is
    counted and the loop goes on. ``between(op)``, if given, runs untimed
    just before each op.

    The machine's speed drifts by up to 1.5x over seconds to minutes as
    other tenants load the host. Each client times a fixed slice of work
    (:func:`calibrate`) between ops, and each op's latency is scaled by the
    median of the :data:`SPEED_WINDOW` slices on each side of it
    (:func:`at_reference_speed`).
    The raw latencies are kept beside the scaled ones. Checking, calibrating
    and ``between`` are the clients' think time, so they are left out of the
    wall time that ``ops_per_s`` divides by.

    Percentiles are taken over whole decks only (see ``inputs.op_stream``):
    ops of the deck the deadline cut short count as attempted, but not in
    the latency samples, so every run weighs each op type the same.
    """
    lock = threading.Lock()
    samples: List[Tuple[str, float, float, int]] = []
    dealt: Dict[int, int] = {}
    state = {"attempted": 0, "failed": 0, "think": 0.0}
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def client() -> None:
        # Op i of this client ran between slices[i] and slices[i + 1].
        slices = [calibrate()]
        timed: List[Tuple[str, float, int]] = []
        while True:
            with lock:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                op = next(ops, None)
                if op is None:
                    break
                dealt[op.deck] = dealt.get(op.deck, 0) + 1
            if between is not None:
                think = time.perf_counter()
                between(op)
                with lock:
                    state["think"] += time.perf_counter() - think
            try:
                elapsed, status, text = run(op)
            except Exception as error:  # an op failure, never the loop's
                _log(f"op {op.index} ({op.kind} {op.design}) raised {error!r}")
                with lock:
                    state["attempted"] += 1
                    state["failed"] += 1
                continue
            think = time.perf_counter()
            ok = _check(op, status, text, references)
            slices.append(calibrate())
            think = time.perf_counter() - think
            timed.append((op.kind, elapsed, op.deck))
            with lock:
                state["attempted"] += 1
                state["failed"] += 0 if ok else 1
                state["think"] += think
        with lock:
            for index, (kind, elapsed, deck) in enumerate(timed):
                around = slices[max(index + 1 - SPEED_WINDOW, 0):index + 1 + SPEED_WINDOW]
                samples.append((kind, elapsed, at_reference_speed(elapsed, around), deck))

    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client) for _ in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    busy = time.perf_counter() - started - state["think"] / clients
    latencies: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    raw: Dict[str, List[float]] = {kind: [] for kind in KINDS}
    whole = {deck for deck, count in dealt.items() if count == max(dealt.values())}
    for kind, elapsed, scaled, deck in samples:
        if deck in whole:
            latencies[kind].append(scaled)
            raw[kind].append(elapsed)
    drift = sum(scaled - elapsed for _, elapsed, scaled, _ in samples)
    return {
        "latencies": latencies,
        "raw_latencies": raw,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "wall_s": busy + drift / clients,
        "raw_wall_s": busy,
    }


def _check(op: Op, status: int, text: str, references: Dict[str, Any]) -> bool:
    ok = matches(status, text, references.get(op.ref))
    if not ok:
        _log(f"op {op.index} ({op.kind} {op.design}/{op.entity}) failed: status {status}")
    return ok


def _p50(phase: Dict[str, Any]) -> float:
    values = [value for kind in KINDS for value in phase["latencies"][kind]]
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------- steps


def _load_plan(work: str) -> Dict[str, Any]:
    with open(os.path.join(work, "plan.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _write(work: str, step: str, document: Dict[str, Any]) -> None:
    with open(os.path.join(work, f"{step}.json"), "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def step_prepare(args: argparse.Namespace) -> None:
    from oracle import compute_references

    designs = build_corpus(args.workload, args.seed)
    plan = {
        "designs": corpus_to_json(designs),
        "references": compute_references(designs),
    }
    with open(os.path.join(args.work, "plan.json"), "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    if args.workload == "cold_cli":
        from repro.pipeline.serve import execute_request
        from repro.workspace import Workspace

        template = Workspace(cache_dir=os.path.join(args.work, TEMPLATE))
        prime_corpus(execute_request, template, designs)


def timed_setup(bench: Any) -> Dict[str, float]:
    """Set ``bench`` up once; the clock starts before the first ``repro`` import."""
    slices = [calibrate() for _ in range(SPEED_WINDOW)]
    started = time.perf_counter()
    bench.setup()
    elapsed = time.perf_counter() - started
    slices += [calibrate() for _ in range(SPEED_WINDOW)]
    return {"setup_s": at_reference_speed(elapsed, slices), "raw_setup_s": elapsed}


def step_setup(args: argparse.Namespace) -> None:
    plan = _load_plan(args.work)
    bench = InProcess(args.workload, plan, args.work, f"setup{os.getpid()}")
    result = timed_setup(bench)
    shutil.rmtree(bench.cache_dir, ignore_errors=True)
    _write(args.work, f"setup-{args.probe}", result)


def step_measure(args: argparse.Namespace) -> None:
    plan = _load_plan(args.work)
    references = plan["references"]
    designs = corpus_from_json(plan["designs"])
    stream = op_stream(designs, args.workload, args.seed)
    bench = InProcess(args.workload, plan, args.work, "measure")
    result: Dict[str, Any] = timed_setup(bench)
    if not args.trace:
        phase = closed_loop(bench.run, stream, args.seconds, references, between=bench.between)
        result.update(phase)
        result["peak_rss_mb"] = bench.peak_rss_mb()
    else:
        result.update(_traced(args, bench, stream, references))
    _write(args.work, "measure", result)


def _serve_leg(args, bench, stream, references, seconds) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """warm_cli's cache dir served by ``vhdl-ifa serve --workers nproc``.

    Two closed-loop clients post the op stream, as CI jobs and editors that
    share one server would. The mean server-side request time comes from
    ``GET /metrics``; transport is the rest of the mean round trip. These
    figures are per-layer only: with two cores shared by the clients, the
    server and its workers, the round trip swings with host contention
    more than a gated metric may.
    """
    server = Served(bench.cache_dir, os.path.join(args.work, "server.log"))
    try:
        server.start()
        # Two passes over the deck, so every worker holds the working set
        # in its own memory tier.
        warm = [
            Op(-1 - index, -1, kind, design.id, entity, design.secret, design.source)
            for index, (design, entity, kind, _) in enumerate(deck(bench.designs, args.workload) * 2)
        ]
        phases = [closed_loop(server.run, iter(warm), None, references, clients=2)]
        before = server.metrics()
        phases.append(closed_loop(server.run, stream, seconds, references, clients=2))
        after = server.metrics()
    finally:
        server.close()
    timed = phases[-1]
    count = after["latency"]["request"]["count"] - before["latency"]["request"]["count"]
    server_s = after["latency"]["request"]["sum_seconds"] - before["latency"]["request"]["sum_seconds"]
    # Both sides of the split are wall-clock seconds, not speed-scaled.
    rtts = [value for kind in KINDS for value in timed["raw_latencies"][kind]]
    metrics = {"serve.server_ms": server_s / max(count, 1) * 1e3}
    metrics["serve.transport_ms"] = statistics.fmean(rtts) * 1e3 - metrics["serve.server_ms"]
    for name, key in (("serve.shed", "shed"), ("serve.dedup_hits", "dedup_hits"),
                      ("serve.timeouts", "timeouts"), ("pool.worker_restarts", "worker_restarts")):
        metrics[name] = (after[key] - before[key]) / max(timed["attempted"], 1)
    return metrics, phases


def _traced(args, bench, stream, references) -> Dict[str, Any]:
    """The traced run: an untraced part, then a traced part of equal length.

    warm_cli first spends a third of the time on the HTTP leg
    (:func:`_serve_leg`); the other workloads report no ``serve.*`` figures.
    """
    from spans import Tracer, layer_metrics, top_layers

    metrics: Dict[str, float] = {name: 0.0 for name in SERVE_METRICS}
    phases: List[Dict[str, Any]] = []
    span = args.seconds / 2
    if args.workload == "warm_cli":
        span = args.seconds / 3
        served, phases = _serve_leg(args, bench, stream, references, span)
        metrics.update(served)
    baseline = closed_loop(bench.run, stream, span, references, between=bench.between)
    phases.append(baseline)
    tracer = Tracer()
    tracer.install()
    try:
        bench.tracer = tracer
        traced = closed_loop(bench.run, stream, span, references, between=bench.between)
    finally:
        bench.tracer = None
        tracer.uninstall()
    phases.append(traced)
    spans = tracer.spans
    metrics.update(layer_metrics(spans))
    metrics["trace.overhead_ratio"] = _p50(traced) / _p50(baseline) if _p50(baseline) else 0.0
    os.makedirs(args.spans_dir, exist_ok=True)
    tracer.write(os.path.join(args.spans_dir, f"{args.workload}-seed{args.seed}.jsonl"))
    return {
        "attempted": sum(phase["attempted"] for phase in phases),
        "failed": sum(phase["failed"] for phase in phases),
        "per_layer": metrics,
        "top_layers": top_layers(spans, KINDS),
        "traced_ops": traced["attempted"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("prepare", "setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", type=int, default=0)
    parser.add_argument("--spans-dir", default=".")
    args = parser.parse_args(argv)
    {"prepare": step_prepare, "setup": step_setup, "measure": step_measure}[args.step](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
