"""Tests of the benchmark harness itself (not of the program it measures).

    PYTHONPATH=src python -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import hashlib
import http.server
import json
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import drive  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from oracle import compute_references  # noqa: E402


def _op_digests(workload: str, seed: int, count: int):
    designs = inputs.build_corpus(workload, seed)
    stream = inputs.op_stream(designs, workload, seed)
    return [hashlib.sha256(next(stream).source.encode()).hexdigest() for _ in range(count)]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = inputs.design_digest(inputs.build_corpus(workload, 7))
    assert first == inputs.design_digest(inputs.build_corpus(workload, 7))
    assert _op_digests(workload, 7, 60) == _op_digests(workload, 7, 60)
    assert _op_digests(workload, 7, 60) != _op_digests(workload, 8, 60)


@pytest.mark.parametrize("workload", ["cold_cli", "hier_edit"])
def test_every_op_source_is_new(workload):
    size = len(inputs.deck(inputs.build_corpus(workload, 3), workload))
    digests = _op_digests(workload, 3, 2 * size)
    assert len(set(digests)) == len(digests)


def test_every_hier_edit_op_flattens_to_a_new_program():
    """Leaf and root edits both miss the cached flattened program."""
    from repro.hier.flatten import flatten_source
    from repro.vhdl.parser import parse_program

    designs = inputs.build_corpus("hier_edit", 3)
    seen = {flatten_source(parse_program(design.source), None) for design in designs}
    stream = inputs.op_stream(designs, "hier_edit", 3)
    for _ in range(len(inputs.deck(designs, "hier_edit"))):
        flat = flatten_source(parse_program(next(stream).source), None)
        assert flat not in seen
        seen.add(flat)


def test_self_time_on_a_hand_built_tree():
    tree = [
        ("workspace", 0, 100, -1, 0, "analyze"),
        ("vhdl.parse", 10, 40, 0, 0, 2048),
        ("cache.get", 50, 70, 0, 0, False),
        ("cache.disk.get", 55, 60, 2, 0, False),
        # A child reaching past its parent only counts inside it.
        ("render.json", 90, 130, 0, 0, 1024),
    ]
    assert spans.self_times(tree) == [100 - 30 - 20 - 10, 30, 15, 5, 40]
    metrics = spans.layer_metrics(tree)
    assert metrics["trace.coverage_ratio"] == pytest.approx(0.6)
    assert metrics["workspace.self_ms"] == pytest.approx(40e-6)
    assert metrics["vhdl.parse_kb"] == pytest.approx(2.0)
    assert metrics["cache.misses"] == 1
    assert metrics["cache.hit_ratio"] == 0


def test_tracer_restores_what_it_wraps():
    from repro.pipeline import render, stages

    original = stages.parse_program, render.json_text
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert stages.parse_program is not original[0]
        tracer.begin_op(0, "analyze")
        render.json_text({"a": 1})
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert (stages.parse_program, render.json_text) == original
    assert [span[spans.NAME] for span in tracer.spans] == ["workspace", "render.json"]


def _tiny_plan():
    design = inputs.priming_design()
    return design, {"designs": inputs.corpus_to_json([design]), "references": compute_references([design])}


def test_malformed_source_counts_as_failed(tmp_path):
    design, plan = _tiny_plan()
    bench = drive.InProcess("cold_cli", plan, str(tmp_path), "test")
    bench.setup()
    good = inputs.Op(0, 0, "analyze", design.id, "prime", design.secret, design.source)
    bad = inputs.Op(1, 0, "analyze", design.id, "prime", design.secret, "entity oops is")
    phase = drive.closed_loop(bench.run, iter([good, bad]), None, plan["references"])
    assert (phase["attempted"], phase["failed"]) == (2, 1)


class _Shedding(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({"error": "server at capacity", "retry_after": 1}).encode()
        self.send_response(429)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_shed_429_counts_as_failed(tmp_path):
    design, plan = _tiny_plan()
    server = http.server.HTTPServer(("127.0.0.1", 0), _Shedding)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        bench = drive.Served(str(tmp_path / "cache"), str(tmp_path / "server.log"))
        bench.port = server.server_address[1]
        op = inputs.Op(0, 0, "check", design.id, "prime", design.secret, design.source)
        phase = drive.closed_loop(bench.run, iter([op]), None, plan["references"])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert (phase["attempted"], phase["failed"]) == (1, 1)


def test_benchmark_json_matches_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(inputs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert all(w["why"] == inputs.WHY[w["name"]] for w in declared["workloads"])
