#!/usr/bin/env python
"""A short end-to-end load smoke of the pooled serve mode (CI-sized).

Starts a worker-pool :class:`AnalysisServer` on an ephemeral port over a
temporary shared cache directory, then drives it the way a small multi-
tenant burst would:

1. concurrent clients analysing distinct entities (pool parallelism);
2. a wave of *identical* concurrent requests (single-flight dedup);
3. a re-post of a phase-1 request, which the pool must serve warm: every
   stage from the cache, the parse not even read;
4. a request for a missing file (structured 400, no worker casualties);
5. a ``/healthz`` + ``/metrics`` scrape, asserting the counters reflect
   what just happened (dedup hits recorded, nothing shed, no restarts,
   every response stamped ``vhdl-ifa/v1``).

Exits non-zero with a diagnostic on any violated expectation.  Runtime is
a few seconds — cheap enough for the CI ``check`` job.  Run directly::

    PYTHONPATH=src python scripts/load_smoke.py
"""

from __future__ import annotations

import json
import http.client
import sys
import tempfile
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.pipeline.serve import AnalysisServer, ServerThread  # noqa: E402
from repro.workloads import multi_entity_program  # noqa: E402
from repro.workspace import Workspace  # noqa: E402

CLIENTS = 4
WORKERS = 2
ENTITY_SHAPE = (4, 16)


def _request(port, method, path, payload=None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    body = None if payload is None else json.dumps(payload)
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


def main() -> int:
    failures: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    with tempfile.TemporaryDirectory() as scratch:
        design = Path(scratch) / "designs.vhd"
        design.write_text(
            multi_entity_program(CLIENTS, *ENTITY_SHAPE), encoding="utf-8"
        )
        workspace = Workspace(cache_dir=str(Path(scratch) / "cache"))
        with ServerThread(
            AnalysisServer(
                port=0, workspace=workspace, workers=WORKERS, timeout=120.0
            )
        ) as server:
            # Phase 1: concurrent distinct-entity clients.
            outcomes: list[tuple[int, dict]] = [None] * CLIENTS  # type: ignore

            def client(slot: int) -> None:
                outcomes[slot] = _request(
                    server.port,
                    "POST",
                    "/analyze",
                    {"file": str(design), "entity": f"chain_{slot}"},
                )

            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for slot, (status, document) in enumerate(outcomes):
                expect(status == 200, f"client {slot}: status {status}")
                expect(
                    document.get("schema") == "vhdl-ifa/v1",
                    f"client {slot}: missing schema stamp",
                )

            # Phase 2: identical concurrent requests single-flight.
            dedup_payload = {"file": str(design), "entity": "chain_0"}
            waves: list[int] = []

            def identical() -> None:
                status, _ = _request(server.port, "POST", "/analyze", dedup_payload)
                waves.append(status)

            threads = [threading.Thread(target=identical) for _ in range(CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            expect(
                waves == [200] * CLIENTS,
                f"identical wave statuses {waves}",
            )

            # Phase 3: a warm re-post computes nothing and never reads the
            # parse: every timed stage was served from the cache.
            status, document = _request(
                server.port,
                "POST",
                "/analyze",
                {"file": str(design), "entity": "chain_1"},
            )
            cached = document.get("cached_stages", [])
            computed = sorted(set(document.get("timings", {})) - set(cached))
            expect(status == 200, f"warm re-post: status {status}")
            expect(bool(cached), "warm re-post: no stage served from the cache")
            expect("parse" not in cached, f"warm re-post read the parse: {cached}")
            expect(not computed, f"warm re-post computed {computed}")

            # Phase 4: a bad request is a structured 400, not a casualty.
            status, document = _request(
                server.port, "POST", "/analyze", {"file": "/nonexistent.vhd"}
            )
            expect(status == 400, f"missing file: status {status}")
            expect("error" in document, "missing file: no error field")

            # Phase 5: health and metrics reflect the run.
            status, health = _request(server.port, "GET", "/healthz")
            expect(status == 200, f"healthz status {status}")
            expect(health.get("status") == "ok", f"healthz body {health}")
            expect(
                health.get("workers", {}).get("alive") == WORKERS,
                f"healthz workers {health.get('workers')}",
            )
            status, metrics = _request(server.port, "GET", "/metrics")
            expect(status == 200, f"metrics status {status}")
            expect(metrics.get("mode") == "pool", f"metrics mode {metrics.get('mode')}")
            expect(metrics.get("in_flight") == 0, f"in_flight {metrics.get('in_flight')}")
            expect(metrics.get("shed") == 0, f"shed {metrics.get('shed')}")
            expect(
                metrics.get("worker_restarts") == 0,
                f"worker_restarts {metrics.get('worker_restarts')}",
            )
            expect(
                metrics.get("latency", {}).get("request", {}).get("count", 0) > 0,
                "no request latencies recorded",
            )

    for failure in failures:
        print(f"load smoke: {failure}", file=sys.stderr)
    if failures:
        print(f"load smoke: {len(failures)} problem(s)", file=sys.stderr)
        return 1
    print(
        f"load smoke: OK — {CLIENTS} concurrent clients + dedup wave + warm "
        f"re-post over {WORKERS} workers, clean metrics"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
