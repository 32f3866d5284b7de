"""Fault-injection tests for the supervised serve mode and batch driver.

These tests drive the acceptance criteria of the fault-tolerant serve work:
with a deterministically injected worker hang, the request times out with a
structured 5xx while concurrent requests on other workers still return
byte-identical ``vhdl-ifa/v1`` responses; a killed worker is recycled and
serves subsequent requests; over-capacity requests are shed with ``429`` +
``Retry-After``; identical concurrent requests are single-flighted; torn
cache entries are recovered from, not served; and ``GET /metrics`` reflects
every one of those events.  Worker faults are injected via
:mod:`repro.pipeline.faults` and torn entries are torn on disk by the test
itself — nothing here depends on timing luck to make a worker misbehave.
"""

import json
import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import workloads
from repro.cli import main
from repro.pipeline import (
    AnalysisServer,
    ArtifactCache,
    DiskArtifactCache,
    FaultPlan,
    Pipeline,
    ServerThread,
    TieredArtifactCache,
    WorkerPool,
    json_text,
    run_batch,
)
from repro.pipeline.batch import BatchJob
from repro.pipeline.faults import FAULTS_ENV, FaultInjector
from repro.pipeline.serve import execute_request
from repro.workspace import Workspace

VOLATILE_FIELDS = ("timings", "cached_stages")


def _request(port, method, path, payload=None, timeout=60):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    body = None if payload is None else json.dumps(payload)
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, response.read().decode("utf-8"), dict(
        response.getheaders()
    )


def _normalised(document_text):
    document = json.loads(document_text)
    for field in VOLATILE_FIELDS:
        document.pop(field, None)
    return json_text(document) + "\n"


def _marked(marker):
    """A healthy workload whose digest (and fault trigger) carries ``marker``."""
    return workloads.challenge_f_program() + f"\n-- {marker}\n"


def _metrics(port):
    _, body, _ = _request(port, "GET", "/metrics")
    return json.loads(body)


def _announced_port(process, log, timeout=60):
    """The port a ``vhdl-ifa serve`` subprocess announced in its log."""
    marker = "listening on http://"
    deadline = time.monotonic() + timeout
    while process.poll() is None and time.monotonic() < deadline:
        text = log.read_text(encoding="utf-8", errors="replace")
        if marker in text:
            return int(text.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])
        time.sleep(0.02)
    raise AssertionError(f"server did not start: {log.read_text()}")


def _children(pid):
    """The command lines of the live child processes of ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text(encoding="ascii", errors="replace")
            if int(stat.rpartition(")")[2].split()[1]) == pid:
                found.append((entry / "cmdline").read_bytes().replace(b"\0", b" "))
        except (OSError, IndexError, ValueError):
            continue
    return found


class TestWorkerTimeoutRecycling:
    """A hung worker times out, is recycled, and the service never dies."""

    def test_hang_times_out_while_other_workers_answer(self, tmp_path, capsys):
        plan = FaultPlan(delay_seconds=30.0, match="hang_this_request")
        design = tmp_path / "design.vhd"
        design.write_text(workloads.challenge_f_program(), encoding="utf-8")
        with ServerThread(
            AnalysisServer(
                port=0,
                workers=2,
                timeout=2.0,
                faults=plan,
                workspace=Workspace(cache=None),
            )
        ) as server:
            outcomes = {}

            def hung():
                outcomes["hung"] = _request(
                    server.port,
                    "POST",
                    "/analyze",
                    {"source": _marked("hang_this_request")},
                )

            hang_thread = threading.Thread(target=hung)
            hang_thread.start()
            time.sleep(0.3)  # the hang is admitted and occupying its worker

            # A concurrent healthy request on the other worker answers,
            # byte-identical to the CLI.
            status, served, _ = _request(
                server.port, "POST", "/analyze", {"file": str(design)}
            )
            assert status == 200
            assert main(["analyze", str(design), "--json"]) == 0
            printed = capsys.readouterr().out
            assert _normalised(served) == _normalised(printed)

            hang_thread.join(timeout=30)
            status, body, _ = outcomes["hung"]
            assert status == 504
            document = json.loads(body)
            assert document["schema"] == "vhdl-ifa/v1"
            assert "budget" in document["error"]

            # The recycled worker serves subsequent requests.
            status, again, _ = _request(
                server.port, "POST", "/analyze", {"file": str(design)}
            )
            assert status == 200
            assert _normalised(again) == _normalised(served)

            metrics = _metrics(server.port)
            assert metrics["timeouts"] >= 1
            assert metrics["worker_restarts"] >= 1
            assert metrics["workers"]["alive"] == 2
            assert metrics["in_flight"] == 0


class TestWorkerCrashRecovery:
    """A worker killed mid-request yields a structured 500, then recovers."""

    def test_crashed_worker_is_respawned(self, tmp_path):
        plan = FaultPlan(crash=True, match="crash_this_request")
        with ServerThread(
            AnalysisServer(port=0, workers=1, timeout=30.0, faults=plan)
        ) as server:
            status, body, _ = _request(
                server.port,
                "POST",
                "/analyze",
                {"source": _marked("crash_this_request")},
            )
            assert status == 500
            document = json.loads(body)
            assert document["schema"] == "vhdl-ifa/v1"
            assert "died" in document["error"]

            # The single (recycled) worker still answers.
            status, body, _ = _request(
                server.port,
                "POST",
                "/analyze",
                {"source": workloads.challenge_f_program()},
            )
            assert status == 200
            assert json.loads(body)["design"] == "challenge_f"

            metrics = _metrics(server.port)
            assert metrics["worker_crashes"] >= 1
            assert metrics["worker_restarts"] >= 1
            assert metrics["workers"]["alive"] == 1


class TestLoadShedding:
    """Over-capacity requests get 429 + Retry-After, never an unbounded queue."""

    def test_queue_full_is_429_with_retry_after(self, tmp_path):
        plan = FaultPlan(delay_seconds=1.5, match="slow_marker")
        with ServerThread(
            AnalysisServer(
                port=0, workers=1, timeout=30.0, queue_depth=2, faults=plan
            )
        ) as server:
            results = []

            def slow(marker):
                results.append(
                    _request(
                        server.port, "POST", "/analyze", {"source": _marked(marker)}
                    )
                )

            threads = [
                threading.Thread(target=slow, args=(f"slow_marker_{tag}",))
                for tag in ("a", "b")
            ]
            for thread in threads:
                thread.start()
                time.sleep(0.15)
            time.sleep(0.2)  # both slow requests are admitted

            status, body, headers = _request(
                server.port,
                "POST",
                "/analyze",
                {"source": workloads.challenge_f_program()},
            )
            assert status == 429
            document = json.loads(body)
            assert document["schema"] == "vhdl-ifa/v1"
            assert document["retry_after"] == 1
            assert headers.get("Retry-After") == "1"

            for thread in threads:
                thread.join(timeout=60)
            assert [status for status, _, _ in results] == [200, 200]

            metrics = _metrics(server.port)
            assert metrics["shed"] >= 1
            assert metrics["in_flight"] == 0


class TestSingleFlight:
    """N identical concurrent requests run one analysis, get N responses."""

    def test_identical_requests_coalesce(self):
        plan = FaultPlan(delay_seconds=1.0, match="dedup_marker")
        source = _marked("dedup_marker")
        with ServerThread(
            AnalysisServer(port=0, workers=2, timeout=30.0, faults=plan)
        ) as server:
            bodies = [None] * 4

            def fire(slot):
                status, body, _ = _request(
                    server.port, "POST", "/analyze", {"source": source}
                )
                bodies[slot] = (status, body)

            leader = threading.Thread(target=fire, args=(0,))
            leader.start()
            time.sleep(0.3)  # the leader is in flight before the followers
            followers = [
                threading.Thread(target=fire, args=(slot,)) for slot in (1, 2, 3)
            ]
            for thread in followers:
                thread.start()
            leader.join(timeout=60)
            for thread in followers:
                thread.join(timeout=60)

            statuses = {status for status, _ in bodies}
            assert statuses == {200}
            # Followers share the leader's analysis: every response is the
            # same bytes, including the run-dependent timings.
            assert len({body for _, body in bodies}) == 1

            metrics = _metrics(server.port)
            assert metrics["dedup_hits"] == 3
            assert metrics["in_flight"] == 0


class TestCorruptCacheRecovery:
    """Torn cache entries under serve are evicted and recomputed, not served."""

    def test_corrupt_entries_recompute_byte_identical(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        design = tmp_path / "design.vhd"
        design.write_text(workloads.producer_consumer_program(), encoding="utf-8")
        # Populate the shared disk tier with a clean cold run...
        warm_cache = TieredArtifactCache(
            ArtifactCache(), DiskArtifactCache(cache_dir)
        )
        Pipeline(warm_cache).run(design.read_text(encoding="utf-8"))
        # ...then tear every entry mid-pickle: the classic torn write.
        entries = [
            path
            for path in cache_dir.glob("*/*.pkl")
            if path.parent.name != "universes"
        ]
        assert entries
        for path in entries:
            blob = path.read_bytes()
            path.write_bytes(blob[: max(1, len(blob) // 3)])

        workspace = Workspace(cache_dir=str(cache_dir))
        with ServerThread(
            AnalysisServer(port=0, workspace=workspace, workers=1, timeout=60.0)
        ) as server:
            status, served, _ = _request(
                server.port, "POST", "/analyze", {"file": str(design)}
            )
            assert status == 200
            assert json.loads(served)["cached_stages"] == []  # none served torn
            assert main(["analyze", str(design), "--json"]) == 0
            printed = capsys.readouterr().out
            assert _normalised(served) == _normalised(printed)


class TestRequestHardening:
    """Bad requests are rejected on the event loop, never costing a worker."""

    def test_oversized_body_is_413_without_touching_a_worker(self):
        with ServerThread(
            AnalysisServer(port=0, workers=1, timeout=30.0, max_body_bytes=1024)
        ) as server:
            big = {"source": "x" * 4096}
            status, body, _ = _request(server.port, "POST", "/analyze", big)
            assert status == 413
            assert "limit" in json.loads(body)["error"]
            metrics = _metrics(server.port)
            # The rejected request was never admitted.
            assert metrics["in_flight"] == 0
            assert metrics["requests"].get("POST /analyze", 0) == 0

            status, body, _ = _request(
                server.port,
                "POST",
                "/analyze",
                {"source": workloads.challenge_f_program()},
            )
            assert status == 200

    def test_non_json_body_is_400_in_pool_mode(self):
        with ServerThread(
            AnalysisServer(port=0, workers=1, timeout=30.0)
        ) as server:
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=60
            )
            connection.request("POST", "/analyze", body=b"{not json")
            response = connection.getresponse()
            assert response.status == 400
            assert "error" in json.loads(response.read())

    def test_client_disconnect_does_not_leak_a_slot(self):
        plan = FaultPlan(delay_seconds=1.0, match="abandoned_marker")
        with ServerThread(
            AnalysisServer(
                port=0, workers=1, timeout=30.0, queue_depth=1, faults=plan
            )
        ) as server:
            body = json.dumps({"source": _marked("abandoned_marker")}).encode()
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"POST /analyze HTTP/1.1\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
            # The client is gone; the admitted request still completes and
            # must release its slot.
            deadline = time.monotonic() + 15
            while time.monotonic() < deadline:
                if _metrics(server.port)["in_flight"] == 0:
                    break
                time.sleep(0.1)
            metrics = _metrics(server.port)
            assert metrics["in_flight"] == 0

            # With queue_depth=1 a leaked slot would shed this request.
            status, _, _ = _request(
                server.port,
                "POST",
                "/analyze",
                {"source": workloads.challenge_f_program()},
            )
            assert status == 200


class TestHealthAndDrain:
    def test_healthz_reports_pool_state(self):
        with ServerThread(
            AnalysisServer(port=0, workers=1, timeout=30.0)
        ) as server:
            status, body, _ = _request(server.port, "GET", "/healthz")
            assert status == 200
            document = json.loads(body)
            assert document["schema"] == "vhdl-ifa/v1"
            assert document["status"] == "ok"
            assert document["mode"] == "pool"
            assert document["workers"]["configured"] == 1

    def test_healthz_is_503_while_draining(self):
        server = AnalysisServer(port=0)
        server.draining = True
        status, document = server._healthz()
        assert status == 503
        assert document["status"] == "draining"

    def test_drain_stops_accepting_and_shuts_down(self):
        import asyncio

        async def scenario():
            server = AnalysisServer(
                port=0, workspace=Workspace(cache=ArtifactCache())
            )
            await server.start()
            port = server.port
            await server.drain(grace=1.0)
            assert server._server is None
            with pytest.raises(OSError):
                socket.create_connection(("127.0.0.1", port), timeout=1).close()

        asyncio.run(scenario())


class TestPoolStopDuringACall:
    """A call still running when the pool stops: the pool's contract that
    :meth:`WorkerPool.run` never raises holds through ``stop()``."""

    def test_the_call_returns_stopped_and_nothing_respawns(self):
        pool = WorkerPool(
            1,
            configuration=Workspace(cache=None).worker_configuration(),
            fault_plan=FaultPlan(delay_seconds=3),
        )
        worker_pid = pool._handles[0]._process.pid
        request = {"source": workloads.challenge_f_program()}
        with ThreadPoolExecutor(max_workers=1) as caller:
            call = caller.submit(pool.run, execute_request, "analyze", request)
            time.sleep(1)
            pool.stop()
            result = call.result(timeout=30)  # re-raises what run raised
        assert result.stopped and result.value is None
        assert not (result.timed_out or result.crashed)
        assert pool.restarts == 0
        assert pool.alive == 0
        with pytest.raises(ProcessLookupError):
            os.kill(worker_pid, 0)


class TestServeCommand:
    """``vhdl-ifa serve`` itself, as a process: its first worker is forked
    (no thread exists yet when the pool starts), and the respawn after a
    crash is spawned (the dispatch threads exist by then)."""

    def test_crash_respawn_and_drain(self, tmp_path, capsys):
        design = tmp_path / "challenge_f.vhd"
        design.write_text(workloads.challenge_f_program(), encoding="utf-8")
        log = tmp_path / "serve.log"
        env = {
            "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
            "PATH": "/usr/bin:/bin",
            FAULTS_ENV: FaultPlan(crash=True, match="crash_this_request").to_env(),
        }
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1",
        ]
        with open(log, "wb") as handle:
            process = subprocess.Popen(
                command, stdout=subprocess.DEVNULL, stderr=handle, env=env
            )
        try:
            port = _announced_port(process, log)
            linux = Path("/proc/self/stat").exists()
            if linux:
                # A forked worker runs the server's own command line.
                assert [b"spawn_main" in line for line in _children(process.pid)] == [
                    False
                ]

            status, body, _ = _request(
                port, "POST", "/analyze", {"source": _marked("crash_this_request")}
            )
            assert status == 500
            assert "died" in json.loads(body)["error"]

            status, served, _ = _request(
                port, "POST", "/analyze", {"file": str(design)}
            )
            assert status == 200
            assert main(["analyze", str(design), "--json"]) == 0
            assert _normalised(served) == _normalised(capsys.readouterr().out)
            assert _metrics(port)["worker_restarts"] == 1
            if linux:
                assert any(b"spawn_main" in line for line in _children(process.pid))

            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=60) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()


class TestBatchBrokenPoolRecovery:
    """A job that kills its worker breaks neither the batch nor its peers."""

    @pytest.fixture
    def designs(self, tmp_path):
        paths = {}
        for name in ("alpha", "poison_job", "omega"):
            path = tmp_path / f"{name}.vhd"
            path.write_text(workloads.challenge_f_program(), encoding="utf-8")
            paths[name] = str(path)
        return paths

    def test_poisonous_job_becomes_a_worker_error_item(self, designs, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV, FaultPlan(crash=True, match="poison_job").to_env()
        )
        jobs = [BatchJob(path=designs[name]) for name in ("alpha", "poison_job", "omega")]
        report = run_batch(jobs, Workspace(), parallel=True, max_workers=2)
        by_name = {item.job.path: item for item in report.items}
        assert by_name[designs["alpha"]].ok
        assert by_name[designs["omega"]].ok
        poisoned = by_name[designs["poison_job"]]
        assert not poisoned.ok
        assert poisoned.error_kind == "worker"
        assert "died" in poisoned.error
        assert report.exit_code == 1
        # Submission order is preserved, casualties and all.
        assert [item.job.path for item in report.items] == [
            designs["alpha"], designs["poison_job"], designs["omega"]
        ]

    def test_repeated_crash_is_reported_not_raised(self, designs, monkeypatch):
        # Nothing is retried: the job's first crash kills its worker (the
        # ``once`` plan never gets a second trigger), and that one death
        # must surface as an error item, never as an exception out of
        # run_batch.
        monkeypatch.setenv(
            FAULTS_ENV,
            FaultPlan(crash=True, match="poison_job", once=True).to_env(),
        )
        jobs = [BatchJob(path=designs["poison_job"])]
        report = run_batch(jobs, Workspace(), parallel=True, max_workers=1)
        item = report.items[0]
        assert not item.ok
        assert item.error_kind == "worker"

    def test_batch_without_faults_is_unaffected(self, designs):
        jobs = [BatchJob(path=designs["alpha"]), BatchJob(path=designs["omega"])]
        report = run_batch(jobs, Workspace(), parallel=True, max_workers=2)
        assert report.ok
        assert report.exit_code == 0


class TestFaultPlanEnv:
    def test_round_trips_through_the_environment(self):
        plan = FaultPlan(delay_seconds=0.5, crash=True, match="m", once=True)
        restored = FaultPlan.from_env({FAULTS_ENV: plan.to_env()})
        assert restored == plan

    def test_malformed_env_is_ignored(self):
        assert FaultPlan.from_env({FAULTS_ENV: "{broken"}) is None
        assert FaultPlan.from_env({FAULTS_ENV: "[1, 2]"}) is None
        assert FaultPlan.from_env({}) is None

    def test_injector_match_and_once_semantics(self):
        injector = FaultInjector(
            FaultPlan(delay_seconds=0.01, match="needle", once=True)
        )
        assert not injector._triggers("haystack")
        assert injector._triggers("a needle here")
        assert injector.fired == 1
        # once=True disarms after the first trigger
        assert not injector._triggers("another needle")
        assert injector.fired == 1


class TestRecordedErrorContracts:
    """The committed contract corpus pins every fault body field-by-field.

    Live reproduction of the 429/504 paths (which needs a saturated or hung
    pool) is exercised by the corpus replay in ``tests/test_contracts.py``;
    here we assert the *recorded* documents directly so a producer edit to
    any error string or field shows up as a one-line test diff, and replay
    the cheap 413 path against a live server to tie the two together.
    """

    @pytest.fixture(scope="class")
    def pacts(self):
        from pathlib import Path

        from repro.contract import Corpus

        corpus = Corpus.load(
            Path(__file__).resolve().parent / "contract" / "pacts"
        )
        return {interaction.description: interaction for interaction in corpus}

    def test_413_body_is_pinned_field_by_field(self, pacts):
        recorded = pacts["analyze oversized body"]
        assert recorded.response["status"] == 413
        document = recorded.response["document"]
        assert sorted(document) == ["error", "schema"]
        assert document["schema"] == "vhdl-ifa/v1"
        assert document["error"] == (
            "request body of 4122 bytes exceeds the 2048-byte limit"
        )
        # nothing volatile in an error body: the contract pins every field
        assert recorded.matchers == {}

    def test_429_body_is_pinned_field_by_field(self, pacts):
        recorded = pacts["analyze shed at capacity"]
        assert recorded.response["status"] == 429
        document = recorded.response["document"]
        assert sorted(document) == ["error", "retry_after", "schema"]
        assert document["schema"] == "vhdl-ifa/v1"
        assert document["error"] == (
            "server at capacity (1 requests admitted); retry later"
        )
        assert document["retry_after"] == 1
        assert recorded.matchers == {}

    def test_504_body_is_pinned_field_by_field(self, pacts):
        recorded = pacts["analyze hung worker times out"]
        assert recorded.response["status"] == 504
        document = recorded.response["document"]
        assert sorted(document) == ["error", "schema"]
        assert document["schema"] == "vhdl-ifa/v1"
        assert document["error"] == (
            "analysis exceeded the 1s request budget; the worker was recycled"
        )
        assert recorded.matchers == {}

    def test_live_413_matches_the_recording_exactly(self, pacts):
        from repro.contract.profiles import PROFILES, boot

        recorded = pacts["analyze oversized body"]
        with boot(PROFILES["limits"], mode="inline") as server:
            status, body, headers = _request(
                server.port,
                recorded.request["method"],
                recorded.request["path"],
                recorded.request["body"],
            )
        assert status == recorded.response["status"]
        assert json.loads(body) == recorded.response["document"]
        # rejected before the body is read: no interaction id is stamped
        assert "X-Interaction-Id" not in headers
