"""Tests for ``vhdl-ifa serve``: the long-lived HTTP analysis service.

The headline property is payload identity: a server response body is the
same JSON document ``vhdl-ifa analyze --json`` / ``check --json`` prints for
the same input.  Per-stage wall-clock ``timings`` (and the cache state
reflected in ``cached_stages``) are inherently run-dependent, so identity is
asserted byte-for-byte on the serialised document with exactly those two
volatile fields normalised on both sides.
"""

import json
import http.client

import pytest

from repro import workloads
from repro.cli import main
from repro.errors import PolicyError
from repro.pipeline import (
    AnalysisServer,
    ArtifactCache,
    ServerThread,
    TieredArtifactCache,
    json_text,
)
from repro.pipeline.serve import ROUTES
from repro.workspace import Workspace

VOLATILE_FIELDS = ("timings", "cached_stages")
# A fully cached run reads its goals and nothing else: an analyze the
# rendered graph member and the inventory.
WARM_STAGE_NAMES = ["graph_json", "inventory"]


def _request(port, method, path, payload=None, timeout=60):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    body = None if payload is None else json.dumps(payload)
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, response.read().decode("utf-8")


def _normalised(document_text):
    """The canonical bytes of a response with the volatile fields fixed."""
    document = json.loads(document_text)
    for field in VOLATILE_FIELDS:
        document.pop(field, None)
    return json_text(document) + "\n"


@pytest.fixture(scope="module")
def server():
    with ServerThread(
        AnalysisServer(
            port=0, workspace=Workspace(cache=TieredArtifactCache(ArtifactCache()))
        )
    ) as running:
        yield running


@pytest.fixture
def workload_files(tmp_path):
    paths = []
    for name, source in workloads.batch_workload_sources():
        path = tmp_path / f"{name}.vhd"
        path.write_text(source, encoding="utf-8")
        paths.append(str(path))
    return paths


class TestPayloadIdentity:
    def test_analyze_matches_cli_on_every_paper_workload(
        self, server, workload_files, capsys
    ):
        assert len(workload_files) >= 8
        for path in workload_files:
            status, served = _request(server.port, "POST", "/analyze", {"file": path})
            assert status == 200
            assert main(["analyze", path, "--json"]) == 0
            printed = capsys.readouterr().out
            assert _normalised(served) == _normalised(printed)

    def test_check_matches_cli_on_every_paper_workload(
        self, server, workload_files, capsys
    ):
        for path in workload_files:
            status, served = _request(
                server.port, "POST", "/check", {"file": path, "secret": ["clk"]}
            )
            assert status == 200
            main(["check", path, "--secret", "clk", "--json"])
            printed = capsys.readouterr().out
            assert _normalised(served) == _normalised(printed)

    def test_analyze_flags_mirror_the_cli(self, server, workload_files, capsys):
        path = workload_files[0]
        status, served = _request(
            server.port,
            "POST",
            "/analyze",
            {"file": path, "basic": True, "collapse": True, "self_loops": True},
        )
        assert status == 200
        assert (
            main(["analyze", path, "--json", "--basic", "--collapse", "--self-loops"])
            == 0
        )
        printed = capsys.readouterr().out
        assert _normalised(served) == _normalised(printed)

    def test_source_body_analyses_without_a_file(self, server):
        status, served = _request(
            server.port,
            "POST",
            "/analyze",
            {"source": workloads.challenge_f_program()},
        )
        assert status == 200
        document = json.loads(served)
        assert document["design"] == "challenge_f"
        assert "file" not in document


class TestWarmCacheAcrossRequests:
    def test_second_identical_request_is_served_from_cache(self, workload_files):
        with ServerThread(
            AnalysisServer(
                port=0,
                workspace=Workspace(cache=TieredArtifactCache(ArtifactCache())),
            )
        ) as warm_server:
            path = workload_files[0]
            _, cold = _request(warm_server.port, "POST", "/analyze", {"file": path})
            assert json.loads(cold)["cached_stages"] == []
            _, warm = _request(warm_server.port, "POST", "/analyze", {"file": path})
            warm_document = json.loads(warm)
            assert warm_document["cached_stages"] == WARM_STAGE_NAMES
            _, stats = _request(warm_server.port, "GET", "/stats")
            stats_document = json.loads(stats)
            assert stats_document["requests"]["POST /analyze"] == 2
            assert stats_document["cache"]["hits"] > 0


class TestServiceBehaviour:
    def test_stats_endpoint_shape(self, server):
        status, body = _request(server.port, "GET", "/stats")
        assert status == 200
        document = json.loads(body)
        assert document["command"] == "stats"
        assert document["uptime_seconds"] >= 0
        assert "cache" in document

    def test_malformed_json_is_a_400(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        connection.request("POST", "/analyze", body=b"{not json")
        response = connection.getresponse()
        assert response.status == 400
        assert "error" in json.loads(response.read())

    def test_missing_file_is_a_400_not_a_crash(self, server):
        status, body = _request(
            server.port, "POST", "/analyze", {"file": "/nonexistent/d.vhd"}
        )
        assert status == 400
        assert "error" in json.loads(body)

    def test_parse_error_is_a_400(self, server):
        status, body = _request(
            server.port, "POST", "/analyze", {"source": "entity broken is"}
        )
        assert status == 400

    def test_file_and_source_together_are_rejected(self, server):
        status, body = _request(
            server.port, "POST", "/analyze", {"file": "x", "source": "y"}
        )
        assert status == 400

    def test_unknown_path_is_a_404(self, server):
        status, body = _request(server.port, "GET", "/nonsense")
        assert status == 404

    def test_wrong_method_is_a_405(self, server):
        for path, method in ROUTES.items():
            other = "GET" if method == "POST" else "POST"
            status, body = _request(
                server.port, other, path, None if other == "GET" else {}
            )
            assert status == 405
            assert json.loads(body)["error"] == (
                f"{path} expects {method}, got {other}"
            )

    def test_server_survives_bad_requests(self, server, workload_files):
        _request(server.port, "POST", "/analyze", {"source": "entity broken is"})
        status, _ = _request(
            server.port, "POST", "/analyze", {"file": workload_files[0]}
        )
        assert status == 200


class TestRobustnessFixes:
    def test_internal_errors_become_500_json_not_dead_connections(self, server):
        # any non-analysis exception must surface as a JSON 500 body
        status, body = _request(
            server.port, "POST", "/analyze", {"file": 42}
        )  # non-string file -> TypeError inside open(), not a ReproError
        assert status in (400, 500)
        assert "error" in json.loads(body)
        # ... and the server must still answer afterwards
        status, _ = _request(server.port, "GET", "/stats")
        assert status == 200

    def test_unexpected_handler_exception_is_a_500(self, server, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(server.workspace.pipeline, "run", boom)
        status, body = _request(server.port, "POST", "/analyze", {"source": "x"})
        assert status == 500
        assert "kaboom" in json.loads(body)["error"]

    def test_negative_content_length_is_a_400(self, server):
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=60) as sock:
            sock.sendall(
                b"POST /analyze HTTP/1.1\r\n"
                b"Content-Length: -1\r\n"
                b"\r\n"
            )
            response = sock.recv(65536).decode("utf-8", "replace")
        assert response.startswith("HTTP/1.1 400")


class TestVersionEndpoint:
    def test_version_document(self, server):
        status, body = _request(server.port, "GET", "/version")
        assert status == 200
        document = json.loads(body)
        assert document["schema"] == "vhdl-ifa/v1"
        assert document["command"] == "version"
        from repro.version import version

        assert document["version"] == version()

    def test_version_rejects_post(self, server):
        status, _ = _request(server.port, "POST", "/version", {})
        assert status == 405


POLICY_DOCUMENT = {
    "name": "mls",
    "levels": {"public": 0, "secret": 1},
    "resources": {"key": "secret"},
    "allow": [{"from": "public", "to": "secret"}],
}


class TestPolicyEndpoint:
    def test_validate_and_register(self, server, workload_files):
        status, body = _request(server.port, "POST", "/policy", POLICY_DOCUMENT)
        assert status == 200
        document = json.loads(body)
        assert document["schema"] == "vhdl-ifa/v1"
        assert document["valid"] is True
        assert document["registered"] == "mls"
        assert document["policy"]["levels"] == {"public": 0, "secret": 1}
        # the registered name now drives /check
        status, body = _request(
            server.port, "POST", "/check",
            {"source": workloads.challenge_f_program(), "policy": "mls"},
        )
        assert status == 200
        checked = json.loads(body)
        assert checked["clean"] is False
        assert checked["violations"][0]["code"] == "IFA001"
        # ... and shows up in /stats
        status, stats = _request(server.port, "GET", "/stats")
        assert "mls" in json.loads(stats)["policies"]

    def test_invalid_document_is_a_400(self, server):
        status, body = _request(
            server.port, "POST", "/policy", {"levels": {"public": "zero"}}
        )
        assert status == 400
        document = json.loads(body)
        assert document["schema"] == "vhdl-ifa/v1"
        assert "levels" in document["error"]

    def test_inline_policy_on_check(self, server, workload_files):
        inline = {key: value for key, value in POLICY_DOCUMENT.items() if key != "name"}
        status, body = _request(
            server.port, "POST", "/check",
            {"source": workloads.challenge_f_program(), "policy": inline},
        )
        assert status == 200
        assert json.loads(body)["clean"] is False

    def test_policy_and_secret_are_mutually_exclusive(self, server):
        status, body = _request(
            server.port, "POST", "/check",
            {"source": "x", "policy": "mls", "secret": ["k"]},
        )
        assert status == 400

    def test_check_with_policy_matches_cli_policy_file(
        self, server, workload_files, tmp_path, capsys
    ):
        # the acceptance property: a policy expressed only as a file drives
        # the CLI to the same violations the server reports for the same
        # declarative document
        path = tmp_path / "design.vhd"
        path.write_text(workloads.challenge_f_program(), encoding="utf-8")
        inline = {key: value for key, value in POLICY_DOCUMENT.items() if key != "name"}
        status, served = _request(
            server.port, "POST", "/check", {"file": str(path), "policy": inline}
        )
        assert status == 200
        policy_file = tmp_path / "mls.json"
        policy_file.write_text(json.dumps(inline), encoding="utf-8")
        assert main(["check", str(path), "--policy", str(policy_file), "--json"]) == 3
        printed = capsys.readouterr().out
        assert _normalised(served) == _normalised(printed)


class TestSchemaStamp:
    def test_every_response_carries_the_schema(self, server, workload_files):
        responses = [
            _request(server.port, "POST", "/analyze", {"file": workload_files[0]}),
            _request(
                server.port, "POST", "/check",
                {"file": workload_files[0], "secret": ["clk"]},
            ),
            _request(server.port, "GET", "/stats"),
            _request(server.port, "GET", "/version"),
            _request(server.port, "GET", "/nonsense"),
            _request(server.port, "POST", "/analyze", {"file": "/missing.vhd"}),
        ]
        for _, body in responses:
            document = json.loads(body)
            assert list(document)[0] == "schema"
            assert document["schema"] == "vhdl-ifa/v1"


class TestPolicyOverwriteProtection:
    def test_replacing_a_registered_policy_is_a_409(self, workload_files):
        from repro.pipeline import AnalysisServer, ServerThread

        with ServerThread(AnalysisServer(port=0)) as guarded:
            strict = dict(POLICY_DOCUMENT, name="strict")
            status, _ = _request(guarded.port, "POST", "/policy", strict)
            assert status == 200
            # identical re-post is idempotent ...
            status, _ = _request(guarded.port, "POST", "/policy", strict)
            assert status == 200
            # ... but a different definition under the same name is refused
            permissive = dict(strict)
            permissive["allow"] = [
                {"from": "public", "to": "secret"},
                {"from": "secret", "to": "public"},
            ]
            status, body = _request(guarded.port, "POST", "/policy", permissive)
            assert status == 409
            assert "already registered" in json.loads(body)["error"]
            # the original policy still drives /check verdicts
            status, body = _request(
                guarded.port, "POST", "/check",
                {"source": workloads.challenge_f_program(), "policy": "strict"},
            )
            assert status == 200 and json.loads(body)["clean"] is False


@pytest.fixture(scope="class", params=["inline", "pooled"])
def either_server(request):
    """A server of each execution mode."""
    workers = 1 if request.param == "pooled" else None
    with ServerThread(AnalysisServer(port=0, workers=workers, timeout=60.0)) as running:
        yield running


def _raw_request(port, path, payload):
    """The status and the raw body bytes of one request."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    connection.request("POST", path, body=json.dumps(payload))
    response = connection.getresponse()
    return response.status, response.read()


#: Payloads holding strings no document can carry: valid JSON, each a lone
#: surrogate escape, or a NUL in a file path.
UNUSABLE = {
    "secret-surrogate": (
        "/check", {"source": workloads.challenge_f_program(), "secret": ["\ud800"]}
    ),
    "output-surrogate": (
        "/check",
        {
            "source": workloads.challenge_f_program(),
            "secret": ["key"],
            "output": ["leak\udfff"],
        },
    ),
    "policy-surrogate": (
        "/check",
        {
            "source": workloads.challenge_f_program(),
            "policy": {
                "levels": {"public": 0, "secret": 1},
                "resources": {"key\udc80": "secret"},
            },
        },
    ),
    "file-surrogate": ("/analyze", {"file": "design\ud800.vhd"}),
    "file-nul": ("/analyze", {"file": "design\u0000.vhd"}),
}


class TestUnusableStrings:
    @pytest.mark.parametrize("case", sorted(UNUSABLE))
    def test_an_unusable_string_is_a_400(self, either_server, case):
        path, payload = UNUSABLE[case]
        status, body = _raw_request(either_server.port, path, payload)
        assert status == 400
        document = json.loads(body)
        assert document["schema"] == "vhdl-ifa/v1" and document["error"]
        # The server still answers.
        status, _ = _raw_request(
            either_server.port, "/check",
            {"source": workloads.challenge_f_program(), "secret": ["key"]},
        )
        assert status == 200

    def test_a_policy_file_with_a_lone_surrogate_is_refused(self, tmp_path):
        # ``vhdl-ifa serve --policy`` registers its files by load_policy:
        # a level name no response could carry stops the server starting.
        path = tmp_path / "odd.json"
        path.write_text(
            json.dumps({"levels": {"low": 0, "high\ud800": 1}}), encoding="utf-8"
        )
        with pytest.raises(PolicyError, match="lone surrogate"):
            Workspace().load_policy(path)


class TestResponseBytes:
    @pytest.mark.parametrize(
        "path,payload",
        [
            ("/analyze", {"source": workloads.producer_consumer_program()}),
            ("/check", {"source": workloads.producer_consumer_program(), "secret": ["left"]}),
            ("/lint", {"source": workloads.producer_consumer_program()}),
            ("/analyze", {"file": "no/such/design.vhd"}),
        ],
        ids=["analyze", "check", "lint", "error"],
    )
    def test_a_body_is_json_text_and_a_newline(self, either_server, path, payload):
        status, body = _raw_request(either_server.port, path, payload)
        assert status == (400 if "file" in payload else 200)
        document = json.loads(body)
        assert body == (json_text(document) + "\n").encode("utf-8")
