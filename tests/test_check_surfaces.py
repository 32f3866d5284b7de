"""Every surface of a check prints what its report does.

A check's outputs read the rendered report (the ``report_json`` stage,
tested with its key and its splice in ``tests/test_check_splice.py``).
These tests hold each output byte-equal to the one built from the report
itself (``CovertChannelReport.to_json_dict()`` and ``to_text()``), on each
surface: the Workspace API, the CLI's ``check`` (``--json`` and text), its
``batch --policy`` (sequential and pooled, ``--json`` and text) and
serve's ``POST /check`` (inline and pooled); from each cache state, for
each kind of policy and each report option, on a flat and a linked source.
"""

import http.client
import json

import pytest

from repro import Workspace, workloads
from repro.cli import main
from repro.pipeline import AnalysisServer, ServerThread, json_text
from repro.security.policy import TwoLevelPolicy
from repro.security.policy_file import policy_from_dict
from test_check_splice import (
    CACHES,
    DOCUMENT,
    OPTIONS,
    POLICIES,
    SOURCES,
    _check_kwargs,
    _dumps,
    _oracle,
    _plain,
    _policy,
    _report_options,
    _warm,
    _workspace,
)


#: Designs of every size of report: (program, secret, check options, what
#: the report must show).
DESIGNS = {
    "no-violations": (
        workloads.challenge_f_program,
        "key",
        {"outputs": ["leak"]},
        lambda report: report.is_clean,
    ),
    "witness-paths": (
        workloads.challenge_f_program,
        "key",
        {"transitive": True},
        lambda report: any(len(v.path) > 2 for v in report.violations),
    ),
    "over-500-violations": (
        lambda: workloads.synthetic_chain_program(8, 32),
        "chain_in",
        {},
        lambda report: len(report.violations) > 500,
    ),
}


class TestWorkspace:
    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("option", sorted(OPTIONS))
    @pytest.mark.parametrize("name", POLICIES)
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_every_output_equals_the_report(self, tmp_path, kind, name, option, cache):
        source = SOURCES[kind][0]()
        workspace = _workspace(cache, tmp_path)
        spec, policy = _policy(name, kind, workspace, tmp_path)
        kwargs = _check_kwargs(option, kind)

        def check(on):
            if name == "registered":
                on.register_policy("tiers", DOCUMENT)
            return on.check(source, spec, **kwargs)

        _warm(cache, workspace, check)
        checked = check(workspace)
        warm = cache in ("memory", "disk-warm")
        assert checked.run.cached_stages == (["report_json"] if warm else [])
        report = _oracle(source, policy, _report_options(option, kind, policy))
        document = checked.document(file="design.vhd")
        assert json_text(document) == _dumps(_plain(document, report, policy))
        assert checked.to_text() == report.to_text()
        assert checked.clean is report.is_clean
        assert checked.exit_code == (0 if report.is_clean else 3)
        assert document["violations"] == report.to_json_dict()["violations"]

    @pytest.mark.parametrize("cache", CACHES)
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_designs_of_every_size(self, tmp_path, design, cache):
        program, secret, kwargs, check_report = DESIGNS[design]
        source = program()
        policy = TwoLevelPolicy(secret_resources=[secret])
        workspace = _workspace(cache, tmp_path)
        _warm(cache, workspace, lambda on: on.check(source, policy, **kwargs))
        checked = workspace.check(source, policy, **kwargs)
        options = {"transitive": False, "restrict_to_ports": False, **kwargs}
        report = _oracle(source, policy, options)
        assert check_report(report)
        document = checked.document()
        assert json_text(document) == _dumps(_plain(document, report, policy))
        assert checked.to_text() == report.to_text()


def _cli_flags(option, kind):
    if option == "transitive":
        return ["--transitive"]
    if option == "ports_only":
        return ["--ports-only"]
    if option == "output":
        return ["--output", SOURCES[kind][2]]
    return []


class TestCLI:
    @pytest.mark.parametrize("cache", ["none", "disk-cold", "disk-warm"])
    @pytest.mark.parametrize("option", sorted(OPTIONS))
    @pytest.mark.parametrize("name", ["secret", "file"])
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_json_and_text_equal_the_report(
        self, tmp_path, capsys, kind, name, option, cache
    ):
        source = SOURCES[kind][0]()
        path = tmp_path / "design.vhd"
        path.write_text(source, encoding="utf-8")
        _, policy = _policy(name, kind, None, tmp_path)
        argv = ["check", str(path)]
        if name == "secret":
            argv += ["--secret", SOURCES[kind][1][0]]
        else:
            argv += ["--policy", str(tmp_path / "tiers.json")]
        argv += _cli_flags(option, kind)
        if cache == "none":
            argv.append("--no-cache")
        else:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        report = _oracle(source, policy, _report_options(option, kind, policy))
        status = 0 if report.is_clean else 3
        if cache == "disk-warm":
            assert main(argv) == status
            capsys.readouterr()
        assert main([*argv, "--json"]) == status
        printed = capsys.readouterr().out
        document = json.loads(printed)
        assert (document["cached_stages"] == ["report_json"]) is (cache == "disk-warm")
        assert printed == _dumps(_plain(document, report, policy)) + "\n"
        assert main(argv) == status
        assert capsys.readouterr().out == report.to_text() + "\n"


class TestBatch:
    @pytest.mark.parametrize(
        "mode,cache",
        [
            ("sequential", "none"),
            ("sequential", "disk-cold"),
            ("sequential", "disk-warm"),
            ("pooled", "none"),
            ("pooled", "disk-warm"),
        ],
    )
    def test_jobs_equal_their_reports(self, tmp_path, capsys, mode, cache):
        paths, sources = [], []
        for kind in sorted(SOURCES):
            source = SOURCES[kind][0]()
            path = tmp_path / f"{kind}.vhd"
            path.write_text(source, encoding="utf-8")
            paths.append(str(path))
            sources.append(source)
        _, policy = _policy("file", "flat", None, tmp_path)
        argv = ["batch", *paths, "--policy", str(tmp_path / "tiers.json")]
        argv += ["--sequential"] if mode == "sequential" else ["--jobs", "2"]
        if cache == "none":
            argv.append("--no-cache")
        else:
            argv += ["--cache-dir", str(tmp_path / "cache")]
        reports = [
            _oracle(source, policy, {"transitive": policy.transitive})
            for source in sources
        ]
        if cache == "disk-warm":
            main(argv)
            capsys.readouterr()
        status = 0 if all(report.is_clean for report in reports) else 3
        assert main([*argv, "--json"]) == status
        printed = capsys.readouterr().out
        document = json.loads(printed)
        plain = dict(document)
        plain["jobs"] = []
        for job, report in zip(document["jobs"], reports):
            head = {key: job[key] for key in ("file", "entity", "ok", "seconds")}
            plain["jobs"].append(
                {
                    **head,
                    **report.to_json_dict(),
                    "timings": job["timings"],
                    "cached_stages": job["cached_stages"],
                }
            )
            warm = cache == "disk-warm"
            assert (job["cached_stages"] == ["report_json"]) is warm
        assert printed == _dumps(plain) + "\n"
        assert main(argv) == status
        expected = "".join(
            f"== {path} ==\n{report.to_text()}\n" for path, report in zip(paths, reports)
        )
        assert capsys.readouterr().out == expected


@pytest.fixture(scope="module", params=["inline", "pooled"])
def server(request, tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("serve-cache"))
    workers = 1 if request.param == "pooled" else None
    with ServerThread(
        AnalysisServer(
            port=0,
            workspace=Workspace(cache_dir=cache_dir, policies={"tiers": DOCUMENT}),
            workers=workers,
            timeout=60.0,
        )
    ) as running:
        yield running


def _post(port, path, payload):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    connection.request("POST", path, body=json.dumps(payload))
    response = connection.getresponse()
    return response.status, response.read()


class TestServe:
    @pytest.mark.parametrize("option", sorted(OPTIONS))
    @pytest.mark.parametrize("name", ["secret", "registered", "inline"])
    @pytest.mark.parametrize("kind", sorted(SOURCES))
    def test_bodies_equal_the_report(self, server, kind, name, option):
        source = SOURCES[kind][0]()
        payload = {"source": source}
        if name == "secret":
            payload["secret"] = [SOURCES[kind][1][0]]
            policy = TwoLevelPolicy(secret_resources=payload["secret"])
        else:
            payload["policy"] = "tiers" if name == "registered" else DOCUMENT
            policy = policy_from_dict(DOCUMENT)
        if option == "transitive":
            payload["transitive"] = True
        elif option == "ports_only":
            payload["ports_only"] = True
        elif option == "output":
            payload["output"] = [SOURCES[kind][2]]
        report = _oracle(source, policy, _report_options(option, kind, policy))
        for attempt in ("cold", "warm"):
            status, body = _post(server.port, "/check", payload)
            assert status == 200
            document = json.loads(body)
            if attempt == "warm":
                assert document["cached_stages"] == ["report_json"]
            expected = _dumps(_plain(document, report, policy)) + "\n"
            assert body == expected.encode("utf-8")
