"""Tests for the v1 session facade (``repro.workspace.Workspace``).

The headline contract: documents produced via the engine (a bare
``Pipeline``), via a ``Workspace``, and via the CLI are byte-identical, and
every frontend is a thin shell over the facade.
"""

import json
import threading

import pytest

from repro import Workspace, workloads
from repro.cli import main
from repro.errors import PolicyError
from repro.pipeline import (
    ANALYSIS_STAGES,
    AnalysisOptions,
    Pipeline,
    analyze_document,
    check_document,
    json_text,
)
from repro.security.policy import TwoLevelPolicy

# A fully cached run reads every analysis stage but the parse.
WARM_STAGE_NAMES = [stage.name for stage in ANALYSIS_STAGES[1:-1]]

TWO_LEVEL = {
    "levels": {"public": 0, "secret": 1},
    "resources": {"key": "secret"},
    "allow": [{"from": "public", "to": "secret"}],
}

VOLATILE_FIELDS = ("timings", "cached_stages")


def _normalised(document):
    document = dict(document)
    for field in VOLATILE_FIELDS:
        document.pop(field, None)
    return json_text(document)


@pytest.fixture
def source():
    return workloads.challenge_f_program()


@pytest.fixture
def design_file(tmp_path, source):
    path = tmp_path / "design.vhd"
    path.write_text(source, encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_analyze_matches_the_legacy_wrapper(self, source):
        from repro import analyze

        ws_result = Workspace().analyze(source)
        legacy = analyze(source)
        assert ws_result.summary() == legacy.summary()
        assert ws_result.graph.to_adjacency() == legacy.graph.to_adjacency()

    def test_documents_are_byte_identical_across_entry_points(
        self, source, design_file, capsys
    ):
        # engine path: a bare Pipeline, as a cache-less Workspace drives it
        legacy_doc = analyze_document(
            Pipeline().run(source, AnalysisOptions()), file=design_file
        )
        # facade path
        ws_doc = analyze_document(
            Workspace(cache=None).analyze_run(source), file=design_file
        )
        # CLI path (built over the facade)
        assert main(["analyze", design_file, "--json"]) == 0
        cli_doc = json.loads(capsys.readouterr().out)
        assert _normalised(legacy_doc) == _normalised(ws_doc) == _normalised(cli_doc)
        assert legacy_doc["schema"] == "vhdl-ifa/v1"
        assert list(legacy_doc)[0] == "schema"

    def test_analyze_run_exposes_stage_timings(self, source):
        run = Workspace().analyze_run(source)
        assert set(run.timings) >= {"parse", "elaborate", "closure"}

    def test_workspace_cache_warms_across_calls(self, source):
        ws = Workspace()  # default: in-memory cache
        assert ws.analyze_run(source).cached_stages == []
        warm = ws.analyze_run(source)
        assert warm.cached_stages == WARM_STAGE_NAMES


class TestCheck:
    def test_check_documents_match_the_cli(self, source, design_file, capsys):
        ws = Workspace(cache=None)
        checked = ws.check(source, TwoLevelPolicy(secret_resources=["key"]))
        assert main(["check", design_file, "--secret", "key", "--json"]) == 3
        cli_doc = json.loads(capsys.readouterr().out)
        assert _normalised(checked.document(file=design_file)) == _normalised(cli_doc)

    def test_policy_resolution_forms(self, source, tmp_path):
        ws = Workspace(cache=None)
        by_object = ws.check(source, TwoLevelPolicy(secret_resources=["key"]))
        by_dict = ws.check(source, TWO_LEVEL)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(TWO_LEVEL), encoding="utf-8")
        by_path = ws.check(source, path)
        ws.register_policy("mls", TWO_LEVEL)
        by_name = ws.check(source, "mls")
        verdicts = [
            [d.to_dict() for d in checked.diagnostics]
            for checked in (by_object, by_dict, by_path, by_name)
        ]
        assert verdicts[0] and all(v == verdicts[0] for v in verdicts)

    def test_unknown_policy_name_is_a_policy_error(self, source):
        with pytest.raises(PolicyError) as excinfo:
            Workspace().check(source, "never-registered")
        assert "never-registered" in str(excinfo.value)

    def test_load_policy_registers_under_document_name(self, tmp_path):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({**TWO_LEVEL, "name": "mls"}), encoding="utf-8")
        ws = Workspace()
        ws.load_policy(path)
        assert "mls" in ws.policies

    def test_exit_code_contract(self, source):
        ws = Workspace(cache=None)
        dirty = ws.check(source, TWO_LEVEL)
        assert (dirty.clean, dirty.exit_code) == (False, 3)
        clean = ws.check(source, TwoLevelPolicy())
        assert (clean.clean, clean.exit_code) == (True, 0)

    def test_transitive_defaults_to_the_policy_mode(self, source):
        ws = Workspace(cache=None)
        transitive_policy = dict(TWO_LEVEL, mode="transitive")
        via_mode = ws.check(source, transitive_policy)
        via_flag = ws.check(source, TWO_LEVEL, transitive=True)
        assert [d.to_dict() for d in via_mode.diagnostics] == [
            d.to_dict() for d in via_flag.diagnostics
        ]


class TestBatch:
    def test_batch_matches_cli_batch(self, tmp_path, capsys):
        paths = []
        for name, text in workloads.batch_workload_sources()[:3]:
            path = tmp_path / f"{name}.vhd"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        report = Workspace().batch(paths, parallel=False)
        assert report.exit_code == 0
        assert main(["batch", *paths, "--sequential", "--json"]) == 0
        cli_doc = json.loads(capsys.readouterr().out)
        ws_doc = report.to_json_dict()
        assert cli_doc["schema"] == ws_doc["schema"] == "vhdl-ifa/v1"
        assert [job["file"] for job in cli_doc["jobs"]] == [
            job["file"] for job in ws_doc["jobs"]
        ]

    def test_batch_with_policy_reports_violations(self, design_file):
        report = Workspace().batch([design_file], parallel=False, policy=TWO_LEVEL)
        assert report.ok and report.violations_found
        assert report.exit_code == 3
        [item] = report.items
        assert item.clean is False
        assert "policy violation" in item.text

    def test_stats_shape(self, source):
        ws = Workspace(policies={"mls": TWO_LEVEL})
        ws.analyze(source)
        stats = ws.stats()
        assert stats["policies"] == ["mls"]
        assert stats["cache"]["entries"] > 0


class TestSharedDiskCache:
    """Two workspaces over one cache dir — the multi-process serve story."""

    def test_second_workspace_is_served_from_disk(self, source, tmp_path):
        cache_dir = str(tmp_path / "cache")
        first = Workspace(cache_dir=cache_dir).analyze_run(source)
        assert first.cached_stages == []
        second = Workspace(cache_dir=cache_dir).analyze_run(source)
        assert second.cached_stages == WARM_STAGE_NAMES
        assert _doc(first) == _doc(second)

    def test_concurrent_workspaces_share_one_dir_safely(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        sources = [
            text for _, text in workloads.batch_workload_sources()[:4]
        ]
        results = {}
        errors = []

        def work(worker_id):
            try:
                ws = Workspace(cache_dir=cache_dir)
                docs = []
                for _ in range(2):  # second pass hits warm entries
                    for text in sources:
                        docs.append(_doc(ws.analyze_run(text)))
                results[worker_id] = docs
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(worker_id,)) for worker_id in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results) == 3
        baseline = results[0]
        assert all(results[worker_id] == baseline for worker_id in results)


def _doc(run):
    """The stable part of an analyze document (timings/cache state dropped)."""
    document = analyze_document(run)
    for field in VOLATILE_FIELDS:
        document.pop(field, None)
    return json_text(document)


class TestReviewRegressions:
    def test_str_policy_path_resolves_like_a_pathlike(self, source, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(TWO_LEVEL), encoding="utf-8")
        # a plain-string path works everywhere a PathLike does
        ws = Workspace(policies={"mls": str(path)})
        assert "mls" in ws.policies
        checked = ws.check(source, str(path))
        assert not checked.clean

    def test_default_parallel_batch_keeps_per_worker_caches(self, design_file, capsys):
        # two jobs for the same file on one worker: the first computes every
        # stage, parse included, and the second is served from the worker's
        # in-memory tier without reading the parse at all — all without
        # --cache-dir (the workspace merely has no *shared* cache; caching
        # is not disabled)
        assert main(["batch", design_file, design_file, "--jobs", "1", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        first, second = [job["cached_stages"] for job in document["jobs"]]
        assert first == []
        assert second == WARM_STAGE_NAMES
