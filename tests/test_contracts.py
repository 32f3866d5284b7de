"""Replay the committed contract corpus against live surfaces.

The headline acceptance properties of the contract suite:

* the whole corpus verifies green in **inline** and **pool** server modes
  (leaning on the repo's byte-identity invariant: CLI ``--json``, inline
  serve and pool serve emit identical documents);
* mutating a recorded response field produces a *failing* field-level
  JSON-pointer diff that names the interaction;
* a new optional field in the live response passes as *additive* with a
  logged ``additive`` line;
* a recorded ``schema`` that no longer matches the live contract version
  (``GET /version``) fails with re-record instructions — the v2 bump
  wiring;
* ``POST /policy`` replay loops are true no-ops (satellite: the corpus is
  re-runnable any number of times);
* ``vhdl-ifa contract record`` replays the corpus's own stimuli: committed
  files come back byte-identical, a stimulus-only file is recorded into
  its canonical file, and a changed outcome is refused.
"""

import copy
import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro import workloads
from repro.cli import main
from repro.contract import Corpus, verify_corpus
from repro.contract.differ import breaking, diff_documents
from repro.contract.matchers import normalize
from repro.contract.profiles import (
    MLS_POLICY,
    PROFILES,
    boot,
    http_request,
    materialize_inputs,
    resolve_argv,
    run_cli,
)
from repro.pipeline.render import volatile_pointers

PACTS_DIR = Path(__file__).resolve().parent / "contract" / "pacts"


@pytest.fixture(scope="module")
def corpus():
    return Corpus.load(PACTS_DIR)


def _single(corpus, description, **overrides):
    """A one-interaction corpus around a (possibly mutated) recording."""
    interaction = next(
        i for i in corpus if i.description == description
    )
    if overrides:
        interaction = dataclasses.replace(interaction, **overrides)
    return Corpus(interactions=[interaction])


class TestFullReplay:
    def test_corpus_verifies_inline(self, corpus):
        lines = []
        report = verify_corpus(corpus, mode="inline", log=lines.append)
        assert report.ok, "\n".join(r.describe() for r in report.failures)
        assert len(report.results) == len(corpus) >= 40
        # no divergence at all against a truthful recording
        assert report.additive_count == 0
        assert not any(line.startswith("additive") for line in lines)

    def test_corpus_verifies_in_pool_mode(self, corpus):
        report = verify_corpus(corpus, mode="pool")
        assert report.ok, "\n".join(r.describe() for r in report.failures)
        assert len(report.results) == len(corpus)


class TestDiskWarmReplay:
    """The recorded CLI documents, served from a populated ``--cache-dir``."""

    ANALYSIS_COMMANDS = ("analyze", "check", "lint", "batch")

    def test_cli_interactions_replay_over_a_warm_cache_dir(self, corpus, tmp_path):
        root = materialize_inputs(tmp_path / "inputs")
        cache_dir = str(tmp_path / "cache")
        replayed = []
        for interaction in corpus:
            argv = interaction.request.get("argv") or [None]
            if interaction.profile != "cli" or argv[0] not in self.ANALYSIS_COMMANDS:
                continue
            argv = resolve_argv(argv, root) + ["--cache-dir", cache_dir]
            run_cli(argv)  # the cold run populates the directory
            exit_code, document = run_cli(argv)
            assert exit_code == interaction.response["exit_code"], interaction.id
            divergences = breaking(
                diff_documents(
                    interaction.response["document"],
                    normalize(document, interaction.matchers),
                )
            )
            assert divergences == [], (interaction.id, divergences)
            # ... and the second run really was served from the directory.
            for run in document.get("jobs", [document]):
                assert run["cached_stages"] and "parse" not in run["timings"]
            replayed.append(argv[0])
        assert set(replayed) == set(self.ANALYSIS_COMMANDS)


class TestBreakingDiffs:
    def test_mutated_value_fails_with_pointer_naming_interaction(self, corpus):
        description = "analyze challenge_f"
        target = next(i for i in corpus if i.description == description)
        mutated = copy.deepcopy(target.response)
        mutated["document"]["design"] = "tampered"
        report = verify_corpus(
            _single(corpus, description, response=mutated), mode="inline"
        )
        assert not report.ok
        (result,) = report.failures
        assert result.interaction.id == target.id
        divergence = next(d for d in result.breaking if d.pointer == "/design")
        assert "tampered" in divergence.detail
        message = result.describe()
        assert target.id in message and "/design" in message
        assert "vhdl-ifa/v2" in message  # the bump procedure is named

    def test_removed_field_is_breaking(self, corpus):
        description = "analyze challenge_f"
        target = next(i for i in corpus if i.description == description)
        mutated = copy.deepcopy(target.response)
        mutated["document"]["retired_field"] = True  # recorded but not served
        report = verify_corpus(
            _single(corpus, description, response=mutated), mode="inline"
        )
        assert not report.ok
        (result,) = report.failures
        assert any(
            d.pointer == "/retired_field" and "removed" in d.detail
            for d in result.breaking
        )

    def test_status_change_is_breaking(self, corpus):
        description = "analyze missing source"
        target = next(i for i in corpus if i.description == description)
        mutated = copy.deepcopy(target.response)
        mutated["status"] = 200
        report = verify_corpus(
            _single(corpus, description, response=mutated), mode="inline"
        )
        assert not report.ok
        (result,) = report.failures
        assert any("status changed from 200 to 400" in d.detail for d in result.breaking)


class TestAdditiveChanges:
    def test_new_optional_field_passes_with_additive_log(self, corpus):
        description = "analyze challenge_f"
        target = next(i for i in corpus if i.description == description)
        mutated = copy.deepcopy(target.response)
        # Drop a recorded field: the live response then carries one field the
        # recording does not pin — exactly what a producer adding a new
        # optional field looks like to an old consumer.
        del mutated["document"]["summary"]
        lines = []
        report = verify_corpus(
            _single(corpus, description, response=mutated),
            mode="inline",
            log=lines.append,
        )
        assert report.ok
        assert report.additive_count == 1
        (result,) = report.results
        assert any(d.pointer == "/summary" for d in result.additive)
        assert any(
            line.startswith("additive:") and "/summary" in line for line in lines
        )


class TestVersionWiring:
    def test_schema_skew_fails_demanding_rerecord(self, corpus):
        description = "analyze challenge_f"
        report = verify_corpus(
            _single(corpus, description, schema="vhdl-ifa/v0"), mode="inline"
        )
        assert not report.ok
        (result,) = report.failures
        assert "vhdl-ifa/v0" in result.failure
        assert "re-record" in result.failure

    def test_cli_schema_skew_fails_too(self, corpus):
        report = verify_corpus(
            _single(corpus, "cli analyze challenge-f", schema="vhdl-ifa/v0"),
            mode="inline",
        )
        assert not report.ok
        assert "re-record" in report.failures[0].failure


class TestPolicyReplayIdempotence:
    """Satellite: identical re-registration is a true 200 no-op."""

    def test_policy_replay_loop_is_a_no_op(self):
        with boot(PROFILES["default"], mode="inline") as server:
            documents, registered = [], []
            for _ in range(3):
                status, document, _ = http_request(
                    server.port, "POST", "/policy", MLS_POLICY
                )
                assert status == 200
                documents.append(document)
                registered.append(server.workspace.policies["mls"])
            assert documents[0] == documents[1] == documents[2]
            # the registered object is never re-bound by an identical re-post
            assert registered[0] is registered[1] is registered[2]

    def test_different_definition_still_conflicts(self):
        with boot(PROFILES["default"], mode="inline") as server:
            status, _, _ = http_request(server.port, "POST", "/policy", MLS_POLICY)
            assert status == 200
            different = dict(MLS_POLICY, resources={"plain": "secret"})
            status, document, _ = http_request(
                server.port, "POST", "/policy", different
            )
            assert status == 409
            assert "already registered" in document["error"]

    def test_non_roundtrippable_registered_policy_conflicts_cleanly(self):
        # A programmatic policy whose serialisation raises must yield a 409
        # (can never equal a posted document), not a 500 from the probe.
        from repro.pipeline import AnalysisServer, ServerThread
        from repro.security.policy import Clearance, FlowPolicy
        from repro.workspace import Workspace

        weird = FlowPolicy(
            levels={"a": Clearance(1, "secret"), "b": Clearance(2, "secret")}
        )
        workspace = Workspace(policies={"mls": weird})
        with ServerThread(AnalysisServer(port=0, workspace=workspace)) as server:
            status, document, _ = http_request(
                server.port, "POST", "/policy", MLS_POLICY
            )
            assert status == 409
            assert "already registered" in document["error"]


class TestRecord:
    """``vhdl-ifa contract record`` over the corpus's own stimuli."""

    @staticmethod
    def _copy(corpus, directory, *descriptions):
        directory.mkdir()
        for interaction in corpus:
            if interaction.description in descriptions:
                shutil.copy(PACTS_DIR / interaction.file_name, directory)
        return {path.name: path.read_bytes() for path in directory.glob("*.json")}

    @staticmethod
    def _files(directory):
        return {path.name: path.read_bytes() for path in directory.iterdir()}

    def test_rerecording_committed_files_is_byte_identical(
        self, corpus, tmp_path, capsys
    ):
        # One analysis, one ops and one CLI interaction; `make contracts`
        # re-records the whole corpus the same way.
        pacts = tmp_path / "pacts"
        committed = self._copy(
            corpus,
            pacts,
            "check challenge_f secret",
            "healthz inline",
            "cli lint overwriting-loop",
        )
        assert len(committed) == 3
        assert main(["contract", "record", "--pacts", str(pacts)]) == 0
        assert "recorded 3 interaction(s)" in capsys.readouterr().out
        assert self._files(pacts) == committed

    def test_stimulus_only_file_is_recorded_into_its_canonical_file(
        self, tmp_path, capsys
    ):
        pacts = tmp_path / "pacts"
        pacts.mkdir()
        stimulus = {
            "description": "lint two_phase again",
            "profile": "default",
            "request": {
                "kind": "http",
                "method": "POST",
                "path": "/lint",
                "body": {"source": workloads.two_phase_program()},
            },
            "response": {"status": 200},
        }
        (pacts / "new interaction.json").write_text(json.dumps(stimulus))
        assert main(["contract", "record", "--pacts", str(pacts)]) == 0
        (interaction,) = Corpus.load(pacts)  # canonical name and id
        assert sorted(self._files(pacts)) == [interaction.file_name]
        assert interaction.request == stimulus["request"]
        assert interaction.response["status"] == 200
        assert interaction.response["document"]["command"] == "lint"
        assert interaction.matchers == volatile_pointers("lint")
        capsys.readouterr()
        verify = ["contract", "verify", "--pacts", str(pacts), "--mode", "inline"]
        assert main(verify) == 0
        assert "1 interaction(s), 0 failing, 0 additive" in capsys.readouterr().out

    def test_changed_outcome_is_refused_and_nothing_is_written(
        self, corpus, tmp_path, capsys
    ):
        pacts = tmp_path / "pacts"
        self._copy(corpus, pacts, "analyze missing source")
        (path,) = pacts.glob("*.json")
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["response"]["status"] = 200  # the server answers 400
        path.write_text(json.dumps(payload), encoding="utf-8")
        before = self._files(pacts)
        assert main(["contract", "record", "--pacts", str(pacts)]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: recording 'analyze missing source'")
        assert "200" in line and "400" in line
        assert captured.out == ""
        assert self._files(pacts) == before

    @pytest.mark.parametrize("exists", [False, True], ids=["missing", "empty"])
    def test_no_corpus_exits_2_and_creates_nothing(self, tmp_path, capsys, exists):
        pacts = tmp_path / "pacts"
        if exists:
            pacts.mkdir()
        assert main(["contract", "record", "--pacts", str(pacts)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:")
        assert (self._files(pacts) == {}) if exists else not pacts.exists()
