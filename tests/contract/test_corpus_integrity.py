"""Integrity and coverage gates on the committed interaction corpus.

These tests never boot a server against the corpus (that is
``tests/test_contracts.py``); they pin what the committed files themselves
must guarantee: coverage of every serve route, every recorded error
status, all five JSON CLI subcommands, content-addressed integrity, and —
through the session-scoped recording fixture — that a *fresh* recording
still reproduces the committed corpus bit-for-bit after normalisation.
"""

import dataclasses
import json
import re

import pytest

from repro.contract import diff_documents, interaction_identity
from repro.contract.model import Interaction
from repro.pipeline.render import SCHEMA_VERSION
from repro.pipeline.serve import ROUTES


class TestCoverage:
    def test_corpus_is_large_enough(self, recorded_corpus):
        assert len(recorded_corpus) >= 40

    def test_every_serve_route_is_recorded(self, recorded_corpus):
        recorded = set(recorded_corpus.http_paths())
        for route in ROUTES:
            assert route in recorded, f"no interaction exercises {route}"

    def test_every_error_status_is_recorded(self, recorded_corpus):
        statuses = {
            interaction.response["status"]
            for interaction in recorded_corpus
            if interaction.kind == "http"
        }
        assert {200, 400, 404, 405, 409, 413, 429, 504} <= statuses

    def test_all_five_cli_subcommands_are_recorded(self, recorded_corpus):
        assert recorded_corpus.cli_subcommands() == [
            "analyze", "batch", "cache", "check", "lint",
        ]

    def test_all_eight_workloads_are_recorded(self, recorded_corpus):
        from repro import workloads

        analyzed = {
            interaction.description.removeprefix("analyze ")
            for interaction in recorded_corpus
            if interaction.kind == "http"
            and interaction.description.startswith("analyze ")
            and interaction.response["status"] == 200
        }
        for name, _ in workloads.batch_workload_sources():
            assert name in analyzed

    def test_recorded_against_current_schema(self, recorded_corpus):
        for interaction in recorded_corpus:
            assert interaction.schema == SCHEMA_VERSION


class TestContentAddressing:
    def test_ids_are_content_addressed(self, recorded_corpus):
        for interaction in recorded_corpus:
            assert interaction.id == interaction_identity(
                interaction.profile, interaction.request
            )

    def test_file_names_are_canonical(self, pacts_dir, recorded_corpus):
        on_disk = sorted(path.name for path in pacts_dir.glob("*.json"))
        canonical = sorted(
            interaction.file_name for interaction in recorded_corpus
        )
        assert on_disk == canonical

    def test_hand_edited_request_is_rejected(self, pacts_dir):
        path = sorted(pacts_dir.glob("analyze-challenge-f-*.json"))[0]
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["request"]["path"] = "/lint"  # tamper with the stimulus
        with pytest.raises(ValueError, match="content[- ]address"):
            Interaction.from_dict(payload, origin=path.name)

    def test_no_absolute_paths_in_committed_files(self, pacts_dir):
        # CLI interactions must reference inputs through placeholders only.
        for path in pacts_dir.glob("*.json"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            request = json.dumps(payload["request"])
            assert not re.search(r'"/(?:tmp|home|root|var)/', request), (
                f"{path.name} leaks an absolute path in its request"
            )


class TestRecordingFixture:
    """The pytest recording fixture: a fresh recording matches the corpus."""

    def test_fresh_recording_matches_committed_corpus(
        self, recorded_corpus, fresh_corpus
    ):
        committed = {i.id: i for i in recorded_corpus}
        fresh = {i.id: i for i in fresh_corpus}
        assert sorted(committed) == sorted(fresh), (
            "the recording inventory changed; re-record the corpus "
            "(vhdl-ifa contract record)"
        )
        for interaction_id, recorded in committed.items():
            live = fresh[interaction_id]
            divergences = diff_documents(
                recorded.response["document"], live.response["document"]
            )
            assert not divergences, (
                f"{recorded.description} ({interaction_id}) drifted: "
                + "; ".join(str(d) for d in divergences)
            )
            assert recorded.response.get("status") == live.response.get("status")
            assert recorded.response.get("exit_code") == live.response.get(
                "exit_code"
            )
            assert recorded.matchers == live.matchers

    def test_interactions_round_trip_through_dict(self, recorded_corpus):
        for interaction in recorded_corpus:
            clone = Interaction.from_dict(interaction.to_dict())
            assert clone == interaction
            assert dataclasses.asdict(clone) == dataclasses.asdict(interaction)
