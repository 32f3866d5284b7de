"""Summary-cache invalidation (``repro.hier.summary``).

Summaries are content-addressed by the entity's *self slice*, so editing one
entity of a hierarchical design must recompute exactly that entity's summary
— every other entity is served from cache — and the re-linked document must
reflect the edit.  These tests instrument the summary builder to count real
recomputations.
"""

import pickle

import pytest

from repro import Workspace, workloads
from repro.hier import build_hierarchy, summary_cache_key
from repro.hier.summary import SUMMARY_FORMAT
from repro.pipeline import analyze_document, json_text
from repro.vhdl.parser import parse_program

VOLATILE = ("timings", "cached_stages")


@pytest.fixture
def built_entities(monkeypatch):
    """Record which entities' summaries are actually (re)built."""
    import repro.hier.summary as summary_module

    built = []
    original = summary_module._build_summary

    def recording(unit, loop_processes):
        built.append(unit.name.lower())
        return original(unit, loop_processes)

    monkeypatch.setattr(summary_module, "_build_summary", recording)
    return built


def _doc(run):
    document = analyze_document(run)
    for field in VOLATILE:
        document.pop(field, None)
    return json_text(document)


class TestInvalidation:
    def test_cold_run_builds_every_entity_once(self, tmp_path, built_entities):
        ws = Workspace(cache_dir=str(tmp_path))
        source = workloads.hierarchical_bus_program(
            banks=2, cells_per_bank=2, depth=3
        )
        ws.analyze_run(source)
        # three distinct entities, one build each — instances share summaries
        assert sorted(built_entities) == ["bank", "bus_top", "reg_cell"]

    def test_warm_run_builds_nothing(self, tmp_path, built_entities):
        ws = Workspace(cache_dir=str(tmp_path))
        source = workloads.hierarchical_mux_program()
        ws.analyze_run(source)
        built_entities.clear()
        run = ws.analyze_run(source)
        assert built_entities == []
        # the place hit leaves no stage needing the hierarchy or summaries
        assert run.computed_stages == []

    def test_warm_run_survives_a_fresh_workspace(self, tmp_path, built_entities):
        # the cache is the disk tier: a new session over the same cache_dir
        # builds no summary and loads the placed artefacts back intact
        source = workloads.hierarchical_mux_program()
        cold = Workspace(cache_dir=str(tmp_path)).analyze_run(source)
        built_entities.clear()
        warm = Workspace(cache_dir=str(tmp_path)).analyze_run(source)
        assert warm.cached_stages == ["graph_json", "inventory"]
        assert _doc(warm) == _doc(cold)
        # the placed artefacts load on first access, still building nothing;
        # they equal the cold ones as read back once (a pickle round trip
        # shares CPython's cached one-character strings)
        assert pickle.dumps(warm.result.program_cfg) == pickle.dumps(
            pickle.loads(pickle.dumps(cold.result.program_cfg))
        )
        assert warm.cached_stages == ["graph_json", "inventory", "place"]
        assert built_entities == []

    def test_leaf_edit_recomputes_exactly_one_summary(
        self, tmp_path, built_entities
    ):
        ws = Workspace(cache_dir=str(tmp_path))
        source = workloads.hierarchical_bus_program(
            banks=2, cells_per_bank=2, depth=3
        )
        before = ws.analyze_run(source)
        built_entities.clear()

        # edit the leaf entity's behaviour (reg_cell's store process)
        edited = source.replace("state <= nxt;", "state <= (nxt xor clr);", 1)
        assert edited != source
        after = ws.analyze_run(edited)
        assert built_entities == ["reg_cell"]
        assert _doc(after) != _doc(before)

    def test_root_edit_recomputes_only_the_root(self, tmp_path, built_entities):
        ws = Workspace(cache_dir=str(tmp_path))
        source = workloads.hierarchical_bus_program(
            banks=2, cells_per_bank=2, depth=3
        )
        ws.analyze_run(source)
        built_entities.clear()
        edited = source.replace("ready <= bs_0;", "ready <= (bs_0 or bs_1);", 1)
        assert edited != source
        ws.analyze_run(edited)
        assert built_entities == ["bus_top"]

    def test_port_map_edit_recomputes_nothing(self, tmp_path, built_entities):
        # rebinding an instance changes linking, not any entity's self slice
        ws = Workspace(cache_dir=str(tmp_path))
        source = workloads.hierarchical_mux_program()
        before = ws.analyze_run(source)
        built_entities.clear()
        edited = source.replace("port map (lo, sel, n2)", "port map (hi, sel, n2)")
        assert edited != source
        after = ws.analyze_run(edited)
        assert built_entities == []
        assert _doc(after) != _doc(before)

    def test_identical_entities_share_one_summary_across_files(
        self, tmp_path, built_entities
    ):
        # content addressing: the same leaf entity in two different designs
        # is summarised once
        ws = Workspace(cache_dir=str(tmp_path))
        ws.analyze_run(workloads.hierarchical_register_file(cells=2, depth=3))
        built_entities.clear()
        other = workloads.hierarchical_register_file(
            cells=3, depth=3, name="other_file"
        )
        ws.analyze_run(other)
        assert built_entities == ["other_file"]


class TestCacheKeys:
    def test_key_shape_and_option_sensitivity(self):
        program = parse_program(workloads.hierarchical_mux_program())
        unit = build_hierarchy(program).unit_of("stage")
        key = summary_cache_key(unit)
        assert key.startswith(f"summary:v{SUMMARY_FORMAT}:")
        assert key.endswith(":stage:loop_processes=True")
        # loop_processes shapes the summary; improved/under-approx do not
        assert summary_cache_key(unit, loop_processes=False) != key

    def test_summary_entries_land_in_their_own_cache_section(self, tmp_path):
        ws = Workspace(cache_dir=str(tmp_path))
        ws.analyze_run(workloads.hierarchical_mux_program())
        section = tmp_path / "summary"
        assert section.is_dir()
        assert len(list(section.glob("*.pkl"))) == 2  # stage + mux_top
