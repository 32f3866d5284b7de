"""Tests for Kemmerer's baseline and its comparison with the paper's analysis."""

import pytest

import repro.analysis.closure as closure
from repro import Workspace, analyze, analyze_kemmerer, workloads
from repro.aes.generator import shift_rows_paper_source, shift_rows_row_nodes
from repro.cli import main
from repro.hier import flatten_source
from repro.vhdl.parser import parse_program

HIERARCHIES = [
    pytest.param(source, loop, id=f"{name}-{'loop' if loop else 'straight'}")
    for name, source in workloads.hierarchy_workload_sources()
    for loop in (True, False)
]


class TestKemmererBaseline:
    def test_result_graph_is_transitively_closed(self):
        result = analyze_kemmerer(workloads.producer_consumer_program())
        assert result.graph.is_transitive()

    def test_direct_graph_is_subgraph_of_closed_graph(self):
        result = analyze_kemmerer(workloads.producer_consumer_program())
        assert result.direct_graph.is_subgraph_of(result.graph)

    def test_program_a_gets_the_spurious_edge(self):
        result = analyze_kemmerer(workloads.paper_program_a(), loop_processes=False)
        graph = result.graph.without_self_loops()
        assert graph.has_edge("a", "c")

    def test_program_b_matches_our_analysis(self):
        ours = analyze(
            workloads.paper_program_b(), improved=False, loop_processes=False
        ).graph_without_self_loops()
        kemmerer = analyze_kemmerer(
            workloads.paper_program_b(), loop_processes=False
        ).graph.without_self_loops()
        assert ours.edges == kemmerer.edges

    def test_our_analysis_is_never_less_sound_than_kemmerer_on_these_programs(self):
        # Kemmerer's method over-approximates the paper's analysis: every edge
        # our analysis reports between program resources is also reported by
        # Kemmerer's transitive closure.
        for source in (
            workloads.paper_program_a(),
            workloads.paper_program_b(),
            workloads.producer_consumer_program(),
            workloads.conditional_program(),
        ):
            ours = analyze(source, improved=False).graph_without_self_loops()
            kemmerer = analyze_kemmerer(source).graph.without_self_loops()
            assert ours.is_subgraph_of(kemmerer)


class TestShiftRowsComparison:
    def test_kemmerer_conflates_the_rows(self):
        nodes = [n for row in shift_rows_row_nodes().values() for n in row]
        kemmerer = (
            analyze_kemmerer(shift_rows_paper_source(), loop_processes=False)
            .graph.without_self_loops()
            .restricted_to(nodes)
        )
        cross_row = [
            (src, dst)
            for src, dst in kemmerer.edges
            if src.split("_")[1] != dst.split("_")[1]
        ]
        assert cross_row, "Kemmerer's method should mix the rows"
        # with a single shared temporary the closure connects every element to
        # every other element
        assert kemmerer.edge_count() == 12 * 11

    def test_our_analysis_is_strictly_more_precise(self):
        nodes = [n for row in shift_rows_row_nodes().values() for n in row]
        ours = (
            analyze(shift_rows_paper_source(), improved=True, loop_processes=False)
            .collapsed_graph()
            .without_self_loops()
            .restricted_to(nodes)
        )
        kemmerer = (
            analyze_kemmerer(shift_rows_paper_source(), loop_processes=False)
            .graph.without_self_loops()
            .restricted_to(nodes)
        )
        assert ours.is_subgraph_of(kemmerer)
        assert ours.edge_count() < kemmerer.edge_count()
        false_positives = kemmerer.edge_difference(ours)
        assert len(false_positives) == 12 * 11 - 12


class TestHierarchicalDesigns:
    """Kemmerer's method on the linked plan: the closure of the placed ``RM_lo``."""

    @pytest.mark.parametrize("source,loop_processes", HIERARCHIES)
    def test_linked_closure_equals_the_flattened_baseline(self, source, loop_processes):
        linked = Workspace(cache=None).kemmerer_run(
            source, loop_processes=loop_processes
        )
        assert [stage.name for stage in linked.stages] == [
            "parse",
            "place",
            "kemmerer",
        ]
        flat = analyze_kemmerer(
            flatten_source(parse_program(source)), loop_processes=loop_processes
        )
        assert linked.kemmerer.rm_local == flat.rm_local
        assert linked.kemmerer.graph.to_adjacency() == flat.graph.to_adjacency()

    def test_one_liner_runs_a_hierarchical_design(self):
        source = workloads.hierarchical_mux_program()
        linked = analyze_kemmerer(source, entity_name="mux_top")
        flat = analyze_kemmerer(flatten_source(parse_program(source)))
        assert linked.direct_graph.to_adjacency() == flat.direct_graph.to_adjacency()
        assert linked.graph.to_adjacency() == flat.graph.to_adjacency()

    def test_cli_dot_matches_the_flattened_design(self, tmp_path, capsys):
        source = workloads.hierarchical_mux_program()
        linked = tmp_path / "mux.vhd"
        linked.write_text(source, encoding="utf-8")
        flat = tmp_path / "mux_flat.vhd"
        flat.write_text(flatten_source(parse_program(source)), encoding="utf-8")
        assert main(["kemmerer", str(linked), "--dot"]) == 0
        linked_dot = capsys.readouterr().out
        assert main(["kemmerer", str(flat), "--dot"]) == 0
        assert linked_dot == capsys.readouterr().out
        assert "digraph kemmerer {" in linked_dot

    def test_cli_runs_a_hierarchical_design(self, tmp_path, capsys):
        path = tmp_path / "mux.vhd"
        path.write_text(workloads.hierarchical_mux_program(), encoding="utf-8")
        assert main(["kemmerer", str(path), "--entity", "mux_top"]) == 0
        assert capsys.readouterr().out.startswith("Kemmerer's method:")


class TestResumptionChannel:
    """The one gap between the basic analysis and Kemmerer's closure.

    Rule [Present values] copies the reads of the label that defined a
    present value.  When that label is a wait, its reads are the ``wait on``
    list, so the list flows into every later read of a signal another
    process drives; ``RM_lo`` has no entry at a wait label, so Kemmerer's
    closure has no path for those flows.  These tests record today's
    behaviour on ``bus_top``; a decision on whether resumption is in scope
    will change them.
    """

    @pytest.fixture
    def bus_top(self):
        return dict(workloads.hierarchy_workload_sources())["bus_top"]

    @staticmethod
    def graphs(source):
        basic = Workspace(cache=None).analyze(source, improved=False)
        kemmerer = Workspace(cache=None).kemmerer_run(source).kemmerer
        return basic, kemmerer.graph

    def test_the_basic_graph_has_39_edges_kemmerer_lacks(self, bus_top):
        basic, kemmerer = self.graphs(bus_top)
        gap = basic.graph.edge_difference(kemmerer)
        assert (basic.graph.edge_count(), kemmerer.edge_count()) == (208, 169)
        assert len(gap) == 39
        assert ("bank_0__acc", "ready") in gap
        assert not kemmerer.edge_difference(basic.graph)

    def test_the_gap_is_the_wait_sourced_copy_edges(self, bus_top, monkeypatch):
        basic = Workspace(cache=None).analyze(bus_top, improved=False)
        waits = basic.program_cfg.wait_labels
        present_value_edges = closure.present_value_edges

        def without_wait_sources(specialized):
            edges = present_value_edges(specialized)
            return {
                label: targets for label, targets in edges.items() if label not in waits
            }

        monkeypatch.setattr(closure, "present_value_edges", without_wait_sources)
        basic, kemmerer = self.graphs(bus_top)
        assert basic.graph.edges == kemmerer.edges
