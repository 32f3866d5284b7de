"""Tests for the high-level analysis API surface."""

import pytest

from repro import (
    FlowGraph,
    Workspace,
    analyze,
    analyze_kemmerer,
    elaborate,
    parse_program,
    workloads,
)
from repro.analysis.kemmerer import kemmerer_analysis
from repro.analysis.local_deps import local_resource_matrix
from repro.cfg.builder import build_cfg
from repro.errors import ElaborationError, ParseError, ReproError
from repro.pipeline import AnalysisResult


class TestPackageSurface:
    def test_package_exports(self):
        import repro

        assert repro.__version__ == "1.0.0"
        for name in ("analyze", "analyze_kemmerer", "FlowGraph"):
            assert hasattr(repro, name)

    def test_parse_then_elaborate_then_analyse(self):
        # The exported front end elaborates the design the analysis runs on.
        source = workloads.producer_consumer_program()
        design = elaborate(parse_program(source))
        result = analyze(source)
        assert isinstance(result, AnalysisResult)
        assert isinstance(result.graph, FlowGraph)
        assert result.design.name == design.name
        assert result.design.signals.keys() == design.signals.keys()
        assert [process.name for process in result.design.processes] == [
            process.name for process in design.processes
        ]

    def test_one_liners_never_open_a_cache(self, monkeypatch):
        def no_cache(*args, **kwargs):
            raise AssertionError("a one-liner opened a cache")

        monkeypatch.setattr("repro.workspace.open_cache", no_cache)
        source = workloads.conditional_program()
        assert analyze(source).graph.edges
        assert analyze_kemmerer(source).graph.edges
        with pytest.raises(AssertionError, match="opened a cache"):
            Workspace()

    def test_every_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            parse_program("entity broken")
        with pytest.raises(ParseError):
            parse_program("entity broken")
        with pytest.raises(ElaborationError):
            elaborate(parse_program("entity lonely is end lonely;"))


class TestAnalysisResult:
    def test_summary_mentions_the_design_and_sizes(self):
        result = analyze(workloads.producer_consumer_program())
        summary = result.summary()
        assert "producer_consumer" in summary
        assert "2 processes" in summary
        assert "graph:" in summary

    def test_flow_graph_alias(self):
        result = analyze(workloads.conditional_program())
        assert result.flow_graph is result.graph

    def test_intermediate_artefacts_are_exposed(self):
        result = analyze(workloads.producer_consumer_program())
        assert set(result.active) == {"producer", "consumer"}
        assert result.reaching.entry
        assert len(result.rm_local) > 0
        assert result.specialized.present or result.specialized.active
        assert result.outgoing_labels.keys() == {"result"}

    def test_basic_analysis_has_no_outgoing_labels(self):
        result = analyze(workloads.producer_consumer_program(), improved=False)
        assert result.outgoing_labels == {}
        assert not result.improved

    def test_collapsed_graph_has_no_environment_nodes(self):
        from repro.analysis.resource_matrix import is_incoming, is_outgoing

        result = analyze(workloads.challenge_f_program())
        collapsed = result.collapsed_graph()
        assert not any(is_incoming(n) or is_outgoing(n) for n in collapsed.nodes)

    def test_kemmerer_design_entry_point(self):
        # On an elaborated design, Kemmerer's method is the closure of RM_lo.
        source = workloads.conditional_program()
        design = elaborate(parse_program(source))
        baseline = kemmerer_analysis(local_resource_matrix(build_cfg(design)))
        assert baseline.graph.is_transitive()
        one_liner = analyze_kemmerer(source)
        assert baseline.rm_local == one_liner.rm_local
        assert baseline.graph.to_adjacency() == one_liner.graph.to_adjacency()

    def test_entity_selection_by_name(self):
        source = workloads.paper_program_a() + workloads.paper_program_b()
        result = analyze(source, entity_name="prog_b", loop_processes=False)
        assert result.design.name == "prog_b"
        with pytest.raises(ElaborationError):
            analyze(source)  # ambiguous without an entity name


class TestAnalysisOptions:
    def test_loop_processes_changes_the_result(self):
        looped = analyze(workloads.paper_program_a(), improved=False)
        straight = analyze(
            workloads.paper_program_a(), improved=False, loop_processes=False
        )
        assert straight.graph_without_self_loops().is_subgraph_of(
            looped.graph_without_self_loops()
        )
        assert looped.graph.edge_count() > straight.graph.edge_count()

    def test_under_approximation_flag_is_monotone(self):
        full = analyze(workloads.two_phase_program())
        ablated = analyze(
            workloads.two_phase_program(), use_under_approximation=False
        )
        assert full.graph.is_subgraph_of(ablated.graph)
