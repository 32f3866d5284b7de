"""E3 — Figure 5: Kemmerer's method vs the paper's analysis on AES ShiftRows.

Section 6: the ShiftRows function of the NSA AES implementation is analysed
after unrolling its loops; all three shifted rows pass through the *same*
temporary variables.  With incoming and outgoing nodes merged, both result
graphs have the same 12 nodes (rows 1–3, four elements each).  Kemmerer's
method "is unable to separate the shifts on each row" — its graph connects
every element to every other element — while the paper's analysis "computes
the precise result": each element receives exactly one edge, from the element
of its own row that is shifted into it.
"""

from repro import analyze, analyze_kemmerer
from repro.aes.generator import (
    shift_rows_expected_sources,
    shift_rows_paper_source,
    shift_rows_row_nodes,
)

ROW_NODES = [node for row in shift_rows_row_nodes().values() for node in row]


def _our_graph():
    result = analyze(shift_rows_paper_source(), improved=True, loop_processes=False)
    return (
        result.collapsed_graph().without_self_loops().restricted_to(ROW_NODES)
    )


def _kemmerer_graph():
    result = analyze_kemmerer(shift_rows_paper_source(), loop_processes=False)
    return result.graph.without_self_loops().restricted_to(ROW_NODES)


def _cross_row_edges(graph):
    return [
        (src, dst)
        for src, dst in graph.edges
        if src.split("_")[1] != dst.split("_")[1]
    ]


def test_figure5b_our_analysis_is_exact(benchmark, report):
    """Figure 5(b): each row element depends only on its true source element."""
    graph = benchmark(_our_graph)
    assert graph.node_count() == 12
    assert graph.edge_count() == 12
    for target, source in shift_rows_expected_sources().items():
        assert graph.predecessors(target) == frozenset({source})
    assert not _cross_row_edges(graph)
    report(
        nodes=graph.node_count(),
        edges=graph.edge_count(),
        cross_row_edges=0,
        adjacency=graph.to_adjacency(),
    )


def test_figure5a_kemmerer_conflates_the_rows(benchmark, report):
    """Figure 5(a): the baseline merges the three rows through the shared temporary."""
    graph = benchmark(_kemmerer_graph)
    assert graph.node_count() == 12
    assert graph.edge_count() == 12 * 11          # complete digraph on 12 nodes
    assert len(_cross_row_edges(graph)) == 96     # 12 * 8 cross-row pairs
    report(
        nodes=graph.node_count(),
        edges=graph.edge_count(),
        cross_row_edges=len(_cross_row_edges(graph)),
    )


def test_figure5_precision_gap(benchmark, report):
    """The headline comparison: false positives eliminated by the analysis."""

    def run():
        return _our_graph(), _kemmerer_graph()

    ours, kemmerer = benchmark(run)
    false_positives = kemmerer.edge_difference(ours)
    assert ours.is_subgraph_of(kemmerer)
    assert len(false_positives) == 132 - 12
    report(
        our_edges=ours.edge_count(),
        kemmerer_edges=kemmerer.edge_count(),
        false_positives_eliminated=len(false_positives),
        precision_ratio=round(kemmerer.edge_count() / ours.edge_count(), 1),
    )


def test_full_pipeline_cost_on_shiftrows(benchmark, report):
    """End-to-end analysis cost on the Figure 5 workload (parse to graph)."""

    def run():
        return analyze(
            shift_rows_paper_source(), improved=True, loop_processes=False
        )

    result = benchmark(run)
    report(
        blocks=result.program_cfg.summary()["labels"],
        local_entries=len(result.rm_local),
        global_entries=len(result.rm_global),
    )
