"""Ablation — the under-approximation ``RD∩ϕ`` (the paper's "unusual ingredient").

The conclusion singles out "the under-approximation analysis for active
signals in order to be able to specify non-trivial kill-components for present
values" as the unusual ingredient of the Reaching Definitions development.
This benchmark measures what that ingredient buys: the same analysis is run
with and without the ``RD∩ϕ``-driven kill at synchronisation points
(``use_under_approximation=False`` makes wait statements kill nothing).

On the two-phase workload — an internal signal carrying ``x`` is guaranteed to
be overwritten with ``y`` before it is exported — the ablated analysis reports
a spurious flow from ``x`` (and from the signal's initial value) into the
output, while the full analysis reports only ``y``.
"""

from repro import analyze, workloads
from repro.analysis.resource_matrix import incoming_node, outgoing_node


def test_full_analysis_on_two_phase_design(benchmark, report):
    """With the under-approximation: only y reaches the output."""

    def run():
        return analyze(workloads.two_phase_program(), improved=True)

    result = benchmark(run)
    sink = outgoing_node("result")
    sources = result.graph.predecessors(sink)
    assert "y" in sources and incoming_node("y") in sources
    assert "x" not in sources and incoming_node("x") not in sources
    report(
        variant="with RD∩ϕ kill",
        direct_sources=sorted(sources),
        edges=result.graph.edge_count(),
    )


def test_ablated_analysis_on_two_phase_design(benchmark, report):
    """Without it: the spurious flow from x (and the initial value) appears."""

    def run():
        return analyze(
            workloads.two_phase_program(),
            improved=True,
            use_under_approximation=False,
        )

    result = benchmark(run)
    sink = outgoing_node("result")
    sources = result.graph.predecessors(sink)
    assert "x" in sources              # the spurious flow the kill removes
    assert incoming_node("stage") in sources
    report(
        variant="without RD∩ϕ kill (ablated)",
        direct_sources=sorted(sources),
        edges=result.graph.edge_count(),
    )


def test_ablation_only_adds_edges(benchmark, report):
    """The ablation is a pure precision loss: its graph contains the full one."""

    def run():
        full = analyze(workloads.two_phase_program(), improved=True)
        ablated = analyze(
            workloads.two_phase_program(),
            improved=True,
            use_under_approximation=False,
        )
        return full, ablated

    full, ablated = benchmark(run)
    assert full.graph.is_subgraph_of(ablated.graph)
    extra = ablated.graph.edge_difference(full.graph)
    assert extra
    report(
        full_edges=full.graph.edge_count(),
        ablated_edges=ablated.graph.edge_count(),
        spurious_edges_removed_by_under_approximation=len(extra),
    )
