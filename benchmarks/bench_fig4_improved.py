"""E2 — Figure 4: the improved analysis with incoming/outgoing nodes.

Section 5.3 refines the result for program (b) ``b := a; c := b``: the final
value of ``b`` is readable from ``c`` (edge ``b → c``), but the *initial* value
of ``b`` is not (no edge ``b◦ → c``), while the initial value of ``a`` is (edge
``a◦ → c``).  The same machinery handles the environment of a real design
through ``in``/``out`` ports, checked here on the producer/consumer workload.
"""

from repro import analyze, workloads
from repro.analysis.resource_matrix import incoming_node, outgoing_node


def test_figure4_program_b(benchmark, report):
    """Figure 4(b): initial-value nodes separate overwritten values."""

    def run():
        return analyze(
            workloads.paper_program_b(), improved=True, loop_processes=False
        ).graph_without_self_loops()

    graph = benchmark(run)
    assert graph.has_edge("b", "c")
    assert graph.has_edge(incoming_node("a"), "c")
    assert graph.has_edge(incoming_node("a"), "b")
    assert not graph.has_edge(incoming_node("b"), "c")
    report(
        edges=sorted(graph.edges),
        initial_b_reaches_c=graph.has_edge(incoming_node("b"), "c"),
        initial_a_reaches_c=graph.has_edge(incoming_node("a"), "c"),
    )


def test_figure4_program_a(benchmark, report):
    """For program (a) the initial value of b *does* reach c."""

    def run():
        return analyze(
            workloads.paper_program_a(), improved=True, loop_processes=False
        ).graph_without_self_loops()

    graph = benchmark(run)
    assert graph.has_edge(incoming_node("b"), "c")
    assert not graph.has_edge(incoming_node("a"), "c")
    report(edges=sorted(graph.edges))


def test_environment_nodes_for_ports(benchmark, report):
    """Incoming/outgoing nodes model the environment process π for real ports."""

    def run():
        return analyze(workloads.producer_consumer_program(), improved=True).graph

    graph = benchmark(run)
    sink = outgoing_node("result")
    assert graph.has_edge(incoming_node("left"), sink)
    assert graph.has_edge(incoming_node("right"), sink)
    assert graph.has_edge("mixed", sink)
    report(
        outgoing_node=sink,
        direct_sources=sorted(graph.predecessors(sink)),
    )


def test_overwritten_secret_improvement(benchmark, report):
    """The improvement accepts the overwritten-secret program (Challenge F)."""

    def run():
        return analyze(workloads.challenge_f_program(), improved=True).graph

    graph = benchmark(run)
    sink = outgoing_node("leak")
    assert graph.has_edge(incoming_node("plain"), sink)
    assert not graph.has_edge(incoming_node("key"), sink)
    assert not graph.has_edge("key", sink)
    report(direct_sources_of_leak=sorted(graph.predecessors(sink)))
