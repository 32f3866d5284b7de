"""E4 — Section 6: analysis of the remaining AES round transformations.

The paper reports that the analysed AES programs "use several temporary
variables … overwritten and reused for each input state" and that the analysis
"correctly eliminates the edges introduced by the overwritten variables".
These benchmarks run the full pipeline on each generated AES component,
check the expected flow structure and compare the edge counts against
Kemmerer's baseline.
"""

import pytest

from repro import analyze, analyze_kemmerer
from repro.aes import generator
from repro.analysis.resource_matrix import outgoing_node

COMPONENTS = {
    "add_round_key": generator.add_round_key_source(),
    "sub_bytes": generator.sub_bytes_source(),
    "mix_column": generator.mix_column_source(),
    "key_schedule_step": generator.key_schedule_step_source(),
    "aes_round_pipeline": generator.aes_round_source(),
}


@pytest.mark.parametrize("name", sorted(COMPONENTS))
def test_component_analysis(benchmark, report, name):
    """Full analysis of one AES component; records precision vs the baseline."""
    source = COMPONENTS[name]

    def run():
        return analyze(source, improved=True)

    result = benchmark(run)
    # merge the environment nodes so both graphs range over the same node set
    ours = result.collapsed_graph().without_self_loops()
    kemmerer = analyze_kemmerer(source).graph.without_self_loops()
    report(
        component=name,
        blocks=result.program_cfg.summary()["labels"],
        our_edges=ours.edge_count(),
        kemmerer_edges=kemmerer.edge_count(),
        false_positives_eliminated=len(kemmerer.edge_difference(ours)),
    )
    assert ours.is_subgraph_of(kemmerer)


def test_bytewise_add_round_key_reused_temporary(benchmark, report):
    """The reused-temporary claim of Section 6 on byte-granular AddRoundKey.

    Each output byte depends only on its own state and key bytes; the shared
    temporary makes Kemmerer's closure connect every input byte to every
    output byte (the same phenomenon as Figure 5, on a different function).
    """
    source = generator.add_round_key_bytewise_source(num_bytes=8)

    def run():
        return analyze(source, improved=True)

    result = benchmark(run)
    ours = result.collapsed_graph().without_self_loops()
    kemmerer = analyze_kemmerer(source).graph.without_self_loops()
    for index in range(8):
        # apart from the carrying temporary, each output byte depends only on
        # its own state and key bytes
        input_sources = ours.predecessors(f"out_{index}") - {"t"}
        assert input_sources == frozenset({f"state_{index}", f"key_{index}"})
        kemmerer_inputs = kemmerer.predecessors(f"out_{index}") - {"t"}
        assert len(kemmerer_inputs) == 16      # all state and key bytes
    report(
        bytes=8,
        our_input_bytes_per_output=2,
        kemmerer_input_bytes_per_output=16,
        false_positives_eliminated=len(kemmerer.edge_difference(ours)),
    )


def test_add_round_key_expected_flows(benchmark, report):
    """AddRoundKey: both the state and the key flow to the output, nothing else."""

    def run():
        return analyze(COMPONENTS["add_round_key"], improved=True)

    result = benchmark(run)
    graph = result.graph
    sink = outgoing_node("state_o")
    sources = {name for name in graph.predecessors(sink)}
    assert "state_i" in sources and "key_i" in sources
    report(direct_sources=sorted(sources))


def test_pipeline_cross_process_flows(benchmark, report):
    """The three-stage round pipeline: flows cross the internal signals."""

    def run():
        return analyze(COMPONENTS["aes_round_pipeline"], improved=True)

    result = benchmark(run)
    graph = result.graph
    sink = outgoing_node("state_o")
    assert graph.has_edge("state_i", sink)
    assert graph.has_edge("key_i", sink)
    assert graph.has_edge("after_ark", "after_sr")
    report(
        stages=len(result.design.processes),
        cross_flow_tuples=len(result.program_cfg.cross_flow()),
        direct_sources_of_output=sorted(graph.predecessors(sink)),
    )


def test_key_schedule_word_dependencies(benchmark, report):
    """Every produced key word depends on all four input words (as in AES)."""

    def run():
        return analyze(COMPONENTS["key_schedule_step"], improved=True)

    result = benchmark(run)
    graph = result.graph
    last_word_sink = outgoing_node("w7_o")
    sources = graph.predecessors(last_word_sink)
    for word in ("w0_i", "w1_i", "w2_i", "w3_i"):
        assert word in sources
    report(w7_sources=sorted(sources))
