"""Tests for Tables 7 (specialisation), 8 (closure) and 9 (improved analysis)."""

from repro import analyze, workloads
from repro.analysis.closure import (
    merge_edges,
    present_value_edges,
    propagate,
    synchronized_value_edges,
)
from repro.analysis.reaching_defs import INITIAL_LABEL
from repro.analysis.resource_matrix import (
    Access,
    Entry,
    ResourceMatrix,
    incoming_node,
    outgoing_node,
)
from repro.aes.generator import shift_rows_paper_source


class TestSpecialization:
    def test_present_specialisation_restricts_to_read_names(self):
        result = analyze(workloads.paper_program_b(), loop_processes=False)
        labels = sorted(result.program_cfg.processes["p"].body_labels)
        first, second = labels[0], labels[1]
        # at label 2 only b is read, so RD† there only mentions b
        names = {name for name, _ in result.specialized.present_at(second)}
        assert names == {"b"}
        # and its definition is label 1, not the initial value
        assert result.specialized.present_at(second) == frozenset({("b", first)})

    def test_active_specialisation_lives_at_wait_labels(self):
        result = analyze(workloads.producer_consumer_program())
        wait_labels = result.program_cfg.wait_labels
        assert set(result.specialized.active) <= set(wait_labels)
        producer = result.program_cfg.processes["producer"]
        producer_wait = next(iter(producer.wait_labels))
        link_assign = next(iter(producer.assignment_labels_of_signal("link")))
        assert ("link", link_assign) in result.specialized.active_at(producer_wait)

    def test_no_active_specialisation_without_cross_flow(self):
        source = """
        entity e is port( a : in std_logic; y : out std_logic ); end e;
        architecture arch of e is
          signal link : std_logic;
        begin
          p1 : process
            variable v : std_logic;
          begin
            v := a;
            link <= v;
          end process p1;
          p2 : process begin y <= link; wait on link; end process p2;
        end arch;
        """
        result = analyze(source)
        assert result.specialized.active == {}


class TestCopyEdges:
    def test_present_value_edges_point_from_definition_to_use(self):
        result = analyze(workloads.paper_program_b(), loop_processes=False)
        labels = sorted(result.program_cfg.processes["p"].body_labels)
        first, second = labels[0], labels[1]
        edges = present_value_edges(result.specialized)
        assert second in edges.get(first, set())

    def test_synchronized_value_edges_cross_processes(self):
        result = analyze(workloads.producer_consumer_program())
        producer = result.program_cfg.processes["producer"]
        consumer = result.program_cfg.processes["consumer"]
        link_assign = next(iter(producer.assignment_labels_of_signal("link")))
        result_assign = next(iter(consumer.assignment_labels_of_signal("result")))
        edges = synchronized_value_edges(result.program_cfg, result.specialized)
        assert result_assign in edges.get(link_assign, set())

    def test_merge_edges(self):
        merged = merge_edges({1: {2}}, {1: {3}, 4: {5}})
        assert merged == {1: {2, 3}, 4: {5}}


class TestPropagation:
    def test_propagate_copies_r0_entries_transitively(self):
        seeds = [
            Entry("a", 1, Access.R0),
            Entry("x", 1, Access.M0),
            Entry("y", 3, Access.M0),
        ]
        matrix = propagate(seeds, {1: {2}, 2: {3}})
        assert Entry("a", 2, Access.R0) in matrix
        assert Entry("a", 3, Access.R0) in matrix

    def test_propagate_does_not_copy_modifications(self):
        seeds = [Entry("x", 1, Access.M0)]
        matrix = propagate(seeds, {1: {2}})
        assert Entry("x", 2, Access.M0) not in matrix
        assert len(matrix) == 1

    def test_propagate_handles_cycles(self):
        seeds = [Entry("a", 1, Access.R0)]
        matrix = propagate(seeds, {1: {2}, 2: {1}})
        assert len(matrix) == 2


class TestClosureOnPaperPrograms:
    def test_program_a_graph_is_non_transitive(self):
        result = analyze(workloads.paper_program_a(), improved=False, loop_processes=False)
        graph = result.graph_without_self_loops()
        assert graph.has_edge("b", "c")
        assert graph.has_edge("a", "b")
        assert not graph.has_edge("a", "c")
        assert not graph.is_transitive()

    def test_program_b_graph_contains_the_composed_flow(self):
        result = analyze(workloads.paper_program_b(), improved=False, loop_processes=False)
        graph = result.graph_without_self_loops()
        assert graph.edges == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_global_matrix_contains_local_matrix(self):
        for source in (workloads.paper_program_a(), workloads.producer_consumer_program()):
            result = analyze(source, improved=False)
            assert result.rm_local.entries() <= result.rm_global.entries()

    def test_cross_process_flow_through_synchronisation(self):
        result = analyze(workloads.producer_consumer_program(), improved=False)
        graph = result.graph_without_self_loops()
        assert graph.has_edge("left", "result")
        assert graph.has_edge("right", "result")
        assert graph.has_edge("mixed", "result")


class TestImprovedAnalysis:
    def test_initial_value_nodes_for_program_b(self):
        result = analyze(workloads.paper_program_b(), improved=True, loop_processes=False)
        graph = result.graph_without_self_loops()
        assert graph.has_edge(incoming_node("a"), "c")
        assert not graph.has_edge(incoming_node("b"), "c")

    def test_initial_value_nodes_for_program_a(self):
        result = analyze(workloads.paper_program_a(), improved=True, loop_processes=False)
        graph = result.graph_without_self_loops()
        assert graph.has_edge(incoming_node("b"), "c")
        assert not graph.has_edge(incoming_node("a"), "c")

    def test_outgoing_nodes_exist_for_out_ports(self):
        result = analyze(workloads.challenge_f_program())
        assert "leak" in result.outgoing_labels
        assert outgoing_node("leak") in result.graph.nodes

    def test_outgoing_node_receives_flows_from_inputs(self):
        result = analyze(workloads.producer_consumer_program())
        graph = result.graph
        assert graph.has_edge("left", outgoing_node("result"))
        assert graph.has_edge(incoming_node("left"), outgoing_node("result"))

    def test_overwritten_secret_does_not_reach_output(self):
        # The closure copies every value that can actually reach the output
        # assignment into the outgoing node's reads, so the *direct* edges into
        # ``leak•`` are the complete answer; the graph is non-transitive and
        # the spurious path key -> t -> leak• must not be read as a flow.
        result = analyze(workloads.challenge_f_program())
        graph = result.graph
        sink = outgoing_node("leak")
        assert graph.has_edge("plain", sink)
        assert graph.has_edge(incoming_node("plain"), sink)
        assert not graph.has_edge("key", sink)
        assert not graph.has_edge(incoming_node("key"), sink)
        # the intermediate edges that make the naive path exist are themselves
        # correct flows: key reaches t, and t's final value reaches leak
        assert graph.has_edge("key", "t")
        assert graph.has_edge("t", sink)

    def test_improved_matrix_is_superset_of_basic(self):
        for source in (workloads.paper_program_b(), workloads.producer_consumer_program()):
            basic = analyze(source, improved=False)
            improved = analyze(source, improved=True)
            assert basic.rm_global.entries() <= improved.rm_global.entries()

    def test_outgoing_labels_do_not_collide_with_program_labels(self):
        result = analyze(workloads.producer_consumer_program())
        program_labels = result.program_cfg.labels
        for label in result.outgoing_labels.values():
            assert label not in program_labels


class TestShiftRowsPrecision:
    def test_rows_are_kept_separate(self):
        from repro.aes.generator import shift_rows_expected_sources, shift_rows_row_nodes

        result = analyze(shift_rows_paper_source(), improved=True, loop_processes=False)
        nodes = [n for row in shift_rows_row_nodes().values() for n in row]
        graph = (
            result.collapsed_graph().without_self_loops().restricted_to(nodes)
        )
        for target, source in shift_rows_expected_sources().items():
            assert graph.predecessors(target) == frozenset({source})
        assert graph.edge_count() == 12
