"""Tests for the generated VHDL1 AES workload: parseability, simulation
equivalence against the reference, and the analysis properties the evaluation
relies on."""

import random

import pytest

from repro import analyze, analyze_kemmerer
from repro.aes import generator, reference
from repro.semantics.simulator import simulate
from repro.vhdl.elaborate import elaborate_source
from repro.vhdl.parser import parse_program

ALL_SOURCES = {
    "shift_rows_paper": generator.shift_rows_paper_source(),
    "shift_rows_entity": generator.shift_rows_entity_source(),
    "add_round_key": generator.add_round_key_source(),
    "add_round_key_bytes": generator.add_round_key_bytewise_source(num_bytes=4),
    "sub_bytes": generator.sub_bytes_source(),
    "mix_column": generator.mix_column_source(),
    "key_schedule_step": generator.key_schedule_step_source(),
    "aes_round": generator.aes_round_source(),
}


class TestGeneratedSourcesAreWellFormed:
    @pytest.mark.parametrize("name", sorted(ALL_SOURCES))
    def test_parses_and_elaborates(self, name):
        design = elaborate_source(ALL_SOURCES[name])
        assert design.processes

    @pytest.mark.parametrize("name", sorted(ALL_SOURCES))
    def test_analysis_runs(self, name):
        result = analyze(ALL_SOURCES[name])
        assert result.graph.node_count() > 0

    def test_sub_bytes_eight_bit_variant(self):
        source = generator.sub_bytes_source(sbox_bits=8)
        program = parse_program(source)
        assert program.entities[0].ports[0].port_type.width == 8

    def test_sub_bytes_rejects_wrong_table_size(self):
        with pytest.raises(ValueError):
            generator.sub_bytes_source(sbox_bits=4, sbox=[0] * 5)

    def test_expected_sources_describe_a_permutation(self):
        expected = generator.shift_rows_expected_sources()
        assert len(expected) == 12
        assert sorted(expected.values()) == sorted(expected.keys())


class TestSimulationMatchesReference:
    def setup_method(self):
        self.rng = random.Random(2005)

    def _random_state(self):
        return [self.rng.randrange(256) for _ in range(16)]

    def test_shift_rows(self):
        design = elaborate_source(generator.shift_rows_entity_source())
        for _ in range(3):
            state = self._random_state()
            outputs = simulate(design, {"state_i": reference.state_to_bitstring(state)})
            got = reference.bitstring_to_state(outputs["state_o"].to_string())
            assert got == reference.shift_rows(state)

    def test_add_round_key(self):
        design = elaborate_source(generator.add_round_key_source())
        for _ in range(3):
            state, key = self._random_state(), self._random_state()
            outputs = simulate(
                design,
                {
                    "state_i": reference.state_to_bitstring(state),
                    "key_i": reference.state_to_bitstring(key),
                },
            )
            got = reference.bitstring_to_state(outputs["state_o"].to_string())
            assert got == reference.add_round_key(state, key)

    def test_mix_column(self):
        design = elaborate_source(generator.mix_column_source())
        for _ in range(3):
            column = [self.rng.randrange(256) for _ in range(4)]
            outputs = simulate(
                design,
                {f"c{i}_i": format(column[i], "08b") for i in range(4)},
            )
            got = [int(outputs[f"c{i}_o"].to_string(), 2) for i in range(4)]
            assert got == reference.mix_single_column(column)

    def test_sub_bytes_reduced_box(self):
        design = elaborate_source(generator.sub_bytes_source(sbox_bits=4))
        for value in range(16):
            outputs = simulate(design, {"nibble_i": format(value, "04b")})
            assert int(outputs["nibble_o"].to_string(), 2) == generator.REDUCED_SBOX[value]

    def test_key_schedule_step_structure(self):
        design = elaborate_source(generator.key_schedule_step_source(rcon=0x01))
        words = [0x2B7E1516, 0x28AED2A6, 0xABF71588, 0x09CF4F3C]
        outputs = simulate(
            design, {f"w{i}_i": format(words[i], "032b") for i in range(4)}
        )
        got = [int(outputs[f"w{i}_o"].to_string(), 2) for i in range(4, 8)]
        rotated = ((words[3] << 8) | (words[3] >> 24)) & 0xFFFFFFFF
        w4 = words[0] ^ rotated ^ (0x01 << 24)
        w5 = words[1] ^ w4
        w6 = words[2] ^ w5
        w7 = words[3] ^ w6
        assert got == [w4, w5, w6, w7]

    def test_aes_round_pipeline(self):
        design = elaborate_source(generator.aes_round_source())
        state, key = self._random_state(), self._random_state()
        outputs = simulate(
            design,
            {
                "state_i": reference.state_to_bitstring(state),
                "key_i": reference.state_to_bitstring(key),
            },
        )
        expected = reference.shift_rows(reference.add_round_key(state, key))
        assert reference.bitstring_to_state(outputs["state_o"].to_string()) == expected


class TestAnalysisOfGeneratedComponents:
    def test_bytewise_add_round_key_keeps_bytes_separate(self):
        source = generator.add_round_key_bytewise_source(num_bytes=4)
        ours = analyze(source, improved=True).collapsed_graph().without_self_loops()
        kemmerer = analyze_kemmerer(source).graph.without_self_loops()
        for index in range(4):
            # besides the carrying temporary, only the matching state/key bytes
            input_sources = ours.predecessors(f"out_{index}") - {"t"}
            assert input_sources == frozenset({f"state_{index}", f"key_{index}"})
            # the shared temporary makes the baseline mix the bytes
            other_bytes = {
                f"state_{j}" for j in range(4) if j != index
            }
            assert other_bytes <= kemmerer.predecessors(f"out_{index}")

    def test_bytewise_add_round_key_simulates_correctly(self):
        source = generator.add_round_key_bytewise_source(num_bytes=4)
        design = elaborate_source(source)
        inputs = {}
        state = [0x12, 0x34, 0x56, 0x78]
        key = [0xFF, 0x0F, 0xF0, 0x00]
        for index in range(4):
            inputs[f"state_{index}"] = format(state[index], "08b")
            inputs[f"key_{index}"] = format(key[index], "08b")
        outputs = simulate(design, inputs)
        got = [int(outputs[f"out_{index}"].to_string(), 2) for index in range(4)]
        assert got == [s ^ k for s, k in zip(state, key)]

    def test_add_round_key_flows(self):
        result = analyze(generator.add_round_key_source())
        graph = result.graph
        assert graph.has_edge("state_i", "state_o")
        assert graph.has_edge("key_i", "state_o")

    def test_sub_bytes_flow_is_through_the_temporary(self):
        result = analyze(generator.sub_bytes_source())
        graph = result.graph_without_self_loops()
        assert graph.has_edge("nibble_i", "t")
        assert graph.has_edge("t", "nibble_o")

    def test_aes_round_cross_process_flows(self):
        result = analyze(generator.aes_round_source())
        graph = result.graph
        from repro.analysis.resource_matrix import outgoing_node

        sink = outgoing_node("state_o")
        assert graph.has_edge("after_sr", sink)
        # both primary inputs reach the output through the pipeline stages
        assert graph.has_edge("state_i", "after_ark")
        assert graph.has_edge("after_ark", "after_sr")
        assert graph.has_edge("state_i", sink)
        assert graph.has_edge("key_i", sink)

    def test_figure5_shapes(self):
        nodes = [n for row in generator.shift_rows_row_nodes().values() for n in row]
        ours = (
            analyze(generator.shift_rows_paper_source(), loop_processes=False)
            .collapsed_graph()
            .without_self_loops()
            .restricted_to(nodes)
        )
        kemmerer = (
            analyze_kemmerer(generator.shift_rows_paper_source(), loop_processes=False)
            .graph.without_self_loops()
            .restricted_to(nodes)
        )
        assert ours.node_count() == kemmerer.node_count() == 12
        assert ours.edge_count() == 12
        assert kemmerer.edge_count() == 132
