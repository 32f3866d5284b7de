"""Tests for the canonical workload programs."""

import pytest

from repro import analyze, workloads
from repro.vhdl.elaborate import elaborate_source

ALL_FIXED_WORKLOADS = [
    workloads.paper_program_a,
    workloads.paper_program_b,
    workloads.challenge_f_program,
    workloads.producer_consumer_program,
    workloads.conditional_program,
    workloads.overwriting_loop_program,
    workloads.two_phase_program,
]


class TestFixedWorkloads:
    @pytest.mark.parametrize("factory", ALL_FIXED_WORKLOADS)
    def test_workloads_elaborate(self, factory):
        design = elaborate_source(factory())
        assert design.processes

    @pytest.mark.parametrize("factory", ALL_FIXED_WORKLOADS)
    def test_workloads_analyse(self, factory):
        result = analyze(factory())
        assert len(result.rm_global) >= len(result.rm_local)

    def test_paper_programs_use_three_variables(self):
        for factory in (workloads.paper_program_a, workloads.paper_program_b):
            design = elaborate_source(factory())
            assert set(design.processes[0].variables) == {"a", "b", "c"}


class TestSyntheticChain:
    def test_size_scales_with_parameters(self):
        small = elaborate_source(workloads.synthetic_chain_program(2, 4))
        large = elaborate_source(workloads.synthetic_chain_program(4, 8))
        assert len(large.processes) > len(small.processes)
        assert len(large.variable_names()) > len(small.variable_names())

    def test_chain_connects_input_to_output(self):
        from repro.analysis.resource_matrix import outgoing_node

        result = analyze(workloads.synthetic_chain_program(3, 3))
        assert result.graph.has_edge("chain_in", "v_0_0")
        assert result.graph.has_edge(
            f"v_2_2", outgoing_node("chain_out")
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            workloads.synthetic_chain_program(0, 4)
        with pytest.raises(ValueError):
            workloads.synthetic_chain_program(2, 0)

    def test_chain_simulates(self):
        from repro.semantics.simulator import simulate

        design = elaborate_source(workloads.synthetic_chain_program(2, 2))
        outputs = simulate(design, {"chain_in": "10101010"})
        # each stage xors with 00000001 once per temporary beyond the first
        assert outputs["chain_out"].is_fully_defined()
