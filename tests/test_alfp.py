"""Cross-check: the ALFP encoding must agree with the direct closure code."""

import pytest

from repro import analyze, workloads
from repro.analysis import alfp
from repro.analysis.resource_matrix import Access
from repro.aes.generator import (
    aes_round_source,
    shift_rows_paper_source,
    sub_bytes_source,
)

WORKLOADS = {
    "program_a": (workloads.paper_program_a(), False),
    "program_b": (workloads.paper_program_b(), False),
    "producer_consumer": (workloads.producer_consumer_program(), True),
    "conditional": (workloads.conditional_program(), True),
    "challenge_f": (workloads.challenge_f_program(), True),
    "loop": (workloads.overwriting_loop_program(), True),
    "shift_rows": (shift_rows_paper_source(), False),
    "sub_bytes": (sub_bytes_source(), True),
    "aes_round": (aes_round_source(), True),
}


def _solver_matrix(result, improved):
    return alfp.closure_via_solver(
        result.program_cfg,
        result.rm_local,
        result.active,
        result.reaching,
        result.design,
        improved=improved,
    )


class TestAgreementWithDirectImplementation:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_improved_closure_agrees(self, name):
        source, loop = WORKLOADS[name]
        result = analyze(source, improved=True, loop_processes=loop)
        assert _solver_matrix(result, improved=True) == result.rm_global

    @pytest.mark.parametrize("name", ["program_a", "producer_consumer", "aes_round"])
    def test_basic_closure_agrees(self, name):
        source, loop = WORKLOADS[name]
        result = analyze(source, improved=False, loop_processes=loop)
        assert _solver_matrix(result, improved=False) == result.rm_global


class TestEncodingDetails:
    def test_improved_encoding_requires_the_design(self):
        result = analyze(workloads.paper_program_b(), loop_processes=False)
        with pytest.raises(ValueError):
            alfp.encode(
                result.program_cfg,
                result.rm_local,
                result.active,
                result.reaching,
                design=None,
                improved=True,
            )

    def test_database_contains_specialisation_relations(self):
        result = analyze(workloads.producer_consumer_program(), improved=True)
        engine = alfp.encode(
            result.program_cfg,
            result.rm_local,
            result.active,
            result.reaching,
            result.design,
            improved=True,
        )
        database = engine.solve()
        assert database.relation(alfp.RD_DAGGER)
        assert database.relation(alfp.RD_DAGGER_PHI)
        assert database.relation(alfp.RM_GL)

    def test_resource_matrix_reader_preserves_access_kinds(self):
        result = analyze(workloads.producer_consumer_program(), improved=True)
        matrix = _solver_matrix(result, improved=True)
        kinds = {entry.access for entry in matrix}
        assert {Access.R0, Access.R1, Access.M0, Access.M1} <= kinds
