"""E6 — Implementation vehicle: the Succinct-Solver-style encoding.

The paper implements the analysis as ALFP clauses for the Succinct Solver.
These benchmarks run the clause encoding on the replacement Datalog engine and
check it derives exactly the same global Resource Matrix as the direct
implementation, while timing both so their relative cost is visible.
"""

import pytest

from repro.analysis import alfp
from repro import analyze, workloads
from repro.aes.generator import aes_round_source, shift_rows_paper_source

WORKLOADS = {
    "producer_consumer": (workloads.producer_consumer_program(), True),
    "conditional": (workloads.conditional_program(), True),
    "shift_rows": (shift_rows_paper_source(), False),
    "aes_round_pipeline": (aes_round_source(), True),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_direct_closure(benchmark, report, name):
    """Timing of the direct (worklist) closure implementation."""
    source, loop = WORKLOADS[name]

    def run():
        return analyze(source, improved=True, loop_processes=loop)

    result = benchmark(run)
    report(workload=name, global_entries=len(result.rm_global))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_solver_closure_agrees(benchmark, report, name):
    """Timing of the clause encoding, plus the agreement check."""
    source, loop = WORKLOADS[name]
    result = analyze(source, improved=True, loop_processes=loop)

    def run():
        return alfp.closure_via_solver(
            result.program_cfg,
            result.rm_local,
            result.active,
            result.reaching,
            result.design,
            improved=True,
        )

    via_solver = benchmark(run)
    assert via_solver == result.rm_global
    report(
        workload=name,
        entries=len(via_solver),
        agrees_with_direct=via_solver == result.rm_global,
    )


def test_solver_engine_scales_with_clause_count(benchmark, report):
    """Raw engine cost on the largest workload's clause system."""
    source, loop = WORKLOADS["aes_round_pipeline"]
    result = analyze(source, improved=True, loop_processes=loop)
    engine = alfp.encode(
        result.program_cfg,
        result.rm_local,
        result.active,
        result.reaching,
        result.design,
        improved=True,
    )

    database = benchmark(engine.solve)
    report(
        facts=len(engine.facts),
        rules=len(engine.rules),
        derived_tuples=database.size(),
    )
