"""Tests for the whole-program Reaching Definitions analysis (Table 5)."""

import pytest

from repro.analysis.reaching_active import analyze_all_active_signals
from repro.analysis.reaching_defs import (
    INITIAL_LABEL,
    analyze_reaching_definitions,
    gen_rd,
    generated_signals_at_wait,
    generated_signals_at_wait_naive,
    initial_definitions,
    kill_rd,
    killed_signals_at_wait,
    killed_signals_at_wait_naive,
)
from repro.cfg.builder import build_cfg
from repro.cfg.labels import BlockKind
from repro.dataflow.framework import DataflowInstance, JoinMode
from repro.dataflow.worklist import solve
from repro.hier import flatten_source
from repro.vhdl.elaborate import elaborate_source
from repro.vhdl.parser import parse_program
from repro import workloads


def analyse(source, loop=True):
    design = elaborate_source(source)
    program_cfg = build_cfg(design, loop_processes=loop)
    active = analyze_all_active_signals(program_cfg.processes)
    reaching = analyze_reaching_definitions(program_cfg, active)
    return design, program_cfg, active, reaching


class TestInitialDefinitions:
    def test_every_mentioned_resource_starts_at_question_mark(self):
        _, program_cfg, _, reaching = analyse(workloads.producer_consumer_program())
        producer = program_cfg.processes["producer"]
        entry = reaching.entry_of(producer.entry_label)
        assert ("left", INITIAL_LABEL) in entry
        assert ("right", INITIAL_LABEL) in entry
        assert ("mixed", INITIAL_LABEL) in entry
        assert ("link", INITIAL_LABEL) in entry

    def test_initial_definitions_helper(self):
        _, program_cfg, _, _ = analyse(workloads.producer_consumer_program())
        producer = program_cfg.processes["producer"]
        resources = {name for name, _ in initial_definitions(producer)}
        assert resources == {"left", "right", "mixed", "link"}


class TestVariableDefinitions:
    def test_assignment_kills_initial_value(self):
        _, program_cfg, _, reaching = analyse(workloads.paper_program_b(), loop=False)
        process = program_cfg.processes["p"]
        labels = sorted(process.body_labels)
        first, second = labels[0], labels[1]
        # after "b := a" the initial value of b no longer reaches label 2
        assert ("b", INITIAL_LABEL) not in reaching.entry_of(second)
        assert ("b", first) in reaching.entry_of(second)
        # a is never assigned, its initial value reaches everywhere
        assert ("a", INITIAL_LABEL) in reaching.entry_of(second)

    def test_program_a_keeps_initial_b(self):
        _, program_cfg, _, reaching = analyse(workloads.paper_program_a(), loop=False)
        process = program_cfg.processes["p"]
        first = sorted(process.body_labels)[0]
        assert ("b", INITIAL_LABEL) in reaching.entry_of(first)


class TestWaitGenKill:
    def test_wait_generates_present_definitions_for_may_active_signals(self):
        _, program_cfg, active, reaching = analyse(
            workloads.producer_consumer_program()
        )
        producer = program_cfg.processes["producer"]
        consumer = program_cfg.processes["consumer"]
        producer_wait = next(iter(producer.wait_labels))
        consumer_wait = next(iter(consumer.wait_labels))
        # link may be active at the producer's wait, so both waits define link
        assert generated_signals_at_wait(program_cfg, active, producer_wait) == {
            "link",
            "result",
        }
        assert generated_signals_at_wait(program_cfg, active, consumer_wait) == {
            "link",
            "result",
        }
        # ... and the consumer reads link defined at its own wait label
        consumer_read_label = min(consumer.body_labels)
        defs = reaching.definitions_of("link", consumer_read_label)
        assert consumer_wait in defs

    def test_wait_kill_uses_under_approximation(self):
        _, program_cfg, active, _ = analyse(workloads.producer_consumer_program())
        producer = program_cfg.processes["producer"]
        producer_wait = next(iter(producer.wait_labels))
        killed = killed_signals_at_wait(program_cfg, active, producer_wait)
        # link is definitely active at the producer's wait (single path)
        assert "link" in killed

    def test_factorised_and_naive_cross_flow_agree(self):
        for source in (
            workloads.producer_consumer_program(),
            workloads.conditional_program(),
            workloads.challenge_f_program(),
        ):
            _, program_cfg, active, _ = analyse(source)
            for wait_label in program_cfg.wait_labels:
                assert killed_signals_at_wait(
                    program_cfg, active, wait_label
                ) == killed_signals_at_wait_naive(program_cfg, active, wait_label)
                assert generated_signals_at_wait(
                    program_cfg, active, wait_label
                ) == generated_signals_at_wait_naive(program_cfg, active, wait_label)

    def test_process_without_wait_disables_cross_flow(self):
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
        _, program_cfg, active, _ = analyse(source)
        wait_label = next(iter(program_cfg.processes["p2"].wait_labels))
        assert generated_signals_at_wait(program_cfg, active, wait_label) == frozenset()
        assert killed_signals_at_wait(program_cfg, active, wait_label) == frozenset()


def whole_program_solution(program_cfg, active, use_under_approximation):
    """Table 5 as one dataflow instance over every process (the oracle)."""
    labels, flow, extremal, kill, gen = set(), set(), {}, {}, {}
    for name in program_cfg.process_order:
        cfg = program_cfg.processes[name]
        labels |= set(cfg.blocks)
        flow |= cfg.flow
        extremal[cfg.entry_label] = initial_definitions(cfg)
        for label, block in cfg.blocks.items():
            kill[label] = kill_rd(
                block, cfg, program_cfg, active, use_under_approximation
            )
            gen[label] = gen_rd(block, program_cfg, active)
    solution = solve(
        DataflowInstance(
            labels=frozenset(labels),
            flow=frozenset(flow),
            extremal_labels=frozenset(extremal),
            extremal_value=extremal,
            kill=kill,
            gen=gen,
            join_mode=JoinMode.UNION,
        )
    )
    return solution.entry, solution.exit


ORACLE_SOURCES = workloads.batch_workload_sources() + [
    (name, flatten_source(parse_program(source)))
    for name, source in workloads.hierarchy_workload_sources()
]


@pytest.mark.parametrize("name,source", ORACLE_SOURCES, ids=lambda v: v[:20])
@pytest.mark.parametrize("under", [True, False])
def test_per_process_solve_equals_whole_program_solve(name, source, under):
    # no flow edge crosses processes, so solving process by process must
    # give exactly the whole-program least solution
    design = elaborate_source(source)
    program_cfg = build_cfg(design)
    active = analyze_all_active_signals(program_cfg.processes)
    reaching = analyze_reaching_definitions(program_cfg, active, under)
    entry, exit_ = whole_program_solution(program_cfg, active, under)
    assert reaching.entry == entry
    assert reaching.exit == exit_


class TestOverwrittenSecret:
    def test_overwritten_definition_does_not_reach_the_output(self):
        _, program_cfg, _, reaching = analyse(workloads.challenge_f_program())
        process = program_cfg.processes["p"]
        labels = sorted(process.body_labels)
        key_assign, plain_assign, output_assign = labels[0], labels[1], labels[2]
        defs_of_t = reaching.definitions_of("t", output_assign)
        assert plain_assign in defs_of_t
        assert key_assign not in defs_of_t

    def test_under_approximation_kills_earlier_synchronised_values(self):
        # In the two-phase design the second wait is guaranteed to resynchronise
        # ``stage``; only the second wait's definition reaches the export.
        _, program_cfg, _, reaching = analyse(workloads.two_phase_program())
        process = program_cfg.processes["p"]
        wait_labels = sorted(process.wait_labels)
        export_label = max(process.assignment_labels_of_signal("result"))
        defs_of_stage = reaching.definitions_of("stage", export_label)
        assert wait_labels[1] in defs_of_stage
        assert wait_labels[0] not in defs_of_stage
        assert INITIAL_LABEL not in defs_of_stage

    def test_ablated_analysis_keeps_the_overwritten_definitions(self):
        design = elaborate_source(workloads.two_phase_program())
        program_cfg = build_cfg(design)
        active = analyze_all_active_signals(program_cfg.processes)
        reaching = analyze_reaching_definitions(
            program_cfg, active, use_under_approximation=False
        )
        process = program_cfg.processes["p"]
        wait_labels = sorted(process.wait_labels)
        export_label = max(process.assignment_labels_of_signal("result"))
        defs_of_stage = reaching.definitions_of("stage", export_label)
        assert wait_labels[0] in defs_of_stage
        assert INITIAL_LABEL in defs_of_stage

    def test_signal_present_values_only_defined_at_waits_or_initially(self):
        _, program_cfg, _, reaching = analyse(workloads.producer_consumer_program())
        wait_labels = set(program_cfg.wait_labels) | {INITIAL_LABEL}
        signal_names = set(program_cfg.design.signals)
        for label in program_cfg.labels:
            for name, def_label in reaching.entry_of(label):
                if name in signal_names:
                    assert def_label in wait_labels
