"""Tests for the whole-program Reaching Definitions analysis (Table 5)."""

from collections import Counter

import pytest

from repro.analysis.reaching_active import (
    ActiveSignalsResult,
    analyze_all_active_signals,
)
from repro.analysis.reaching_defs import (
    INITIAL_LABEL,
    analyze_reaching_definitions,
    gen_rd,
    generated_signals_at_wait_naive,
    initial_definitions,
    kill_rd,
    killed_signals_at_wait_naive,
    wait_signal_sets,
)
from repro.cfg.builder import build_cfg
from repro.dataflow.framework import DataflowInstance, JoinMode
from repro.dataflow.worklist import solve
from repro.hier import flatten_source
from repro.pipeline import AnalysisOptions, Pipeline
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
        sets = wait_signal_sets(program_cfg, active)
        # link may be active at the producer's wait, so both waits define link
        assert sets[producer_wait][0] == {"link", "result"}
        assert sets[consumer_wait][0] == {"link", "result"}
        # ... and the consumer reads link defined at its own wait label
        consumer_read_label = min(consumer.body_labels)
        defs = reaching.definitions_of("link", consumer_read_label)
        assert consumer_wait in defs

    def test_wait_kill_uses_under_approximation(self):
        _, program_cfg, active, _ = analyse(workloads.producer_consumer_program())
        producer = program_cfg.processes["producer"]
        producer_wait = next(iter(producer.wait_labels))
        killed = wait_signal_sets(program_cfg, active)[producer_wait][1]
        # link is definitely active at the producer's wait (single path)
        assert "link" in killed

    def test_factorised_and_naive_cross_flow_agree(self):
        for source in (
            workloads.producer_consumer_program(),
            workloads.conditional_program(),
            workloads.challenge_f_program(),
            workloads.two_phase_program(),
            flatten_source(parse_program(phased_program())),
            flatten_source(parse_program(workloads.hierarchical_bus_program(1, 2, 3))),
        ):
            _, program_cfg, active, _ = analyse(source)
            sets = wait_signal_sets(program_cfg, active)
            assert set(sets) == program_cfg.wait_labels
            for wait_label, (generated, killed) in sets.items():
                assert killed == killed_signals_at_wait_naive(
                    program_cfg, active, wait_label
                )
                assert generated == generated_signals_at_wait_naive(
                    program_cfg, active, wait_label
                )

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
        assert wait_signal_sets(program_cfg, active)[wait_label] == (
            frozenset(),
            frozenset(),
        )


@pytest.mark.parametrize("banks,cells", [(1, 2), (2, 4)])
def test_active_sets_are_read_at_most_twice_per_wait(monkeypatch, banks, cells):
    # The wait sets are built once per program, so a Table 4 lookup per wait
    # label does not grow with the number of other wait labels.
    source = workloads.hierarchical_bus_program(banks, cells, depth=3)
    artifacts = Pipeline().run(source, goals=("place",)).artifacts
    calls = Counter()
    for method in ("may_be_active_at", "must_be_active_at"):
        original = getattr(ActiveSignalsResult, method)

        def counting(self, label, _original=original, _method=method):
            calls[_method, label] += 1
            return _original(self, label)

        monkeypatch.setattr(ActiveSignalsResult, method, counting)
    analyze_reaching_definitions(artifacts.program_cfg, artifacts.active)
    assert {label for _, label in calls} == artifacts.program_cfg.wait_labels
    assert max(calls.values()) <= 2


def phased_program(watch=False):
    """A two-wait child placed five times, in four Table 5 shapes.

    ``u0`` and ``u1`` map every port to a root port and each alias a
    different pair of inputs; ``u2`` and ``u3`` map one input to the signal
    ``drive`` drives and share a shape; ``u4`` aliases that input with
    another.  With ``watch`` a wait-free process empties the cross flow.
    """
    watch_port = ";\n        w : out std_logic" if watch else ""
    watch_process = (
        """
  watch : process
    variable ok : std_logic;
  begin
    ok := t;
    w <= ok;
  end process watch;"""
        if watch
        else ""
    )
    return f"""
entity phase is
  port( a : in std_logic;
        b : in std_logic;
        c : in std_logic;
        y : out std_logic );
end phase;

architecture split of phase is
  signal s : std_logic;
begin
  run : process
    variable v : std_logic;
  begin
    v := a;
    s <= v xor c;
    wait on a;
    y <= s xor b;
    v := b;
    wait on b, s;
  end process run;
end split;

entity phased is
  port( i0 : in std_logic;
        i1 : in std_logic;
        o0 : out std_logic;
        o1 : out std_logic;
        o2 : out std_logic;
        o3 : out std_logic;
        o4 : out std_logic{watch_port} );
end phased;

architecture wired of phased is
  component phase is
    port( a : in std_logic;
          b : in std_logic;
          c : in std_logic;
          y : out std_logic );
  end component phase;
  signal t : std_logic;
begin
  u0 : phase port map (a => i0, b => i1, c => i1, y => o0);
  u1 : phase port map (a => i0, b => i0, c => i1, y => o1);
  u2 : phase port map (a => t, b => i1, c => i0, y => o2);
  u3 : phase port map (t, i0, i1, o3);
  u4 : phase port map (a => t, b => t, c => i0, y => o4);

  drive : process
  begin
    t <= i0;
    wait on i0;
  end process drive;{watch_process}
end wired;
"""


def whole_program_solution(program_cfg, active, use_under_approximation):
    """Table 5 as one dataflow instance over every process (the oracle)."""
    wait_sets = wait_signal_sets(program_cfg, active)
    labels, flow, extremal, kill, gen = set(), set(), {}, {}, {}
    for name in program_cfg.process_order:
        cfg = program_cfg.processes[name]
        labels |= set(cfg.blocks)
        flow |= cfg.flow
        extremal[cfg.entry_label] = initial_definitions(cfg)
        for label, block in cfg.blocks.items():
            kill[label] = kill_rd(block, cfg, wait_sets, use_under_approximation)
            gen[label] = gen_rd(block, wait_sets)
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


HIERARCHY_SOURCES = workloads.hierarchy_workload_sources() + [
    ("phased", phased_program()),
    ("phased_watch", phased_program(watch=True)),
]

#: Every flat source through ``elaborate``; every hierarchical one through
#: ``elaborate`` as its flattened text, and through ``place``.
ORACLE_CASES = (
    [
        pytest.param("elaborate", source, id=f"elaborate-{name}")
        for name, source in workloads.batch_workload_sources()
    ]
    + [
        pytest.param(
            "elaborate", flatten_source(parse_program(source)), id=f"elaborate-{name}"
        )
        for name, source in HIERARCHY_SOURCES
    ]
    + [
        pytest.param("place", source, id=f"place-{name}")
        for name, source in HIERARCHY_SOURCES
    ]
)


def front_artifacts(front, source, loop):
    """The CFG and Table 4 results of ``source`` through ``front``."""
    if front == "place":
        options = AnalysisOptions(loop_processes=loop)
        artifacts = Pipeline().run(source, options, goals=("place",)).artifacts
        return artifacts.program_cfg, artifacts.active
    program_cfg = build_cfg(elaborate_source(source), loop_processes=loop)
    return program_cfg, analyze_all_active_signals(program_cfg.processes)


@pytest.mark.parametrize("front,source", ORACLE_CASES)
@pytest.mark.parametrize("loop", [True, False], ids=["loop", "straight"])
@pytest.mark.parametrize("under", [True, False], ids=["under", "no-under"])
def test_per_process_solve_equals_whole_program_solve(front, source, loop, under):
    # no flow edge crosses processes, so solving process by process (once
    # per shape, relocated to the other processes of the shape) must give
    # exactly the whole-program least solution
    program_cfg, active = front_artifacts(front, source, loop)
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
