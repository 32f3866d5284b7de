"""Reaching Definitions for local variables and *present* signal values (Table 5).

This analysis is an over-approximation over the whole program (all processes
share the lattice ``P((Var ∪ Sig) × Lab)``; no flow edge crosses processes,
so :func:`analyze_reaching_definitions` solves it process by process) and
consumes the per-process active-signals results of Table 4:

* an assignment ``[x := e]^l`` kills every other definition of ``x`` in the
  same process (including the initial-value marker ``?``) and generates
  ``(x, l)``;
* a ``wait`` statement is where signals obtain new *present* values, so it
  generates ``(s, l)`` for every signal ``s`` that **may** be active at any
  synchronisation point it could synchronise with (the ``RD∪ϕ``
  over-approximation), and kills the previous definitions of every signal that
  **must** be active at all of them (the ``RD∩ϕ`` under-approximation combined
  with the dotted intersection over the cross-flow relation ``cf``);
* the initial value of every variable and signal of a process is recorded as
  the special definition label ``?`` (:data:`INITIAL_LABEL`) at the process
  entry.

The cross-flow combinators are implemented twice: a literal product-based form
(:func:`killed_signals_at_wait_naive` / :func:`generated_signals_at_wait_naive`)
that follows Table 5 word for word, and an equivalent factorised form used by
default that avoids materialising the Cartesian product ``cf``.  The test
suite checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.cfg.builder import ProcessCFG, ProgramCFG
from repro.cfg.labels import Block, BlockKind
from repro.dataflow.framework import DataflowInstance, JoinMode
from repro.dataflow.worklist import solve
from repro.analysis.reaching_active import ActiveSignalsResult
from repro.vhdl import ast

#: The special label ``?`` of the paper: "the initial value might be the one
#: defining a signal (or variable) at present time".
INITIAL_LABEL: int = -1

ResourceDef = Tuple[str, int]
"""A pair ``(resource, label)``: resource defined at ``label`` (or ``?``)."""


@dataclass
class ReachingDefinitionsResult:
    """The whole-program least solution ``RDcf_entry`` / ``RDcf_exit``."""

    entry: Dict[int, FrozenSet[ResourceDef]]
    exit: Dict[int, FrozenSet[ResourceDef]]

    def entry_of(self, label: int) -> FrozenSet[ResourceDef]:
        """``RDcf_entry(l)``."""
        return self.entry.get(label, frozenset())

    def exit_of(self, label: int) -> FrozenSet[ResourceDef]:
        """``RDcf_exit(l)``."""
        return self.exit.get(label, frozenset())

    def definitions_of(self, name: str, label: int) -> FrozenSet[int]:
        """Labels at which ``name``'s reaching definitions at ``label`` were made."""
        return frozenset(l for (n, l) in self.entry_of(label) if n == name)


# ---------------------------------------------------------------------------
# Cross-flow combinators
# ---------------------------------------------------------------------------


def killed_signals_at_wait(
    program_cfg: ProgramCFG,
    active: Dict[str, ActiveSignalsResult],
    wait_label: int,
) -> FrozenSet[str]:
    """Signals guaranteed to receive a new present value at ``wait_label``.

    Table 5's ``⋂˙_{(l1..ln) ∈ cf, li=l} ⋃_j fst(RD∩ϕ_entry(lj))`` computed in
    factorised form: a signal is in the intersection over all cross-flow tuples
    exactly when it *must* be active either at ``wait_label`` itself or at
    **every** wait label of some other process.  When some other process has no
    wait statement the cross-flow relation is empty and the dotted intersection
    yields ``∅``.
    """
    if not program_cfg.label_occurs_in_cross_flow(wait_label):
        return frozenset()
    owner = program_cfg.process_of_label(wait_label)
    result: Set[str] = set(active[owner].must_be_active_at(wait_label))
    for name in program_cfg.process_order:
        if name == owner:
            continue
        waits = sorted(program_cfg.processes[name].wait_labels)
        common: Set[str] = set(active[name].must_be_active_at(waits[0]))
        for other_wait in waits[1:]:
            common &= active[name].must_be_active_at(other_wait)
        result |= common
    return frozenset(result)


def killed_signals_at_wait_naive(
    program_cfg: ProgramCFG,
    active: Dict[str, ActiveSignalsResult],
    wait_label: int,
) -> FrozenSet[str]:
    """Literal Table 5 form of :func:`killed_signals_at_wait` (materialises ``cf``)."""
    tuples = program_cfg.cross_flow_tuples_containing(wait_label)
    if not tuples:
        return frozenset()
    order = program_cfg.process_order
    collected = []
    for combo in tuples:
        union: Set[str] = set()
        for process_name, label in zip(order, combo):
            union |= active[process_name].must_be_active_at(label)
        collected.append(union)
    result = set(collected[0])
    for union in collected[1:]:
        result &= union
    return frozenset(result)


def generated_signals_at_wait(
    program_cfg: ProgramCFG,
    active: Dict[str, ActiveSignalsResult],
    wait_label: int,
) -> FrozenSet[str]:
    """Signals that *may* receive a new present value at ``wait_label``.

    Table 5's ``⋃_{(l1..ln) ∈ cf, li=l} ⋃_j fst(RD∪ϕ_entry(lj))`` in factorised
    form: the may-active signals at ``wait_label`` itself plus the may-active
    signals at any wait label of any other process — provided the cross-flow
    relation is non-empty.
    """
    if not program_cfg.label_occurs_in_cross_flow(wait_label):
        return frozenset()
    owner = program_cfg.process_of_label(wait_label)
    result: Set[str] = set(active[owner].may_be_active_at(wait_label))
    for name in program_cfg.process_order:
        if name == owner:
            continue
        for other_wait in program_cfg.processes[name].wait_labels:
            result |= active[name].may_be_active_at(other_wait)
    return frozenset(result)


def generated_signals_at_wait_naive(
    program_cfg: ProgramCFG,
    active: Dict[str, ActiveSignalsResult],
    wait_label: int,
) -> FrozenSet[str]:
    """Literal Table 5 form of :func:`generated_signals_at_wait`."""
    tuples = program_cfg.cross_flow_tuples_containing(wait_label)
    order = program_cfg.process_order
    result: Set[str] = set()
    for combo in tuples:
        for process_name, label in zip(order, combo):
            result |= active[process_name].may_be_active_at(label)
    return frozenset(result)


# ---------------------------------------------------------------------------
# kill / gen (Table 5)
# ---------------------------------------------------------------------------


def kill_rd(
    block: Block,
    cfg: ProcessCFG,
    program_cfg: ProgramCFG,
    active: Dict[str, ActiveSignalsResult],
    use_under_approximation: bool = True,
) -> FrozenSet[ResourceDef]:
    """``kill^{cf}_RD`` of Table 5.

    Variable assignments kill the initial-value marker and every other
    definition of the same variable in the same process.  Wait statements kill
    the previous present-value definitions of every signal guaranteed to be
    synchronised here; those definitions can only have been made at a wait
    label of the same process or be the initial value ``?``, so the kill set is
    restricted to those labels.

    ``use_under_approximation=False`` disables the wait-statement kill entirely
    (as if ``RD∩ϕ`` were trivially empty) — the ablation of the paper's
    "unusual ingredient", used by ``benchmarks/bench_ablation.py`` to measure
    how much precision the under-approximation buys.
    """
    if block.kind is BlockKind.VARIABLE_ASSIGN:
        variable = block.statement.target
        killed: Set[ResourceDef] = {(variable, INITIAL_LABEL)}
        for label in cfg.assignment_labels_of_variable(variable):
            killed.add((variable, label))
        return frozenset(killed)
    if block.kind is BlockKind.WAIT:
        if not use_under_approximation:
            return frozenset()
        signals = killed_signals_at_wait(program_cfg, active, block.label)
        definition_points = set(cfg.wait_labels) | {INITIAL_LABEL}
        return frozenset(
            (signal, label) for signal in signals for label in definition_points
        )
    return frozenset()


def gen_rd(
    block: Block,
    program_cfg: ProgramCFG,
    active: Dict[str, ActiveSignalsResult],
) -> FrozenSet[ResourceDef]:
    """``gen^{cf}_RD`` of Table 5.

    Variable assignments generate ``(x, l)``; wait statements generate
    ``(s, l)`` for every signal that may be active at any synchronisation
    partner.
    """
    if block.kind is BlockKind.VARIABLE_ASSIGN:
        return frozenset({(block.statement.target, block.label)})
    if block.kind is BlockKind.WAIT:
        signals = generated_signals_at_wait(program_cfg, active, block.label)
        return frozenset((signal, block.label) for signal in signals)
    return frozenset()


# ---------------------------------------------------------------------------
# Analysis driver
# ---------------------------------------------------------------------------


def initial_definitions(cfg: ProcessCFG) -> FrozenSet[ResourceDef]:
    """The extremal value at a process entry.

    ``{(x, ?) | x ∈ FV(ss_i)} ∪ {(s, ?) | s ∈ FS(ss_i)}`` — every variable and
    signal the process mentions starts out defined by its initial value.
    """
    resources = set(cfg.process.free_variables()) | set(cfg.process.free_signals())
    return frozenset((name, INITIAL_LABEL) for name in resources)


def analyze_reaching_definitions(
    program_cfg: ProgramCFG,
    active: Dict[str, ActiveSignalsResult],
    use_under_approximation: bool = True,
) -> ReachingDefinitionsResult:
    """Run Table 5 and return the whole-program least solution.

    The equations are solved process by process: the flow relation has no
    edge between processes, so the whole-program least solution is exactly
    the union of the per-process ones.  Processes are coupled only through
    the wait kill/gen sets, which read the other processes' Table 4 results;
    per-process instances keep the dataflow bitsets as narrow as one
    process's definitions.

    ``use_under_approximation=False`` runs the ablated variant in which wait
    statements kill nothing (see :func:`kill_rd`).
    """
    entry: Dict[int, FrozenSet[ResourceDef]] = {}
    exit_: Dict[int, FrozenSet[ResourceDef]] = {}
    for name in program_cfg.process_order:
        cfg = program_cfg.processes[name]
        kill: Dict[int, FrozenSet[ResourceDef]] = {}
        gen: Dict[int, FrozenSet[ResourceDef]] = {}
        for label, block in cfg.blocks.items():
            kill[label] = kill_rd(
                block, cfg, program_cfg, active, use_under_approximation
            )
            gen[label] = gen_rd(block, program_cfg, active)
        solution = solve(
            DataflowInstance(
                labels=frozenset(cfg.blocks),
                flow=frozenset(cfg.flow),
                extremal_labels=frozenset({cfg.entry_label}),
                extremal_value={cfg.entry_label: initial_definitions(cfg)},
                kill=kill,
                gen=gen,
                join_mode=JoinMode.UNION,
            )
        )
        entry.update(solution.entry)
        exit_.update(solution.exit)
    return ReachingDefinitionsResult(entry=entry, exit=exit_)
