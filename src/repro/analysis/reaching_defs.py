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

The wait statements' signal sets are computed once per program, in a
factorised form that avoids materialising the Cartesian product ``cf``
(:func:`wait_signal_sets`).  The literal product-based forms
(:func:`killed_signals_at_wait_naive` / :func:`generated_signals_at_wait_naive`)
follow Table 5 word for word; the test suite checks the two agree.

The equations are solved once per process *shape* (:func:`placed_shape`).
A linked design places many copies of a few summarised processes, and their
instances differ only by a renaming and a label shift.  A placed process's
shape is the summary it was placed from, the aliasing of its port map, and
its wait context: which wait sets hold each of its own names, and the
*class* of every other name (the wait sets that hold it).  The first
process of a shape is solved; every other one takes that solution
relocated, with its labels shifted by the difference of the offsets, its
formals renamed through its own name map, and each class expanded into the
names it stands for.  Relocation is exact because the facts of a bit-vector
framework are independent: two names generated and killed at the same
labels have the same solution (Khedker, Sanyal & Karkare, *Data Flow
Analysis: Theory and Practice*, 2009).  This is the summary reuse of
interprocedural analysis (Reps, Horwitz & Sagiv, POPL 1995), with entities
in the role of procedures.  An elaborated process, like a placed one whose
summary is placed once, is a shape of its own and is solved as it stands.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Dict, FrozenSet, Hashable, Iterable, List, NamedTuple, Set, Tuple

from repro.cfg.builder import ProcessCFG, ProgramCFG
from repro.cfg.labels import Block, BlockKind
from repro.dataflow.framework import DataflowInstance, DataflowSolution, JoinMode
from repro.dataflow.worklist import solve
from repro.analysis.reaching_active import ActiveSignalsResult

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

WaitSignals = Tuple[FrozenSet[str], FrozenSet[str]]
"""The signals a wait statement generates and kills present values of."""


def wait_signal_sets(
    program_cfg: ProgramCFG, active: Dict[str, ActiveSignalsResult]
) -> Dict[int, WaitSignals]:
    """Table 5's cross-flow signal sets of every wait label: ``(gen, kill)``.

    ``gen(l)`` is ``⋃_{(l1..ln) ∈ cf, li=l} ⋃_j fst(RD∪ϕ_entry(lj))``: the
    signals that *may* receive a new present value at ``l``.  ``kill(l)`` is
    ``⋂˙_{(l1..ln) ∈ cf, li=l} ⋃_j fst(RD∩ϕ_entry(lj))``: those guaranteed
    to.  Factorised, for the whole program at once: each process contributes
    the union of its may-active sets and the intersection of its must-active
    sets over its waits.  A wait's gen set is its own may-active set plus
    every signal some *other* process contributes (each signal's
    contributors are counted); its kill set is built the same way from the
    must-active sets.  When some process has no wait statement, ``cf`` is
    empty and both sets are ``∅`` at every wait.
    """
    processes = program_cfg.processes
    if any(not cfg.wait_labels for cfg in processes.values()):
        return dict.fromkeys(program_cfg.wait_labels, (frozenset(), frozenset()))
    may: Dict[int, FrozenSet[str]] = {}
    must: Dict[int, FrozenSet[str]] = {}
    contributed: Dict[str, Tuple[FrozenSet[str], FrozenSet[str]]] = {}
    may_contributors: Counter = Counter()
    must_contributors: Counter = Counter()
    for name, cfg in processes.items():
        for label in cfg.wait_labels:
            may[label] = active[name].may_be_active_at(label)
            must[label] = active[name].must_be_active_at(label)
        union = frozenset().union(*(may[label] for label in cfg.wait_labels))
        common = frozenset.intersection(*(must[label] for label in cfg.wait_labels))
        may_contributors.update(union)
        must_contributors.update(common)
        contributed[name] = (union, common)
    any_may = frozenset(may_contributors)
    any_must = frozenset(must_contributors)
    sets: Dict[int, WaitSignals] = {}
    for name, cfg in processes.items():
        union, common = contributed[name]
        others_may = any_may.difference(
            [signal for signal in union if may_contributors[signal] == 1]
        )
        others_must = any_must.difference(
            [signal for signal in common if must_contributors[signal] == 1]
        )
        for label in cfg.wait_labels:
            sets[label] = (may[label] | others_may, must[label] | others_must)
    return sets


def killed_signals_at_wait_naive(
    program_cfg: ProgramCFG,
    active: Dict[str, ActiveSignalsResult],
    wait_label: int,
) -> FrozenSet[str]:
    """Literal Table 5 form of a :func:`wait_signal_sets` kill set (materialises ``cf``)."""
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


def generated_signals_at_wait_naive(
    program_cfg: ProgramCFG,
    active: Dict[str, ActiveSignalsResult],
    wait_label: int,
) -> FrozenSet[str]:
    """Literal Table 5 form of a :func:`wait_signal_sets` gen set."""
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
    wait_sets: Dict[int, WaitSignals],
    use_under_approximation: bool = True,
) -> FrozenSet[ResourceDef]:
    """``kill^{cf}_RD`` of Table 5, given the program's :func:`wait_signal_sets`.

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
        signals = wait_sets[block.label][1]
        definition_points = set(cfg.wait_labels) | {INITIAL_LABEL}
        return frozenset(
            (signal, label) for signal in signals for label in definition_points
        )
    return frozenset()


def gen_rd(block: Block, wait_sets: Dict[int, WaitSignals]) -> FrozenSet[ResourceDef]:
    """``gen^{cf}_RD`` of Table 5, given the program's :func:`wait_signal_sets`.

    Variable assignments generate ``(x, l)``; wait statements generate
    ``(s, l)`` for every signal that may be active at any synchronisation
    partner.
    """
    if block.kind is BlockKind.VARIABLE_ASSIGN:
        return frozenset({(block.statement.target, block.label)})
    if block.kind is BlockKind.WAIT:
        signals = wait_sets[block.label][0]
        return frozenset((signal, block.label) for signal in signals)
    return frozenset()


def initial_definitions(cfg: ProcessCFG) -> FrozenSet[ResourceDef]:
    """The extremal value at a process entry.

    ``{(x, ?) | x ∈ FV(ss_i)} ∪ {(s, ?) | s ∈ FS(ss_i)}`` — every variable and
    signal the process mentions starts out defined by its initial value.
    """
    resources = set(cfg.process.free_variables()) | set(cfg.process.free_signals())
    return frozenset((name, INITIAL_LABEL) for name in resources)


# ---------------------------------------------------------------------------
# Process shapes
# ---------------------------------------------------------------------------

Class = Tuple[bool, ...]
"""A name's class in a process: for each of its wait sets (the gen set of
each wait, then, when waits kill, the kill set of each), whether the set
holds the name."""


class Layout(NamedTuple):
    """Where one placed process puts its shape's names and labels."""

    offset: int
    #: Each role's flat names: a canonical formal's one name, or every name
    #: of a class.
    names: Dict[Hashable, Tuple[str, ...]]


def _classes(
    wait_sets: List[FrozenSet[str]], own: Iterable[str]
) -> Dict[Class, Tuple[str, ...]]:
    """The names of ``wait_sets`` outside ``own``, grouped by class.

    Partition refinement: the names start in one block, and each wait set
    splits every block into the names it holds and the rest.
    """
    classes: Dict[Class, FrozenSet[str]] = {}
    names = frozenset().union(*wait_sets).difference(own)
    if names:
        classes[()] = names
    for members in wait_sets:
        refined: Dict[Class, FrozenSet[str]] = {}
        for at, block in classes.items():
            inside = block & members
            if inside:
                refined[at + (True,)] = inside
            if len(inside) < len(block):
                refined[at + (False,)] = block - inside
        classes = refined
    return {at: tuple(block) for at, block in classes.items()}


def placed_shape(
    cfg: ProcessCFG,
    wait_sets: Dict[int, WaitSignals],
    use_under_approximation: bool = True,
) -> Tuple[Hashable, Layout]:
    """The Table 5 shape of a placed process (see the module docstring).

    The aliasing is each formal's canonical formal, the first of the formals
    sharing its flat name; the process's own names are its canonical
    formals' flat names.
    """
    process = cfg.process
    summary = process.summary
    canonical: Dict[str, str] = {}  # flat name -> canonical formal
    aliasing = tuple(
        [
            canonical.setdefault(process.names[formal], formal)
            for formal in summary.free_signals + summary.free_variables
        ]
    )
    sets = [wait_sets[label + process.offset] for label in summary.wait_labels]
    family = [gen for gen, _ in sets]
    if use_under_approximation:
        family += [kill for _, kill in sets]
    own_classes = tuple(
        [tuple([flat in members for members in family]) for flat in canonical]
    )
    classes = _classes(family, canonical)
    shape = (id(summary), aliasing, own_classes, frozenset(classes))
    names: Dict[Hashable, Tuple[str, ...]] = {
        formal: (flat,) for flat, formal in canonical.items()
    }
    names.update(classes)
    return shape, Layout(process.offset, names)


class _Template:
    """One shape's solution with its names replaced by roles.

    Built from the solution of the shape's first process, solved as it
    stands.  A fact becomes a ``(role, label)`` pair; of a class, only its
    first name's facts are kept, since every name of a class has the same
    ones.
    """

    def __init__(self, solution: DataflowSolution, layout: Layout):
        self.offset = layout.offset
        role_of = {flats[0]: role for role, flats in layout.names.items()}
        facts: Dict[ResourceDef, int] = {}
        sets: Dict[FrozenSet[ResourceDef], int] = {}
        #: Each distinct set, as indices into the kept facts.
        self.sets: List[Tuple[int, ...]] = []
        #: Per side (entry, exit): its labels and their sets' indices.
        self.rows: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
        for side in (solution.entry, solution.exit):
            for value in side.values():
                if value not in sets:
                    sets[value] = len(self.sets)
                    self.sets.append(
                        tuple(
                            [
                                facts.setdefault(fact, len(facts))
                                for fact in value
                                if fact[0] in role_of
                            ]
                        )
                    )
            self.rows.append((tuple(side), tuple([sets[value] for value in side.values()])))
        #: The kept facts, as ``(role, label)`` pairs.
        self.facts = [(role_of[name], label) for name, label in facts]

    def relocate(
        self,
        layout: Layout,
        labels: Iterable[int],
        entry: Dict[int, FrozenSet[ResourceDef]],
        exit_: Dict[int, FrozenSet[ResourceDef]],
    ) -> None:
        """Add this shape's solution at the process laid out as ``layout``.

        ``labels`` are that process's labels.  Labels shift by the offsets'
        difference and each role takes the process's flat names; one tuple
        is built per relocated fact and one frozenset per distinct set.
        """
        delta = layout.offset - self.offset
        shift = {label - delta: label for label in labels}
        shift[INITIAL_LABEL] = INITIAL_LABEL
        names = layout.names
        table = [
            tuple(zip(names[role], repeat(shift[label]))) for role, label in self.facts
        ]
        moved = [
            frozenset(chain.from_iterable(map(table.__getitem__, ids)))
            for ids in self.sets
        ]
        for (side_labels, ids), into in zip(self.rows, (entry, exit_)):
            into.update(
                zip(map(shift.__getitem__, side_labels), map(moved.__getitem__, ids))
            )


# ---------------------------------------------------------------------------
# Solving Table 5
# ---------------------------------------------------------------------------


def _instance(
    cfg: ProcessCFG,
    wait_sets: Dict[int, WaitSignals],
    use_under_approximation: bool,
) -> DataflowInstance:
    """One process's Table 5 equations as a dataflow instance."""
    kill: Dict[int, FrozenSet[ResourceDef]] = {}
    gen: Dict[int, FrozenSet[ResourceDef]] = {}
    for label, block in cfg.blocks.items():
        kill[label] = kill_rd(block, cfg, wait_sets, use_under_approximation)
        gen[label] = gen_rd(block, wait_sets)
    return DataflowInstance(
        labels=frozenset(cfg.blocks),
        flow=frozenset(cfg.flow),
        extremal_labels=frozenset({cfg.entry_label}),
        extremal_value={cfg.entry_label: initial_definitions(cfg)},
        kill=kill,
        gen=gen,
        join_mode=JoinMode.UNION,
    )


def analyze_reaching_definitions(
    program_cfg: ProgramCFG,
    active: Dict[str, ActiveSignalsResult],
    use_under_approximation: bool = True,
) -> ReachingDefinitionsResult:
    """Run Table 5 and return the whole-program least solution.

    The flow relation has no edge between processes, so the whole-program
    least solution is exactly the union of the per-process ones.  Processes
    are coupled only through the wait kill/gen sets
    (:func:`wait_signal_sets`), which read the other processes' Table 4
    results.  Each process shape is solved once, at its first process, and
    relocated to the others.

    ``use_under_approximation=False`` runs the ablated variant in which wait
    statements kill nothing (see :func:`kill_rd`).
    """
    wait_sets = wait_signal_sets(program_cfg, active)
    summaries = [
        getattr(cfg.process, "summary", None)
        for cfg in program_cfg.processes.values()
    ]
    placements = Counter(id(summary) for summary in summaries if summary is not None)
    entry: Dict[int, FrozenSet[ResourceDef]] = {}
    exit_: Dict[int, FrozenSet[ResourceDef]] = {}
    solved: Dict[Hashable, _Template] = {}
    for cfg, summary in zip(program_cfg.processes.values(), summaries):
        layout = None
        if summary is not None and placements[id(summary)] > 1:
            shape, layout = placed_shape(cfg, wait_sets, use_under_approximation)
            if shape in solved:
                solved[shape].relocate(layout, cfg.blocks, entry, exit_)
                continue
        solution = solve(_instance(cfg, wait_sets, use_under_approximation))
        entry.update(solution.entry)
        exit_.update(solution.exit)
        if layout is not None:
            solved[shape] = _Template(solution, layout)
    return ReachingDefinitionsResult(entry=entry, exit=exit_)
