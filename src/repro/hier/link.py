"""Compositional linking: entity summaries placed into one flat design.

A hierarchical source runs the linked plan of the staged pipeline
(:mod:`repro.pipeline.stages`)::

    parse → hierarchy → summary → place → reaching → specialize → closure → flow_graph

This module implements the two stages after ``hierarchy``:

* ``summary`` — :func:`summarize_hierarchy` returns the
  :class:`~repro.hier.summary.EntitySummary` of every entity of the
  instantiation tree, each served from the artifact cache under its own
  content-addressed key when possible;
* ``place`` — :func:`link_hierarchy` places every process of every
  (transitively) instantiated entity into the flat design.  Its summary facts
  are renamed through the composed port maps into the flat namespace (the
  renaming :mod:`repro.hier.flatten` applies to the AST) and its labels are
  shifted by one offset into the label range flat elaboration would have
  allocated to it.  Placement is exact because the standalone labelling of a
  process is allocator-contiguous and order-isomorphic to its flat
  labelling, and because the per-process results of Tables 4 and 6 are
  closed under injective renaming of the written names (the structural layer
  rejects port maps that alias a written port for precisely this reason).

``place`` yields what the flat plan's ``elaborate``, ``cfg``, ``active`` and
``local`` stages yield for the flattened program: the design, its
:class:`~repro.cfg.builder.ProgramCFG`, the Table 4 results and ``RM_lo``.
The cross-process stages (Tables 5 and 7–9) then run unchanged, so a linked
document is byte-identical to the flattened program's, while the per-entity
work is shared across instances and cached across runs.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, Optional, Set, Tuple

from repro.analysis.reaching_active import ActiveSignalsResult
from repro.analysis.resource_matrix import Access, ResourceMatrix
from repro.cfg.builder import ProcessCFG, ProgramCFG
from repro.cfg.labels import Block, BlockKind
from repro.dataflow.universe import FactUniverse
from repro.errors import HierarchyError
from repro.hier.flatten import instance_rename
from repro.hier.structure import DesignHierarchy, HierarchyUnit, Instance
from repro.hier.summary import (
    ActiveRows,
    EntitySummary,
    ProcessSummary,
    summarize_entity,
)
from repro.vhdl import ast
from repro.vhdl.elaborate import Design, SignalInfo

# Not called here: perfbench/spans.py wraps these names on this module.
from repro.analysis.closure import global_resource_matrix  # noqa: F401
from repro.analysis.improved import improved_global_resource_matrix  # noqa: F401
from repro.analysis.specialize import specialize  # noqa: F401
from repro.dataflow.worklist import solve  # noqa: F401
from repro.hier.structure import build_hierarchy  # noqa: F401

Rename = Callable[[str], str]

#: What placement yields: the design, its CFG, Table 4 results and ``RM_lo``.
Placed = Tuple[Design, ProgramCFG, Dict[str, ActiveSignalsResult], ResourceMatrix]

#: The Table 6 columns of :attr:`ProcessSummary.local_rows`, in order.
_ACCESSES = (Access.M0, Access.M1, Access.R0, Access.R1)


def _identity(name: str) -> str:
    return name


class PlacedProcess:
    """A process summary placed into the flat design.

    Stands in for :class:`~repro.vhdl.elaborate.Process` wherever the linked
    plan consumes one: the free names behind the Table 5 extremal values, the
    declared variables, and the per-process facts the lint rules read.  Every
    fact comes from the summary, renamed through the instance's name map and
    shifted by the process's label offset.
    """

    __slots__ = ("name", "synthesized", "variables", "_summary", "_names", "_offset")

    def __init__(
        self, name: str, summary: ProcessSummary, names: Dict[str, str], offset: int
    ):
        self.name = name
        self.synthesized = summary.synthesized
        self.variables = dict.fromkeys(names[v] for v in summary.declared_variables)
        self._summary = summary
        self._names = names
        self._offset = offset

    def _renamed(self, names: Tuple[str, ...]) -> Set[str]:
        return {self._names[name] for name in names}

    def free_signals(self) -> Set[str]:
        return self._renamed(self._summary.free_signals)

    def free_variables(self) -> Set[str]:
        return self._renamed(self._summary.free_variables)

    def expression_reads(self) -> Set[str]:
        return self._renamed(self._summary.expression_reads)

    def wait_sensitivity(self) -> Set[str]:
        return self._renamed(self._summary.wait_sensitivity)

    def written_signals(self) -> Set[str]:
        return self._renamed(self._summary.written_signals)

    def variable_reads(self) -> Dict[str, Set[int]]:
        return {
            self._names[variable]: {label + self._offset for label in labels}
            for variable, labels in self._summary.variable_reads
        }


class _RenamedTarget:
    """Stand-in statement carrying only the renamed assignment target."""

    __slots__ = ("target",)

    def __init__(self, target: str):
        self.target = target


#: Shared placeholder statement for blocks whose statement is never consumed.
_NO_STATEMENT = ast.Null()


def summarize_hierarchy(
    hierarchy: DesignHierarchy, loop_processes: bool = True, cache=None
) -> Dict[str, EntitySummary]:
    """The summary of every entity of ``hierarchy``, keyed by lower-case name.

    Each is served from ``cache`` when its self slice is unchanged (see
    :func:`~repro.hier.summary.summarize_entity`).
    """
    return {
        name.lower(): summarize_entity(hierarchy.unit_of(name), loop_processes, cache)[0]
        for name in hierarchy.order
    }


def _flat_signals(
    hierarchy: DesignHierarchy, root: HierarchyUnit
) -> Dict[str, SignalInfo]:
    """The flat signal table, in the order flat elaboration would build it."""
    signals: Dict[str, SignalInfo] = {}

    def add(name: str, info: SignalInfo) -> None:
        if name in signals:
            raise HierarchyError(
                f"linked design {root.entity.name!r}: duplicate signal {name!r}"
            )
        signals[name] = info

    for port in root.entity.ports:
        add(
            port.name,
            SignalInfo(
                name=port.name,
                sig_type=port.port_type,
                is_port=True,
                mode=port.mode,
            ),
        )

    def collect(unit: HierarchyUnit, rename: Rename) -> None:
        for decl in unit.signals:
            name = rename(decl.name)
            add(
                name,
                SignalInfo(name=name, sig_type=decl.sig_type, initial=decl.initial),
            )
        for item in unit.items:
            if isinstance(item, Instance):
                collect(
                    hierarchy.unit_of(item.entity), instance_rename(item, rename)
                )

    collect(root, _identity)
    return signals


def _local_names(summary: EntitySummary) -> Iterator[str]:
    """Every name an entity's summary facts can mention."""
    yield from (name for name, _ in summary.ports)
    yield from summary.internal_signals
    for process in summary.processes:
        yield from process.declared_variables


def _placed_rows(
    rows: ActiveRows,
    names: Dict[str, str],
    shift: Dict[int, int],
    placed: Dict[Tuple[Tuple[str, int], ...], FrozenSet[Tuple[str, int]]],
) -> Dict[int, FrozenSet[Tuple[str, int]]]:
    """One Table 4 solution, renamed and relocated.

    Equal rows (most labels of a process share a handful of values) map to
    one placed set through ``placed``, as they share one set in a solver's
    own result.
    """
    solution: Dict[int, FrozenSet[Tuple[str, int]]] = {}
    for label, pairs in rows:
        row = placed.get(pairs)
        if row is None:
            row = placed[pairs] = frozenset(
                (names[signal], shift[defined]) for signal, defined in pairs
            )
        solution[shift[label]] = row
    return solution


def link_hierarchy(
    hierarchy: DesignHierarchy,
    summaries: Dict[str, EntitySummary],
    universe: Optional[FactUniverse] = None,
) -> Placed:
    """Place every process of ``hierarchy`` into the flat design.

    ``summaries`` maps each lower-case entity name to its summary
    (:func:`summarize_hierarchy`); ``universe`` is the fact universe ``RM_lo``
    interns into.  Raises :class:`~repro.errors.HierarchyError` where flat
    elaboration of the flattened program would fail.
    """
    root = hierarchy.root_unit
    signals = _flat_signals(hierarchy, root)
    in_ports = {
        port.name for port in root.entity.ports if port.mode is ast.PortMode.IN
    }
    processes: Dict[str, ProcessCFG] = {}
    active: Dict[str, ActiveSignalsResult] = {}
    rm_lo = ResourceMatrix(universe=universe)
    encode = rm_lo.universe.encode
    next_label = 1  # the flat LabelAllocator starts at 1
    concurrent = 0  # flat elaboration numbers concurrent assignments design-wide

    def place(ps: ProcessSummary, names: Dict[str, str], prefix: str) -> None:
        nonlocal next_label, concurrent
        offset = next_label - ps.label_base
        # One int object per placed label, shared by every artefact below.
        shift = {
            label: label + offset
            for label in range(ps.label_base, ps.label_base + ps.label_span)
        }
        next_label += ps.label_span
        if ps.synthesized:
            concurrent += 1
            name = f"concurrent_{concurrent}"
        else:
            name = prefix + ps.name
        if name in processes:
            raise HierarchyError(
                f"linked design {root.entity.name!r}: duplicate process "
                f"name {name!r}"
            )
        for variable in ps.declared_variables:
            if names[variable] in signals:
                raise HierarchyError(
                    f"linked design {root.entity.name!r}: variable "
                    f"{names[variable]!r} of process {name!r} shadows a signal"
                )
        blocks: Dict[int, Block] = {}
        for label, kind_name, target in ps.blocks:
            kind = BlockKind[kind_name]
            statement = _NO_STATEMENT
            if target is not None:
                renamed = names[target]
                if kind is BlockKind.SIGNAL_ASSIGN and renamed in in_ports:
                    # Parity with flat elaboration's mode check after renaming
                    # a written child port onto a root input port.
                    raise HierarchyError(
                        f"process {name!r} assigns to input port {renamed!r}"
                    )
                statement = _RenamedTarget(renamed)
            blocks[shift[label]] = Block(
                label=shift[label], kind=kind, statement=statement, process_name=name
            )
        entry_label = shift[ps.entry_label]
        loop_label = shift[ps.loop_label]
        processes[name] = ProcessCFG(
            process=PlacedProcess(name, ps, names, offset),
            entry_label=entry_label,
            loop_label=loop_label,
            blocks=blocks,
            flow={(shift[a], shift[b]) for a, b in ps.flow},
            wait_labels=frozenset(shift[w] for w in ps.wait_labels),
            body_labels=frozenset(blocks) - {entry_label, loop_label},
        )
        rows: Dict[Tuple[Tuple[str, int], ...], FrozenSet[Tuple[str, int]]] = {}
        active[name] = ActiveSignalsResult(
            process_name=name,
            over_entry=_placed_rows(ps.over_entry, names, shift, rows),
            over_exit={},
            under_entry=_placed_rows(ps.under_entry, names, shift, rows),
            under_exit={},
        )
        # Table 6: re-intern every stored local row under the renaming.
        for label, *columns in ps.local_rows:
            for access, column in zip(_ACCESSES, columns):
                if column:
                    rm_lo.or_bits(
                        shift[label], access, encode(names[n] for n in column)
                    )

    def walk(unit: HierarchyUnit, rename: Rename, prefix: str) -> None:
        summary = summaries[unit.name.lower()]
        leaves = iter(summary.processes)
        names: Optional[Dict[str, str]] = None
        for item in unit.items:
            if isinstance(item, Instance):
                walk(
                    hierarchy.unit_of(item.entity),
                    instance_rename(item, rename),
                    prefix + item.label + "__",
                )
                continue
            if names is None:
                names = {name: rename(name) for name in _local_names(summary)}
            place(next(leaves), names, prefix)

    walk(root, _identity, "")
    if not processes:
        raise HierarchyError(
            f"linked design {root.entity.name!r} contains no processes"
        )
    design = Design(
        name=root.entity.name,
        entity_name=root.entity.name,
        architecture_name=root.architecture.name,
        signals=signals,
        processes=[cfg.process for cfg in processes.values()],
    )
    return design, ProgramCFG(design, processes), active, rm_lo
