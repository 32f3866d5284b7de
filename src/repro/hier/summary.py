"""Reusable per-entity analysis summaries for the linked front.

An :class:`EntitySummary` captures everything the ``place`` stage
(:mod:`repro.hier.link`) needs to place one entity's processes into a larger
design *without re-analysing them*:

* the shape of each process CFG (block kinds, flow edges, wait labels) in the
  labelling the entity receives when analysed standalone — per-process labels
  are allocator-contiguous, so placement relocates a whole process by adding
  one offset;
* the per-process stages of the paper that are closed under renaming: the
  Table 4 active-signals solutions and the Table 6 local Resource Matrix rows
  (stored name-decoded, since placement re-interns them into the whole-design
  fact universe under the instance's renaming);
* the free/declared name sets the cross-process stages (Table 5 and the
  Table 7–9 specialisation/closure, which run after placement) start from;
* the per-process facts the lint rules read: expression reads, wait
  sensitivity, written signals and the labels at which each variable is
  read.

Summaries are content-addressed by the entity's *self slice* — the entity and
its architecture's own signals and leaf statements, with component
declarations and instantiations removed — so editing one entity of a design
invalidates exactly that entity's summary, and two textually identical
entities in different files share one.  They persist through the ordinary
artifact caches under ``summary:``-prefixed keys (landing in
``<cache-dir>/summary/`` next to the pipeline's stage artifacts).

Of the analysis options only ``loop_processes`` shapes a summary (it changes
the CFG wrapping); ``improved`` and ``use_under_approximation`` configure
the stages after placement and deliberately do not key summaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.analysis.local_deps import local_dependencies
from repro.analysis.reaching_active import analyze_active_signals
from repro.analysis.resource_matrix import Access
from repro.cfg.builder import ProcessCFG, build_cfg
from repro.hier.structure import HierarchyUnit
from repro.pipeline.cache import source_digest
from repro.vhdl import ast, pretty
from repro.vhdl.elaborate import elaborate

#: Bumped when the summary layout changes, so stale cached pickles miss.
SUMMARY_FORMAT = 2

#: ``(label, sorted (name, label) pairs)`` rows of one dataflow solution.
ActiveRows = Tuple[Tuple[int, Tuple[Tuple[str, int], ...]], ...]


@dataclass(frozen=True)
class ProcessSummary:
    """One process of an entity, as analysed standalone.

    All labels are the absolute labels of the standalone run; they occupy the
    allocator span ``[label_base, label_base + label_span)`` (the span always
    counts the synthetic loop-guard label, which straight-line CFGs allocate
    but do not use), so relocation is a single integer offset.
    """

    name: str
    synthesized: bool
    label_base: int
    label_span: int
    entry_label: int
    loop_label: int
    #: ``(label, BlockKind name, assignment target or None)`` per block.
    blocks: Tuple[Tuple[int, str, Optional[str]], ...]
    flow: Tuple[Tuple[int, int], ...]
    wait_labels: Tuple[int, ...]
    free_signals: Tuple[str, ...]
    free_variables: Tuple[str, ...]
    declared_variables: Tuple[str, ...]
    #: ``(label, M0 names, M1 names, R0 names, R1 names)`` — the Table 6 rows.
    local_rows: Tuple[
        Tuple[int, Tuple[str, ...], Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]],
        ...,
    ]
    #: Table 4 entry solutions (exit values are not consumed by any later
    #: stage, so they are not stored).
    over_entry: ActiveRows
    under_entry: ActiveRows
    #: Signals the process's expressions read (its wait sensitivity apart).
    expression_reads: Tuple[str, ...]
    #: The union of the process's wait-statement signal sets.
    wait_sensitivity: Tuple[str, ...]
    #: The signals the process assigns.
    written_signals: Tuple[str, ...]
    #: ``(variable, labels of the blocks reading it)`` pairs.
    variable_reads: Tuple[Tuple[str, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class EntitySummary:
    """The linkable analysis summary of one entity."""

    entity: str
    ports: Tuple[Tuple[str, str], ...]
    internal_signals: Tuple[str, ...]
    processes: Tuple[ProcessSummary, ...]


# ---------------------------------------------------------------------------
# Self slice and cache key
# ---------------------------------------------------------------------------


def entity_slice(unit: HierarchyUnit) -> ast.Program:
    """The entity-local program of ``unit``: its own leaves, no instances.

    Signal declarations hoisted out of blocks are kept (they are part of the
    entity's own namespace); component declarations and instantiations are
    dropped — they influence placement, not the entity-local analysis.
    """
    declarations = list(unit.signals) + list(unit.other_declarations)
    architecture = ast.Architecture(
        position=unit.architecture.position,
        name=unit.architecture.name,
        entity_name=unit.entity.name,
        declarations=declarations,
        body=list(unit.leaves),
    )
    return ast.Program(entities=[unit.entity], architectures=[architecture])


def slice_source(unit: HierarchyUnit) -> str:
    """The canonical source text of the self slice (the content address)."""
    return pretty.format_program(entity_slice(unit))


def summary_cache_key(unit: HierarchyUnit, loop_processes: bool = True) -> str:
    """The artifact-cache key of ``unit``'s summary.

    Keyed by the self-slice digest, the entity, ``loop_processes`` and the
    summary format — and deliberately *not* by ``improved`` or
    ``use_under_approximation``, which only configure later stages.
    """
    digest = source_digest(slice_source(unit))
    return (
        f"summary:v{SUMMARY_FORMAT}:{digest}:{unit.name.lower()}"
        f":loop_processes={loop_processes!r}"
    )


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def _active_rows(solution: Dict[int, FrozenSet[Tuple[str, int]]]) -> ActiveRows:
    return tuple(
        (label, tuple(sorted(pairs))) for label, pairs in sorted(solution.items())
    )


def _summarize_process(cfg: ProcessCFG) -> ProcessSummary:
    labels = sorted(cfg.blocks)
    base = labels[0]
    span = len(cfg.body_labels) + 2  # body + entry + (possibly unused) guard
    if labels[-1] >= base + span:
        raise AssertionError(
            f"process {cfg.name!r}: labels {labels} exceed allocator span "
            f"[{base}, {base + span})"
        )

    blocks = []
    for label in labels:
        block = cfg.blocks[label]
        target = (
            block.statement.target
            if block.kind.name in ("VARIABLE_ASSIGN", "SIGNAL_ASSIGN")
            else None
        )
        blocks.append((label, block.kind.name, target))

    process = cfg.process
    active = analyze_active_signals(cfg)
    matrix = local_dependencies(process)
    columns = {access: matrix.column(access) for access in Access}
    row_labels = sorted(set().union(*(col.keys() for col in columns.values())))
    decode = matrix.universe.decode_list
    local_rows = tuple(
        (
            label,
            tuple(sorted(decode(columns[Access.M0].get(label, 0)))),
            tuple(sorted(decode(columns[Access.M1].get(label, 0)))),
            tuple(sorted(decode(columns[Access.R0].get(label, 0)))),
            tuple(sorted(decode(columns[Access.R1].get(label, 0)))),
        )
        for label in row_labels
    )

    return ProcessSummary(
        name=cfg.name,
        synthesized=process.synthesized,
        label_base=base,
        label_span=span,
        entry_label=cfg.entry_label,
        loop_label=cfg.loop_label,
        blocks=tuple(blocks),
        flow=tuple(sorted(cfg.flow)),
        wait_labels=tuple(sorted(cfg.wait_labels)),
        free_signals=tuple(sorted(process.free_signals())),
        free_variables=tuple(sorted(process.free_variables())),
        declared_variables=tuple(process.variables),
        local_rows=local_rows,
        over_entry=_active_rows(active.over_entry),
        under_entry=_active_rows(active.under_entry),
        expression_reads=tuple(sorted(process.expression_reads())),
        wait_sensitivity=tuple(sorted(process.wait_sensitivity())),
        written_signals=tuple(sorted(process.written_signals())),
        variable_reads=tuple(
            (variable, tuple(sorted(labels)))
            for variable, labels in sorted(process.variable_reads().items())
        ),
    )


def _build_summary(unit: HierarchyUnit, loop_processes: bool) -> EntitySummary:
    processes: Tuple[ProcessSummary, ...] = ()
    if unit.leaves:
        # A purely structural entity has nothing to elaborate (the flat
        # pipeline requires at least one process, which its instances supply).
        program_cfg = build_cfg(
            elaborate(entity_slice(unit)), loop_processes=loop_processes
        )
        processes = tuple(
            _summarize_process(cfg) for cfg in program_cfg.processes.values()
        )
    return EntitySummary(
        entity=unit.entity.name,
        ports=tuple((port.name, port.mode.value) for port in unit.entity.ports),
        internal_signals=tuple(decl.name for decl in unit.signals),
        processes=processes,
    )


def summarize_entity(
    unit: HierarchyUnit,
    loop_processes: bool = True,
    cache=None,
) -> Tuple[EntitySummary, bool]:
    """The summary of ``unit``, served from ``cache`` when possible.

    Returns ``(summary, from_cache)``.  ``cache`` is any of the artifact
    caches of :mod:`repro.pipeline.cache` (or ``None`` to always build); a
    built summary goes on probation there, as an intermediate of ``place``.
    """
    key = summary_cache_key(unit, loop_processes)
    if cache is not None:
        cached = cache.get(key)
        if isinstance(cached, EntitySummary):
            return cached, True
    summary = _build_summary(unit, loop_processes)
    if cache is not None:
        cache.put(key, summary, probation=True)
    return summary, False
