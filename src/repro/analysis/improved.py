"""The improved Information Flow analysis with incoming/outgoing nodes (Table 9).

Section 5.3 refines the analysis so that the *initial* and *environment* values
of resources are distinguished from the values computed by the program:

* every resource read before it is (re)defined contributes its **incoming**
  node ``n◦``;
* every ``out`` port contributes an **outgoing** node ``n•`` capturing what
  leaves the design at synchronisation points.

The paper models the environment as an extra process ``π`` that drives the
incoming signals just before every synchronisation point and samples the
outgoing signals just after it.  The four rules of Table 9 are implemented on
top of the Table 8 closure machinery:

* **[Initial values]** — ``(n, ?) ∈ RD†(l)`` seeds ``(n◦, l, R0)``;
* **[Incoming values]** — ``(n, l') ∈ RD†(l)`` with ``l'`` a wait label seeds
  ``(n◦, l, R0)``; we restrict ``n`` to the design's incoming signals (``in``
  ports), since only those are driven by the environment process ``π``;
* **[Outgoing values]** — every ``out`` port ``n`` receives a dedicated label
  ``l_{n•}`` at which ``(n•, l_{n•}, M1)`` holds;
* **[Outcoming values]** — for every wait label ``l`` and active definition
  ``(n, l') ∈ RD†ϕ(l)`` of an ``out`` port ``n``, the reads of the assignment
  at ``l'`` are copied to ``l_{n•}`` (a copy edge ``l' → l_{n•}``).

The seeds and extra copy edges are fed into the same propagation fixpoint as
Table 8, so all rules reach a joint fixpoint.  The seed matrix is a copy of
``RM_lo`` and shares its universe, into which each front of the pipeline
has already interned every ``n◦``/``n•`` name the seeds can hold
(:func:`intern_environment_nodes`), so the closure interns nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.analysis.closure import (
    CopyEdges,
    merge_edges,
    present_value_edges,
    propagate,
    synchronized_value_edges,
)
from repro.analysis.reaching_defs import INITIAL_LABEL
from repro.analysis.resource_matrix import (
    Access,
    Entry,
    ResourceMatrix,
    incoming_node,
    outgoing_node,
)
from repro.analysis.specialize import SpecializedRD
from repro.cfg.builder import ProgramCFG
from repro.vhdl.elaborate import Design


@dataclass
class ImprovedClosureResult:
    """``RM_gl`` of the improved analysis plus the synthetic outgoing labels."""

    rm_global: ResourceMatrix
    copy_edges: CopyEdges = field(default_factory=dict)
    outgoing_labels: Dict[str, int] = field(default_factory=dict)
    """Maps each ``out`` port to its synthetic label ``l_{n•}``."""

    def __iter__(self):
        return iter(self.rm_global)


def allocate_outgoing_labels(program_cfg: ProgramCFG, design: Design) -> Dict[str, int]:
    """Assign a fresh label ``l_{n•}`` to every outgoing signal.

    The labels are placed after every program label so they cannot collide with
    the labelling of the processes.
    """
    next_label = max(program_cfg.labels, default=0) + 1
    labels: Dict[str, int] = {}
    for name in design.output_ports:
        labels[name] = next_label
        next_label += 1
    return labels


def intern_environment_nodes(rm_lo: ResourceMatrix, design: Design) -> None:
    """Intern every node Table 9 can add into ``RM_lo``'s universe.

    ``n◦`` for every name some label reads, sorted, then ``n•`` for every
    ``out`` port.  ``RD†`` keeps only definitions of names read at their
    label (Table 7), so the [Initial values] and [Incoming values] seeds
    name no other ``n◦``.  Each front of the pipeline ends with this, so its
    universe is final and no later stage interns into it.
    """
    reads = 0
    for bits in rm_lo.column(Access.R0).values():
        reads |= bits
    universe = rm_lo.universe
    universe.intern_all(incoming_node(name) for name in rm_lo.sorted_names(reads))
    universe.intern_all(outgoing_node(name) for name in design.output_ports)


def initial_value_seeds(specialized: SpecializedRD) -> List[Entry]:
    """Rule [Initial values]: ``(n, ?) ∈ RD†(l)`` gives ``(n◦, l, R0)``."""
    seeds: List[Entry] = []
    for label, definitions in specialized.present.items():
        for name, def_label in definitions:
            if def_label == INITIAL_LABEL:
                seeds.append(Entry(incoming_node(name), label, Access.R0))
    return seeds


def incoming_value_seeds(
    program_cfg: ProgramCFG, specialized: SpecializedRD, design: Design
) -> List[Entry]:
    """Rule [Incoming values]: environment-driven definitions at wait labels.

    ``(n, l') ∈ RD†(l)`` with ``l' ∈ WS`` gives ``(n◦, l, R0)``; ``n`` is
    restricted to the design's ``in`` ports because only those are assigned by
    the environment process ``π``.
    """
    incoming = set(design.input_ports)
    wait_labels = program_cfg.wait_labels
    seeds: List[Entry] = []
    for label, definitions in specialized.present.items():
        for name, def_label in definitions:
            if def_label in wait_labels and name in incoming:
                seeds.append(Entry(incoming_node(name), label, Access.R0))
    return seeds


def outgoing_value_seeds(outgoing_labels: Dict[str, int]) -> List[Entry]:
    """Rule [Outgoing values]: ``(n•, l_{n•}, M1)`` for every ``out`` port."""
    return [
        Entry(outgoing_node(name), label, Access.M1)
        for name, label in outgoing_labels.items()
    ]


def outcoming_value_edges(
    program_cfg: ProgramCFG,
    specialized: SpecializedRD,
    outgoing_labels: Dict[str, int],
) -> CopyEdges:
    """Rule [Outcoming values]: copy the reads feeding an outgoing signal.

    For every wait label ``l`` and ``(n, l') ∈ RD†ϕ(l)`` with ``n`` an ``out``
    port, the reads of the assignment at ``l'`` flow to ``l_{n•}``.
    """
    edges: CopyEdges = {}
    for wait_label in program_cfg.wait_labels:
        for signal, assign_label in specialized.active_at(wait_label):
            target = outgoing_labels.get(signal)
            if target is not None:
                edges.setdefault(assign_label, set()).add(target)
    return edges


def improved_global_resource_matrix(
    program_cfg: ProgramCFG,
    rm_lo: ResourceMatrix,
    specialized: SpecializedRD,
    design: Design,
) -> ImprovedClosureResult:
    """Run the Table 8 closure extended with the Table 9 rules."""
    outgoing_labels = allocate_outgoing_labels(program_cfg, design)

    copy_edges = merge_edges(
        present_value_edges(specialized),
        synchronized_value_edges(program_cfg, specialized),
        outcoming_value_edges(program_cfg, specialized, outgoing_labels),
    )

    seeds: ResourceMatrix = rm_lo.copy()
    for entry in initial_value_seeds(specialized):
        seeds.add_entry(entry)
    for entry in incoming_value_seeds(program_cfg, specialized, design):
        seeds.add_entry(entry)
    for entry in outgoing_value_seeds(outgoing_labels):
        seeds.add_entry(entry)

    rm_global = propagate(seeds, copy_edges)
    return ImprovedClosureResult(
        rm_global=rm_global,
        copy_edges=copy_edges,
        outgoing_labels=outgoing_labels,
    )
