"""Specialisation of the Reaching Definitions results (Table 7).

Before the closure is performed, the RD results are restricted to definitions
that are *actually used* at the labelled construct, by consulting the local
Resource Matrix ``RM_lo``:

* ``RD†ϕ(l_i)`` — for a wait label ``l_i`` whose synchronisation reads the
  active value of ``s`` (``(s, l_i, R1) ∈ RM_lo``), the definitions
  ``(s, l) ∈ RD∪ϕ_entry(l_i)`` are kept, provided ``l_i`` occurs in some
  cross-flow tuple (the signal might in fact be synchronised);
* ``RD†(l')`` — for a label ``l'`` that reads the present value of ``n``
  (``(n, l', R0) ∈ RM_lo``), the definitions ``(n, l) ∈ RDcf_entry(l')`` are
  kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Tuple

from repro.analysis.local_deps import ResourceMatrix
from repro.analysis.reaching_active import ActiveSignalsResult
from repro.analysis.reaching_defs import ReachingDefinitionsResult
from repro.analysis.resource_matrix import Access
from repro.cfg.builder import ProgramCFG
from repro.dataflow.universe import FactUniverse

ResourceDef = Tuple[str, int]


@dataclass
class SpecializedRD:
    """The specialised relations ``RD†`` and ``RD†ϕ`` indexed by label."""

    present: Dict[int, FrozenSet[ResourceDef]] = field(default_factory=dict)
    active: Dict[int, FrozenSet[ResourceDef]] = field(default_factory=dict)

    def present_at(self, label: int) -> FrozenSet[ResourceDef]:
        """``RD†(l)``: used definitions of present values / variables at ``l``."""
        return self.present.get(label, frozenset())

    def active_at(self, label: int) -> FrozenSet[ResourceDef]:
        """``RD†ϕ(l)``: used definitions of active signal values at wait ``l``."""
        return self.active.get(label, frozenset())


def specialize(
    program_cfg: ProgramCFG,
    rm_lo: ResourceMatrix,
    active: Dict[str, ActiveSignalsResult],
    reaching: ReachingDefinitionsResult,
) -> SpecializedRD:
    """Apply both rules of Table 7 and return ``RD†`` / ``RD†ϕ``."""
    result = SpecializedRD()
    universe = rm_lo.universe

    # [RD for active signals] — one pass over RD∪ϕ_entry per wait label that
    # carries R1 reads, keeping the definitions of the names it reads.
    active_defs: Dict[int, FrozenSet[ResourceDef]] = {}
    for wait_label, bits in sorted(rm_lo.column(Access.R1).items()):
        if not program_cfg.label_occurs_in_cross_flow(wait_label):
            continue
        owner = program_cfg.process_of_label(wait_label)
        over_entry = active[owner].over_entry_of(wait_label)
        used = _read_definitions(over_entry, bits, universe)
        if used:
            active_defs[wait_label] = used
    result.active = active_defs

    # [RD for present signals and local variables] — likewise one pass over
    # RDcf_entry per label with R0 reads.
    present_defs: Dict[int, FrozenSet[ResourceDef]] = {}
    for label, bits in sorted(rm_lo.column(Access.R0).items()):
        used = _read_definitions(reaching.entry_of(label), bits, universe)
        if used:
            present_defs[label] = used
    result.present = present_defs

    return result


def _read_definitions(
    definitions: Iterable[ResourceDef], bits: int, universe: FactUniverse
) -> FrozenSet[ResourceDef]:
    """The definitions of the names a label reads, ``bits`` being its row.

    Nearly every row reads one name: its bit position gives the name, and
    the definitions are filtered by it, so the row is never decoded into a
    set of names.  A row reading several names is decoded once.
    """
    if not bits:
        return frozenset()
    if bits & (bits - 1):
        names = universe.decode(bits)
        return frozenset(pair for pair in definitions if pair[0] in names)
    name = universe.fact_of(bits.bit_length() - 1)
    return frozenset(pair for pair in definitions if pair[0] == name)
