"""Hierarchical designs: component instantiation, summary linking, flattening.

VHDL1 programs may declare components and instantiate them (``u1 : comp port
map (a => x, b => y);``).  The staged pipeline analyses them with its
*linked* front, ``place`` (:mod:`repro.pipeline.stages`): after the parse,
:mod:`repro.hier.structure` resolves the instantiation tree,
:mod:`repro.hier.summary` analyses each distinct entity once into a reusable,
content-addressed :class:`~repro.hier.summary.EntitySummary`, and
:mod:`repro.hier.link` places the summaries into the flat namespace, after
which the cross-process stages (Tables 5 and 7–9) run unchanged.

:mod:`repro.hier.flatten` is the oracle: it inlines every instantiated
architecture under per-instance names, and the flat analysis of the result is
byte-identical to the linked analysis (the equivalence tests assert this across
workloads and option combinations).  See ``docs/hierarchy.md``.
"""

from repro.errors import HierarchyError
from repro.hier.structure import (
    DesignHierarchy,
    HierarchyUnit,
    Instance,
    build_hierarchy,
    has_instantiations,
)
from repro.hier.flatten import flatten_program, flatten_source
from repro.hier.summary import (
    EntitySummary,
    ProcessSummary,
    summarize_entity,
    summary_cache_key,
)
from repro.hier.link import PlacedProcess, link_hierarchy, summarize_hierarchy

__all__ = [
    "HierarchyError",
    "DesignHierarchy",
    "HierarchyUnit",
    "Instance",
    "build_hierarchy",
    "has_instantiations",
    "flatten_program",
    "flatten_source",
    "EntitySummary",
    "ProcessSummary",
    "summarize_entity",
    "summary_cache_key",
    "summarize_hierarchy",
    "link_hierarchy",
    "PlacedProcess",
]
