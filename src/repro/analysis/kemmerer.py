"""Kemmerer's Shared Resource Matrix method — the paper's baseline.

Section 5.2: "one way to [compute the global dependencies] is to take the
transitive closure of the local dependencies; this method is attributed to
Kemmerer".  The method is *flow-insensitive*: it ignores the order of the
statements, so for the program ``(a): c := b; b := a`` it reports a flow from
``a`` to ``c`` even though no execution exhibits it.  Section 6 uses this
baseline on the AES ShiftRows function, where the reused temporary variables
make every input row element appear to flow to every output row element.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.flowgraph import FlowGraph
from repro.analysis.resource_matrix import ResourceMatrix


@dataclass
class KemmererResult:
    """Local Resource Matrix, its direct-flow graph and the closed graph."""

    rm_local: ResourceMatrix
    direct_graph: FlowGraph
    graph: FlowGraph
    """The transitive closure of ``direct_graph`` — Kemmerer's reported flows."""


def kemmerer_analysis(rm_local: ResourceMatrix) -> KemmererResult:
    """Run Kemmerer's method on a local Resource Matrix (Table 6).

    The matrix is the same ``RM_lo`` the Information Flow analysis closes,
    whether computed from a flat design or placed from entity summaries.
    """
    direct = FlowGraph.from_resource_matrix(rm_local)
    closed = direct.transitive_closure()
    return KemmererResult(rm_local=rm_local, direct_graph=direct, graph=closed)
