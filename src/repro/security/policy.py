"""Flow policies and their enforcement on information-flow graphs.

A policy assigns a *clearance* (security level) to resources and states which
flows between levels are permitted.  Policies need not be transitive — the
paper cites Rushby's channel-control policies [14] and the non-transitive MLS
extension of Haigh and Young [4] — so the checker can operate either on direct
edges only (non-transitive, channel-control style) or on all paths (classical
noninterference style).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.analysis.flowgraph import FlowGraph
from repro.analysis.resource_matrix import base_resource
from repro.errors import PolicyError


@dataclass(frozen=True, order=True)
class Clearance:
    """A named security level with a numeric rank (higher = more secret)."""

    rank: int
    name: str

    def __str__(self) -> str:
        return self.name


#: Conventional two-point lattice.
PUBLIC = Clearance(0, "public")
SECRET = Clearance(1, "secret")


@dataclass(frozen=True)
class PolicyViolation:
    """One flow that the policy forbids."""

    source: str
    target: str
    source_level: Clearance
    target_level: Clearance
    path: Tuple[str, ...] = ()

    def describe(self) -> str:
        """A one-line human-readable description."""
        via = ""
        if len(self.path) > 2:
            via = " via " + " -> ".join(self.path[1:-1])
        return (
            f"flow from {self.source} ({self.source_level}) to "
            f"{self.target} ({self.target_level}) is not permitted{via}"
        )


@dataclass
class FlowPolicy:
    """A general (possibly non-transitive) flow policy.

    ``levels`` assigns a clearance to each resource (resources without an
    assignment get ``default_level``).  ``permitted`` lists the ordered pairs
    of clearances between which information may flow; flows within a level are
    always permitted.  ``transitive`` records the policy's *preferred*
    checking mode: ``False`` is the channel-control reading (direct edges
    only, the paper's non-transitive result graph), ``True`` asks for the
    classical all-paths noninterference check.  :func:`check_policy` still
    takes an explicit ``transitive`` argument; the field is the default the
    CLI and the serve mode use when the caller does not say.
    """

    levels: Dict[str, Clearance] = field(default_factory=dict)
    permitted: Set[Tuple[Clearance, Clearance]] = field(default_factory=set)
    default_level: Clearance = PUBLIC
    transitive: bool = False

    def level_of(self, resource: str) -> Clearance:
        """The clearance of ``resource`` (``n◦``/``n•`` share ``n``'s level)."""
        name = base_resource(resource)
        return self.levels.get(name, self.default_level)

    def assign(self, resource: str, level: Clearance) -> None:
        """Assign a clearance to a resource."""
        self.levels[resource] = level

    def permit(self, source: Clearance, target: Clearance) -> None:
        """Allow flows from ``source``-level resources to ``target``-level ones."""
        self.permitted.add((source, target))

    def allows(self, source: Clearance, target: Clearance) -> bool:
        """True when a flow between the two levels is permitted."""
        if source == target:
            return True
        return (source, target) in self.permitted


class TwoLevelPolicy(FlowPolicy):
    """The classical ``public ⊑ secret`` lattice policy.

    Secret resources are listed explicitly; everything else is public.  Flows
    from public to secret are permitted, flows from secret to public are not.
    """

    def __init__(self, secret_resources: Iterable[str] = ()):
        super().__init__(default_level=PUBLIC)
        for name in secret_resources:
            self.assign(name, SECRET)
        self.permit(PUBLIC, SECRET)

    @property
    def secret_resources(self) -> FrozenSet[str]:
        """The resources classified as secret."""
        return frozenset(
            name for name, level in self.levels.items() if level == SECRET
        )


def check_policy(
    graph: FlowGraph,
    policy: FlowPolicy,
    transitive: bool = False,
    restrict_to: Optional[Iterable[str]] = None,
) -> List[PolicyViolation]:
    """Check ``graph`` against ``policy`` and return every violation.

    With ``transitive=False`` (the default, matching the non-transitive reading
    of the paper's result graph) only direct edges are checked; with
    ``transitive=True`` every path is considered — each violating pair is
    reported once with a witness path.  ``restrict_to`` optionally limits the
    endpoints considered (e.g. to ports only).
    """
    if not isinstance(policy, FlowPolicy):
        raise PolicyError("check_policy expects a FlowPolicy")
    interesting = set(restrict_to) if restrict_to is not None else None
    violations: List[PolicyViolation] = []

    def endpoint_ok(name: str) -> bool:
        return interesting is None or base_resource(name) in interesting or name in interesting

    if not transitive:
        # Levels are looked up once per node, and a source whose level may
        # flow to every level in the graph is passed over without decoding
        # its edges (under a two-level policy, every public source).
        nodes = graph.nodes
        level_of = functools.cache(policy.level_of)
        present = {level_of(node) for node in nodes}
        unrestricted = functools.cache(
            lambda level: all(policy.allows(level, other) for other in present)
        )
        for source in nodes:
            src_level = level_of(source)
            if unrestricted(src_level) or not endpoint_ok(source):
                continue
            for target in graph.successors(source):
                if target == source or not endpoint_ok(target):
                    continue
                dst_level = level_of(target)
                if not policy.allows(src_level, dst_level):
                    violations.append(
                        PolicyViolation(source, target, src_level, dst_level, (source, target))
                    )
        # Edges are unique, so this is the order of the sorted edge set.
        violations.sort(key=lambda violation: (violation.source, violation.target))
        return violations

    for source in sorted(graph.nodes):
        if not endpoint_ok(source):
            continue
        src_level = policy.level_of(source)
        for target in sorted(graph.reachable_from(source)):
            if source == target or not endpoint_ok(target):
                continue
            dst_level = policy.level_of(target)
            if not policy.allows(src_level, dst_level):
                path = _witness_path(graph, source, target)
                violations.append(
                    PolicyViolation(source, target, src_level, dst_level, path)
                )
    return violations


def _witness_path(graph: FlowGraph, source: str, target: str) -> Tuple[str, ...]:
    """A shortest edge path from ``source`` to ``target`` (BFS)."""
    from collections import deque

    queue = deque([(source, (source,))])
    seen = {source}
    while queue:
        node, path = queue.popleft()
        for successor in sorted(graph.successors(node)):
            if successor == target:
                return path + (successor,)
            if successor not in seen:
                seen.add(successor)
                queue.append((successor, path + (successor,)))
    return (source, target)
