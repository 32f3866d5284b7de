"""Covert-channel analysis reports (Common Criteria, Chapter 14 style).

The report packages what an evaluator needs: the design inventory, the flow
graph statistics, the declared policy, every violation and, for each permitted
flow into an output, the set of inputs it may depend on.

Violations surface as structured :class:`Diagnostic` records rather than
ad-hoc strings: each carries a stable code (:data:`DIRECT_FLOW` ``IFA001``
for a forbidden direct flow, :data:`PATH_FLOW` ``IFA002`` for a forbidden
flow witnessed only by a longer path), a severity, the offending source and
target resources with their clearance levels, and the witness path.  The
``vhdl-ifa/v1`` JSON documents embed ``Diagnostic.to_dict()`` verbatim (see
``docs/api.md`` for the schema table).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.resource_matrix import base_resource, incoming_node, outgoing_node
from repro.errors import ReproError
from repro.security.policy import (
    Clearance,
    FlowPolicy,
    PolicyViolation,
    TwoLevelPolicy,
    check_policy,
)
from repro.security.policy_file import DeclaredPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipeline.artifacts import AnalysisResult

#: Stable diagnostic codes; append-only across schema versions.  The lint
#: catalog (``IFA101`` …) registers its codes in
#: :mod:`repro.analysis.lint.registry` and shares this namespace.
DIRECT_FLOW = "IFA001"
PATH_FLOW = "IFA002"


def diagnostic_sort_key(diagnostic: "Diagnostic") -> Tuple[str, str, str, Tuple[str, ...]]:
    """The deterministic ordering of every diagnostic list the repo emits.

    Sorting by ``(code, source, target, path)`` keeps CLI, batch and serve
    bytes stable across runs, platforms and pool workers, whatever order the
    underlying checker produced the findings in.
    """
    return (diagnostic.code, diagnostic.source, diagnostic.target, diagnostic.path)


@dataclass(frozen=True)
class Diagnostic:
    """One structured finding of a policy check.

    ``code`` is stable across releases (``IFA001`` forbidden direct flow,
    ``IFA002`` forbidden flow via a longer witness path), ``severity`` is
    ``"error"`` for every policy violation today (the field exists so later
    advisory codes can ride the same record), and ``path`` is the witness
    flow path from ``source`` to ``target``.
    """

    code: str
    severity: str
    message: str
    source: str
    target: str
    source_level: str
    target_level: str
    path: Tuple[str, ...] = ()

    @classmethod
    def from_violation(cls, violation: PolicyViolation) -> "Diagnostic":
        """The diagnostic form of one :class:`PolicyViolation`."""
        code = PATH_FLOW if len(violation.path) > 2 else DIRECT_FLOW
        return cls(
            code=code,
            severity="error",
            message=violation.describe(),
            source=violation.source,
            target=violation.target,
            source_level=str(violation.source_level),
            target_level=str(violation.target_level),
            path=tuple(violation.path),
        )

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-native form embedded in ``vhdl-ifa/v1`` documents."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "source": self.source,
            "target": self.target,
            "source_level": self.source_level,
            "target_level": self.target_level,
            "path": list(self.path),
        }

    def describe(self) -> str:
        """A one-line human-readable rendering (used by ``to_text``)."""
        return f"[{self.code}] {self.message}"


@dataclass
class CovertChannelReport:
    """The result of checking one design against one policy."""

    design_name: str
    policy: FlowPolicy
    violations: List[PolicyViolation] = field(default_factory=list)
    output_dependencies: Dict[str, List[str]] = field(default_factory=dict)
    node_count: int = 0
    edge_count: int = 0

    @property
    def is_clean(self) -> bool:
        """True when no violation was found."""
        return not self.violations

    @property
    def diagnostics(self) -> List[Diagnostic]:
        """The violations as structured diagnostics, deterministically
        ordered by :func:`diagnostic_sort_key`."""
        return sorted(
            (Diagnostic.from_violation(v) for v in self.violations),
            key=diagnostic_sort_key,
        )

    def to_text(self) -> str:
        """Render the report as plain text."""
        lines = [
            f"Covert channel analysis for design {self.design_name!r}",
            f"  flow graph: {self.node_count} nodes, {self.edge_count} edges",
            "",
            "Output dependencies:",
        ]
        for output, inputs in sorted(self.output_dependencies.items()):
            source = ", ".join(inputs) if inputs else "(none)"
            lines.append(f"  {output} <- {source}")
        lines.append("")
        if self.is_clean:
            lines.append("No policy violations found.")
        else:
            lines.append(f"{len(self.violations)} policy violation(s):")
            for diagnostic in self.diagnostics:
                lines.append(f"  - {diagnostic.describe()}")
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, Any]:
        """The report as a JSON-native dict (the CLI's ``check --json`` body)."""
        return {
            "design": self.design_name,
            "clean": self.is_clean,
            "violations": [diagnostic.to_dict() for diagnostic in self.diagnostics],
            "output_dependencies": {
                output: list(inputs)
                for output, inputs in sorted(self.output_dependencies.items())
            },
            "summary": {
                "nodes": self.node_count,
                "edges": self.edge_count,
            },
        }


def output_dependencies(result: AnalysisResult) -> Dict[str, List[str]]:
    """For each output port, the input ports whose values may reach it.

    The Table 8/9 closure already copies every value that can reach an output
    assignment into the reads of the corresponding node, so the *direct*
    predecessors of the output's node are the complete (flow-sensitive)
    answer; following paths would re-introduce exactly the spurious transitive
    flows the paper's analysis eliminates.  The improved analysis' environment
    nodes (``n◦`` for inputs, ``n•`` for outputs) are used when available.
    The ports come from the run's inventory.
    """
    graph = result.graph
    inventory = result.inventory
    dependencies: Dict[str, List[str]] = {}
    for output in inventory.output_ports:
        sink = outgoing_node(output) if result.improved else output
        if not graph.has_node(sink):
            sink = output
        direct_sources = graph.predecessors(sink)
        sources: List[str] = []
        for input_port in inventory.input_ports:
            candidates = {input_port}
            if result.improved:
                candidates.add(incoming_node(input_port))
            if candidates & set(direct_sources):
                sources.append(input_port)
        dependencies[output] = sorted(sources)
    return dependencies


#: The policy classes whose checks :func:`report_key` can key: what they
#: check is their data.  A subclass may override ``level_of`` or ``allows``.
_KEYED_POLICIES = (FlowPolicy, TwoLevelPolicy, DeclaredPolicy)


def _level(clearance: Clearance) -> Tuple[int, str]:
    return (clearance.rank, clearance.name)


def report_key(
    policy: FlowPolicy,
    transitive: bool = False,
    restrict_to_ports: bool = False,
    outputs: Optional[Iterable[str]] = None,
) -> Optional[str]:
    """A sha256 over what :func:`build_report` reads besides the analysis.

    It covers the three options, as :func:`build_report` takes them, and
    what :func:`~repro.security.policy.check_policy` reads of the policy:
    each resource's level, the permitted pairs, the default level and,
    for a :class:`~repro.security.policy_file.DeclaredPolicy`, its patterns
    in declaration order (the first match wins).  Whatever is unordered is
    sorted, so the key does not follow string hashing.  It is ``None`` for
    a policy of any other class than this package's three, whose report
    cannot be told from its data.
    """
    if type(policy) not in _KEYED_POLICIES:
        return None
    content = (
        sorted((name, _level(level)) for name, level in policy.levels.items()),
        sorted((_level(source), _level(target)) for source, target in policy.permitted),
        _level(policy.default_level),
        [(pattern, _level(level)) for pattern, level in getattr(policy, "patterns", ())],
        bool(transitive),
        bool(restrict_to_ports),
        None if outputs is None else sorted(set(outputs)),
    )
    return hashlib.sha256(repr(content).encode("utf-8")).hexdigest()


def build_report(
    result: AnalysisResult,
    policy: FlowPolicy,
    transitive: bool = False,
    restrict_to_ports: bool = False,
    outputs: Optional[Iterable[str]] = None,
) -> CovertChannelReport:
    """Check an analysis result against a policy and build the full report.

    The default ``transitive=False`` reads the graph the way the paper intends
    (direct edges only; the closure is already flow-sensitive).  Setting
    ``transitive=True`` gives a Kemmerer-style conservative check over paths.
    ``outputs`` optionally restricts the reported sinks: only violations
    flowing into one of the listed resources (or their ``n◦``/``n•``
    environment nodes) and only their dependency lines are kept.
    """
    inventory = result.inventory
    restrict = None
    if restrict_to_ports:
        restrict = set(inventory.input_ports) | set(inventory.output_ports)
    violations = check_policy(
        result.graph, policy, transitive=transitive, restrict_to=restrict
    )
    dependencies = output_dependencies(result)
    if outputs is not None:
        wanted = set(outputs)
        # Only resources that can actually receive a flow qualify as sinks:
        # the design's output ports plus every graph node with an incoming
        # edge.  Rejecting anything else (a typo, an input port, the secret
        # itself) keeps the restriction from silently filtering every
        # violation away and passing a leaky design.
        sinks = {base_resource(node) for node in result.graph.targets()}
        sinks.update(inventory.output_ports)
        not_sinks = wanted - sinks
        if not_sinks:
            raise ReproError(
                "--output must name an output port or a resource flows can "
                "reach; not a flow sink: " + ", ".join(sorted(not_sinks))
            )
        violations = [
            violation
            for violation in violations
            if base_resource(violation.target) in wanted
        ]
        dependencies = {
            name: sources
            for name, sources in dependencies.items()
            if name in wanted
        }
    return CovertChannelReport(
        design_name=inventory.design,
        policy=policy,
        violations=violations,
        output_dependencies=dependencies,
        node_count=result.graph.node_count(),
        edge_count=result.graph.edge_count(),
    )
