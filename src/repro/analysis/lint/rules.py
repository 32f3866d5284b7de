"""The built-in lint-rule catalog (``IFA101`` … ``IFA108``).

Every rule here falls out of artefacts the pipeline already computes — the
per-process CFGs, the whole-program Reaching Definitions, and the closed
information-flow graph — so linting a cached design costs one extra (cached)
stage, not a second analysis.  The catalog is documented, with one minimal
reproducer per code, in ``docs/lint.md``; ``scripts/check_docs.py`` fails
when a registered code is missing from that table.

========  =====================================================
code      finding
========  =====================================================
IFA101    signal driven by more than one process (write race)
IFA102    signal written but never read
IFA103    signal read but never written
IFA104    dead process: none of its writes reach an output port
IFA105    incomplete sensitivity list
IFA106    combinational feedback loop (no clocked driver)
IFA107    statement unreachable from the process entry
IFA108    shadowed variable assignment (killed before any use)
========  =====================================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.analysis.closure import _strongly_connected_components
from repro.analysis.lint.registry import LintRule, rule
from repro.analysis.resource_matrix import base_resource, outgoing_node
from repro.cfg.builder import ProcessCFG
from repro.cfg.labels import BlockKind
from repro.security.report import Diagnostic
from repro.vhdl.elaborate import Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.flowgraph import FlowGraph
    from repro.pipeline.artifacts import AnalysisResult


def _processes(analysis: "AnalysisResult") -> List[Process]:
    """The analysed processes, in design order.

    Taken from the CFG, whose processes carry the labels the per-label facts
    refer to; in a linked design they are placed processes, which answer the
    same per-process queries from their entity summaries.
    """
    return [cfg.process for cfg in analysis.program_cfg.processes.values()]


def _signal_reads(processes: Sequence[Process]) -> Set[str]:
    """Every signal observed anywhere: expressions plus wait sensitivity."""
    reads: Set[str] = set()
    for process in processes:
        reads |= process.expression_reads()
        reads |= process.wait_sensitivity()
    return reads


def _drivers(processes: Sequence[Process]) -> Dict[str, List[str]]:
    """Signal → the names of the processes assigning it, in design order."""
    drivers: Dict[str, List[str]] = {}
    for process in processes:
        for signal in process.written_signals():
            drivers.setdefault(signal, []).append(process.name)
    return drivers


@rule
class MultipleDriversRule(LintRule):
    """Two processes assigning one signal race on every write."""

    code = "IFA101"
    title = "multiple drivers on one signal"
    default_severity = "error"
    requires = ("cfg",)

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        drivers_of = _drivers(_processes(analysis))
        for name in sorted(analysis.design.signals):
            drivers = sorted(drivers_of.get(name, ()))
            if len(drivers) < 2:
                continue
            yield self.diagnostic(
                f"signal '{name}' is driven by {len(drivers)} processes "
                f"({', '.join(drivers)}); concurrent writes race",
                source=name,
                target=name,
                path=tuple(drivers),
            )


@rule
class WrittenNeverReadRule(LintRule):
    """A driven signal nobody observes is dead logic."""

    code = "IFA102"
    title = "signal written but never read"
    default_severity = "warning"
    requires = ("cfg",)

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        design = analysis.design
        processes = _processes(analysis)
        reads = _signal_reads(processes)
        for name in sorted(set(_drivers(processes)) - reads):
            info = design.signals.get(name)
            if info is None or info.is_output:
                # Output ports are read by the environment by definition.
                continue
            yield self.diagnostic(
                f"signal '{name}' is written but never read by any process",
                source=name,
                target=name,
            )


@rule
class ReadNeverWrittenRule(LintRule):
    """A signal no process drives is stuck at its initial value."""

    code = "IFA103"
    title = "signal read but never written"
    default_severity = "warning"
    requires = ("cfg",)

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        design = analysis.design
        processes = _processes(analysis)
        writes = set(_drivers(processes))
        for name in sorted(_signal_reads(processes) - writes):
            info = design.signals.get(name)
            if info is None or info.is_input:
                # Input ports are driven by the environment by definition.
                continue
            yield self.diagnostic(
                f"signal '{name}' is read but no process ever drives it; "
                "it is stuck at its initial value",
                source=name,
                target=name,
            )


@rule
class DeadProcessRule(LintRule):
    """A process whose writes reach no output port cannot affect the world."""

    code = "IFA104"
    title = "dead process (no write reaches an output port)"
    default_severity = "warning"
    requires = ("cfg", "flow_graph")

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        design = analysis.design
        ports = design.output_ports
        if not ports:
            # Without output ports nothing can be observed; every process
            # would be trivially "dead", which is noise, not a finding.
            return
        port_nodes: Set[str] = set(ports)
        port_nodes.update(outgoing_node(port) for port in ports)
        observed = self._reaching(analysis.graph, port_nodes)
        for process in _processes(analysis):
            written = sorted(process.written_signals())
            if any(
                node in observed
                for signal in written
                for node in (signal, outgoing_node(signal))
            ):
                continue
            yield self.diagnostic(
                f"process '{process.name}' writes "
                f"{{{', '.join(written)}}} but none of it reaches an output "
                "port; the process cannot affect the design's outputs"
                if written
                else f"process '{process.name}' writes no signal at all; it "
                "cannot affect the design's outputs",
                source=process.name,
                target=process.name,
                path=tuple(written),
            )

    @staticmethod
    def _reaching(graph: "FlowGraph", targets: Set[str]) -> Set[str]:
        """The nodes of ``graph`` in ``targets`` or with a path into them.

        One backward search from the ports serves every process, where a
        forward search per process would cost O(processes × graph).
        """
        seen = {node for node in targets if graph.has_node(node)}
        pending = list(seen)
        while pending:
            for node in graph.predecessors(pending.pop()):
                if node not in seen:
                    seen.add(node)
                    pending.append(node)
        return seen


@rule
class SensitivityRule(LintRule):
    """A signal read but absent from every wait set desynchronises the process."""

    code = "IFA105"
    title = "incomplete sensitivity list"
    default_severity = "warning"
    requires = ("cfg",)

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        for process in _processes(analysis):
            if process.synthesized:
                # Concurrent assignments get their sensitivity synthesised
                # from their own expression; it is complete by construction.
                continue
            sensitivity = process.wait_sensitivity()
            if not sensitivity:
                # No wait carries a signal set: there is no sensitivity list
                # to be incomplete (e.g. pure `wait until` synchronisation).
                continue
            for name in sorted(process.expression_reads() - sensitivity):
                yield self.diagnostic(
                    f"process '{process.name}' reads signal '{name}' but no "
                    "wait statement is sensitive to it; the process will not "
                    "re-run when the signal changes",
                    source=process.name,
                    target=name,
                )


@rule
class CombinationalLoopRule(LintRule):
    """A signal cycle with no clocked driver oscillates combinationally."""

    code = "IFA106"
    title = "combinational feedback loop"
    default_severity = "error"
    requires = ("cfg", "flow_graph")

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        loops = self._signal_loops(analysis)
        if not loops:
            return
        processes = analysis.program_cfg.processes
        drivers_of = _drivers(_processes(analysis))
        for members in loops:
            member_set = set(members)
            drivers = sorted(
                {name for signal in members for name in drivers_of.get(signal, ())}
            )
            if any(
                self._is_clocked(processes[name].process, member_set)
                for name in drivers
            ):
                continue
            yield self.diagnostic(
                "combinational feedback loop through signals "
                f"{{{', '.join(members)}}} (driven by {', '.join(drivers)}); "
                "no driver is gated by a clock outside the loop",
                source=members[0],
                target=members[0],
                path=tuple(members),
            )

    @staticmethod
    def _signal_loops(analysis: "AnalysisResult") -> List[List[str]]:
        """The sorted members of every cycle of two or more signals.

        The signal graph is the flow graph with ``n◦`` and ``n•`` merged
        into ``n``, restricted to signals, without self loops — what
        ``collapse_environment_nodes`` then ``restricted_to`` give, built
        in one pass over the signal edges.
        """
        signals = analysis.design.signals
        graph = analysis.graph
        signal_of = {
            node: base
            for node in graph.nodes
            if (base := base_resource(node)) in signals
        }
        successors: Dict[str, Set[str]] = {}
        for source, target in graph.restricted_to(signal_of).iter_edges():
            if signal_of[source] != signal_of[target]:
                successors.setdefault(signal_of[source], set()).add(signal_of[target])
        edges = {node: tuple(sorted(targets)) for node, targets in successors.items()}
        _, components = _strongly_connected_components(edges, edges)
        return [sorted(component) for component in components if len(component) > 1]

    @staticmethod
    def _is_clocked(process: Process, loop_signals: Set[str]) -> bool:
        """True when the process only wakes on signals outside the loop."""
        sensitivity = process.wait_sensitivity()
        return bool(sensitivity) and sensitivity.isdisjoint(loop_signals)


@rule
class UnreachableStatementRule(LintRule):
    """A CFG node with no path from the process entry never executes."""

    code = "IFA107"
    title = "unreachable statement"
    default_severity = "warning"
    requires = ("cfg",)

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        for name in sorted(analysis.program_cfg.processes):
            cfg = analysis.program_cfg.processes[name]
            for label in sorted(cfg.body_labels - self._reachable(cfg)):
                kind = cfg.blocks[label].kind.name.lower()
                yield self.diagnostic(
                    f"statement at label {label} ({kind}) in process "
                    f"'{name}' is unreachable from the process entry",
                    source=name,
                    target=f"L{label}",
                )

    @staticmethod
    def _reachable(cfg: ProcessCFG) -> FrozenSet[int]:
        successors: Dict[int, List[int]] = {}
        for src, dst in cfg.flow:
            successors.setdefault(src, []).append(dst)
        seen: Set[int] = {cfg.entry_label}
        stack: List[int] = [cfg.entry_label]
        while stack:
            for succ in successors.get(stack.pop(), ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return frozenset(seen)


@rule
class ShadowedAssignmentRule(LintRule):
    """A variable definition killed before any use has no effect."""

    code = "IFA108"
    title = "shadowed variable assignment"
    default_severity = "info"
    requires = ("cfg", "reaching")

    def check(self, analysis: "AnalysisResult") -> Iterator[Diagnostic]:
        entry = analysis.reaching.entry
        for name in sorted(analysis.program_cfg.processes):
            cfg = analysis.program_cfg.processes[name]
            if not cfg.process.variables:
                # Only declared variables can be assigned (elaboration checks).
                continue
            assignments: List[Tuple[str, int]] = []
            definitions: Dict[str, Set[Tuple[str, int]]] = {}
            for label in sorted(cfg.body_labels):
                block = cfg.blocks[label]
                if block.kind is BlockKind.VARIABLE_ASSIGN:
                    definition = (block.statement.target, label)
                    assignments.append(definition)
                    definitions.setdefault(definition[0], set()).add(definition)
            # The definitions that reach a read of their own variable.
            used: Set[Tuple[str, int]] = set()
            for variable, read_labels in cfg.process.variable_reads().items():
                defined = definitions.get(variable)
                if defined:
                    for read_label in read_labels:
                        used |= defined.intersection(entry.get(read_label, ()))
            for variable, label in assignments:
                if (variable, label) in used:
                    continue
                yield self.diagnostic(
                    f"assignment to variable '{variable}' at label {label} "
                    f"in process '{name}' is shadowed: the definition never "
                    "reaches a use (killed by a later assignment, or the "
                    "variable is never read)",
                    source=name,
                    target=variable,
                    path=(f"L{label}",),
                )
