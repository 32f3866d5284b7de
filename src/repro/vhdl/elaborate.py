"""Elaboration of parsed VHDL1 programs into analysable designs (Section 3.3).

Elaboration performs the rewrites the paper describes for architectures:

* concurrent signal assignments become processes that are sensitive to the
  free signals of their right-hand side (``s <= e`` becomes
  ``process begin s <= e; wait on FS(e); end``);
* ``block`` statements are flattened — their locally declared signals are
  hoisted into the design's signal scope and their concurrent statements are
  elaborated in that extended scope;
* process sensitivity lists are desugared to a trailing ``wait on`` statement
  (standard VHDL equivalence);
* vector objects declared with the ``to`` specifier are normalised to
  ``downto`` and every slice reference to them is re-indexed accordingly;
* every name occurrence is resolved to *variable* or *signal* (the analyses'
  ``FV``/``FS`` distinction relies on this).

The result is a :class:`Design`: a flat set of signals (ports plus internal
signals) and a list of :class:`Process` objects with resolved bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ElaborationError
from repro.vhdl import ast
from repro.vhdl.clone import clone_statement, clone_statements


@dataclass
class SignalInfo:
    """A signal visible to the whole design (port or internal signal)."""

    name: str
    sig_type: ast.TypeNode
    initial: Optional[ast.Expression] = None
    is_port: bool = False
    mode: Optional[ast.PortMode] = None

    @property
    def width(self) -> Optional[int]:
        """Vector width, or ``None`` for scalar ``std_logic`` signals."""
        return self.sig_type.width if isinstance(self.sig_type, ast.StdLogicVectorType) else None

    @property
    def is_input(self) -> bool:
        """True for ``in`` ports."""
        return self.is_port and self.mode is ast.PortMode.IN

    @property
    def is_output(self) -> bool:
        """True for ``out`` ports."""
        return self.is_port and self.mode is ast.PortMode.OUT


@dataclass
class VariableInfo:
    """A process-local variable."""

    name: str
    var_type: ast.TypeNode
    initial: Optional[ast.Expression] = None

    @property
    def width(self) -> Optional[int]:
        """Vector width, or ``None`` for scalar variables."""
        return self.var_type.width if isinstance(self.var_type, ast.StdLogicVectorType) else None


@dataclass
class Process:
    """An elaborated process: resolved body plus its local variables."""

    name: str
    variables: Dict[str, VariableInfo] = field(default_factory=dict)
    body: List[ast.Statement] = field(default_factory=list)
    synthesized: bool = False
    """True when the process was produced by elaboration (concurrent assignment)."""

    def free_signals(self) -> set:
        """``FS(ss_i)``: the signals the process reads, writes or waits on."""
        return ast.free_signals_stmt(self.body)

    def free_variables(self) -> set:
        """``FV(ss_i)``: the variables the process reads or writes."""
        return ast.free_variables_stmt(self.body)

    def expression_reads(self) -> Set[str]:
        """Signals the process's expressions read (its wait sensitivity apart)."""
        reads: Set[str] = set()
        for stmt in ast.iter_statements(self.body):
            if isinstance(stmt, (ast.SignalAssign, ast.VariableAssign)):
                reads |= ast.free_signals_expr(stmt.value)
            elif isinstance(stmt, (ast.If, ast.While, ast.Wait)):
                reads |= ast.free_signals_expr(stmt.condition)
        return reads

    def wait_sensitivity(self) -> Set[str]:
        """The union of the signal sets of the process's wait statements."""
        return {
            name
            for stmt in ast.iter_statements(self.body)
            if isinstance(stmt, ast.Wait)
            for name in stmt.signals
        }

    def written_signals(self) -> Set[str]:
        """The signals the process assigns."""
        return ast.written_signals(self.body)

    def variable_reads(self) -> Dict[str, Set[int]]:
        """Variable → the labels of the blocks that read it.

        Only meaningful once the body is labelled (:mod:`repro.cfg.labels`).
        """
        reads_at: Dict[str, Set[int]] = {}
        for stmt in ast.iter_statements(self.body):
            if isinstance(stmt, (ast.SignalAssign, ast.VariableAssign)):
                reads = ast.free_variables_expr(stmt.value)
            elif isinstance(stmt, (ast.If, ast.While, ast.Wait)):
                reads = ast.free_variables_expr(stmt.condition)
            else:
                continue
            for variable in reads:
                reads_at.setdefault(variable, set()).add(stmt.label)
        return reads_at


@dataclass
class Design:
    """An elaborated VHDL1 design ready for simulation and analysis."""

    name: str
    entity_name: str
    architecture_name: str
    signals: Dict[str, SignalInfo] = field(default_factory=dict)
    processes: List[Process] = field(default_factory=list)

    @property
    def input_ports(self) -> List[str]:
        """Names of ``in`` ports, in declaration order."""
        return [s.name for s in self.signals.values() if s.is_input]

    @property
    def output_ports(self) -> List[str]:
        """Names of ``out`` ports, in declaration order."""
        return [s.name for s in self.signals.values() if s.is_output]

    @property
    def internal_signals(self) -> List[str]:
        """Names of non-port signals, in declaration order."""
        return [s.name for s in self.signals.values() if not s.is_port]

    def process(self, name: str) -> Process:
        """Look up a process by name."""
        for proc in self.processes:
            if proc.name == name:
                return proc
        raise KeyError(name)

    def variable_names(self) -> List[str]:
        """All process-local variable names, across all processes."""
        names: List[str] = []
        for proc in self.processes:
            names.extend(proc.variables)
        return names


# ---------------------------------------------------------------------------
# Normalisation of `to` ranges
# ---------------------------------------------------------------------------


class _RangeNormalizer:
    """Re-indexes slice references for objects declared with ``to`` ranges.

    For an object declared ``std_logic_vector(l to r)`` we store the offset
    ``l + r``; its normalised declaration is ``(r downto l)`` and a reference
    ``name(z1 to z2)`` becomes ``name(offset - z1 downto offset - z2)``.
    """

    def __init__(self) -> None:
        self._offsets: Dict[str, int] = {}

    def register(self, name: str, type_node: ast.TypeNode) -> ast.TypeNode:
        """Record the object's declared range and return the normalised type."""
        if (
            isinstance(type_node, ast.StdLogicVectorType)
            and type_node.direction is ast.RangeDirection.TO
        ):
            self._offsets[name] = type_node.left + type_node.right
            return type_node.normalized()
        return type_node

    def normalize_slice(
        self, name: str, left: int, right: int, direction: ast.RangeDirection
    ) -> Tuple[int, int]:
        """Map a slice reference to the normalised ``downto`` indices."""
        if name in self._offsets:
            offset = self._offsets[name]
            if direction is ast.RangeDirection.TO or left <= right:
                return offset - left, offset - right
            # a downto-style reference to a `to` object: interpret indices
            # directly in the normalised numbering
            return left, right
        if direction is ast.RangeDirection.TO:
            # object declared downto but referenced with `to`: swap bounds
            return right, left
        return left, right


# ---------------------------------------------------------------------------
# Elaborator
# ---------------------------------------------------------------------------


class Elaborator:
    """Turns one entity/architecture pair into a :class:`Design`."""

    def __init__(self, program: ast.Program, entity_name: Optional[str] = None):
        self._program = program
        self._entity, self._architecture = self._select_units(entity_name)
        self._normalizer = _RangeNormalizer()
        self._signals: Dict[str, SignalInfo] = {}
        self._processes: List[Process] = []
        self._synth_counter = 0

    # -- unit selection ----------------------------------------------------------

    def _select_units(
        self, entity_name: Optional[str]
    ) -> Tuple[ast.Entity, ast.Architecture]:
        program = self._program
        if not program.architectures:
            raise ElaborationError("program contains no architecture")
        if entity_name is None:
            if len(program.architectures) > 1:
                names = ", ".join(a.entity_name for a in program.architectures)
                raise ElaborationError(
                    f"program has several architectures ({names}); "
                    "pass entity_name to select one"
                )
            architecture = program.architectures[0]
            entity_name = architecture.entity_name
        else:
            architecture = program.architecture_of(entity_name)
            if architecture is None:
                raise ElaborationError(
                    f"no architecture found for entity {entity_name!r}"
                )
        entity = program.entity(entity_name)
        if entity is None:
            raise ElaborationError(f"entity {entity_name!r} is not declared")
        return entity, architecture

    # -- main entry point ----------------------------------------------------------

    def elaborate(self) -> Design:
        """Run elaboration and return the resulting design."""
        self._collect_ports()
        self._collect_architecture_signals()
        # blocks may add signals; collect them before resolving process bodies
        flattened = self._flatten_concurrent(self._architecture.body)
        for stmt in flattened:
            self._elaborate_concurrent(stmt)
        design = Design(
            name=self._entity.name,
            entity_name=self._entity.name,
            architecture_name=self._architecture.name,
            signals=self._signals,
            processes=self._processes,
        )
        self._check_design(design)
        return design

    # -- signal scope ---------------------------------------------------------------

    def _collect_ports(self) -> None:
        for port in self._entity.ports:
            if port.name in self._signals:
                raise ElaborationError(f"duplicate port name {port.name!r}")
            normalized = self._normalizer.register(port.name, port.port_type)
            self._signals[port.name] = SignalInfo(
                name=port.name,
                sig_type=normalized,
                is_port=True,
                mode=port.mode,
            )

    def _collect_architecture_signals(self) -> None:
        for decl in self._architecture.declarations:
            self._add_signal_declaration(decl)

    def _add_signal_declaration(self, decl: ast.Declaration) -> None:
        if isinstance(decl, ast.VariableDeclaration):
            raise ElaborationError(
                f"variable {decl.name!r} declared outside a process"
            )
        if isinstance(decl, ast.ComponentDeclaration):
            raise ElaborationError(
                f"component {decl.name!r} cannot be elaborated flat; analyse "
                "the design through the hierarchy layer (repro.hier) or "
                "flatten it first"
            )
        if not isinstance(decl, ast.SignalDeclaration):
            raise ElaborationError(f"unsupported declaration {decl!r}")
        if decl.name in self._signals:
            raise ElaborationError(f"duplicate signal name {decl.name!r}")
        normalized = self._normalizer.register(decl.name, decl.sig_type)
        self._signals[decl.name] = SignalInfo(
            name=decl.name,
            sig_type=normalized,
            initial=decl.initial,
        )

    # -- blocks ------------------------------------------------------------------------

    def _flatten_concurrent(
        self, statements: List[ast.ConcurrentStatement]
    ) -> List[ast.ConcurrentStatement]:
        """Hoist block-local signals and splice block bodies in place."""
        result: List[ast.ConcurrentStatement] = []
        for stmt in statements:
            if isinstance(stmt, ast.BlockStatement):
                for decl in stmt.declarations:
                    self._add_signal_declaration(decl)
                result.extend(self._flatten_concurrent(stmt.body))
            else:
                result.append(stmt)
        return result

    # -- concurrent statements ------------------------------------------------------------

    def _elaborate_concurrent(self, stmt: ast.ConcurrentStatement) -> None:
        if isinstance(stmt, ast.ConcurrentAssign):
            self._processes.append(self._rewrite_concurrent_assign(stmt))
        elif isinstance(stmt, ast.ProcessStatement):
            self._processes.append(self._elaborate_process(stmt))
        elif isinstance(stmt, ast.ComponentInstantiation):
            raise ElaborationError(
                f"component instantiation {stmt.label!r} cannot be elaborated "
                "flat; analyse the design through the hierarchy layer "
                "(repro.hier) or flatten it first"
            )
        else:
            raise ElaborationError(
                f"unsupported concurrent statement {type(stmt).__name__}"
            )

    def _rewrite_concurrent_assign(self, stmt: ast.ConcurrentAssign) -> Process:
        """``s <= e`` becomes a process assigning then waiting on ``FS(e)``."""
        assignment = clone_statement(stmt.assignment)
        self._synth_counter += 1
        name = f"concurrent_{self._synth_counter}"
        sensitivity = sorted(
            ident
            for ident in ast.free_names(assignment.value)
            if ident in self._signals
        )
        body: List[ast.Statement] = [assignment]
        body.append(
            ast.Wait(
                position=stmt.position,
                signals=tuple(sensitivity),
                condition=None,
            )
        )
        process = Process(name=name, body=body, synthesized=True)
        self._resolve_process(process)
        return process

    def _elaborate_process(self, stmt: ast.ProcessStatement) -> Process:
        if any(proc.name == stmt.name for proc in self._processes):
            raise ElaborationError(f"duplicate process name {stmt.name!r}")
        variables: Dict[str, VariableInfo] = {}
        for decl in stmt.declarations:
            if isinstance(decl, ast.SignalDeclaration):
                raise ElaborationError(
                    f"signal {decl.name!r} declared inside process {stmt.name!r}; "
                    "VHDL1 signals must be declared in blocks or architectures"
                )
            if not isinstance(decl, ast.VariableDeclaration):
                raise ElaborationError(f"unsupported declaration {decl!r}")
            if decl.name in variables:
                raise ElaborationError(
                    f"duplicate variable {decl.name!r} in process {stmt.name!r}"
                )
            if decl.name in self._signals:
                raise ElaborationError(
                    f"variable {decl.name!r} in process {stmt.name!r} shadows a signal"
                )
            normalized = self._normalizer.register(decl.name, decl.var_type)
            variables[decl.name] = VariableInfo(
                name=decl.name, var_type=normalized, initial=decl.initial
            )
        body = clone_statements(stmt.body)
        if stmt.sensitivity:
            # standard VHDL equivalence: sensitivity list == trailing wait on
            body.append(
                ast.Wait(position=stmt.position, signals=tuple(stmt.sensitivity))
            )
        process = Process(name=stmt.name, variables=variables, body=body)
        self._resolve_process(process)
        return process

    # -- name resolution --------------------------------------------------------------------

    def _resolve_process(self, process: Process) -> None:
        for stmt in ast.iter_statements(process.body):
            self._resolve_statement(stmt, process)

    def _resolve_statement(self, stmt: ast.Statement, process: Process) -> None:
        if isinstance(stmt, ast.VariableAssign):
            if stmt.target not in process.variables:
                raise ElaborationError(
                    f"assignment to undeclared variable {stmt.target!r} "
                    f"in process {process.name!r}"
                )
            stmt.target_slice = self._normalize_target_slice(stmt.target, stmt.target_slice)
            self._resolve_expression(stmt.value, process)
        elif isinstance(stmt, ast.SignalAssign):
            if stmt.target not in self._signals:
                raise ElaborationError(
                    f"assignment to undeclared signal {stmt.target!r} "
                    f"in process {process.name!r}"
                )
            stmt.target_slice = self._normalize_target_slice(stmt.target, stmt.target_slice)
            self._resolve_expression(stmt.value, process)
        elif isinstance(stmt, ast.Wait):
            for name in stmt.signals:
                if name not in self._signals:
                    raise ElaborationError(
                        f"wait on undeclared signal {name!r} in process {process.name!r}"
                    )
            if stmt.condition is not None:
                self._resolve_expression(stmt.condition, process)
            if not stmt.signals and stmt.condition is not None:
                stmt.signals = tuple(sorted(ast.free_signals_expr(stmt.condition)))
        elif isinstance(stmt, (ast.If, ast.While)):
            self._resolve_expression(stmt.condition, process)
        # Null has nothing to resolve; nested statements are visited by the caller

    def _normalize_target_slice(self, name, target_slice):
        if target_slice is None:
            return None
        left, right, direction = target_slice
        left, right = self._normalizer.normalize_slice(name, left, right, direction)
        return (left, right, ast.RangeDirection.DOWNTO)

    def _resolve_expression(self, expr: ast.Expression, process: Process) -> None:
        stack: List[ast.Expression] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Name):
                node.kind = self._kind_of(node.ident, process, node)
            elif isinstance(node, ast.SliceName):
                node.kind = self._kind_of(node.ident, process, node)
                node.left, node.right = self._normalizer.normalize_slice(
                    node.ident, node.left, node.right, node.direction
                )
                node.direction = ast.RangeDirection.DOWNTO
            elif isinstance(node, ast.UnaryOp):
                stack.append(node.operand)
            elif isinstance(node, ast.BinaryOp):
                stack.append(node.left)
                stack.append(node.right)

    def _kind_of(self, ident: str, process: Process, node: ast.Expression) -> ast.NameKind:
        if ident in process.variables:
            return ast.NameKind.VARIABLE
        if ident in self._signals:
            return ast.NameKind.SIGNAL
        raise ElaborationError(
            f"undeclared name {ident!r} in process {process.name!r}"
            + (f" at {node.position}" if node.position else "")
        )

    # -- final well-formedness checks ----------------------------------------------------------

    def _check_design(self, design: Design) -> None:
        if not design.processes:
            raise ElaborationError(
                f"architecture {design.architecture_name!r} declares no processes"
            )
        for proc in design.processes:
            for stmt in ast.iter_statements(proc.body):
                if isinstance(stmt, ast.SignalAssign):
                    info = design.signals[stmt.target]
                    if info.is_input:
                        raise ElaborationError(
                            f"process {proc.name!r} assigns to input port {stmt.target!r}"
                        )


def elaborate(program: ast.Program, entity_name: Optional[str] = None) -> Design:
    """Elaborate ``program`` (one entity/architecture pair) into a design.

    ``entity_name`` selects the entity when the program contains several
    architectures; with a single architecture it may be omitted.
    """
    return Elaborator(program, entity_name).elaborate()


def elaborate_source(source: str, entity_name: Optional[str] = None) -> Design:
    """Parse and elaborate VHDL1 source text in one step."""
    from repro.vhdl.parser import parse_program

    return elaborate(parse_program(source), entity_name)
