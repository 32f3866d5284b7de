"""Abstract syntax of the VHDL1 fragment (Figure 1 of the paper).

The grammar reproduced here is::

    pgm  ::= ent | arch | pgm1 pgm2
    ent  ::= entity ie is port(prt); end ie;
    prt  ::= s : in type | s : out type | prt1; prt2
    type ::= std_logic | std_logic_vector(z1 downto z2) | std_logic_vector(z1 to z2)
    arch ::= architecture ia of ie is begin css; end ia;
    css  ::= s <= e | s(z1 downto z2) <= e | s(z1 to z2) <= e
           | ip : process decl; begin ss; end process ip
           | ib : block decl; begin css; end block ib | css1 | css2
    decl ::= variable x : type := e | signal s : type := e | decl1; decl2
    ss   ::= null | x := e | x(z1 downto z2) := e | x(z1 to z2) := e | s <= e
           | s(z1 downto z2) <= e | s(z1 to z2) <= e | wait on S until e
           | ss1; ss2 | if e then ss1 else ss2 | while e do ss
    e    ::= m | a | x | x(z1 downto z2) | x(z1 to z2) | s | s(z1 downto z2)
           | s(z1 to z2) | opum e | e1 opbm e2 | e1 opa e2

Nodes are mutable dataclasses: the elaborator annotates name references with
their resolved kind (variable vs signal) and the labelling pass stamps
statement labels in place.  Sequencing (``ss1; ss2`` and ``css1 | css2``) is
represented with Python lists rather than explicit binary nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Set, Tuple, Union

from repro.errors import SourcePosition


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class RangeDirection(Enum):
    """Direction of a vector range: ``downto`` or ``to``."""

    DOWNTO = "downto"
    TO = "to"


@dataclass
class TypeNode:
    """Base class for VHDL1 type annotations."""

    position: Optional[SourcePosition] = None


@dataclass
class StdLogicType(TypeNode):
    """The scalar ``std_logic`` type."""

    def __str__(self) -> str:
        return "std_logic"

    @property
    def width(self) -> Optional[int]:
        """Scalar types have no width."""
        return None


@dataclass
class StdLogicVectorType(TypeNode):
    """``std_logic_vector(left downto right)`` or ``(left to right)``."""

    left: int = 0
    right: int = 0
    direction: RangeDirection = RangeDirection.DOWNTO

    def __str__(self) -> str:
        return f"std_logic_vector({self.left} {self.direction.value} {self.right})"

    @property
    def width(self) -> int:
        """Number of elements covered by the declared range."""
        return abs(self.left - self.right) + 1

    def normalized(self) -> "StdLogicVectorType":
        """The equivalent ``downto`` type (Section 3.3 normalisation)."""
        if self.direction is RangeDirection.DOWNTO:
            return self
        return StdLogicVectorType(
            position=self.position,
            left=self.right,
            right=self.left,
            direction=RangeDirection.DOWNTO,
        )


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class NameKind(Enum):
    """Resolved kind of a name reference (filled in by elaboration)."""

    UNKNOWN = "unknown"
    VARIABLE = "variable"
    SIGNAL = "signal"


@dataclass
class Expression:
    """Base class for VHDL1 expressions."""

    position: Optional[SourcePosition] = None


@dataclass
class LogicLiteral(Expression):
    """A ``std_logic`` literal such as ``'1'`` (``m`` in the grammar)."""

    value: str = "0"

    def __str__(self) -> str:
        return f"'{self.value}'"


@dataclass
class VectorLiteral(Expression):
    """A ``std_logic_vector`` literal such as ``"1010"`` (``a`` in the grammar)."""

    value: str = ""

    def __str__(self) -> str:
        return f'"{self.value}"'


@dataclass
class IntegerLiteral(Expression):
    """An integer literal; VHDL1 uses these only inside slice bounds, but the
    parser also accepts them in comparisons generated by tooling."""

    value: int = 0

    def __str__(self) -> str:
        return str(self.value)


@dataclass
class Name(Expression):
    """A reference to a variable or signal (possibly not yet resolved)."""

    ident: str = ""
    kind: NameKind = NameKind.UNKNOWN

    def __str__(self) -> str:
        return self.ident


@dataclass
class SliceName(Expression):
    """An indexed/sliced reference ``n(z1 downto z2)`` / ``n(z1 to z2)``."""

    ident: str = ""
    left: int = 0
    right: int = 0
    direction: RangeDirection = RangeDirection.DOWNTO
    kind: NameKind = NameKind.UNKNOWN

    def __str__(self) -> str:
        return f"{self.ident}({self.left} {self.direction.value} {self.right})"


@dataclass
class UnaryOp(Expression):
    """A unary operator application (``not``)."""

    operator: str = "not"
    operand: Expression = field(default_factory=Expression)

    def __str__(self) -> str:
        return f"({self.operator} {self.operand})"


@dataclass
class BinaryOp(Expression):
    """A binary operator application.

    Logical operators (``and``, ``or``, ``xor``, ``nand``, ``nor``, ``xnor``),
    comparisons (``=``, ``/=``, ``<``, ``<=``, ``>``, ``>=``), concatenation
    (``&``) and the arithmetic operators on vectors (``+``, ``-``, ``*``).
    """

    operator: str = "and"
    left: Expression = field(default_factory=Expression)
    right: Expression = field(default_factory=Expression)

    def __str__(self) -> str:
        return f"({self.left} {self.operator} {self.right})"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass
class Declaration:
    """Base class for process/block declarations."""

    position: Optional[SourcePosition] = None


@dataclass
class VariableDeclaration(Declaration):
    """``variable x : type := e`` (the initialiser is optional)."""

    name: str = ""
    var_type: TypeNode = field(default_factory=StdLogicType)
    initial: Optional[Expression] = None

    def __str__(self) -> str:
        init = f" := {self.initial}" if self.initial is not None else ""
        return f"variable {self.name} : {self.var_type}{init}"


@dataclass
class SignalDeclaration(Declaration):
    """``signal s : type := e`` (the initialiser is optional)."""

    name: str = ""
    sig_type: TypeNode = field(default_factory=StdLogicType)
    initial: Optional[Expression] = None

    def __str__(self) -> str:
        init = f" := {self.initial}" if self.initial is not None else ""
        return f"signal {self.name} : {self.sig_type}{init}"


@dataclass
class ComponentDeclaration(Declaration):
    """``component c is port(prt); end component c;`` in a declarative region.

    Declares the interface a :class:`ComponentInstantiation` binds to; the
    hierarchy elaborator resolves the component name against the entities of
    the enclosing :class:`Program`.  ``ports`` reuses the entity :class:`Port`
    shape.
    """

    name: str = ""
    ports: List["Port"] = field(default_factory=list)

    def __str__(self) -> str:
        ports = "; ".join(str(port) for port in self.ports)
        return f"component {self.name} is port({ports}); end component"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Statement:
    """Base class for sequential statements.

    ``label`` is assigned by :mod:`repro.cfg.labels`; for :class:`If` and
    :class:`While` the label belongs to the guard expression (``[e]^l``), as in
    the paper.
    """

    position: Optional[SourcePosition] = None
    label: Optional[int] = None


@dataclass
class Null(Statement):
    """``null`` — the skip statement."""


@dataclass
class VariableAssign(Statement):
    """``x := e`` or ``x(z1 downto z2) := e``.

    ``target_slice`` is ``None`` for whole-variable assignment, otherwise a
    ``(left, right, direction)`` triple.
    """

    target: str = ""
    target_slice: Optional[Tuple[int, int, RangeDirection]] = None
    value: Expression = field(default_factory=Expression)


@dataclass
class SignalAssign(Statement):
    """``s <= e`` or ``s(z1 downto z2) <= e`` (also used as a concurrent
    statement before elaboration rewrites it to a process)."""

    target: str = ""
    target_slice: Optional[Tuple[int, int, RangeDirection]] = None
    value: Expression = field(default_factory=Expression)


@dataclass
class Wait(Statement):
    """``wait on S until e``.

    Both components are optional in the concrete syntax; the parser fills in
    the paper's defaults (``on FS(e)`` and ``until true``).  ``signals`` is the
    waited-on set ``S``; ``condition`` is ``None`` for the default ``true``.
    """

    signals: Tuple[str, ...] = ()
    condition: Optional[Expression] = None


@dataclass
class If(Statement):
    """``if e then ss1 else ss2``; branches are statement lists."""

    condition: Expression = field(default_factory=Expression)
    then_branch: List[Statement] = field(default_factory=list)
    else_branch: List[Statement] = field(default_factory=list)


@dataclass
class While(Statement):
    """``while e do ss``; the body is a statement list."""

    condition: Expression = field(default_factory=Expression)
    body: List[Statement] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Concurrent statements and design units
# ---------------------------------------------------------------------------


@dataclass
class ConcurrentStatement:
    """Base class for concurrent statements."""

    position: Optional[SourcePosition] = None


@dataclass
class ConcurrentAssign(ConcurrentStatement):
    """A concurrent signal assignment ``s <= e`` at architecture level."""

    assignment: SignalAssign = field(default_factory=SignalAssign)


@dataclass
class ProcessStatement(ConcurrentStatement):
    """``ip : process decl; begin ss; end process ip``."""

    name: str = ""
    declarations: List[Declaration] = field(default_factory=list)
    body: List[Statement] = field(default_factory=list)
    sensitivity: Tuple[str, ...] = ()


@dataclass
class BlockStatement(ConcurrentStatement):
    """``ib : block decl; begin css; end block ib``."""

    name: str = ""
    declarations: List[Declaration] = field(default_factory=list)
    body: List[ConcurrentStatement] = field(default_factory=list)


@dataclass
class PortAssociation:
    """One element of a port map: ``formal => actual`` or a positional actual.

    ``formal`` is ``None`` for positional association; ``actual`` is restricted
    to a plain :class:`Name` reference in the supported fragment (hierarchy
    linking renames actual signals, which only simple names permit).
    """

    actual: Expression = field(default_factory=Expression)
    formal: Optional[str] = None
    position: Optional[SourcePosition] = None

    def __str__(self) -> str:
        if self.formal is None:
            return str(self.actual)
        return f"{self.formal} => {self.actual}"


@dataclass
class ComponentInstantiation(ConcurrentStatement):
    """``u1 : comp port map (a => x, b => y);`` at architecture level.

    ``associations`` preserves source order; positional and named forms may be
    mixed (positional entries first), as in full VHDL.
    """

    label: str = ""
    component: str = ""
    associations: List[PortAssociation] = field(default_factory=list)


class PortMode(Enum):
    """Direction of an entity port."""

    IN = "in"
    OUT = "out"


@dataclass
class Port:
    """A single entity port ``s : in type`` / ``s : out type``."""

    name: str = ""
    mode: PortMode = PortMode.IN
    port_type: TypeNode = field(default_factory=StdLogicType)
    position: Optional[SourcePosition] = None

    def __str__(self) -> str:
        return f"{self.name} : {self.mode.value} {self.port_type}"


@dataclass
class Entity:
    """``entity ie is port(prt); end ie;``"""

    name: str = ""
    ports: List[Port] = field(default_factory=list)
    position: Optional[SourcePosition] = None


@dataclass
class Architecture:
    """``architecture ia of ie is begin css; end ia;``

    The declarative part is permitted to carry signal declarations; the paper
    obtains such signals through ``block`` statements, and elaboration flattens
    blocks into exactly this form.
    """

    name: str = ""
    entity_name: str = ""
    declarations: List[Declaration] = field(default_factory=list)
    body: List[ConcurrentStatement] = field(default_factory=list)
    position: Optional[SourcePosition] = None


@dataclass
class Program:
    """A VHDL1 program: a sequence of entities and architectures."""

    entities: List[Entity] = field(default_factory=list)
    architectures: List[Architecture] = field(default_factory=list)

    def entity(self, name: str) -> Optional[Entity]:
        """Look up an entity by (case-insensitive) name."""
        for entity in self.entities:
            if entity.name.lower() == name.lower():
                return entity
        return None

    def architecture_of(self, entity_name: str) -> Optional[Architecture]:
        """The first architecture attached to ``entity_name``, if any."""
        for arch in self.architectures:
            if arch.entity_name.lower() == entity_name.lower():
                return arch
        return None


# ---------------------------------------------------------------------------
# Free variables / free signals (FV and FS of the paper)
# ---------------------------------------------------------------------------


def _names_in_expression(expr: Expression) -> Set[Tuple[str, NameKind]]:
    result: Set[Tuple[str, NameKind]] = set()
    stack: List[Expression] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (Name, SliceName)):
            result.add((node.ident, node.kind))
        elif isinstance(node, UnaryOp):
            stack.append(node.operand)
        elif isinstance(node, BinaryOp):
            stack.append(node.left)
            stack.append(node.right)
    return result


def free_names(expr: Optional[Expression]) -> Set[str]:
    """All identifiers occurring in ``expr`` regardless of their kind."""
    if expr is None:
        return set()
    return {name for name, _ in _names_in_expression(expr)}


def free_variables_expr(expr: Optional[Expression]) -> Set[str]:
    """``FV(e)``: identifiers resolved as local variables occurring in ``expr``."""
    if expr is None:
        return set()
    return {
        name
        for name, kind in _names_in_expression(expr)
        if kind is NameKind.VARIABLE
    }


def free_signals_expr(expr: Optional[Expression]) -> Set[str]:
    """``FS(e)``: identifiers resolved as signals occurring in ``expr``."""
    if expr is None:
        return set()
    return {
        name for name, kind in _names_in_expression(expr) if kind is NameKind.SIGNAL
    }


def _walk_statements(statements: Sequence[Statement]):
    """Yield every statement in a statement list, recursing into branches."""
    for stmt in statements:
        yield stmt
        if isinstance(stmt, If):
            yield from _walk_statements(stmt.then_branch)
            yield from _walk_statements(stmt.else_branch)
        elif isinstance(stmt, While):
            yield from _walk_statements(stmt.body)


def iter_statements(statements: Sequence[Statement]):
    """Public iterator over all statements (pre-order), including nested ones."""
    return _walk_statements(statements)


def free_variables_stmt(statements: Sequence[Statement]) -> Set[str]:
    """``FV(ss)``: variables read or written anywhere in the statement list."""
    result: Set[str] = set()
    for stmt in _walk_statements(statements):
        if isinstance(stmt, VariableAssign):
            result.add(stmt.target)
            result |= free_variables_expr(stmt.value)
        elif isinstance(stmt, SignalAssign):
            result |= free_variables_expr(stmt.value)
        elif isinstance(stmt, Wait):
            result |= free_variables_expr(stmt.condition)
        elif isinstance(stmt, (If, While)):
            result |= free_variables_expr(stmt.condition)
    return result


def free_signals_stmt(statements: Sequence[Statement]) -> Set[str]:
    """``FS(ss)``: signals read, written or waited on in the statement list."""
    result: Set[str] = set()
    for stmt in _walk_statements(statements):
        if isinstance(stmt, SignalAssign):
            result.add(stmt.target)
            result |= free_signals_expr(stmt.value)
        elif isinstance(stmt, VariableAssign):
            result |= free_signals_expr(stmt.value)
        elif isinstance(stmt, Wait):
            result |= set(stmt.signals)
            result |= free_signals_expr(stmt.condition)
        elif isinstance(stmt, (If, While)):
            result |= free_signals_expr(stmt.condition)
    return result


def written_signals(statements: Sequence[Statement]) -> Set[str]:
    """Signals appearing on the left-hand side of ``<=`` in the list."""
    return {
        stmt.target
        for stmt in _walk_statements(statements)
        if isinstance(stmt, SignalAssign)
    }


Node = Union[
    Expression,
    Statement,
    Declaration,
    ConcurrentStatement,
    Entity,
    Architecture,
    Program,
    Port,
    PortAssociation,
    TypeNode,
]
"""Union of every AST node type, for typing convenience in client code."""
