"""Labelling scheme for VHDL1 processes.

Each *elementary block* — an assignment, ``null``, ``wait`` statement or the
guard expression of an ``if``/``while`` — receives a label that is unique
across the whole program (the paper: "each block has a label which is
initially unique for the program … the same label is not found in two
different processes", so a label determines its process).

Labels are stamped onto the AST nodes in place (``Statement.label``) and also
collected into :class:`Block` records that the analyses consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from repro.vhdl import ast


class BlockKind(Enum):
    """The kind of an elementary block."""

    NULL = "null"
    VARIABLE_ASSIGN = "variable-assign"
    SIGNAL_ASSIGN = "signal-assign"
    WAIT = "wait"
    IF_GUARD = "if-guard"
    WHILE_GUARD = "while-guard"


@dataclass(frozen=True)
class Block:
    """An elementary block ``[B]^l`` belonging to process ``process_name``."""

    label: int
    kind: BlockKind
    statement: ast.Statement
    process_name: str

    def __repr__(self) -> str:
        return f"Block(l={self.label}, {self.kind.value}, process={self.process_name})"

    @property
    def is_guard(self) -> bool:
        """True for ``if``/``while`` guard blocks."""
        return self.kind in (BlockKind.IF_GUARD, BlockKind.WHILE_GUARD)


class LabelAllocator:
    """Hands out program-unique labels, starting from 1."""

    def __init__(self, start: int = 1):
        self._next = start
        self._count = 0

    def fresh(self) -> int:
        """Return the next unused label."""
        label = self._next
        self._next += 1
        self._count += 1
        return label

    @property
    def allocated(self) -> int:
        """Number of labels handed out so far."""
        return self._count


_STATEMENT_KINDS = {
    ast.Null: BlockKind.NULL,
    ast.VariableAssign: BlockKind.VARIABLE_ASSIGN,
    ast.SignalAssign: BlockKind.SIGNAL_ASSIGN,
    ast.Wait: BlockKind.WAIT,
    ast.If: BlockKind.IF_GUARD,
    ast.While: BlockKind.WHILE_GUARD,
}


def label_statements(
    statements: List[ast.Statement],
    process_name: str,
    allocator: LabelAllocator,
    blocks: Optional[Dict[int, Block]] = None,
) -> Dict[int, Block]:
    """Stamp labels onto every elementary block of ``statements``.

    Labels are assigned in textual (pre-order) order.  Returns the mapping
    from labels to :class:`Block` records (extending ``blocks`` if given).
    """
    if blocks is None:
        blocks = {}
    for stmt in statements:
        kind = _STATEMENT_KINDS.get(type(stmt))
        if kind is None:
            raise TypeError(f"cannot label statement of type {type(stmt).__name__}")
        stmt.label = allocator.fresh()
        blocks[stmt.label] = Block(
            label=stmt.label,
            kind=kind,
            statement=stmt,
            process_name=process_name,
        )
        if isinstance(stmt, ast.If):
            label_statements(stmt.then_branch, process_name, allocator, blocks)
            label_statements(stmt.else_branch, process_name, allocator, blocks)
        elif isinstance(stmt, ast.While):
            label_statements(stmt.body, process_name, allocator, blocks)
    return blocks
