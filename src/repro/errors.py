"""Exception hierarchy for the VHDL information-flow toolchain.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single exception type at the API boundary.  Frontend errors carry
source positions where available.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass
from typing import Iterator, Optional


class ReproError(Exception):
    """Base class for all errors raised by the library."""


@contextlib.contextmanager
def nesting_limit(where: str) -> Iterator[None]:
    """Turn a ``RecursionError`` in the block into a :class:`ReproError`.

    The parser, the elaborator and the analyses recurse over nested
    expressions and statements, so a design nested past Python's recursion
    limit is an input they cannot take, not a crash.
    """
    try:
        yield
    except RecursionError:
        raise ReproError(
            f"the design nests too deeply for {where} (Python's recursion "
            f"limit of {sys.getrecursionlimit()} was reached)"
        ) from None


@dataclass(frozen=True)
class SourcePosition:
    """A position in VHDL source text (1-based line and column)."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class LexerError(ReproError):
    """Raised when the lexer encounters an unrecognised character sequence."""

    def __init__(self, message: str, position: Optional[SourcePosition] = None):
        self.position = position
        if position is not None:
            message = f"{message} at {position}"
        super().__init__(message)


class ParseError(ReproError):
    """Raised when the parser cannot derive a VHDL1 construct."""

    def __init__(self, message: str, position: Optional[SourcePosition] = None):
        self.position = position
        if position is not None:
            message = f"{message} at {position}"
        super().__init__(message)


class ElaborationError(ReproError):
    """Raised when a parsed program cannot be elaborated into a design.

    Examples: an architecture referring to a missing entity, duplicate process
    identifiers, ports used inconsistently with their declared mode.
    """


class HierarchyError(ElaborationError):
    """Raised for structural faults in a hierarchical design.

    Examples: an instantiation naming an unknown component, a port map whose
    arity or formal names do not match the component interface, an
    instantiation cycle, or port aliasing the compositional linker cannot
    reproduce exactly.
    """


class SimulationError(ReproError):
    """Raised when the delta-cycle simulator encounters a runtime error."""


class AnalysisError(ReproError):
    """Raised when one of the static analyses is mis-configured."""


class SolverError(ReproError):
    """Raised by the Datalog-style constraint solver (malformed clauses)."""


class PolicyError(ReproError):
    """Raised by the security-policy layer for ill-formed policies."""
