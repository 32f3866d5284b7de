"""Local dependency analysis: the structural rules of Table 6.

For every process ``i`` the judgement ``B ⊢ ss : RM`` collects the *local*
Resource Matrix entries of its body, where ``B ⊆ Var ∪ Sig`` is the set of
variables and signals the statement's reachability depends on (the guards of
the enclosing ``if``/``while`` statements — the source of implicit flows).

Rules (paraphrased):

* ``[x := e]^l`` modifies ``x`` (``M0``) and reads ``FV(e) ∪ FS(e) ∪ B`` (``R0``);
* ``[s <= e]^l`` modifies the *active* value of ``s`` (``M1``) and reads
  ``FV(e) ∪ FS(e) ∪ B`` (``R0``);
* ``null`` contributes nothing;
* ``if``/``while`` extend ``B`` with the free variables and signals of their
  guard for the analysis of their branches/body (no entries of their own —
  termination and timing channels are out of scope, as in the paper);
* ``[wait on S until e]^l`` records the synchronisation of the active values of
  every signal of the process (``R1`` for ``FS(ss_i)``) and reads
  ``B ∪ S ∪ FV(e) ∪ FS(e)`` (``R0``).

``local_dependencies`` analyses one process (with ``B = ∅`` at the top level,
as in Section 5.2) and ``local_resource_matrix`` unions the per-process
results into ``RM_lo``.  Each statement's names are interned in sorted
order, so the universe's fact order follows from the program, not from the
interpreter's hash seed.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Sequence, Set

from repro.analysis.resource_matrix import Access, ResourceMatrix
from repro.cfg.builder import ProgramCFG
from repro.dataflow.universe import FactUniverse
from repro.vhdl import ast
from repro.vhdl.elaborate import Process


def _expression_reads(expr: ast.Expression) -> Set[str]:
    """``FV(e) ∪ FS(e)`` — every variable or signal read by ``expr``."""
    return set(ast.free_variables_expr(expr)) | set(ast.free_signals_expr(expr))


def _analyze_statements(
    statements: Sequence[ast.Statement],
    block_set: FrozenSet[str],
    process_signals: FrozenSet[str],
    matrix: ResourceMatrix,
) -> None:
    for stmt in statements:
        _analyze_statement(stmt, block_set, process_signals, matrix)


def _analyze_statement(
    stmt: ast.Statement,
    block_set: FrozenSet[str],
    process_signals: FrozenSet[str],
    matrix: ResourceMatrix,
) -> None:
    if stmt.label is None and not isinstance(stmt, (ast.If, ast.While)):
        raise ValueError("statements must be labelled before the dependency analysis")

    if isinstance(stmt, ast.Null):
        return

    if isinstance(stmt, ast.VariableAssign):
        matrix.add(stmt.target, stmt.label, Access.M0)
        for name in sorted(_expression_reads(stmt.value) | block_set):
            matrix.add(name, stmt.label, Access.R0)
        return

    if isinstance(stmt, ast.SignalAssign):
        matrix.add(stmt.target, stmt.label, Access.M1)
        for name in sorted(_expression_reads(stmt.value) | block_set):
            matrix.add(name, stmt.label, Access.R0)
        return

    if isinstance(stmt, ast.Wait):
        for signal in sorted(process_signals):
            matrix.add(signal, stmt.label, Access.R1)
        reads = set(block_set) | set(stmt.signals)
        if stmt.condition is not None:
            reads |= _expression_reads(stmt.condition)
        for name in sorted(reads):
            matrix.add(name, stmt.label, Access.R0)
        return

    if isinstance(stmt, ast.If):
        extended = frozenset(set(block_set) | _expression_reads(stmt.condition))
        _analyze_statements(stmt.then_branch, extended, process_signals, matrix)
        _analyze_statements(stmt.else_branch, extended, process_signals, matrix)
        return

    if isinstance(stmt, ast.While):
        extended = frozenset(set(block_set) | _expression_reads(stmt.condition))
        _analyze_statements(stmt.body, extended, process_signals, matrix)
        return

    raise TypeError(f"unsupported statement {type(stmt).__name__}")


def local_dependencies(
    process: Process,
    block_set: Iterable[str] = (),
    universe: Optional[FactUniverse] = None,
) -> ResourceMatrix:
    """``B ⊢ ss_i : RM_i`` for one process (``B = ∅`` unless overridden)."""
    matrix = ResourceMatrix(universe=universe)
    process_signals = frozenset(process.free_signals())
    _analyze_statements(
        process.body, frozenset(block_set), process_signals, matrix
    )
    return matrix


def local_resource_matrix(program_cfg: ProgramCFG) -> ResourceMatrix:
    """``RM_lo = ⋃_i RM_i`` where ``∅ ⊢ ss_i : RM_i`` (Section 5.2).

    All per-process matrices are interned into one fresh name universe, so
    the union is a plain per-label bitwise OR.
    """
    matrix = ResourceMatrix()
    for name in program_cfg.process_order:
        process = program_cfg.processes[name].process
        matrix.update(
            local_dependencies(process, universe=matrix.universe)
        )
    return matrix
