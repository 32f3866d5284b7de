"""Construction of per-process and whole-program control-flow graphs.

Following the paper, each process body ``ss_i`` is analysed as if it were::

    null ; while '1' do ss_i

so that the entry node is *isolated* (it cannot be re-entered once left) while
the body still loops indefinitely.  The synthetic ``null`` and ``while``-guard
blocks receive labels of their own; the blocks of the user-written body keep
labels in textual order.

``flow``, ``init`` and ``finals`` follow *Principles of Program Analysis*:

* ``init`` of a sequence is the ``init`` of its first statement;
* the guard of an ``if`` flows to the ``init`` of both branches and the block's
  ``finals`` are the union of the branches' finals;
* the guard of a ``while`` flows to the ``init`` of the body, the body's finals
  flow back to the guard, and the guard is the statement's only final.

The whole-program :class:`ProgramCFG` adds the *cross-flow* relation ``cf``:
the Cartesian product of the sets of ``wait`` labels of the individual
processes, i.e. every tuple of synchronisation points that could possibly
synchronise together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Set, Tuple

from repro.errors import AnalysisError
from repro.vhdl import ast
from repro.vhdl.elaborate import Design, Process
from repro.cfg.labels import Block, BlockKind, LabelAllocator, label_statements

Edge = Tuple[int, int]


# ---------------------------------------------------------------------------
# init / finals / flow on labelled statement lists
# ---------------------------------------------------------------------------


def init_of(statements: Sequence[ast.Statement]) -> int:
    """``init``: the label of the first elementary block of the list."""
    if not statements:
        raise AnalysisError("init of an empty statement list")
    first = statements[0]
    if first.label is None:
        raise AnalysisError("statements must be labelled before building the CFG")
    return first.label


def finals_of(statements: Sequence[ast.Statement]) -> FrozenSet[int]:
    """``final``: the labels at which execution of the list may end."""
    if not statements:
        raise AnalysisError("finals of an empty statement list")
    last = statements[-1]
    if isinstance(last, ast.If):
        return finals_of(last.then_branch) | finals_of(last.else_branch)
    if isinstance(last, ast.While):
        return frozenset({last.label})
    return frozenset({last.label})


def flow_of(statements: Sequence[ast.Statement]) -> Set[Edge]:
    """``flow``: the intra-process control-flow edges of the list."""
    edges: Set[Edge] = set()
    for stmt in statements:
        edges |= _flow_of_statement(stmt)
    for previous, following in zip(statements, statements[1:]):
        for final in finals_of([previous]):
            edges.add((final, init_of([following])))
    return edges


def _flow_of_statement(stmt: ast.Statement) -> Set[Edge]:
    if isinstance(stmt, ast.If):
        edges = flow_of(stmt.then_branch) | flow_of(stmt.else_branch)
        edges.add((stmt.label, init_of(stmt.then_branch)))
        edges.add((stmt.label, init_of(stmt.else_branch)))
        return edges
    if isinstance(stmt, ast.While):
        edges = flow_of(stmt.body)
        edges.add((stmt.label, init_of(stmt.body)))
        for final in finals_of(stmt.body):
            edges.add((final, stmt.label))
        return edges
    return set()


# ---------------------------------------------------------------------------
# Per-process CFG
# ---------------------------------------------------------------------------


@dataclass
class ProcessCFG:
    """The control-flow graph of a single process, with isolated entry.

    ``entry_label`` is the synthetic ``null`` block, ``loop_label`` the
    synthetic ``while '1'`` guard; ``body_labels`` are the labels of the
    user-written body only.
    """

    process: Process
    entry_label: int
    loop_label: int
    blocks: Dict[int, Block] = field(default_factory=dict)
    flow: Set[Edge] = field(default_factory=set)
    wait_labels: FrozenSet[int] = frozenset()
    body_labels: FrozenSet[int] = frozenset()

    @property
    def name(self) -> str:
        """The process identifier."""
        return self.process.name

    @property
    def labels(self) -> FrozenSet[int]:
        """All labels of the process, including the synthetic entry and guard."""
        return frozenset(self.blocks)

    def predecessors(self, label: int) -> List[int]:
        """Labels with a flow edge into ``label``."""
        return [src for (src, dst) in self.flow if dst == label]

    def successors(self, label: int) -> List[int]:
        """Labels reached by a flow edge from ``label``."""
        return [dst for (src, dst) in self.flow if src == label]

    def _assignment_index(self, kind: BlockKind) -> Dict[str, FrozenSet[int]]:
        """Target name → assignment labels for one block kind, built once."""
        attr = "_assign_index_" + kind.name
        cached = getattr(self, attr, None)
        if cached is None:
            collected: Dict[str, Set[int]] = {}
            for label, block in self.blocks.items():
                if block.kind is kind:
                    collected.setdefault(block.statement.target, set()).add(label)
            cached = {target: frozenset(labels) for target, labels in collected.items()}
            object.__setattr__(self, attr, cached)
        return cached

    def assignment_labels_of_signal(self, signal: str) -> FrozenSet[int]:
        """Labels of blocks in this process that assign to ``signal``."""
        return self._assignment_index(BlockKind.SIGNAL_ASSIGN).get(signal, frozenset())

    def assignment_labels_of_variable(self, variable: str) -> FrozenSet[int]:
        """Labels of blocks in this process that assign to ``variable``."""
        return self._assignment_index(BlockKind.VARIABLE_ASSIGN).get(variable, frozenset())


def build_process_cfg(
    process: Process, allocator: LabelAllocator, loop: bool = True
) -> ProcessCFG:
    """Label ``process`` and build its CFG with the isolated-entry wrapping.

    With ``loop=True`` (the default, and the VHDL semantics) the body is
    wrapped as ``null ; while '1' do ss``; with ``loop=False`` the body is
    analysed as a straight-line program (``null ; ss``), which is how the
    paper presents its illustrative example programs (a) and (b) of
    Section 5.
    """
    if not process.body:
        process.body.append(ast.Null())

    blocks = label_statements(process.body, process.name, allocator)
    body_labels = frozenset(blocks)

    # Synthetic wrapper: null ; while '1' do body   (or just null ; body)
    entry_null = ast.Null()
    entry_null.label = allocator.fresh()
    loop_guard = ast.While(condition=ast.LogicLiteral(value="1"), body=process.body)
    loop_guard.label = allocator.fresh()

    blocks[entry_null.label] = Block(
        label=entry_null.label,
        kind=BlockKind.NULL,
        statement=entry_null,
        process_name=process.name,
    )

    flow = flow_of(process.body)
    if loop:
        blocks[loop_guard.label] = Block(
            label=loop_guard.label,
            kind=BlockKind.WHILE_GUARD,
            statement=loop_guard,
            process_name=process.name,
        )
        flow.add((entry_null.label, loop_guard.label))
        flow.add((loop_guard.label, init_of(process.body)))
        for final in finals_of(process.body):
            flow.add((final, loop_guard.label))
    else:
        flow.add((entry_null.label, init_of(process.body)))

    wait_labels = frozenset(
        label for label, block in blocks.items() if block.kind is BlockKind.WAIT
    )

    return ProcessCFG(
        process=process,
        entry_label=entry_null.label,
        loop_label=loop_guard.label if loop else entry_null.label,
        blocks=blocks,
        flow=flow,
        wait_labels=wait_labels,
        body_labels=body_labels,
    )


# ---------------------------------------------------------------------------
# Whole-program CFG
# ---------------------------------------------------------------------------


class _LabelIndex(NamedTuple):
    """The whole-program label lookups of one :class:`ProgramCFG`."""

    owner: Dict[int, str]
    wait_labels: FrozenSet[int]
    wait_free: int
    """How many processes contain no ``wait`` statement."""


@dataclass
class ProgramCFG:
    """CFGs of all processes of a design plus the cross-flow relation.

    The label lookups (owner, block, wait labels, cross-flow membership) are
    answered from an index built on first use, so each costs O(1) however
    many processes the design has.  The index is derived data and stays out
    of the pickled state: cached CFGs neither grow nor load slower.  It holds
    only what the per-label lookups need, since an in-memory cache keeps it
    alive as long as the CFG.
    """

    design: Design
    processes: Dict[str, ProcessCFG] = field(default_factory=dict)

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_index", None)
        return state

    @property
    def _label_index(self) -> _LabelIndex:
        index = self.__dict__.get("_index")
        if index is None:
            owner: Dict[int, str] = {}
            waits: Set[int] = set()
            for name, cfg in self.processes.items():
                owner.update(dict.fromkeys(cfg.blocks, name))
                waits |= cfg.wait_labels
            index = _LabelIndex(
                owner=owner,
                wait_labels=frozenset(waits),
                wait_free=sum(
                    1 for cfg in self.processes.values() if not cfg.wait_labels
                ),
            )
            self.__dict__["_index"] = index
        return index

    # -- lookups ------------------------------------------------------------

    @property
    def process_order(self) -> List[str]:
        """Process names in design order (the order used for ``cf`` tuples)."""
        return list(self.processes)

    @property
    def blocks(self) -> Dict[int, Block]:
        """All blocks of the program indexed by label (a fresh dict)."""
        return {
            label: block
            for cfg in self.processes.values()
            for label, block in cfg.blocks.items()
        }

    @property
    def labels(self) -> FrozenSet[int]:
        """All labels of the program."""
        return frozenset(self._label_index.owner)

    def block(self, label: int) -> Block:
        """The block carrying ``label``."""
        return self.cfg_of_label(label).blocks[label]

    def process_of_label(self, label: int) -> str:
        """The (unique) process in which ``label`` occurs."""
        return self._label_index.owner[label]

    def cfg_of_label(self, label: int) -> ProcessCFG:
        """The :class:`ProcessCFG` owning ``label``."""
        return self.processes[self.process_of_label(label)]

    # -- wait statements and cross flow ------------------------------------------

    @property
    def wait_labels(self) -> FrozenSet[int]:
        """``WS``: all wait-statement labels of the program."""
        return self._label_index.wait_labels

    def cross_flow(self) -> List[Tuple[int, ...]]:
        """The cross-flow relation ``cf``.

        The Cartesian product of the per-process wait-label sets, ordered by
        the design's process order.  If some process contains no ``wait``
        statement the product is empty (that process never synchronises, so no
        global synchronisation can complete).
        """
        factor_sets = [
            sorted(self.processes[name].wait_labels) for name in self.process_order
        ]
        if any(not factors for factors in factor_sets):
            return []
        return [tuple(combo) for combo in itertools.product(*factor_sets)]

    def cross_flow_tuples_containing(self, label: int) -> List[Tuple[int, ...]]:
        """The ``cf`` tuples in which ``label`` occurs."""
        if label not in self.wait_labels:
            return []
        return [combo for combo in self.cross_flow() if label in combo]

    def label_occurs_in_cross_flow(self, label: int) -> bool:
        """``∃ l⃗ ∈ cf`` such that ``label`` occurs in ``l⃗``.

        Evaluated without materialising the product: the label must be a wait
        label and every *other* process must have at least one wait label —
        which, since the label's owner waits, is "no process is wait-free".
        """
        index = self._label_index
        return label in index.wait_labels and index.wait_free == 0

    def labels_cooccur_in_cross_flow(self, label_a: int, label_b: int) -> bool:
        """``∃ l⃗ ∈ cf`` in which both labels occur.

        Two wait labels co-occur exactly when they are wait statements of
        *different* processes (or the same label) and every remaining process
        also has at least one wait label.
        """
        index = self._label_index
        if label_a not in index.wait_labels or label_b not in index.wait_labels:
            return False
        if label_a != label_b and index.owner[label_a] == index.owner[label_b]:
            return False
        return index.wait_free == 0

    # -- statistics ------------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Size statistics used by reports and the scaling benchmark."""
        return {
            "processes": len(self.processes),
            "labels": len(self.blocks),
            "flow_edges": sum(len(cfg.flow) for cfg in self.processes.values()),
            "wait_labels": len(self.wait_labels),
            "signals": len(self.design.signals),
            "variables": len(self.design.variable_names()),
        }


def build_cfg(design: Design, loop_processes: bool = True) -> ProgramCFG:
    """Label every process of ``design`` and build the whole-program CFG.

    ``loop_processes=False`` analyses each process body as straight-line code
    (no repetition), matching the presentation of the paper's sequential
    example programs; the default follows the VHDL semantics where a process
    body repeats indefinitely.
    """
    allocator = LabelAllocator()
    program_cfg = ProgramCFG(design=design)
    for process in design.processes:
        program_cfg.processes[process.name] = build_process_cfg(
            process, allocator, loop=loop_processes
        )
    return program_cfg
