"""The Resource Matrix data structure used by the Information Flow analysis.

The local dependency analysis (Table 6) and the closure rules (Tables 8 and 9)
manipulate sets ``RM ⊆ (Var ∪ Sig) × Lab × {M0, M1, R0, R1}``:

* ``(n, l, M0)`` — the variable or *present value* of signal ``n`` might be
  modified at label ``l``;
* ``(n, l, M1)`` — the *active value* of signal ``n`` might be modified at ``l``;
* ``(n, l, R0)`` — the variable or present value of ``n`` might be read at ``l``;
* ``(n, l, R1)`` — the active value of ``n`` is read at ``l`` by the
  synchronisation performed by a ``wait`` statement.

Storage is *label-columnar*: a matrix maps each label to four name-bitsets,
one per access kind, with resource names interned into a
:class:`~repro.dataflow.universe.FactUniverse`.  Adding an entry sets one bit;
union of matrices is a per-label ``|``; the closure fixpoint propagates whole
``R0`` columns with single OR operations instead of hashing one :class:`Entry`
object per (name, label) pair.  The :class:`Entry`-based view (iteration,
``entries()``, the ``*_at`` lookups) is decoded on demand at the boundary and
yields entries in a canonical sorted order, so renderings and reports are
byte-stable across runs.

The name universe is **per design**, not process-global: each front of the
pipeline (:mod:`repro.pipeline.stages`) interns into a fresh
:class:`FactUniverse`, so independent analyses neither share nor leak
interned names, and long-lived servers analysing many unrelated designs do
not pay for every name ever seen in the width of later bitsets.  Matrices
created without an explicit universe get a private fresh one.  All
bitset-level operations between two matrices take the fast path when the
universes are the *same object*; otherwise they fall back to re-encoding by
name, so comparisons across universes (the equivalence tests rely on these)
remain correct.

Resource names for the improved analysis (Table 9) use the suffixes ``◦`` and
``•`` for incoming and outgoing values; :func:`incoming_node` /
:func:`outgoing_node` build these names uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.dataflow.universe import FactUniverse


class Access(Enum):
    """The four access kinds recorded in the Resource Matrix."""

    M0 = "M0"
    """Modification of a variable or of the present value of a signal."""

    M1 = "M1"
    """Modification of the active value of a signal."""

    R0 = "R0"
    """Read of a variable or of the present value of a signal."""

    R1 = "R1"
    """Read of active values by the synchronisation at a ``wait`` statement."""

    @property
    def is_read(self) -> bool:
        """True for ``R0``/``R1``."""
        return self in (Access.R0, Access.R1)

    @property
    def is_modify(self) -> bool:
        """True for ``M0``/``M1``."""
        return self in (Access.M0, Access.M1)

    @property
    def column(self) -> int:
        """The slot of this access kind in a matrix's per-label column list."""
        return _COLUMN_OF[self]


_COLUMN_OF: Dict[Access, int] = {
    Access.M0: 0,
    Access.M1: 1,
    Access.R0: 2,
    Access.R1: 3,
}
_ACCESS_ORDER: Tuple[Access, ...] = (Access.M0, Access.M1, Access.R0, Access.R1)


INCOMING_SUFFIX = "○"  # ◦ (white circle)
OUTGOING_SUFFIX = "•"  # • (bullet)


def incoming_node(name: str) -> str:
    """The incoming-value node ``n◦`` of resource ``name`` (Section 5.3)."""
    return f"{name}{INCOMING_SUFFIX}"


def outgoing_node(name: str) -> str:
    """The outgoing-value node ``n•`` of resource ``name`` (Section 5.3)."""
    return f"{name}{OUTGOING_SUFFIX}"


def base_resource(name: str) -> str:
    """Strip a ``◦``/``•`` suffix, returning the underlying resource name."""
    if name.endswith(INCOMING_SUFFIX) or name.endswith(OUTGOING_SUFFIX):
        return name[:-1]
    return name


def is_incoming(name: str) -> bool:
    """True when ``name`` is an incoming node ``n◦``."""
    return name.endswith(INCOMING_SUFFIX)


def is_outgoing(name: str) -> bool:
    """True when ``name`` is an outgoing node ``n•``."""
    return name.endswith(OUTGOING_SUFFIX)


@dataclass(frozen=True, order=True)
class Entry:
    """A single Resource Matrix entry ``(name, label, access)``."""

    name: str
    label: int
    access: Access

    def __repr__(self) -> str:
        return f"({self.name}, {self.label}, {self.access.value})"


class ResourceMatrix:
    """A label-columnar entry set with the lookups the closure rules need.

    Each label row is a four-slot list of name-bitsets indexed by
    :attr:`Access.column`; rows are created on first write and always hold at
    least one set bit.  Bit positions are allocated by the matrix's
    :attr:`universe`; matrices sharing a universe compare and combine at the
    bitset level, others fall back to name-based re-encoding.
    """

    __slots__ = ("_cols", "_universe")

    def __init__(
        self,
        entries: Optional[Iterable[Entry]] = None,
        universe: Optional[FactUniverse] = None,
    ):
        self._universe: FactUniverse = (
            universe if universe is not None else FactUniverse()
        )
        self._cols: Dict[int, List[int]] = {}
        for entry in entries or ():
            self.add_entry(entry)

    @property
    def universe(self) -> FactUniverse:
        """The name universe allocating this matrix's bit positions."""
        return self._universe

    def sorted_names(self, bits: int) -> List[str]:
        """The resource names of a name-bitset in lexical order."""
        return sorted(self._universe.decode_iter(bits))

    def decode_names(self, bits: int) -> FrozenSet[str]:
        """The resource names of a name-bitset."""
        return self._universe.decode(bits)

    # -- basic protocol --------------------------------------------------------

    def __contains__(self, entry: Entry) -> bool:
        if entry.name not in self._universe:
            return False
        row = self._cols.get(entry.label)
        if row is None:
            return False
        return bool(
            row[entry.access.column] >> self._universe.index_of(entry.name) & 1
        )

    def __iter__(self) -> Iterator[Entry]:
        """Entries in canonical ``(label, access, name)`` order."""
        for label in sorted(self._cols):
            row = self._cols[label]
            for access in _ACCESS_ORDER:
                for name in self.sorted_names(row[access.column]):
                    yield Entry(name, label, access)

    def __len__(self) -> int:
        return sum(bits.bit_count() for row in self._cols.values() for bits in row)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ResourceMatrix):
            if self._universe is other._universe:
                return self._cols == other._cols
            return self._canonical() == other._canonical()
        return NotImplemented

    def _canonical(self) -> Dict[int, Tuple[FrozenSet[str], ...]]:
        """A universe-independent rendering, for cross-session comparison."""
        decode = self._universe.decode
        return {
            label: tuple(decode(bits) for bits in row)
            for label, row in self._cols.items()
        }

    def __repr__(self) -> str:
        return f"ResourceMatrix({len(self)} entries)"

    def copy(self) -> "ResourceMatrix":
        """An independent copy (rows are duplicated, the universe is shared)."""
        clone = ResourceMatrix(universe=self._universe)
        clone._cols = {label: list(row) for label, row in self._cols.items()}
        return clone

    def entries(self) -> FrozenSet[Entry]:
        """The entry set as a frozenset."""
        return frozenset(self)

    # -- mutation ------------------------------------------------------------------

    def add(self, name: str, label: int, access: Access) -> bool:
        """Add an entry; returns True when it was not already present."""
        bit = 1 << self._universe.intern(name)
        row = self._cols.get(label)
        if row is None:
            row = self._cols[label] = [0, 0, 0, 0]
        column = access.column
        if row[column] & bit:
            return False
        row[column] |= bit
        return True

    def add_entry(self, entry: Entry) -> bool:
        """Add a pre-built entry; returns True when it was not already present."""
        return self.add(entry.name, entry.label, entry.access)

    def update(self, other: "ResourceMatrix") -> None:
        """In-place union with another matrix (per-label bitwise OR)."""
        cols = self._cols
        if other._universe is self._universe:
            for label, other_row in other._cols.items():
                row = cols.get(label)
                if row is None:
                    cols[label] = list(other_row)
                else:
                    row[0] |= other_row[0]
                    row[1] |= other_row[1]
                    row[2] |= other_row[2]
                    row[3] |= other_row[3]
            return
        # Foreign universe: bit positions are not comparable, re-encode by name.
        encode = self._universe.encode
        decode = other._universe.decode_iter
        for label, other_row in other._cols.items():
            for access in _ACCESS_ORDER:
                bits = other_row[access.column]
                if bits:
                    self.or_bits(label, access, encode(decode(bits)))

    def union(self, other: "ResourceMatrix") -> "ResourceMatrix":
        """The union of two matrices as a new matrix."""
        result = self.copy()
        result.update(other)
        return result

    # -- columnar accessors (the hot-path API) ---------------------------------

    def or_bits(self, label: int, access: Access, bits: int) -> bool:
        """OR ``bits`` into ``(label, access)``; True when anything was new."""
        if not bits:
            return False
        row = self._cols.get(label)
        if row is None:
            self._cols[label] = row = [0, 0, 0, 0]
        column = access.column
        if bits & ~row[column]:
            row[column] |= bits
            return True
        return False

    def column(self, access: Access) -> Dict[int, int]:
        """The whole column ``label → name-bitset`` for one access kind."""
        index = access.column
        return {
            label: row[index] for label, row in self._cols.items() if row[index]
        }

    def iter_rows(self) -> Iterator[Tuple[int, List[int]]]:
        """The raw ``(label, [M0, M1, R0, R1])`` rows (read-only use)."""
        return iter(self._cols.items())

    # -- lookups used by the closure rules ----------------------------------------------

    def labels(self) -> FrozenSet[int]:
        """All labels mentioned by some entry."""
        return frozenset(self._cols)

    def names(self) -> FrozenSet[str]:
        """All resource names mentioned by some entry."""
        bits = 0
        for row in self._cols.values():
            bits |= row[0] | row[1] | row[2] | row[3]
        return self.decode_names(bits)

    def _entries_of_row(self, label: int, accesses: Iterable[Access]) -> List[Entry]:
        row = self._cols.get(label)
        if row is None:
            return []
        return [
            Entry(name, label, access)
            for access in accesses
            for name in self.sorted_names(row[access.column])
        ]

    def at_label(self, label: int) -> List[Entry]:
        """All entries at ``label``."""
        return self._entries_of_row(label, _ACCESS_ORDER)

    def reads_at(self, label: int) -> List[Entry]:
        """Read entries (``R0``/``R1``) at ``label``."""
        return self._entries_of_row(label, (Access.R0, Access.R1))

    def reads_of(self, name: str, access: Access = Access.R0) -> List[Entry]:
        """All entries reading ``name`` with the given access kind."""
        if name not in self._universe:
            return []
        bit = 1 << self._universe.index_of(name)
        column = access.column
        return [
            Entry(name, label, access)
            for label in sorted(self._cols)
            if self._cols[label][column] & bit
        ]

    # -- rendering -------------------------------------------------------------------

    def to_table(self) -> str:
        """Human-readable rendering, sorted by label then name."""
        lines = ["label  access  resource"]
        for entry in sorted(self, key=lambda e: (e.label, e.access.value, e.name)):
            lines.append(f"{entry.label:>5}  {entry.access.value:<6}  {entry.name}")
        return "\n".join(lines)
