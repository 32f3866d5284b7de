"""Fact interning: the bridge between set-based specifications and bitsets.

The paper's complexity argument ("three bit-vector frameworks, each being
linear time in practice") presumes that lattice elements are actual bit
vectors.  :class:`FactUniverse` assigns every distinct fact a small integer
index, so a set of facts becomes a Python ``int`` used as an arbitrary-width
bit vector: union is ``|``, intersection ``&``, difference ``x & ~y`` — all
machine-word operations instead of per-element hashing.

The interner is append-only: indices are allocated in first-intern order and
never change, which makes bitsets from the same universe directly comparable
and keeps decoding deterministic (facts come back in interning order, and
:meth:`decode` sorts where the caller needs canonical output).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Generic, Iterable, Iterator, List, TypeVar

Fact = TypeVar("Fact")


def _dense_rendering(bits: int) -> "str | None":
    """``bits`` as a reversed binary string when dense enough, else ``None``.

    Dense bitsets are rendered once at C level (``bin``) and scanned as a
    string (character ``i`` is bit ``i``), which beats per-bit bigint
    arithmetic by a wide margin; sparse bitsets should use the lowest-set-bit
    loop instead.  The density threshold and the subtle ``[:1:-1]`` reversal
    live only here, shared by :func:`bit_indices` and
    :meth:`FactUniverse.decode_list`.
    """
    if bits.bit_count() * 3 >= bits.bit_length():
        return bin(bits)[:1:-1]
    return None


def bit_indices(bits: int) -> List[int]:
    """The set bit positions of ``bits``, ascending."""
    rendered = _dense_rendering(bits)
    if rendered is not None:
        return [index for index, bit in enumerate(rendered) if bit == "1"]
    result: List[int] = []
    append = result.append
    while bits:
        low = bits & -bits
        append(low.bit_length() - 1)
        bits ^= low
    return result


class FactUniverse(Generic[Fact]):
    """An append-only bijection between facts and bit positions."""

    __slots__ = ("_index", "_facts")

    def __init__(self, facts: Iterable[Fact] = ()):
        # One pass, in first-occurrence order: a snapshot's facts are unique.
        self._facts: List[Fact] = list(dict.fromkeys(facts))
        self._index: Dict[Fact, int] = {
            fact: index for index, fact in enumerate(self._facts)
        }

    # -- interning -----------------------------------------------------------

    def intern(self, fact: Fact) -> int:
        """The index of ``fact``, allocating a fresh bit position if new."""
        index = self._index.get(fact)
        if index is None:
            index = len(self._facts)
            self._index[fact] = index
            self._facts.append(fact)
        return index

    def intern_all(self, facts: Iterable[Fact]) -> None:
        """Intern every fact of ``facts``."""
        for fact in facts:
            self.intern(fact)

    # -- lookups -------------------------------------------------------------

    def index_of(self, fact: Fact) -> int:
        """The index of an already-interned fact (``KeyError`` if unknown)."""
        return self._index[fact]

    def fact_of(self, index: int) -> Fact:
        """The fact at bit position ``index``."""
        return self._facts[index]

    def __contains__(self, fact: object) -> bool:
        return fact in self._index

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._facts)

    def __repr__(self) -> str:
        return f"FactUniverse({len(self._facts)} facts)"

    # -- bitset conversion ---------------------------------------------------

    def encode(self, facts: Iterable[Fact]) -> int:
        """The bitset of ``facts`` (interning any that are new)."""
        bits = 0
        for fact in facts:
            bits |= 1 << self.intern(fact)
        return bits

    def encode_known(self, facts: Iterable[Fact]) -> int:
        """Like :meth:`encode` but raising ``KeyError`` on unknown facts."""
        bits = 0
        index = self._index
        for fact in facts:
            bits |= 1 << index[fact]
        return bits

    def decode_iter(self, bits: int) -> Iterator[Fact]:
        """The facts of a bitset, in ascending bit-position order."""
        facts = self._facts
        while bits:
            low = bits & -bits
            yield facts[low.bit_length() - 1]
            bits ^= low

    def decode_list(self, bits: int) -> List[Fact]:
        """The facts of a bitset as a list, in ascending bit-position order."""
        facts = self._facts
        rendered = _dense_rendering(bits)
        if rendered is not None:
            return [facts[i] for i, bit in enumerate(rendered) if bit == "1"]
        return [facts[i] for i in bit_indices(bits)]

    def decode(self, bits: int) -> FrozenSet[Fact]:
        """The facts of a bitset as a frozenset."""
        return frozenset(self.decode_list(bits))
