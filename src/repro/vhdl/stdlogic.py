"""IEEE-1164 nine-valued logic for VHDL1.

The paper's semantic domain of logical values is (Section 3, "Basic semantic
domains")::

    v in LValue = {'U', 'X', '0', '1', 'Z', 'W', 'L', 'H', '-'}

with the readings Uninitialised, Forcing Unknown, Forcing zero, Forcing one,
High Impedance, Weak Unknown, Weak zero, Weak one and Don't care.  Vectors of
logical values (``AValue = LValue*``) model ``std_logic_vector``.

This module implements

* :class:`StdLogic` — a single nine-valued logic value;
* :class:`StdLogicVector` — an immutable vector of logic values with slicing,
  bitwise operators and the unsigned arithmetic used by the AES workload;
* the IEEE-1164 *resolution function* used by the semantics' synchronisation
  rule (the ``fs`` of Table 3) both for scalars and for vectors;
* conversion helpers between Python integers and vectors.

The truth tables are transcribed from IEEE Std 1164-1993 (``resolution_table``,
``and_table``, ``or_table``, ``xor_table``, ``not_table``).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from repro.errors import SimulationError

#: The nine characters of the ``std_logic`` type, in IEEE-1164 order.
STD_LOGIC_CHARS: Tuple[str, ...] = ("U", "X", "0", "1", "Z", "W", "L", "H", "-")

_CHAR_TO_INDEX = {c: i for i, c in enumerate(STD_LOGIC_CHARS)}

#: Human-readable meaning of each logic value (used in reports and docs).
STD_LOGIC_MEANINGS = {
    "U": "Uninitialized",
    "X": "Forcing Unknown",
    "0": "Forcing zero",
    "1": "Forcing one",
    "Z": "High Impedance",
    "W": "Weak Unknown",
    "L": "Weak zero",
    "H": "Weak one",
    "-": "Don't care",
}

# ---------------------------------------------------------------------------
# IEEE 1164 tables.  Rows/columns follow STD_LOGIC_CHARS order:
#   U    X    0    1    Z    W    L    H    -
# ---------------------------------------------------------------------------

#: ``resolved`` from IEEE 1164: combines two drivers of the same signal.
RESOLUTION_TABLE: Tuple[Tuple[str, ...], ...] = (
    # U    X    0    1    Z    W    L    H    -
    ("U", "U", "U", "U", "U", "U", "U", "U", "U"),  # U
    ("U", "X", "X", "X", "X", "X", "X", "X", "X"),  # X
    ("U", "X", "0", "X", "0", "0", "0", "0", "X"),  # 0
    ("U", "X", "X", "1", "1", "1", "1", "1", "X"),  # 1
    ("U", "X", "0", "1", "Z", "W", "L", "H", "X"),  # Z
    ("U", "X", "0", "1", "W", "W", "W", "W", "X"),  # W
    ("U", "X", "0", "1", "L", "W", "L", "W", "X"),  # L
    ("U", "X", "0", "1", "H", "W", "W", "H", "X"),  # H
    ("U", "X", "X", "X", "X", "X", "X", "X", "X"),  # -
)

#: ``and`` table from IEEE 1164.
AND_TABLE: Tuple[Tuple[str, ...], ...] = (
    # U    X    0    1    Z    W    L    H    -
    ("U", "U", "0", "U", "U", "U", "0", "U", "U"),  # U
    ("U", "X", "0", "X", "X", "X", "0", "X", "X"),  # X
    ("0", "0", "0", "0", "0", "0", "0", "0", "0"),  # 0
    ("U", "X", "0", "1", "X", "X", "0", "1", "X"),  # 1
    ("U", "X", "0", "X", "X", "X", "0", "X", "X"),  # Z
    ("U", "X", "0", "X", "X", "X", "0", "X", "X"),  # W
    ("0", "0", "0", "0", "0", "0", "0", "0", "0"),  # L
    ("U", "X", "0", "1", "X", "X", "0", "1", "X"),  # H
    ("U", "X", "0", "X", "X", "X", "0", "X", "X"),  # -
)

#: ``or`` table from IEEE 1164.
OR_TABLE: Tuple[Tuple[str, ...], ...] = (
    # U    X    0    1    Z    W    L    H    -
    ("U", "U", "U", "1", "U", "U", "U", "1", "U"),  # U
    ("U", "X", "X", "1", "X", "X", "X", "1", "X"),  # X
    ("U", "X", "0", "1", "X", "X", "0", "1", "X"),  # 0
    ("1", "1", "1", "1", "1", "1", "1", "1", "1"),  # 1
    ("U", "X", "X", "1", "X", "X", "X", "1", "X"),  # Z
    ("U", "X", "X", "1", "X", "X", "X", "1", "X"),  # W
    ("U", "X", "0", "1", "X", "X", "0", "1", "X"),  # L
    ("1", "1", "1", "1", "1", "1", "1", "1", "1"),  # H
    ("U", "X", "X", "1", "X", "X", "X", "1", "X"),  # -
)

#: ``xor`` table from IEEE 1164.
XOR_TABLE: Tuple[Tuple[str, ...], ...] = (
    # U    X    0    1    Z    W    L    H    -
    ("U", "U", "U", "U", "U", "U", "U", "U", "U"),  # U
    ("U", "X", "X", "X", "X", "X", "X", "X", "X"),  # X
    ("U", "X", "0", "1", "X", "X", "0", "1", "X"),  # 0
    ("U", "X", "1", "0", "X", "X", "1", "0", "X"),  # 1
    ("U", "X", "X", "X", "X", "X", "X", "X", "X"),  # Z
    ("U", "X", "X", "X", "X", "X", "X", "X", "X"),  # W
    ("U", "X", "0", "1", "X", "X", "0", "1", "X"),  # L
    ("U", "X", "1", "0", "X", "X", "1", "0", "X"),  # H
    ("U", "X", "X", "X", "X", "X", "X", "X", "X"),  # -
)

#: ``not`` table from IEEE 1164.
NOT_TABLE: Tuple[str, ...] = ("U", "X", "1", "0", "X", "X", "1", "0", "X")

#: ``to_x01`` normalisation: maps weak values onto their forcing counterparts.
TO_X01_TABLE: Tuple[str, ...] = ("X", "X", "0", "1", "X", "X", "0", "1", "X")


class StdLogic:
    """A single IEEE-1164 ``std_logic`` value.

    Instances are interned: there are exactly nine of them, one per character
    in :data:`STD_LOGIC_CHARS`, so identity comparison is safe and cheap.

    >>> StdLogic("1") & StdLogic("0")
    StdLogic('0')
    >>> StdLogic("1") ^ StdLogic("1")
    StdLogic('0')
    >>> StdLogic.resolve_pair(StdLogic("0"), StdLogic("Z"))
    StdLogic('0')
    """

    __slots__ = ("_char", "_index")

    _instances: dict = {}

    def __new__(cls, char: Union[str, "StdLogic"]) -> "StdLogic":
        if isinstance(char, StdLogic):
            return char
        if char not in _CHAR_TO_INDEX:
            raise SimulationError(f"not a std_logic value: {char!r}")
        existing = cls._instances.get(char)
        if existing is not None:
            return existing
        obj = super().__new__(cls)
        obj._char = char
        obj._index = _CHAR_TO_INDEX[char]
        cls._instances[char] = obj
        return obj

    # -- basic protocol -----------------------------------------------------

    @property
    def char(self) -> str:
        """The single-character spelling of this value (e.g. ``'1'``)."""
        return self._char

    @property
    def meaning(self) -> str:
        """The IEEE-1164 reading of this value (e.g. ``'Forcing one'``)."""
        return STD_LOGIC_MEANINGS[self._char]

    def __repr__(self) -> str:
        return f"StdLogic({self._char!r})"

    def __str__(self) -> str:
        return f"'{self._char}'"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StdLogic):
            return self._char == other._char
        if isinstance(other, str):
            return self._char == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("StdLogic", self._char))

    # -- predicates ----------------------------------------------------------

    def is_high(self) -> bool:
        """True when the value reads as logic one (``'1'`` or weak ``'H'``)."""
        return self._char in ("1", "H")

    def is_low(self) -> bool:
        """True when the value reads as logic zero (``'0'`` or weak ``'L'``)."""
        return self._char in ("0", "L")

    def is_defined(self) -> bool:
        """True when the value is a definite zero or one (strong or weak)."""
        return self.is_high() or self.is_low()

    # -- conversions ----------------------------------------------------------

    def to_x01(self) -> "StdLogic":
        """Normalise onto {'X', '0', '1'} as IEEE-1164 ``to_x01`` does."""
        return StdLogic(TO_X01_TABLE[self._index])

    def to_bit(self) -> int:
        """Convert to a Python ``0``/``1``; raises if the value is unknown."""
        if self.is_high():
            return 1
        if self.is_low():
            return 0
        raise SimulationError(f"cannot convert {self} to a bit")

    @classmethod
    def from_bit(cls, bit: int) -> "StdLogic":
        """Build ``'0'`` or ``'1'`` from a Python integer."""
        return cls("1") if bit else cls("0")

    # -- logic operators -------------------------------------------------------

    def __and__(self, other: "StdLogic") -> "StdLogic":
        other = StdLogic(other)
        return StdLogic(AND_TABLE[self._index][other._index])

    def __or__(self, other: "StdLogic") -> "StdLogic":
        other = StdLogic(other)
        return StdLogic(OR_TABLE[self._index][other._index])

    def __xor__(self, other: "StdLogic") -> "StdLogic":
        other = StdLogic(other)
        return StdLogic(XOR_TABLE[self._index][other._index])

    def __invert__(self) -> "StdLogic":
        return StdLogic(NOT_TABLE[self._index])

    def nand(self, other: "StdLogic") -> "StdLogic":
        """IEEE-1164 ``nand``."""
        return ~(self & other)

    def nor(self, other: "StdLogic") -> "StdLogic":
        """IEEE-1164 ``nor``."""
        return ~(self | other)

    def xnor(self, other: "StdLogic") -> "StdLogic":
        """IEEE-1164 ``xnor``."""
        return ~(self ^ other)

    # -- resolution -------------------------------------------------------------

    @classmethod
    def resolve_pair(cls, a: "StdLogic", b: "StdLogic") -> "StdLogic":
        """Resolve two drivers with the IEEE-1164 resolution table."""
        a = StdLogic(a)
        b = StdLogic(b)
        return cls(RESOLUTION_TABLE[a._index][b._index])

    @classmethod
    def resolve(cls, drivers: Iterable["StdLogic"]) -> "StdLogic":
        """The resolution function ``fs`` of the semantics (Table 3).

        Combines the multiset of values assigned to a signal by the different
        processes into a single value.  With no drivers the result is ``'Z'``
        (nothing is driving the net); with a single driver it is that driver's
        value.
        """
        result: "StdLogic" = cls("Z")
        seen = False
        for value in drivers:
            value = StdLogic(value)
            result = value if not seen else cls.resolve_pair(result, value)
            seen = True
        return result


#: Convenient singletons.
U = StdLogic("U")
X = StdLogic("X")
ZERO = StdLogic("0")
ONE = StdLogic("1")
Z = StdLogic("Z")
W = StdLogic("W")
L = StdLogic("L")
H = StdLogic("H")
DONT_CARE = StdLogic("-")


class StdLogicVector:
    """An immutable vector of :class:`StdLogic` values.

    The paper normalises all vectors to range from a smaller to a larger index
    (Section 3); this class follows that convention internally and simply
    stores a tuple of bits indexed ``0 .. width-1`` with index ``0`` the *most
    significant* position, matching the textual spelling (``"10"`` has ``'1'``
    first).  Slicing helpers mirror the semantics' ``split`` function.

    >>> v = StdLogicVector.from_string("1010")
    >>> v.to_unsigned()
    10
    >>> (v ^ StdLogicVector.from_string("0110")).to_string()
    '1100'
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: Iterable[Union[StdLogic, str]]):
        self._bits: Tuple[StdLogic, ...] = tuple(StdLogic(b) for b in bits)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "StdLogicVector":
        """Build a vector from its double-quoted spelling (without quotes)."""
        return cls(StdLogic(ch) for ch in text)

    @classmethod
    def from_unsigned(cls, value: int, width: int) -> "StdLogicVector":
        """Encode a non-negative integer as an unsigned vector of ``width`` bits."""
        if value < 0:
            raise SimulationError("from_unsigned requires a non-negative value")
        if width < 0:
            raise SimulationError("from_unsigned requires a non-negative width")
        if width and value >= (1 << width):
            value &= (1 << width) - 1
        chars = []
        for position in range(width - 1, -1, -1):
            chars.append("1" if (value >> position) & 1 else "0")
        return cls.from_string("".join(chars))

    @classmethod
    def uninitialized(cls, width: int) -> "StdLogicVector":
        """A vector of ``width`` ``'U'`` values (the initial signal value)."""
        return cls([U] * width)

    @classmethod
    def filled(cls, value: Union[StdLogic, str], width: int) -> "StdLogicVector":
        """A vector of ``width`` copies of ``value``."""
        return cls([StdLogic(value)] * width)

    # -- basic protocol --------------------------------------------------------

    @property
    def width(self) -> int:
        """Number of bits in the vector."""
        return len(self._bits)

    @property
    def bits(self) -> Tuple[StdLogic, ...]:
        """The bits, most significant first."""
        return self._bits

    def __len__(self) -> int:
        return len(self._bits)

    def __iter__(self) -> Iterator[StdLogic]:
        return iter(self._bits)

    def __getitem__(self, index: Union[int, slice]) -> Union[StdLogic, "StdLogicVector"]:
        if isinstance(index, slice):
            return StdLogicVector(self._bits[index])
        return self._bits[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StdLogicVector):
            return self._bits == other._bits
        if isinstance(other, str):
            return self.to_string() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("StdLogicVector", self._bits))

    def __repr__(self) -> str:
        return f"StdLogicVector({self.to_string()!r})"

    def __str__(self) -> str:
        return f'"{self.to_string()}"'

    def to_string(self) -> str:
        """The unquoted character spelling, most significant bit first."""
        return "".join(b.char for b in self._bits)

    # -- predicates -------------------------------------------------------------

    def is_fully_defined(self) -> bool:
        """True when every bit is a definite zero or one."""
        return all(b.is_defined() for b in self._bits)

    # -- conversions --------------------------------------------------------------

    def to_unsigned(self) -> int:
        """Interpret the vector as an unsigned integer (weak values allowed)."""
        result = 0
        for bit in self._bits:
            result = (result << 1) | bit.to_bit()
        return result

    def to_x01(self) -> "StdLogicVector":
        """Normalise every bit onto {'X', '0', '1'}."""
        return StdLogicVector(b.to_x01() for b in self._bits)

    # -- structural operations -----------------------------------------------------

    def concat(self, other: "StdLogicVector") -> "StdLogicVector":
        """Concatenation (VHDL ``&``): ``self`` supplies the high-order bits."""
        return StdLogicVector(self._bits + other._bits)

    def slice_downto(self, left: int, right: int) -> "StdLogicVector":
        """The semantics' ``split`` for a ``(left downto right)`` slice.

        Indices follow VHDL ``downto`` numbering, i.e. bit ``width-1`` is the
        leftmost (most significant) character of the spelling and bit ``0`` is
        the rightmost.
        """
        if left < right:
            raise SimulationError(
                f"downto slice requires left >= right, got ({left} downto {right})"
            )
        self._check_index(left)
        self._check_index(right)
        start = self.width - 1 - left
        stop = self.width - right
        return StdLogicVector(self._bits[start:stop])

    def set_slice_downto(
        self, left: int, right: int, value: "StdLogicVector"
    ) -> "StdLogicVector":
        """Return a copy with the ``(left downto right)`` slice replaced."""
        if left < right:
            raise SimulationError(
                f"downto slice requires left >= right, got ({left} downto {right})"
            )
        self._check_index(left)
        self._check_index(right)
        expected = left - right + 1
        if value.width != expected:
            raise SimulationError(
                f"slice assignment width mismatch: target has {expected} bits, "
                f"value has {value.width}"
            )
        start = self.width - 1 - left
        stop = self.width - right
        bits = list(self._bits)
        bits[start:stop] = list(value.bits)
        return StdLogicVector(bits)

    def element_downto(self, index: int) -> StdLogic:
        """Single-bit indexing with ``downto`` numbering."""
        self._check_index(index)
        return self._bits[self.width - 1 - index]

    def reversed(self) -> "StdLogicVector":
        """Reverse bit order (used when normalising ``to`` ranges to ``downto``)."""
        return StdLogicVector(reversed(self._bits))

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.width:
            raise SimulationError(
                f"vector index {index} out of range for width {self.width}"
            )

    # -- bitwise operators ------------------------------------------------------------

    def _zip_apply(self, other: "StdLogicVector", op) -> "StdLogicVector":
        if not isinstance(other, StdLogicVector):
            raise SimulationError("bitwise operation requires two vectors")
        if self.width != other.width:
            raise SimulationError(
                f"bitwise operation on vectors of different widths "
                f"({self.width} vs {other.width})"
            )
        return StdLogicVector(op(a, b) for a, b in zip(self._bits, other._bits))

    def __and__(self, other: "StdLogicVector") -> "StdLogicVector":
        return self._zip_apply(other, lambda a, b: a & b)

    def __or__(self, other: "StdLogicVector") -> "StdLogicVector":
        return self._zip_apply(other, lambda a, b: a | b)

    def __xor__(self, other: "StdLogicVector") -> "StdLogicVector":
        return self._zip_apply(other, lambda a, b: a ^ b)

    def __invert__(self) -> "StdLogicVector":
        return StdLogicVector(~b for b in self._bits)

    # -- arithmetic (numeric_std-style unsigned) ----------------------------------------

    def _arith(self, other: "StdLogicVector", op) -> "StdLogicVector":
        if not isinstance(other, StdLogicVector):
            raise SimulationError("arithmetic requires two vectors")
        width = max(self.width, other.width)
        if not (self.is_fully_defined() and other.is_fully_defined()):
            return StdLogicVector.filled(X, width)
        result = op(self.to_unsigned(), other.to_unsigned())
        result %= 1 << width
        return StdLogicVector.from_unsigned(result, width)

    def add(self, other: "StdLogicVector") -> "StdLogicVector":
        """Unsigned addition modulo ``2**width`` (``numeric_std`` ``+``)."""
        return self._arith(other, lambda a, b: a + b)

    def sub(self, other: "StdLogicVector") -> "StdLogicVector":
        """Unsigned subtraction modulo ``2**width`` (``numeric_std`` ``-``)."""
        return self._arith(other, lambda a, b: a - b)

    def mul(self, other: "StdLogicVector") -> "StdLogicVector":
        """Unsigned multiplication truncated to ``max(width)`` bits."""
        return self._arith(other, lambda a, b: a * b)

    def shift_left(self, amount: int) -> "StdLogicVector":
        """Logical shift left by ``amount`` bits, filling with ``'0'``."""
        if amount < 0:
            return self.shift_right(-amount)
        amount = min(amount, self.width)
        return StdLogicVector(self._bits[amount:] + (ZERO,) * amount)

    def shift_right(self, amount: int) -> "StdLogicVector":
        """Logical shift right by ``amount`` bits, filling with ``'0'``."""
        if amount < 0:
            return self.shift_left(-amount)
        amount = min(amount, self.width)
        return StdLogicVector((ZERO,) * amount + self._bits[: self.width - amount])

    def rotate_left(self, amount: int) -> "StdLogicVector":
        """Rotate left by ``amount`` bit positions."""
        if self.width == 0:
            return self
        amount %= self.width
        return StdLogicVector(self._bits[amount:] + self._bits[:amount])

    def rotate_right(self, amount: int) -> "StdLogicVector":
        """Rotate right by ``amount`` bit positions."""
        if self.width == 0:
            return self
        amount %= self.width
        return self.rotate_left(self.width - amount)

    # -- comparisons (return StdLogic to stay inside the value domain) -------------------

    def equals(self, other: "StdLogicVector") -> StdLogic:
        """VHDL ``=`` on vectors, returning ``'1'``/``'0'``/``'X'``."""
        if self.width != other.width:
            return ZERO
        if not (self.is_fully_defined() and other.is_fully_defined()):
            return X
        return ONE if self.to_x01() == other.to_x01() else ZERO

    def less_than(self, other: "StdLogicVector") -> StdLogic:
        """Unsigned ``<`` returning ``'1'``/``'0'``/``'X'``."""
        if not (self.is_fully_defined() and other.is_fully_defined()):
            return X
        return ONE if self.to_unsigned() < other.to_unsigned() else ZERO


Value = Union[StdLogic, StdLogicVector]
"""The semantic value domain ``Value = LValue ⊎ AValue`` of the paper."""


def resolve_values(drivers: Sequence[Value]) -> Value:
    """Resolution function ``fs`` lifted to scalars *and* vectors.

    Vector drivers are resolved element-wise; mixing scalar and vector drivers
    for the same signal, or vectors of different widths, is a simulation error
    (the paper's programs never do this, and real VHDL forbids it).
    """
    if not drivers:
        raise SimulationError("resolution of an empty driver multiset")
    if len(drivers) == 1:
        return drivers[0]
    if all(isinstance(d, StdLogic) for d in drivers):
        return StdLogic.resolve(drivers)  # type: ignore[arg-type]
    if all(isinstance(d, StdLogicVector) for d in drivers):
        widths = {d.width for d in drivers}  # type: ignore[union-attr]
        if len(widths) != 1:
            raise SimulationError(
                f"cannot resolve vector drivers of different widths: {sorted(widths)}"
            )
        columns: List[StdLogic] = []
        width = widths.pop()
        for position in range(width):
            columns.append(
                StdLogic.resolve(d.bits[position] for d in drivers)  # type: ignore[union-attr]
            )
        return StdLogicVector(columns)
    raise SimulationError("cannot resolve a mix of scalar and vector drivers")


def value_to_string(value: Value) -> str:
    """Render a value the way VHDL source spells it (``'1'`` or ``"1010"``)."""
    if isinstance(value, StdLogic):
        return f"'{value.char}'"
    return f'"{value.to_string()}"'
