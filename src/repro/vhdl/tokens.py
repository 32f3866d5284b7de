"""Token definitions for the VHDL1 lexer."""

from __future__ import annotations

from collections import namedtuple
from enum import Enum, auto
from typing import Optional, Tuple

from repro.errors import SourcePosition


class TokenKind(Enum):
    """Kinds of lexical tokens for the VHDL1 fragment."""

    IDENTIFIER = auto()
    KEYWORD = auto()
    INTEGER = auto()
    CHAR_LITERAL = auto()      # '1', 'U', ...
    STRING_LITERAL = auto()    # "1010"
    # punctuation
    COLON = auto()             # :
    SEMICOLON = auto()         # ;
    COMMA = auto()             # ,
    LPAREN = auto()            # (
    RPAREN = auto()            # )
    # operators
    ASSIGN_VAR = auto()        # :=
    ASSIGN_SIG = auto()        # <=   (also relational <=, disambiguated by parser)
    ARROW = auto()             # =>
    EQ = auto()                # =
    NEQ = auto()               # /=
    LT = auto()                # <
    GT = auto()                # >
    GE = auto()                # >=
    PLUS = auto()              # +
    MINUS = auto()             # -
    STAR = auto()              # *
    SLASH = auto()             # /
    AMPERSAND = auto()         # &
    EOF = auto()


#: Reserved words of the VHDL1 concrete syntax (lower-cased).
KEYWORDS = frozenset(
    {
        "entity",
        "is",
        "port",
        "end",
        "in",
        "out",
        "std_logic",
        "std_logic_vector",
        "downto",
        "to",
        "architecture",
        "of",
        "component",
        "map",
        "begin",
        "process",
        "block",
        "variable",
        "signal",
        "null",
        "wait",
        "on",
        "until",
        "if",
        "then",
        "else",
        "elsif",
        "while",
        "loop",
        "do",
        "not",
        "and",
        "or",
        "xor",
        "nand",
        "nor",
        "xnor",
        "true",
        "false",
    }
)


#: The fields of a :class:`Token`, read through the C accessors of a named
#: tuple.
_TokenFields = namedtuple("_TokenFields", ("kind", "text", "line", "column"))


class Token(_TokenFields):
    """A single lexical token: ``(kind, text, line, column)``.

    A tuple, so :func:`~repro.vhdl.lexer.tokenize` builds each token with one
    ``tuple.__new__`` and no ``__init__``.  The position is kept as two ints
    and :attr:`position` builds the :class:`SourcePosition` when read (the
    parser reads it only for the tokens that start an AST node or an error).
    ``Token(kind, text, position)`` builds one from a position, as the
    reference :class:`~repro.vhdl.lexer.Lexer` does.
    """

    __slots__ = ()

    def __new__(
        cls, kind: TokenKind, text: str, position: Optional[SourcePosition] = None
    ) -> "Token":
        if position is None:
            return tuple.__new__(cls, (kind, text, None, None))
        return tuple.__new__(cls, (kind, text, position.line, position.column))

    @property
    def position(self) -> Optional[SourcePosition]:
        """Where the token starts (``None`` for a token built without one)."""
        if self.line is None:
            return None
        return SourcePosition(self.line, self.column)

    def is_keyword(self, word: str) -> bool:
        """True when this token is the keyword ``word`` (case-insensitive)."""
        return self.kind is TokenKind.KEYWORD and self.text.lower() == word.lower()

    def __getnewargs__(self) -> Tuple[TokenKind, str, Optional[SourcePosition]]:
        # Copies and pickles rebuild the token through ``__new__``.
        return self.kind, self.text, self.position

    def __repr__(self) -> str:
        return f"Token(kind={self.kind!r}, text={self.text!r}, position={self.position!r})"

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
