"""Lexer for the VHDL1 concrete syntax.

The lexer recognises VHDL's ``--`` line comments, identifiers (case
insensitive, normalised to lower case), integer literals, character literals
(``'1'``) and string literals (``"1010"``), plus the punctuation and operators
used by the VHDL1 grammar.

Two implementations live here:

* :func:`tokenize` — the production scanner: a single pass driven by one
  precompiled master regex that consumes whitespace runs, comments,
  identifiers, integers and operators in whole-slice matches (character and
  string literals, which carry their own error cases, are handled by two
  small dedicated paths).  Identifier/keyword classification is one
  ``str.lower()`` on the matched slice plus a frozenset lookup, and operator
  kinds come from a precompiled text → kind table.  Positions are tracked as
  (line, offset-of-line-start), so a token's column is one subtraction
  instead of a per-character counter, and each token is one
  ``tuple.__new__`` of ``(kind, text, line, column)``: no ``__init__`` runs,
  and no :class:`~repro.errors.SourcePosition` is built until the parser
  reads one.
* :class:`Lexer` — the original character-at-a-time scanner, kept verbatim
  as the reference oracle.  ``tests/test_frontend_fast_paths.py`` asserts
  both produce identical token streams (kinds, texts, positions) and
  identical errors over the paper workloads and the lexical edge cases.

The fast scanner restricts identifiers and integers to ASCII
(``[A-Za-z_][A-Za-z0-9_]*`` / ``[0-9]+``), which is the entire VHDL1
character set; the reference scanner's ``str.isalpha`` accepted a wider
Unicode range that no valid input ever used.
"""

from __future__ import annotations

import re
from typing import List

from repro.errors import LexerError, SourcePosition
from repro.vhdl.stdlogic import STD_LOGIC_CHARS
from repro.vhdl.tokens import KEYWORDS, Token, TokenKind

_SINGLE_CHAR_TOKENS = {
    ";": TokenKind.SEMICOLON,
    ",": TokenKind.COMMA,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "&": TokenKind.AMPERSAND,
    "=": TokenKind.EQ,
}

_VALID_STRING_CHARS = set(STD_LOGIC_CHARS) | {c.lower() for c in STD_LOGIC_CHARS}

#: Operator text → token kind, multi-character operators included.
_OPERATOR_KINDS = {
    ":=": TokenKind.ASSIGN_VAR,
    "<=": TokenKind.ASSIGN_SIG,
    ">=": TokenKind.GE,
    "/=": TokenKind.NEQ,
    "=>": TokenKind.ARROW,
    ":": TokenKind.COLON,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "/": TokenKind.SLASH,
    **_SINGLE_CHAR_TOKENS,
}

#: The master scanner.  Alternatives without a named group (whitespace runs
#: and comments) are skipped; named groups dispatch to one slice-level
#: handler each.  Multi-character operators precede their one-character
#: prefixes so ``:=`` never scans as ``:`` ``=``.
_TOKEN_PATTERN = re.compile(
    r"""[ \t\r\n]+
      | --[^\n]*
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<op>:=|<=|>=|/=|=>|[;,()+\-*&=:</>])
    """,
    re.VERBOSE,
)


def tokenize(source: str, line: int = 1) -> List[Token]:
    """Tokenise ``source`` and return the token list (ending with ``EOF``).

    ``line`` numbers the first line of ``source``: a design unit cut from a
    file at the start of its line ``line`` gets the positions of a
    whole-file scan.
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_PATTERN.match
    length = len(source)
    pos = 0
    line_start = 0
    keywords = KEYWORDS
    operator_kinds = _OPERATOR_KINDS
    keyword_kind = TokenKind.KEYWORD
    identifier_kind = TokenKind.IDENTIFIER
    integer_kind = TokenKind.INTEGER
    new = tuple.__new__

    while pos < length:
        matched = match(source, pos)
        if matched is not None:
            group = matched.lastgroup
            end = matched.end()
            if group is None:
                # whitespace run or comment; only whitespace holds newlines
                text = source[pos:end]
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + text.rindex("\n") + 1
                pos = end
                continue
            column = pos - line_start + 1
            text = source[pos:end]
            if group == "id":
                text = text.lower()
                kind = keyword_kind if text in keywords else identifier_kind
            elif group == "int":
                kind = integer_kind
            else:
                kind = operator_kinds[text]
            append(new(Token, (kind, text, line, column)))
            pos = end
            continue

        char = source[pos]
        position = SourcePosition(line, pos - line_start + 1)
        if char == "'":
            # character literal: opening quote, one value char, closing quote
            if pos + 2 >= length or source[pos + 2] != "'":
                raise LexerError("unterminated character literal", position)
            value = source[pos + 1]
            normalized = value.upper() if value.upper() in STD_LOGIC_CHARS else value
            if normalized not in STD_LOGIC_CHARS:
                raise LexerError(
                    f"character literal {value!r} is not a std_logic value", position
                )
            append(Token(TokenKind.CHAR_LITERAL, normalized, position))
            pos += 3
            continue
        if char == '"':
            end = source.find('"', pos + 1)
            if end == -1:
                raise LexerError("unterminated string literal", position)
            text = source[pos + 1 : end]
            if not _VALID_STRING_CHARS.issuperset(text):
                for ch in text:
                    if ch not in _VALID_STRING_CHARS:
                        raise LexerError(
                            "string literal contains non-std_logic character "
                            f"{ch!r}",
                            position,
                        )
            append(Token(TokenKind.STRING_LITERAL, text.upper(), position))
            pos = end + 1
            continue
        raise LexerError(f"unexpected character {char!r}", position)

    append(Token(TokenKind.EOF, "", SourcePosition(line, length - line_start + 1)))
    return tokens


class Lexer:
    """The character-at-a-time reference scanner (the golden-test oracle).

    Kept byte-for-byte compatible with the original implementation;
    :func:`tokenize_reference` runs it.  The production path is the
    regex-driven :func:`tokenize` above.
    """

    def __init__(self, source: str):
        self._source = source
        self._length = len(source)
        self._index = 0
        self._line = 1
        self._column = 1

    # -- character-level helpers ---------------------------------------------

    def _position(self) -> SourcePosition:
        return SourcePosition(self._line, self._column)

    def _peek(self, offset: int = 0) -> str:
        index = self._index + offset
        if index >= self._length:
            return ""
        return self._source[index]

    def _advance(self) -> str:
        char = self._source[self._index]
        self._index += 1
        if char == "\n":
            self._line += 1
            self._column = 1
        else:
            self._column += 1
        return char

    def _at_end(self) -> bool:
        return self._index >= self._length

    # -- token-level scanning ---------------------------------------------------

    def tokenize(self) -> List[Token]:
        """Scan the whole input and return its tokens, ending with ``EOF``."""
        tokens: List[Token] = []
        while not self._at_end():
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
                continue
            if char == "-" and self._peek(1) == "-":
                self._skip_comment()
                continue
            tokens.append(self._next_token())
        tokens.append(Token(TokenKind.EOF, "", self._position()))
        return tokens

    def _skip_comment(self) -> None:
        while not self._at_end() and self._peek() != "\n":
            self._advance()

    def _next_token(self) -> Token:
        position = self._position()
        char = self._peek()

        if char.isalpha() or char == "_":
            return self._scan_identifier(position)
        if char.isdigit():
            return self._scan_integer(position)
        if char == "'":
            return self._scan_char_literal(position)
        if char == '"':
            return self._scan_string_literal(position)

        # multi-character operators
        if char == ":":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.ASSIGN_VAR, ":=", position)
            return Token(TokenKind.COLON, ":", position)
        if char == "<":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.ASSIGN_SIG, "<=", position)
            return Token(TokenKind.LT, "<", position)
        if char == ">":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.GE, ">=", position)
            return Token(TokenKind.GT, ">", position)
        if char == "/":
            self._advance()
            if self._peek() == "=":
                self._advance()
                return Token(TokenKind.NEQ, "/=", position)
            return Token(TokenKind.SLASH, "/", position)
        if char == "=":
            self._advance()
            if self._peek() == ">":
                self._advance()
                return Token(TokenKind.ARROW, "=>", position)
            return Token(TokenKind.EQ, "=", position)

        if char in _SINGLE_CHAR_TOKENS:
            self._advance()
            return Token(_SINGLE_CHAR_TOKENS[char], char, position)

        raise LexerError(f"unexpected character {char!r}", position)

    def _scan_identifier(self, position: SourcePosition) -> Token:
        chars: List[str] = []
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            chars.append(self._advance())
        text = "".join(chars).lower()
        kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
        return Token(kind, text, position)

    def _scan_integer(self, position: SourcePosition) -> Token:
        chars: List[str] = []
        while not self._at_end() and self._peek().isdigit():
            chars.append(self._advance())
        return Token(TokenKind.INTEGER, "".join(chars), position)

    def _scan_char_literal(self, position: SourcePosition) -> Token:
        self._advance()  # opening quote
        if self._at_end():
            raise LexerError("unterminated character literal", position)
        value = self._advance()
        if self._at_end() or self._peek() != "'":
            raise LexerError("unterminated character literal", position)
        self._advance()  # closing quote
        normalized = value.upper() if value.upper() in STD_LOGIC_CHARS else value
        if normalized not in STD_LOGIC_CHARS:
            raise LexerError(
                f"character literal {value!r} is not a std_logic value", position
            )
        return Token(TokenKind.CHAR_LITERAL, normalized, position)

    def _scan_string_literal(self, position: SourcePosition) -> Token:
        self._advance()  # opening quote
        chars: List[str] = []
        while not self._at_end() and self._peek() != '"':
            chars.append(self._advance())
        if self._at_end():
            raise LexerError("unterminated string literal", position)
        self._advance()  # closing quote
        text = "".join(chars)
        for ch in text:
            if ch not in _VALID_STRING_CHARS:
                raise LexerError(
                    f"string literal contains non-std_logic character {ch!r}", position
                )
        return Token(TokenKind.STRING_LITERAL, text.upper(), position)


def tokenize_reference(source: str) -> List[Token]:
    """Tokenise with the reference scanner (the golden-test oracle)."""
    return Lexer(source).tokenize()
