"""Tokenizer for the Verilog subset.

Handles identifiers, sized and unsized numeric literals (binary, decimal,
hexadecimal and octal bases), operators, punctuation, and both ``//`` and
``/* */`` comments.  Line/column information is preserved on every token so
parse errors point at the offending source position.

:func:`tokenize` scans ASCII source with one master regular expression
(:func:`scan_tokens`).  Anything that pattern cannot take — a non-ASCII
character, a malformed literal, an unterminated comment, a stray
character — sends the whole source through the character-level
:class:`Lexer` instead, which is the reference: both give equal token
lists wherever the pattern succeeds, and every located
:class:`~repro.hdl.errors.ParseError` comes from the character-level path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.hdl.errors import ParseError

KEYWORDS = {
    "module",
    "endmodule",
    "input",
    "output",
    "inout",
    "wire",
    "reg",
    "assign",
    "always",
    "posedge",
    "negedge",
    "if",
    "else",
    "begin",
    "end",
    "case",
    "casez",
    "casex",
    "endcase",
    "default",
    "parameter",
    "localparam",
    "integer",
}

#: Multi-character operators, longest first so maximal munch works.
MULTI_CHAR_OPERATORS = [
    "<<<", ">>>",
    "===", "!==",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "~^", "^~", "~&", "~|",
]

SINGLE_CHAR_TOKENS = set("()[]{}:;,#?@.=<>!~&|^+-*/%")


@dataclass(frozen=True)
class Token:
    """A single lexical token."""

    kind: str
    text: str
    line: int
    column: int
    value: int | None = None
    width: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Token({self.kind!r}, {self.text!r}, line={self.line})"


class Lexer:
    """Convert Verilog-subset source text into a list of tokens."""

    def __init__(self, source: str):
        self._source = source
        self._pos = 0
        self._line = 1
        self._column = 1

    def tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        while True:
            self._skip_whitespace_and_comments()
            if self._pos >= len(self._source):
                break
            tokens.append(self._next_token())
        tokens.append(Token("EOF", "", self._line, self._column))
        return tokens

    # ------------------------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        index = self._pos + offset
        if index < len(self._source):
            return self._source[index]
        return ""

    def _advance(self, count: int = 1) -> str:
        text = self._source[self._pos:self._pos + count]
        for char in text:
            if char == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1
        self._pos += count
        return text

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < len(self._source):
            char = self._peek()
            if char in " \t\r\n":
                self._advance()
            elif char == "/" and self._peek(1) == "/":
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            elif char == "/" and self._peek(1) == "*":
                self._advance(2)
                while self._pos < len(self._source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise ParseError("unterminated block comment", self._line, self._column)
            elif char == "`":
                # Compiler directives (`timescale, `define without arguments)
                # are skipped to end of line; the subset does not use macros.
                while self._pos < len(self._source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        line, column = self._line, self._column
        char = self._peek()
        if char.isalpha() or char == "_" or char == "\\":
            return self._lex_identifier(line, column)
        if char.isdigit() or (char == "'" and self._peek(1)):
            return self._lex_number(line, column)
        for operator in MULTI_CHAR_OPERATORS:
            if self._source.startswith(operator, self._pos):
                self._advance(len(operator))
                return Token("OP", operator, line, column)
        if char in SINGLE_CHAR_TOKENS:
            self._advance()
            return Token("OP", char, line, column)
        raise ParseError(f"unexpected character {char!r}", line, column)

    def _lex_identifier(self, line: int, column: int) -> Token:
        if self._peek() == "\\":
            # Escaped identifier: backslash then non-whitespace run.
            self._advance()
            start = self._pos
            while self._pos < len(self._source) and not self._peek().isspace():
                self._advance()
            text = self._source[start:self._pos]
            return Token("IDENT", text, line, column)
        start = self._pos
        while self._pos < len(self._source) and (self._peek().isalnum() or self._peek() in "_$"):
            self._advance()
        text = self._source[start:self._pos]
        if text in KEYWORDS:
            return Token("KEYWORD", text, line, column)
        return Token("IDENT", text, line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self._pos
        width: int | None = None
        # Optional size prefix before a base marker.
        while self._pos < len(self._source) and (self._peek().isdigit() or self._peek() == "_"):
            self._advance()
        size_text = self._source[start:self._pos].replace("_", "")
        if self._peek() == "'":
            if size_text:
                width = int(size_text)
            self._advance()
            base_char = self._peek().lower()
            if base_char not in "bdho":
                raise ParseError(f"unknown number base '{base_char}'", line, column)
            self._advance()
            digits_start = self._pos
            # The EOF sentinel is the empty string, and ``"" in s`` is True
            # for any s — guard on position or the loop never terminates.
            while self._pos < len(self._source) and (
                self._peek().isalnum() or self._peek() in "_xzXZ?"
            ):
                self._advance()
            digits = self._source[digits_start:self._pos].replace("_", "")
            if not digits:
                raise ParseError("missing digits in sized literal", line, column)
            # Two-value semantics: x/z/? digits are treated as zero.
            digits = digits.replace("x", "0").replace("X", "0")
            digits = digits.replace("z", "0").replace("Z", "0").replace("?", "0")
            base = {"b": 2, "d": 10, "h": 16, "o": 8}[base_char]
            try:
                value = int(digits, base)
            except ValueError as exc:
                raise ParseError(f"invalid digits '{digits}' for base {base}", line, column) from exc
            if width is None:
                width = max(value.bit_length(), 1)
            text = self._source[start:self._pos]
            return Token("NUMBER", text, line, column, value=value, width=width)
        if not size_text:
            raise ParseError("malformed number", line, column)
        value = int(size_text)
        return Token("NUMBER", size_text, line, column, value=value, width=None)


#: One token, or a run of whitespace/comments, per match; the lexical
#: rules of :class:`Lexer` restricted to ASCII source.  ``/`` is an
#: operator only where no comment starts, so an unterminated block comment
#: matches nothing; a decimal literal may not stop before a digit, an
#: underscore or a quote, so a bad base matches nothing either.
_MASTER = re.compile(r"""
    (?P<skip> [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ | `[^\n]* )
  | (?P<escaped> \\\S* )
  | (?P<word> [A-Za-z_][A-Za-z0-9_$]* )
  | (?P<based> (?:[0-9][0-9_]*)? '[bBdDhHoO][A-Za-z0-9_?]* )
  | (?P<decimal> [0-9][0-9_]* (?![0-9_']) )
  | (?P<op> <<< | >>> | === | !== | == | != | <= | >= | && | \|\| | << | >>
          | ~\^ | \^~ | ~& | ~\| | /(?![/*]) | [()\[\]{}:;,\#?@.=<>!~&|^+\-*%] )
""", re.VERBOSE | re.DOTALL)

_BASES = {"b": 2, "d": 10, "h": 16, "o": 8}
_UNKNOWN_DIGITS = str.maketrans("xXzZ?", "00000", "_")


def scan_tokens(source: str) -> list[Token] | None:
    """Tokenize ``source`` with the master pattern; ``None`` where it fails.

    On success the list equals ``Lexer(source).tokenize()``.
    """
    if not source.isascii():
        return None
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    pos, end = 0, len(source)
    line, line_start = 1, 0
    while pos < end:
        found = match(source, pos)
        if found is None:
            return None
        kind, text = found.lastgroup, found.group()
        start, pos = pos, found.end()
        column = start - line_start + 1
        if kind == "skip":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
        elif kind == "word":
            append(Token("KEYWORD" if text in KEYWORDS else "IDENT", text, line, column))
        elif kind == "op":
            append(Token("OP", text, line, column))
        elif kind == "decimal":
            size_text = text.replace("_", "")
            append(Token("NUMBER", size_text, line, column, value=int(size_text)))
        elif kind == "based":
            quote = text.index("'")
            size_text = text[:quote].replace("_", "")
            digits = text[quote + 2:].translate(_UNKNOWN_DIGITS)
            try:
                value = int(digits, _BASES[text[quote + 1].lower()])
            except ValueError:  # no digits, or digits outside the base
                return None
            width = int(size_text) if size_text else max(value.bit_length(), 1)
            append(Token("NUMBER", text, line, column, value=value, width=width))
        else:  # escaped identifier: the backslash is not part of the name
            append(Token("IDENT", text[1:], line, column))
    tokens.append(Token("EOF", "", line, end - line_start + 1))
    return tokens


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` and return the token list (including EOF)."""
    tokens = scan_tokens(source)
    return tokens if tokens is not None else Lexer(source).tokenize()
