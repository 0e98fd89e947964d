"""Character-level reference lexer: the independent oracle for
:func:`repro.hdl.lexer.tokenize`.

It walks the source one character at a time with explicit lexical rules
instead of a master regular expression, and raises the same located
:class:`~repro.hdl.errors.ParseError` texts (except on unbased decimal
literals past ``int()``'s digit limit, where it raises ``ValueError``).
Simple identifiers and numbers are ASCII (IEEE 1364-2005 §3.7); any other
character is legal only inside comments, compiler-directive lines and
escaped identifiers.
"""

from __future__ import annotations

import string

from repro.hdl.errors import ParseError
from repro.hdl.lexer import ECHOED_DIGITS, KEYWORDS, Token

#: Multi-character operators, longest first so maximal munch works.
MULTI_CHAR_OPERATORS = [
    "<<<", ">>>",
    "===", "!==",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "~^", "^~", "~&", "~|",
]

SINGLE_CHAR_TOKENS = set("()[]{}:;,#?@.=<>!~&|^+-*/%")

LETTERS = set(string.ascii_letters)
DIGITS = set(string.digits)
WORD_CHARS = LETTERS | DIGITS | {"_", "$"}
BASED_DIGITS = LETTERS | DIGITS | {"_", "?"}


class ReferenceLexer:
    """Convert Verilog-subset source text into a list of tokens, one
    character at a time."""

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
        if char in LETTERS or char == "_" or char == "\\":
            return self._lex_identifier(line, column)
        if char in DIGITS or (char == "'" and self._peek(1)):
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
        while self._pos < len(self._source) and self._peek() in WORD_CHARS:
            self._advance()
        text = self._source[start:self._pos]
        if text in KEYWORDS:
            return Token("KEYWORD", text, line, column)
        return Token("IDENT", text, line, column)

    def _lex_number(self, line: int, column: int) -> Token:
        start = self._pos
        width: int | None = None
        # Optional size prefix before a base marker.
        while self._pos < len(self._source) and (self._peek() in DIGITS or self._peek() == "_"):
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
            while self._pos < len(self._source) and self._peek() in BASED_DIGITS:
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
                if base == 10 and all(char in DIGITS for char in digits):
                    raise ParseError(f"decimal number too long ({len(digits)} digits)",
                                     line, column) from exc
                if len(digits) > ECHOED_DIGITS:
                    digits = digits[:ECHOED_DIGITS] + "..."
                raise ParseError(f"invalid digits '{digits}' for base {base}", line, column) from exc
            if width is None:
                width = max(value.bit_length(), 1)
            text = self._source[start:self._pos]
            return Token("NUMBER", text, line, column, value=value, width=width)
        if not size_text:
            raise ParseError("malformed number", line, column)
        value = int(size_text)
        return Token("NUMBER", size_text, line, column, value=value, width=None)
