"""Tokenizer for the Verilog subset.

Handles identifiers, sized and unsized numeric literals (binary, decimal,
hexadecimal and octal bases), operators, punctuation, and both ``//`` and
``/* */`` comments.  Line/column information is preserved on every token so
parse errors point at the offending source position.

:func:`tokenize` scans with one master regular expression.  Where the
pattern matches nothing, or a based literal's digits are not digits of its
base, it raises a :class:`~repro.hdl.errors.ParseError` located at the
offending token (an unterminated block comment: at end of input).
Simple identifiers and numbers are ASCII (IEEE 1364-2005 §3.7); other
text is accepted only inside comments, compiler-directive lines and
escaped identifiers.
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


#: One token, or a run of whitespace/comments, per match.  ``/`` is an
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

#: A literal whose base marker is not ``b``/``d``/``h``/``o``; the group
#: is the marker, empty for a size and quote at end of input.
_BAD_BASE = re.compile(r"[0-9][0-9_]*'(.?)|'(.)", re.DOTALL)

_BASES = {"b": 2, "d": 10, "h": 16, "o": 8}
_UNKNOWN_DIGITS = str.maketrans("xXzZ?", "00000", "_")

#: An ``invalid digits`` message echoes at most this many digits.
ECHOED_DIGITS = 32


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` and return the token list (including EOF)."""
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    pos, end = 0, len(source)
    line, line_start = 1, 0
    while pos < end:
        found = match(source, pos)
        if found is None:
            raise _unmatched(source, pos, line, pos - line_start + 1)
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
            append(Token("NUMBER", size_text, line, column,
                         value=_decimal(size_text, line, column)))
        elif kind == "based":
            quote = text.index("'")
            size_text = text[:quote].replace("_", "")
            digits = text[quote + 2:].translate(_UNKNOWN_DIGITS)
            if not digits:
                raise ParseError("missing digits in sized literal", line, column)
            base = _BASES[text[quote + 1].lower()]
            if base == 10 and digits.isdigit():
                value = _decimal(digits, line, column)
            else:
                try:
                    value = int(digits, base)
                except ValueError:
                    raise ParseError(
                        f"invalid digits '{_excerpt(digits)}' for base {base}",
                        line, column) from None
            width = (_decimal(size_text, line, column) if size_text
                     else max(value.bit_length(), 1))
            append(Token("NUMBER", text, line, column, value=value, width=width))
        else:  # escaped identifier: the backslash is not part of the name
            append(Token("IDENT", text[1:], line, column))
    tokens.append(Token("EOF", "", line, end - line_start + 1))
    return tokens


def _decimal(digits: str, line: int, column: int) -> int:
    """``int(digits)``; past Python's integer-string digit limit, a
    located error instead of its ``ValueError``."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"decimal number too long ({len(digits)} digits)",
                         line, column) from None


def _excerpt(digits: str) -> str:
    """``digits``, cut to :data:`ECHOED_DIGITS` characters for a message."""
    if len(digits) <= ECHOED_DIGITS:
        return digits
    return digits[:ECHOED_DIGITS] + "..."


def _unmatched(source: str, pos: int, line: int, column: int) -> ParseError:
    """The located error for ``source[pos:]``, where no token matches."""
    if source.startswith("/*", pos):
        # The scan ran to end of input looking for ``*/``.
        return ParseError("unterminated block comment",
                          source.count("\n") + 1, len(source) - source.rfind("\n"))
    literal = _BAD_BASE.match(source, pos)
    if literal is None:
        return ParseError(f"unexpected character {source[pos]!r}", line, column)
    base = literal[literal.lastindex]
    if not base:
        return ParseError("missing digits in sized literal", line, column)
    return ParseError(f"unknown number base '{base.lower()}'", line, column)
