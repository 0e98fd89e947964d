"""Tests for the Verilog-subset lexer."""

from __future__ import annotations

import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.designs import arbiters, itc99, rigel, simple
from repro.hdl.errors import ParseError
from repro.hdl.lexer import tokenize

from lexer_reference import ReferenceLexer

SOURCES = {
    name: text
    for module in (arbiters, itc99, rigel, simple)
    for name, text in sorted(vars(module).items())
    if name.endswith("_SOURCE") and isinstance(text, str)
}


def kinds(source):
    return [token.kind for token in tokenize(source)]


def texts(source):
    return [token.text for token in tokenize(source) if token.kind != "EOF"]


def outcome(lex, source):
    """The token list, or the error text where ``lex`` rejects ``source``."""
    try:
        return lex(source)
    except ParseError as error:
        return str(error)


def reference(source):
    return ReferenceLexer(source).tokenize()


class TestBasics:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind == "EOF"

    def test_identifiers_and_keywords(self):
        tokens = tokenize("module foo_bar endmodule")
        assert [t.kind for t in tokens[:3]] == ["KEYWORD", "IDENT", "KEYWORD"]

    def test_identifier_with_dollar(self):
        assert texts("sig$x") == ["sig$x"]

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1 and tokens[0].column == 1
        assert tokens[1].line == 2 and tokens[1].column == 3


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert texts("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(ParseError):
            tokenize("a /* never closed")

    def test_compiler_directive_skipped(self):
        assert texts("`timescale 1ns/1ps\nmodule") == ["module"]


class TestNumbers:
    def test_plain_decimal(self):
        token = tokenize("42")[0]
        assert token.kind == "NUMBER" and token.value == 42 and token.width is None

    def test_sized_binary(self):
        token = tokenize("4'b1010")[0]
        assert token.value == 10 and token.width == 4

    def test_sized_hex(self):
        token = tokenize("8'hFF")[0]
        assert token.value == 255 and token.width == 8

    def test_sized_decimal(self):
        token = tokenize("3'd5")[0]
        assert token.value == 5 and token.width == 3

    def test_octal(self):
        token = tokenize("6'o17")[0]
        assert token.value == 0o17 and token.width == 6

    def test_underscores_ignored(self):
        token = tokenize("8'b1010_1010")[0]
        assert token.value == 0xAA

    def test_x_and_z_digits_become_zero(self):
        token = tokenize("4'b1x0z")[0]
        assert token.value == 0b1000

    def test_unsized_based_literal_gets_minimal_width(self):
        token = tokenize("'b101")[0]
        assert token.value == 5 and token.width == 3

    def test_bad_base_raises(self):
        with pytest.raises(ParseError):
            tokenize("4'q1010")

    def test_missing_digits_raises(self):
        with pytest.raises(ParseError):
            tokenize("4'b;")

    @pytest.mark.parametrize("prefix, suffix", [("", ""), ("", "'b1"), ("4'd", "")])
    def test_decimal_past_the_int_digit_limit_raises(self, prefix, suffix):
        # int() refuses decimal strings over this limit with a ValueError.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no integer-string digit limit")
        with pytest.raises(ParseError) as excinfo:
            tokenize("x " + prefix + "9" * (limit + 1) + suffix)
        assert str(excinfo.value) == \
            f"decimal number too long ({limit + 1} digits) at line 1, column 3"


class TestTermination:
    """The lexer must terminate on *any* input.

    Regression context: a sized literal at end-of-input used to hang the
    digit loop forever, because the EOF sentinel is the empty string and
    ``"" in "_xzXZ?"`` is true — which froze the whole tier-1 suite.
    """

    #: Every base marker, with underscores and x/z/? digits, deliberately
    #: placed at the very end of the source (no trailing newline).
    SIZED_LITERALS_AT_EOF = [
        "4'b1010",
        "4'b1_0x0",
        "4'bzz?1",
        "6'o17",
        "6'o1_7",
        "3'd5",
        "8'd2_55",
        "8'hFF",
        "8'hF_f",
        "8'hxZ",
        "'b101",
        "'o7",
        "'d9",
        "'hA",
    ]

    @pytest.mark.parametrize("source", SIZED_LITERALS_AT_EOF)
    def test_sized_literal_at_end_of_input_terminates(self, source):
        tokens = tokenize(source)
        assert tokens[0].kind == "NUMBER"
        assert tokens[-1].kind == "EOF"

    @pytest.mark.parametrize("source", [s + "\n" for s in SIZED_LITERALS_AT_EOF])
    def test_sized_literal_before_newline_terminates(self, source):
        tokens = tokenize(source)
        assert tokens[0].kind == "NUMBER"

    def test_size_prefix_at_end_of_input_terminates(self):
        for source in ("4", "4_2", "12_"):
            token = tokenize(source)[0]
            assert token.kind == "NUMBER"

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=string.printable, max_size=40))
    def test_tokenize_terminates_on_arbitrary_printable_input(self, source):
        """tokenize() either yields a token list ending in EOF or raises
        a ParseError — it never hangs and never raises anything else."""
        try:
            tokens = tokenize(source)
        except ParseError:
            return
        assert tokens[-1].kind == "EOF"

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=40))
    def test_tokenize_terminates_on_arbitrary_unicode_input(self, source):
        """The same over the whole Unicode alphabet: a non-ASCII digit or
        letter once leaked a ``ValueError`` or lexed as an ASCII number."""
        try:
            tokens = tokenize(source)
        except ParseError:
            return
        assert tokens[-1].kind == "EOF"

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(0, 64),
        base=st.sampled_from("bodhBODH"),
        digits=st.text(alphabet="0123456789abcdefxzXZ?_", max_size=12),
    )
    def test_sized_literal_shapes_terminate(self, size, base, digits):
        source = f"{size or ''}'{base}{digits}"
        try:
            tokens = tokenize(source)
        except ParseError:
            return
        assert tokens[-1].kind == "EOF"


class TestOperators:
    def test_multi_character_operators(self):
        assert texts("a <= b == c && d") == ["a", "<=", "b", "==", "c", "&&", "d"]

    def test_maximal_munch_for_shift(self):
        assert texts("a << 2") == ["a", "<<", "2"]

    def test_reduction_nand(self):
        assert texts("~& a") == ["~&", "a"]

    def test_unexpected_character_raises(self):
        with pytest.raises(ParseError) as excinfo:
            tokenize("a § b")
        assert "line 1" in str(excinfo.value)


class TestNonAscii:
    """Simple identifiers and numbers are ASCII (IEEE 1364-2005 §3.7)."""

    @pytest.mark.parametrize("source, line, column", [
        ("\u00b2", 1, 1),              # superscript two: a digit to str.isdigit
        ("\u0663", 1, 1),              # Arabic-Indic three: int() reads it as 3
        ("caf\u00e9", 1, 4),
        ("a \u00a7 b", 1, 3),
        ("x\n  y\u00b2", 2, 4),
        ("4'd\u0663", 1, 1),           # no ASCII digits after the base
    ])
    def test_non_ascii_outside_comments_is_rejected_with_a_location(
            self, source, line, column):
        with pytest.raises(ParseError) as excinfo:
            tokenize(source)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    def test_non_ascii_inside_comments_and_escaped_identifiers_lexes(self):
        source = ("// caf\u00e9 \u00b2\n/* \u0663 \u00a7 */ `define \u00e9\n"
                  "\\caf\u00e9 x")
        assert texts(source) == ["caf\u00e9", "x"]
        assert tokenize(source)[0].line == 3


class TestMasterPattern:
    """The regex scanner against the character-level reference lexer."""

    #: Pieces of literals, comments and escapes, where the two scanners'
    #: rules are most intricate.
    LITERAL_FRAGMENTS = ["4'b", "8'h", "'d", "'o", "4'", "'", "'q", "1_0", "x", "Z",
                         "?", "_", "g", "/*", "*/", "//", "/", "\n", " ", "\\",
                         "`", "\u00e9"]

    def test_equal_tokens_on_every_design_source(self):
        assert len(SOURCES) == 13
        for name, source in SOURCES.items():
            assert tokenize(source) == reference(source), name

    @pytest.mark.parametrize("source", [
        "a \u00a7 b",        # stray non-ASCII character
        "x /* open",         # unterminated block comment
        "x\n/* open\n y",    # ... located at end of input
        "4'q1",              # unknown base after a size
        "4'Q1",              # ... reported in lower case
        "'q",                # unknown base without a size
        "8'b",               # no digits
        "4'",                # a size and quote at end of input
        "4'b_",              # only underscores
        "4'b102",            # digit outside the base
        "8'hxg",             # ... after x/z digits become zero
        "8'h" + "g" * 40,    # ... echoed up to ECHOED_DIGITS digits
        "'",                 # a lone quote at end of input
        "a\fb",              # a form feed is no whitespace here
        "a $b",              # ``$`` cannot start an identifier
        "a \"b\"",           # no string literals
    ])
    def test_unmatched_input_raises_the_reference_error(self, source):
        with pytest.raises(ParseError) as scanned:
            tokenize(source)
        with pytest.raises(ParseError) as expected:
            reference(source)
        assert str(scanned.value) == str(expected.value)

    @pytest.mark.parametrize("source, message", [
        ("x\n/* open\n y", "unterminated block comment at line 3, column 3"),
        ("a 4'Q1", "unknown number base 'q' at line 1, column 3"),
        ("4'", "missing digits in sized literal at line 1, column 1"),
        ("4'b102", "invalid digits '102' for base 2 at line 1, column 1"),
        ("4'd" + "1" * 5000 + "a",
         f"invalid digits '{'1' * 32}...' for base 10 at line 1, column 1"),
        ("8'o" + "9" * 5000,
         f"invalid digits '{'9' * 32}...' for base 8 at line 1, column 1"),
        ("a\n \u00b2", "unexpected character '\u00b2' at line 2, column 2"),
    ])
    def test_error_texts(self, source, message):
        with pytest.raises(ParseError) as excinfo:
            tokenize(source)
        assert str(excinfo.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet=string.printable, max_size=60))
    def test_tokenize_equals_reference_on_printable_text(self, source):
        assert outcome(tokenize, source) == outcome(reference, source)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(LITERAL_FRAGMENTS), max_size=12).map("".join))
    def test_tokenize_equals_reference_on_literal_heavy_text(self, source):
        assert outcome(tokenize, source) == outcome(reference, source)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=60))
    def test_tokenize_equals_reference_on_any_text(self, source):
        assert outcome(tokenize, source) == outcome(reference, source)
