"""Unit tests for the Verilog lexer."""

import pytest

from repro.common.errors import LexError
from repro.verilog.lexer import tokenize
from repro.verilog.tokens import (EOF, IDENT, KEYWORD, NUMBER, OP, STRING,
                                  SYSIDENT)


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasics:
    def test_empty(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind == EOF

    def test_keywords_vs_idents(self):
        toks = tokenize("module foo")
        assert toks[0].kind == KEYWORD
        assert toks[1].kind == IDENT

    def test_ident_with_dollar_inside(self):
        toks = tokenize("a$b")
        assert toks[0].kind == IDENT and toks[0].value == "a$b"

    def test_sysident(self):
        toks = tokenize("$display")
        assert toks[0].kind == SYSIDENT and toks[0].value == "$display"

    def test_escaped_identifier(self):
        toks = tokenize("\\weird+name rest")
        assert toks[0].kind == IDENT and toks[0].value == "weird+name"
        assert toks[1].value == "rest"

    def test_line_numbers(self):
        toks = tokenize("a\nb\n  c")
        assert toks[0].loc.line == 1
        assert toks[1].loc.line == 2
        assert toks[2].loc.line == 3 and toks[2].loc.column == 3


class TestComments:
    def test_line_comment(self):
        assert values("a // comment\nb") == ["a", "b"]

    def test_block_comment(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_directive_skipped(self):
        assert values("`timescale 1ns/1ps\na") == ["a"]


class TestNumbers:
    def test_plain(self):
        toks = tokenize("42")
        assert toks[0].kind == NUMBER and toks[0].value == "42"

    def test_sized(self):
        assert values("8'hFF") == ["8'hFF"]

    def test_sized_with_space(self):
        assert values("8 'hFF") == ["8'hFF"]

    def test_unsized_based(self):
        assert values("'b1010") == ["'b1010"]

    def test_signed_base(self):
        assert values("4'sd7") == ["4'sd7"]

    def test_x_z_digits(self):
        assert values("4'b1xz0") == ["4'b1xz0"]

    def test_missing_digits(self):
        with pytest.raises(LexError):
            tokenize("8'h ;")

    def test_bad_base(self):
        with pytest.raises(LexError):
            tokenize("8'q0")


class TestOperators:
    def test_longest_match(self):
        assert values("a <<< b") == ["a", "<<<", "b"]
        assert values("a << b") == ["a", "<<", "b"]
        assert values("a === b") == ["a", "===", "b"]

    def test_indexed_part_select_ops(self):
        assert values("a[b+:4]") == ["a", "[", "b", "+:", "4", "]"]
        assert values("a[b-:4]") == ["a", "[", "b", "-:", "4", "]"]

    def test_reduction_ops(self):
        assert values("~& ~| ~^ ^~") == ["~&", "~|", "~^", "^~"]

    def test_unexpected_char(self):
        with pytest.raises(LexError):
            tokenize("a £ b")


class TestStrings:
    def test_simple(self):
        toks = tokenize('"hello"')
        assert toks[0].kind == STRING and toks[0].value == "hello"

    def test_escapes(self):
        toks = tokenize(r'"a\nb\tc\"d"')
        assert toks[0].value == 'a\nb\tc"d'

    def test_unterminated(self):
        with pytest.raises(LexError):
            tokenize('"never ends')

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize('"a\nb"')


class TestErrorLocations:
    """Each malformed-token error, with its message and where it
    points."""

    @pytest.mark.parametrize("text,message,line,column", [
        ("a\n  /* never ends", "unterminated block comment", 2, 3),
        ('x = "never ends', "unterminated string", 1, 5),
        ('x = "ends \\', "unterminated string", 1, 5),
        ('\n"a\nb"', "newline in string", 2, 1),
        ("$ display", "bad system identifier", 1, 1),
        ("a $1", "bad system identifier", 1, 3),
        ("a \\ b", "empty escaped identifier", 1, 3),
        ("8'q0", "bad literal base 'q'", 1, 3),
        ("x = 4 'sq1", "bad literal base 'q'", 1, 9),
        ("8'", "bad literal base '\\x00'", 1, 3),
        ("8'h ;", "missing digits in based literal", 1, 5),
        ("\t'b\n1", "missing digits in based literal", 1, 4),
        ("a £ b", "unexpected character '£'", 1, 3),
        ("a\n\tb \f", "unexpected character '\\x0c'", 2, 4),
    ])
    def test_message_and_location(self, text, message, line, column):
        with pytest.raises(LexError) as excinfo:
            tokenize(text, "t.v")
        err = excinfo.value
        assert (err.message, err.loc.source_name, err.loc.line,
                err.loc.column) == (message, "t.v", line, column)
        assert str(err) == f"t.v:{line}:{column}: {message}"

    def test_locations_after_multiline_trivia(self):
        toks = tokenize('/* a\n b */ x "p\\\nq" // c\n  `d\n 8 \'h F')
        assert [(t.value, t.loc.line, t.loc.column) for t in toks] == [
            ("x", 2, 7), ("p\nq", 2, 9), ("8'hF", 5, 2), ("", 5, 8)]
