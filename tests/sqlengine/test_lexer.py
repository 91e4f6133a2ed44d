"""Unit tests for the SQL lexer."""

import pytest

from repro.errors import LexerError
from repro.sqlengine.lexer import TokenType, tokenize


def kinds(sql):
    return [tok.ttype for tok in tokenize(sql)[:-1]]


def texts(sql):
    return [tok.text for tok in tokenize(sql)[:-1]]


class TestBasics:
    def test_empty_input_yields_eof_only(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].ttype is TokenType.EOF

    def test_whitespace_skipped(self):
        assert kinds("  \n\t ") == []

    def test_keywords_lowered(self):
        assert texts("SELECT From WHERE") == ["select", "from", "where"]

    def test_identifiers_preserve_case(self):
        tokens = tokenize("PhotoObj")
        assert tokens[0].ttype is TokenType.IDENT
        assert tokens[0].text == "PhotoObj"

    def test_punctuation(self):
        assert kinds("( ) , . *") == [
            TokenType.LPAREN,
            TokenType.RPAREN,
            TokenType.COMMA,
            TokenType.DOT,
            TokenType.STAR,
        ]

    def test_positions_recorded(self):
        tokens = tokenize("a bc")
        assert tokens[0].position == 0
        assert tokens[1].position == 2


class TestOperators:
    @pytest.mark.parametrize(
        "op", ["<", ">", "=", "<=", ">=", "<>", "!=", "+", "-", "/", "%"]
    )
    def test_each_operator(self, op):
        tokens = tokenize(f"a {op} b")
        assert tokens[1].ttype is TokenType.OP
        assert tokens[1].text == op

    def test_two_char_ops_not_split(self):
        tokens = tokenize("a<=b")
        assert [t.text for t in tokens[:-1]] == ["a", "<=", "b"]


class TestNumbers:
    def test_integer(self):
        tok = tokenize("42")[0]
        assert tok.ttype is TokenType.NUMBER
        assert tok.value == 42
        assert isinstance(tok.value, int)

    def test_float(self):
        tok = tokenize("3.25")[0]
        assert tok.value == 3.25
        assert isinstance(tok.value, float)

    def test_leading_dot_float(self):
        assert tokenize(".5")[0].value == 0.5

    def test_scientific_notation(self):
        assert tokenize("1e3")[0].value == 1000.0
        assert tokenize("2.5e-2")[0].value == 0.025
        assert tokenize("1E+2")[0].value == 100.0

    def test_number_then_dot_ident_not_merged(self):
        tokens = tokenize("1.x")
        assert tokens[0].value == 1
        assert tokens[1].ttype is TokenType.DOT

    def test_e_not_followed_by_digit_stops_number(self):
        tokens = tokenize("1easy")
        assert tokens[0].value == 1
        assert tokens[1].text == "easy"


class TestStrings:
    def test_simple_string(self):
        tok = tokenize("'hello'")[0]
        assert tok.ttype is TokenType.STRING
        assert tok.value == "hello"

    def test_escaped_quote(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_empty_string(self):
        assert tokenize("''")[0].value == ""

    def test_unterminated_string_raises(self):
        with pytest.raises(LexerError, match="unterminated"):
            tokenize("'oops")


class TestBracketedIdentifiers:
    def test_bracketed_ident(self):
        tok = tokenize("[Photo Obj]")[0]
        assert tok.ttype is TokenType.IDENT
        assert tok.value == "Photo Obj"

    def test_unterminated_bracket_raises(self):
        with pytest.raises(LexerError):
            tokenize("[oops")


class TestComments:
    def test_line_comment_skipped(self):
        assert texts("a -- comment\n b") == ["a", "b"]

    def test_comment_at_eof(self):
        assert texts("a -- trailing") == ["a"]

    def test_minus_not_comment(self):
        assert texts("a - b") == ["a", "-", "b"]


class TestErrors:
    def test_unexpected_char(self):
        with pytest.raises(LexerError) as excinfo:
            tokenize("a ? b")
        assert excinfo.value.position == 2
