"""Tokenizer for the SQL subset used by the astronomy workload.

Handles identifiers (including ``[bracketed]`` SQL Server style), dotted
names, numeric and string literals, operators, and the keyword set needed
for select-project-join-aggregate queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List

from repro.errors import LexerError

KEYWORDS = frozenset(
    {
        "select", "from", "where", "and", "or", "not", "as", "top",
        "join", "inner", "left", "outer", "on", "group", "by", "order",
        "asc", "desc", "between", "in", "like", "is", "null", "limit",
        "distinct", "count", "sum", "avg", "min", "max", "having",
    }
)


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OP = "op"
    COMMA = "comma"
    DOT = "dot"
    LPAREN = "lparen"
    RPAREN = "rparen"
    STAR = "star"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    """One lexical token.

    Attributes:
        ttype: Token category.
        text: Canonical text (keywords lowered, identifiers as written).
        value: Decoded value for literals (int/float/str).
        position: Character offset in the source.
    """

    ttype: TokenType
    text: str
    value: Any
    position: int

    def is_keyword(self, word: str) -> bool:
        return self.ttype is TokenType.KEYWORD and self.text == word


_TWO_CHAR_OPS = ("<=", ">=", "<>", "!=")
_ONE_CHAR_OPS = "<>=+-/%"


def tokenize(sql: str) -> List[Token]:
    """Tokenize ``sql`` into a list ending with an EOF token.

    Raises:
        LexerError: on unterminated strings or unexpected characters.
    """
    tokens: List[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-" and i + 1 < n and sql[i + 1] == "-":
            # Line comment.
            j = sql.find("\n", i)
            i = n if j < 0 else j + 1
            continue
        if ch == "," :
            tokens.append(Token(TokenType.COMMA, ",", None, i))
            i += 1
            continue
        if ch == "." and not (i + 1 < n and sql[i + 1].isdigit()):
            tokens.append(Token(TokenType.DOT, ".", None, i))
            i += 1
            continue
        if ch == "(":
            tokens.append(Token(TokenType.LPAREN, "(", None, i))
            i += 1
            continue
        if ch == ")":
            tokens.append(Token(TokenType.RPAREN, ")", None, i))
            i += 1
            continue
        if ch == "*":
            tokens.append(Token(TokenType.STAR, "*", None, i))
            i += 1
            continue
        if ch == "'":
            tokens.append(_lex_string(sql, i))
            i += len(tokens[-1].text)
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and sql[i + 1].isdigit()
        ):
            tokens.append(_lex_number(sql, i))
            i += len(tokens[-1].text)
            continue
        if ch == "[":
            tokens.append(_lex_bracketed(sql, i))
            i += len(tokens[-1].text)
            continue
        if ch.isalpha() or ch == "_":
            tokens.append(_lex_word(sql, i))
            i += len(tokens[-1].text)
            continue
        two = sql[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(TokenType.OP, two, None, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token(TokenType.OP, ch, None, i))
            i += 1
            continue
        raise LexerError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", None, n))
    return tokens


def _lex_string(sql: str, start: int) -> Token:
    """Lex a single-quoted string with '' as the escape for a quote."""
    i = start + 1
    n = len(sql)
    chars: List[str] = []
    while i < n:
        ch = sql[i]
        if ch == "'":
            if i + 1 < n and sql[i + 1] == "'":
                chars.append("'")
                i += 2
                continue
            text = sql[start : i + 1]
            return Token(TokenType.STRING, text, "".join(chars), start)
        chars.append(ch)
        i += 1
    raise LexerError("unterminated string literal", start)


def _lex_number(sql: str, start: int) -> Token:
    i = start
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            # A dot not followed by a digit terminates the number (it is
            # probably a qualified-name dot after an integer — unlikely,
            # but keep the rule strict).
            if i + 1 < n and sql[i + 1].isdigit():
                seen_dot = True
                i += 1
            else:
                break
        elif ch in "eE" and not seen_exp and i > start:
            nxt = sql[i + 1] if i + 1 < n else ""
            nxt2 = sql[i + 2] if i + 2 < n else ""
            if nxt.isdigit() or (nxt in "+-" and nxt2.isdigit()):
                seen_exp = True
                i += 2 if nxt in "+-" else 1
            else:
                break
        else:
            break
    text = sql[start:i]
    if seen_dot or seen_exp:
        return Token(TokenType.NUMBER, text, float(text), start)
    return Token(TokenType.NUMBER, text, int(text), start)


def _lex_word(sql: str, start: int) -> Token:
    i = start
    n = len(sql)
    while i < n and (sql[i].isalnum() or sql[i] == "_"):
        i += 1
    text = sql[start:i]
    lowered = text.lower()
    if lowered in KEYWORDS:
        return Token(TokenType.KEYWORD, lowered, None, start)
    return Token(TokenType.IDENT, text, None, start)


def _lex_bracketed(sql: str, start: int) -> Token:
    end = sql.find("]", start)
    if end < 0:
        raise LexerError("unterminated bracketed identifier", start)
    text = sql[start : end + 1]
    return Token(TokenType.IDENT, text, text[1:-1], start)
