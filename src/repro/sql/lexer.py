"""Tokenizer for the SQL subset, and the *shape* of a statement's text.

Both are one compiled pattern each and share the literal sub-patterns
(:data:`_STRING`, :data:`_NUMBER`) and :func:`literal_value`, so they
cannot disagree on what a literal is: the *n*-th literal
:func:`shape` cuts out of a text is the *n*-th NUMBER/STRING token
:func:`tokenize` produces for it (``tests/sql/test_lexer.py`` holds the
two to that, and :func:`tokenize` to the character loop it replaced).
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple, Optional, Tuple

from repro.errors import SQLSyntaxError

KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "LIMIT", "AS", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE",
    "UNION", "EXCEPT", "ALL",
    "ASC", "DESC", "JOIN", "INNER", "ON", "IS", "NULL", "TRUE", "FALSE",
    "COUNT", "SUM", "AVG", "MIN", "MAX",
}

class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


class Token(NamedTuple):
    type: TokenType
    value: object
    #: offset of the token's first character
    position: int

    def is_keyword(self, *names: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in names

    def is_punct(self, *symbols: str) -> bool:
        return self.type is TokenType.PUNCT and self.value in symbols

    def __str__(self) -> str:
        return f"{self.value}"


#: a quoted string; ``''`` inside it is one quote
_STRING = r"'(?:[^']|'')*'"
#: digits with at most one dot; a dot no digit follows is punctuation
_NUMBER = r"\d+(?:\.\d+)?|\.\d+"
_COMMENT = r"--[^\n]*"

#: blanks and comments, then one token; ``junk`` is an identifier
#: run glued to a number (``1e5``) and ``bad`` anything else, so
#: consecutive matches cover the text up to ``end``
_TOKEN = re.compile(
    rf"\s*(?:{_COMMENT}\s*)*(?:"
    r"(?P<word>[^\W\d]\w*)"
    r"|(?P<punct><=|>=|<>|!=|[-=<>(),*+/]|\.(?!\d))"
    rf"|(?P<number>{_NUMBER})(?P<junk>[^\W\d]\w*)?"
    rf"|(?P<string>{_STRING})"
    r"|(?P<end>\Z)"
    r"|(?P<bad>.))",
    re.DOTALL,
)
_WORD, _PUNCT, _NUM, _JUNK, _STR, _END, _BAD = map(
    _TOKEN.groupindex.__getitem__,
    ("word", "punct", "number", "junk", "string", "end", "bad"),
)

#: every literal of a text, and the comments a quote or digit may sit in.
#: A digit glued to a word character is part of an identifier (``q1``,
#: ``F.a2``); :func:`tokenize` gets there by eating the identifier whole.
#: The lookahead names the characters an alternative can start with: one
#: test, not four, at every other character (9.6 -> 5.5 us a statement)
_LITERAL = re.compile(rf"(?=[-'.\d])(?:{_COMMENT}|({_STRING}|(?<!\w){_NUMBER}))")


def literal_value(text: str) -> object:
    """The value a NUMBER or STRING literal's text denotes."""
    if text[0] == "'":
        return text[1:-1].replace("''", "'")
    return float(text) if "." in text else int(text)


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises :class:`SQLSyntaxError` on bad input."""
    tokens: List[Token] = []
    append = tokens.append
    for match in _TOKEN.finditer(text):
        kind = match.lastindex
        position = match.start(kind)
        if kind == _WORD:
            word = match[_WORD]
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, position))
            else:
                append(Token(TokenType.IDENT, word, position))
        elif kind == _PUNCT:
            symbol = match[_PUNCT]
            append(Token(TokenType.PUNCT, "<>" if symbol == "!=" else symbol, position))
        elif kind == _NUM or kind == _STR:
            literal = TokenType.NUMBER if kind == _NUM else TokenType.STRING
            append(Token(literal, literal_value(match[kind]), position))
        elif kind == _END:
            break
        elif kind == _JUNK:
            raise SQLSyntaxError(
                f"malformed number {match[_NUM] + match[_JUNK]!r}",
                match.start(_NUM),
            )
        elif match[_BAD] == "'":
            raise SQLSyntaxError("unterminated string literal", len(text))
        else:
            raise SQLSyntaxError(f"unexpected character {match[_BAD]!r}", position)
    append(Token(TokenType.EOF, None, len(text)))
    return tokens


def shape(text: str) -> Tuple[Tuple[str, ...], Optional[List[str]]]:
    """``text`` cut at its literals: the pieces between them, and the
    literals' texts in order — ``None`` when the text holds a comment
    (a comment's place would read as a literal's).

    Two texts with the same pieces differ in their literals only, so
    they tokenize to the same stream but for NUMBER/STRING values.
    """
    parts = _LITERAL.split(text)
    literals = parts[1::2]
    return tuple(parts[::2]), None if None in literals else literals
