"""The lexer for the Verilog subset: one compiled master pattern.

Each token is one match of :data:`_TOKEN`, whose named alternatives are
tried in order at the current offset; trivia (whitespace, both comment
forms and compiler directives) matches too and is dropped.  Sized
literals written with whitespace between the size and the base
(``8 'hFF``) become a single NUMBER token, which keeps the parser
simple.  Locations come from the offset and a table of line starts.
Where no alternative matches, :func:`_error` names what is malformed.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import List

from ..common.errors import LexError, SourceLocation
from .tokens import (EOF, IDENT, KEYWORD, KEYWORDS, NUMBER, OP, OPERATORS,
                     STRING, SYSIDENT, Token)

#: ``'[s]<base>[ws]<digits>``: the based part of a literal.
_BASED = r"'[sS]?[bBoOdDhH][ \t]*[0-9a-fA-FxzXZ?_]+"

_TOKEN = re.compile("|".join((
    r"(?P<trivia>[ \t\r\n]+|//[^\n]*|`[^\n]*|/\*[\s\S]*?\*/)",
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_$]*)",
    rf"(?P<number>[0-9][0-9_]*(?:[ \t]*{_BASED})?|{_BASED})",
    r'"(?P<string>(?:[^"\\\n]|\\[\s\S])*)"',
    r"(?P<sysident>\$[A-Za-z_][A-Za-z0-9_$]*)",
    r"\\(?P<escaped>[^ \t\r\n]+)",
    # "/" never starts "/*": an unclosed comment is an error.
    "(?P<op>" + "|".join(r"/(?!\*)" if op == "/" else re.escape(op)
                         for op in OPERATORS) + ")",
)))

#: A based literal split for its canonical text: size, sign, base, digits.
_NUMBER_PARTS = re.compile(
    r"([0-9_]*)[ \t]*'([sS]?)([bBoOdDhH])[ \t]*([\s\S]*)")
_STRING_PREFIX = re.compile(r'"(?:[^"\\\n]|\\[\s\S])*')
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "0": "\0"}


def _number(text: str) -> str:
    """Drop the whitespace inside a literal and lower its sign and
    base letters (the digits keep their case)."""
    if "'" not in text:
        return text
    size, sign, base, digits = _NUMBER_PARTS.fullmatch(text).groups()
    return f"{size}'{sign.lower()}{base.lower()}{digits}"


def _error(text: str, pos: int, where) -> LexError:
    """The error for the malformed token at ``pos``; ``where(offset)``
    gives the location of an offset."""
    ch = text[pos]
    if text.startswith("/*", pos):
        return LexError("unterminated block comment", where(pos))
    if ch == '"':
        end = _STRING_PREFIX.match(text, pos).end()
        if text.startswith("\n", end):
            return LexError("newline in string", where(pos))
        return LexError("unterminated string", where(pos))
    if ch == "$":
        return LexError("bad system identifier", where(pos))
    if ch == "\\":
        return LexError("empty escaped identifier", where(pos))
    if ch == "'":
        # A size always lexes, so only a based part fails.
        at = pos + 1
        if text.startswith(("s", "S"), at):
            at += 1
        base = text[at] if at < len(text) else "\0"
        if base not in "bBoOdDhH":
            return LexError(f"bad literal base {base!r}", where(at))
        at += 1
        while text.startswith((" ", "\t"), at):
            at += 1
        return LexError("missing digits in based literal", where(at))
    return LexError(f"unexpected character {ch!r}", where(pos))


def tokenize(text: str, source_name: str = "<input>") -> List[Token]:
    """All tokens of one source buffer, including the trailing EOF."""
    starts = [0]
    newline = text.find("\n")
    while newline >= 0:
        starts.append(newline + 1)
        newline = text.find("\n", newline + 1)

    def where(offset: int) -> SourceLocation:
        line = bisect_right(starts, offset)
        return SourceLocation(source_name, line,
                              offset - starts[line - 1] + 1)

    out: List[Token] = []
    append = out.append
    match = _TOKEN.match
    pos, end = 0, len(text)
    while pos < end:
        m = match(text, pos)
        if m is None:
            raise _error(text, pos, where)
        kind = m.lastgroup
        if kind != "trivia":
            value = m.group(kind)
            if kind == "ident":
                append(Token(KEYWORD if value in KEYWORDS else IDENT,
                             value, where(pos)))
            elif kind == "op":
                append(Token(OP, value, where(pos)))
            elif kind == "number":
                append(Token(NUMBER, _number(value), where(pos)))
            elif kind == "string":
                if "\\" in value:
                    value = _ESCAPE.sub(
                        lambda e: _ESCAPES.get(e.group(1), e.group(1)),
                        value)
                append(Token(STRING, value, where(pos)))
            elif kind == "sysident":
                append(Token(SYSIDENT, value, where(pos)))
            else:  # escaped identifier
                append(Token(IDENT, value, where(pos)))
        pos = m.end()
    append(Token(EOF, "", where(end)))
    return out
