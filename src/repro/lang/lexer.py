"""Lexer for MiniC: one precompiled alternation, matched once per token.

Supports decimal and hexadecimal integer literals, character literals with
the usual escapes, double-quoted byte-string literals, ``//`` line comments
and ``/* */`` block comments.

The grammar is ASCII.  Identifiers are ``[A-Za-z_][A-Za-z0-9_]*`` and
numbers ``[0-9]+`` or ``0x[0-9A-Fa-f]+``; a number directly followed by an
identifier character is malformed.  Any other non-ASCII character outside
literals and comments is a :class:`LexError`; literals accept characters
up to 255.

:func:`tokenize` matches one precompiled alternation, ``_TOKEN``, once per
token: a run of blanks, then an identifier or keyword, a line comment, a
block comment opener (closed with one ``find``), a punctuator (longest
first), a newline (counted for ``line``) or a plain decimal.  Whatever it
does not match starts a hex or malformed number, a character literal, a
string literal or an error, and goes to the helpers ``_lex_number``,
``_lex_char`` and ``_lex_string``, which raise the diagnostics.
"""

import re

from repro.lang.errors import LexError
from repro.lang.tokens import EOF, IDENT, INT, KEYWORDS, PUNCT, STRING, Token

_ESCAPES = {
    "n": 10,
    "t": 9,
    "r": 13,
    "0": 0,
    "\\": 92,
    "'": 39,
    '"': 34,
}

_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_IDENT_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)

# Each match skips leading blanks, then takes the first alternative that
# fits.  Comments come before punctuation so ``//`` and ``/*`` never lex as
# ``/``, and two-character punctuators come before the one-character class.
# The empty ``other`` alternative always fits: it hands the character after
# the blanks (or the end of the source) to the helpers.
_TOKEN = re.compile(
    r"[ \t\r]*(?:"
    r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<line_comment>//[^\n]*)"
    r"|(?P<block_comment>/\*)"
    r"|(?P<punct>%s|[%s])"
    r"|(?P<newline>\n)"
    r"|(?P<int>[0-9]+)(?![A-Za-z0-9_])"
    r"|(?P<other>))"
    % (
        "|".join(re.escape(p) for p in PUNCT if len(p) > 1),
        "".join(re.escape(p) for p in PUNCT if len(p) == 1),
    )
)

# Punctuator spelling -> the interned kind string from ``PUNCT``.
_PUNCT_KINDS = {punct: punct for punct in PUNCT}


def tokenize(source):
    """Convert MiniC ``source`` text into a list of tokens ending with EOF.

    Raises :class:`~repro.lang.errors.LexError` on malformed input.
    """
    tokens = []
    append = tokens.append
    match = _TOKEN.match
    pos = 0
    line = 1
    length = len(source)
    while pos < length:
        m = match(source, pos)
        kind = m.lastgroup
        text = m[kind]
        pos = m.end()
        if kind == "name":
            append(Token(text if text in KEYWORDS else IDENT, text, line))
        elif kind == "punct":
            append(Token(_PUNCT_KINDS[text], text, line))
        elif kind == "newline":
            line += 1
        elif kind == "int":
            append(Token(INT, int(text), line))
        elif kind == "line_comment":
            pass
        elif kind == "block_comment":
            end = source.find("*/", pos)
            if end < 0:
                raise LexError("unterminated block comment", line)
            line += source.count("\n", pos, end)
            pos = end + 2
        elif pos < length:
            ch = source[pos]
            if ch in _DIGITS:
                tok, pos = _lex_number(source, pos, line)
                append(tok)
            elif ch == "'":
                value, pos = _lex_char(source, pos, line)
                append(Token(INT, value, line))
            elif ch == '"':
                value, pos, line = _lex_string(source, pos, line)
                append(Token(STRING, value, line))
            else:
                raise LexError("unexpected character %r" % ch, line)
    append(Token(EOF, None, line))
    return tokens


def _lex_number(source, pos, line):
    length = len(source)
    start = pos
    if source.startswith("0x", pos) or source.startswith("0X", pos):
        pos += 2
        while pos < length and source[pos] in _HEX_DIGITS:
            pos += 1
        if pos == start + 2:
            raise LexError("malformed hex literal", line)
        base = 16
    else:
        while pos < length and source[pos] in _DIGITS:
            pos += 1
        base = 10
    if pos < length and source[pos] in _IDENT_CHARS:
        raise LexError("malformed number %r" % source[start : pos + 1], line)
    return Token(INT, int(source[start:pos], base), line), pos


def _lex_char(source, pos, line):
    # pos points at the opening quote.
    pos += 1
    if pos >= len(source):
        raise LexError("unterminated character literal", line)
    ch = source[pos]
    if ch == "\\":
        pos += 1
        if pos >= len(source) or source[pos] not in _ESCAPES:
            raise LexError("bad escape in character literal", line)
        value = _ESCAPES[source[pos]]
    else:
        value = ord(ch)
        if value > 255:
            raise LexError("non-byte character literal", line)
    pos += 1
    if pos >= len(source) or source[pos] != "'":
        raise LexError("unterminated character literal", line)
    return value, pos + 1


def _lex_string(source, pos, line):
    # pos points at the opening quote.
    pos += 1
    out = bytearray()
    length = len(source)
    while pos < length:
        ch = source[pos]
        if ch == '"':
            return bytes(out), pos + 1, line
        if ch == "\n":
            raise LexError("unterminated string literal", line)
        if ch == "\\":
            pos += 1
            if pos >= length or source[pos] not in _ESCAPES:
                raise LexError("bad escape in string literal", line)
            out.append(_ESCAPES[source[pos]])
        else:
            code = ord(ch)
            if code > 255:
                raise LexError("non-byte character in string literal", line)
            out.append(code)
        pos += 1
    raise LexError("unterminated string literal", line)
