"""Lexer unit tests."""

import random

import pytest

from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.tokens import EOF, IDENT, INT, KEYWORDS, PUNCT, STRING, Token
from repro.subjects import all_subject_names, get_subject


def kinds(source):
    return [t.kind for t in tokenize(source)]


def values(source):
    return [t.value for t in tokenize(source)[:-1]]


def test_empty_source_yields_eof_only():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].kind == EOF


def test_decimal_int():
    assert values("42") == [42]


def test_hex_int():
    assert values("0xFF 0x10") == [255, 16]


def test_malformed_hex_rejected():
    with pytest.raises(LexError):
        tokenize("0x")


def test_number_followed_by_letter_rejected():
    with pytest.raises(LexError):
        tokenize("12ab")


def test_identifier_and_keyword_distinction():
    tokens = tokenize("while whilex fn fnord")
    assert [t.kind for t in tokens[:-1]] == ["while", IDENT, "fn", IDENT]


def test_underscore_identifiers():
    assert values("_x x_1 __") == ["_x", "x_1", "__"]


def test_char_literal():
    assert values("'a' 'Z' '0'") == [97, 90, 48]


def test_char_escapes():
    assert values(r"'\n' '\t' '\0' '\\' '\''") == [10, 9, 0, 92, 39]


def test_unterminated_char_rejected():
    with pytest.raises(LexError):
        tokenize("'a")


def test_bad_char_escape_rejected():
    with pytest.raises(LexError):
        tokenize(r"'\q'")


def test_string_literal_bytes():
    tokens = tokenize('"RIFF"')
    assert tokens[0].kind == STRING
    assert tokens[0].value == b"RIFF"


def test_string_escapes():
    tokens = tokenize(r'"a\nb\"c"')
    assert tokens[0].value == b'a\nb"c'


def test_unterminated_string_rejected():
    with pytest.raises(LexError):
        tokenize('"abc')


def test_string_with_newline_rejected():
    with pytest.raises(LexError):
        tokenize('"ab\ncd"')


def test_line_comments_skipped():
    assert values("1 // comment 2\n3") == [1, 3]


def test_block_comments_skipped():
    assert values("1 /* 2\n2.5 */ 3") == [1, 3]


def test_unterminated_block_comment_rejected():
    with pytest.raises(LexError):
        tokenize("/* never closed")


def test_multichar_punct_greedy():
    assert kinds("<< <= < == = !")[:-1] == ["<<", "<=", "<", "==", "=", "!"]


def test_logical_operators():
    assert kinds("&& || & |")[:-1] == ["&&", "||", "&", "|"]


def test_line_numbers_track_newlines():
    tokens = tokenize("a\nb\n\nc")
    assert [t.line for t in tokens[:-1]] == [1, 2, 4]


def test_line_numbers_across_block_comment():
    tokens = tokenize("/* one\ntwo */ x")
    assert tokens[0].line == 2


def test_unexpected_character_rejected():
    with pytest.raises(LexError):
        tokenize("a @ b")


def test_all_binary_operator_spellings():
    source = "+ - * / % < <= > >= == != & | ^ << >>"
    expected = source.split()
    assert kinds(source)[:-1] == expected


# -- ASCII contract: identifiers and numbers are ASCII; any other non-ASCII
# character outside literals and comments is a LexError. ---------------------


@pytest.mark.parametrize("source", ["²", "٣", "é", "aé", "x ²"])
def test_non_ascii_outside_literals_rejected(source):
    with pytest.raises(LexError, match="unexpected character"):
        tokenize(source)


def test_non_ascii_after_number_is_unexpected_not_malformed():
    with pytest.raises(LexError, match="unexpected character"):
        tokenize("12é")


@pytest.mark.parametrize("source", ["0xFFg", "0x1_", "0x1z", "0XabQ"])
def test_hex_followed_by_identifier_char_rejected(source):
    with pytest.raises(LexError, match="malformed number"):
        tokenize(source)


def test_non_ascii_allowed_in_comments():
    assert values("1 // café ²\n2 /* ٣ */ 3") == [1, 2, 3]


def test_literals_accept_characters_up_to_255():
    assert values("'é' 'ÿ'") == [0xE9, 0xFF]
    assert tokenize('"éÿ"')[0].value == b"\xe9\xff"
    with pytest.raises(LexError, match="non-byte character literal"):
        tokenize("'Ā'")
    with pytest.raises(LexError, match="non-byte character in string"):
        tokenize('"٣"')


# -- token identity -------------------------------------------------------------
#
# A frozen copy of the hand-written lexer, one character test at a time, as
# it stood once identifiers and numbers were made ASCII.  ``tokenize`` must
# give equal tokens, or a LexError with an equal message and line, on every
# subject source and on seeded random strings.

_ORACLE_IDENT_START = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
)
_ORACLE_IDENT_CHARS = _ORACLE_IDENT_START | frozenset("0123456789")
_ORACLE_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}


def _oracle_tokenize(source):
    tokens = []
    pos = 0
    line = 1
    length = len(source)
    while pos < length:
        ch = source[pos]
        if ch == "\n":
            line += 1
            pos += 1
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if source.startswith("//", pos):
            end = source.find("\n", pos)
            pos = length if end < 0 else end
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos + 2)
            if end < 0:
                raise LexError("unterminated block comment", line)
            line += source.count("\n", pos, end)
            pos = end + 2
            continue
        if ch in "0123456789":
            tok, pos = _oracle_number(source, pos, line)
            tokens.append(tok)
            continue
        if ch in _ORACLE_IDENT_START:
            start = pos
            while pos < length and source[pos] in _ORACLE_IDENT_CHARS:
                pos += 1
            name = source[start:pos]
            kind = name if name in KEYWORDS else IDENT
            tokens.append(Token(kind, name, line))
            continue
        if ch == "'":
            value, pos = _oracle_char(source, pos, line)
            tokens.append(Token(INT, value, line))
            continue
        if ch == '"':
            value, pos, line = _oracle_string(source, pos, line)
            tokens.append(Token(STRING, value, line))
            continue
        for punct in PUNCT:
            if source.startswith(punct, pos):
                tokens.append(Token(punct, punct, line))
                pos += len(punct)
                break
        else:
            raise LexError("unexpected character %r" % ch, line)
    tokens.append(Token(EOF, None, line))
    return tokens


def _oracle_number(source, pos, line):
    length = len(source)
    start = pos
    if source.startswith("0x", pos) or source.startswith("0X", pos):
        pos += 2
        while pos < length and source[pos] in "0123456789abcdefABCDEF":
            pos += 1
        if pos == start + 2:
            raise LexError("malformed hex literal", line)
        base = 16
    else:
        while pos < length and source[pos] in "0123456789":
            pos += 1
        base = 10
    if pos < length and source[pos] in _ORACLE_IDENT_CHARS:
        raise LexError("malformed number %r" % source[start : pos + 1], line)
    return Token(INT, int(source[start:pos], base), line), pos


def _oracle_char(source, pos, line):
    pos += 1
    if pos >= len(source):
        raise LexError("unterminated character literal", line)
    ch = source[pos]
    if ch == "\\":
        pos += 1
        if pos >= len(source) or source[pos] not in _ORACLE_ESCAPES:
            raise LexError("bad escape in character literal", line)
        value = _ORACLE_ESCAPES[source[pos]]
    else:
        value = ord(ch)
        if value > 255:
            raise LexError("non-byte character literal", line)
    pos += 1
    if pos >= len(source) or source[pos] != "'":
        raise LexError("unterminated character literal", line)
    return value, pos + 1


def _oracle_string(source, pos, line):
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
            if pos >= length or source[pos] not in _ORACLE_ESCAPES:
                raise LexError("bad escape in string literal", line)
            out.append(_ORACLE_ESCAPES[source[pos]])
        else:
            code = ord(ch)
            if code > 255:
                raise LexError("non-byte character in string literal", line)
            out.append(code)
        pos += 1
    raise LexError("unterminated string literal", line)


def _outcome(lex, source):
    try:
        return [(tok.kind, tok.value, tok.line) for tok in lex(source)]
    except LexError as exc:
        return ("LexError", exc.message, exc.line)


# Fragments the random sources are drawn from: every punctuator, quotes and
# escapes, both comment forms, newlines and blanks, hex prefixes, digits,
# letters and keywords.  The rare ones (lone quotes and comment openers,
# bad escapes, non-ASCII and stray characters) usually end the source in a
# LexError, so they are drawn one time in twenty.
_FRAGMENTS = (
    list(PUNCT)
    + ["'a'", "'\\n'", "'\\''", "'é'", '"ab"', '"a\\tb\\""', '"é\\0"', '""']
    + ["// c é\n", "/* c\n² */", "/**/", "*/"]
    + ["\n", "\n", " ", " ", " ", "\t", "\r"]
    + ["0x", "0X", "0", "7", "42", "0xFF", "0x1f"]
    + list("aZgxX_") + ["abc", "x1", "while", "fn", "var"]
)
_RARE_FRAGMENTS = (
    list("'\"\\") + ["\\q", "//", "/*", "\f", "9_", "'Ā'", '"€"']
    + ["é", "ÿ", "²", "٣", "Ā", "€", "@", "$", "#", "?", "."]
)


def _random_source(rng):
    return "".join(
        rng.choice(_RARE_FRAGMENTS if rng.random() < 0.05 else _FRAGMENTS)
        for _ in range(rng.randrange(16))
    )


@pytest.mark.parametrize("name", all_subject_names())
def test_subject_tokens_match_the_hand_lexer(name):
    source = get_subject(name).source
    assert _outcome(tokenize, source) == _outcome(_oracle_tokenize, source)


def test_random_sources_match_the_hand_lexer():
    rng = random.Random(1801)
    errors = 0
    for _ in range(20_000):
        source = _random_source(rng)
        expected = _outcome(_oracle_tokenize, source)
        assert _outcome(tokenize, source) == expected, repr(source)
        errors += isinstance(expected, tuple)
    # The alphabet exercises both outcomes, not just one.
    assert 2_000 < errors < 18_000
