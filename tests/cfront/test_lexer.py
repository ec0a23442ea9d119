"""Unit tests for the C lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront.lexer import (
    KEYWORDS,
    PUNCTUATORS,
    FloatConstant,
    IntConstant,
    TokenKind,
    tokenize,
)
from repro.errors import CParseError


def kinds(source):
    return [t.kind for t in tokenize(source) if t.kind is not TokenKind.EOF]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not TokenKind.EOF]


def lex_error(source):
    with pytest.raises(CParseError) as excinfo:
        tokenize(source)
    error = excinfo.value
    return str(error), error.line, error.column


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo while_ _bar")
        assert tokens[0].kind is TokenKind.KEYWORD
        assert tokens[1].kind is TokenKind.IDENTIFIER
        assert tokens[2].kind is TokenKind.IDENTIFIER  # while_ is not a keyword
        assert tokens[3].kind is TokenKind.IDENTIFIER

    def test_all_keywords_recognized(self):
        for keyword in sorted(KEYWORDS):
            token = tokenize(keyword)[0]
            assert token.kind is TokenKind.KEYWORD, keyword

    def test_punctuators_longest_match(self):
        assert texts("a <<= b") == ["a", "<<=", "b"]
        assert texts("a << b") == ["a", "<<", "b"]
        assert texts("a->b") == ["a", "->", "b"]
        assert texts("a-- -b") == ["a", "--", "-", "b"]
        assert texts("x...") == ["x", "..."]
        assert texts("a+++b") == ["a", "++", "+", "b"]
        assert texts("x>>=1") == ["x", ">>=", "1"]
        assert texts("...") == ["..."]
        assert texts("....") == ["...", "."]

    def test_every_punctuator_lexes_alone(self):
        for punct in PUNCTUATORS:
            assert kinds(punct) == [TokenKind.PUNCTUATOR], punct
            assert texts(punct) == [punct]

    def test_line_and_column_tracking(self):
        tokens = tokenize("int x;\nint y;")
        assert tokens[0].line == 1
        y_token = [t for t in tokens if t.text == "y"][0]
        assert y_token.line == 2
        assert y_token.column == 5

    def test_eof_position(self):
        eof = tokenize("int x;\n  ")[-1]
        assert (eof.kind, eof.line, eof.column) == (TokenKind.EOF, 2, 3)

    def test_unexpected_character_raises(self):
        with pytest.raises(CParseError):
            tokenize("int x @ y;")


class TestComments:
    def test_line_comment_skipped(self):
        expected = ["int", "x", ";", "int", "y", ";"]
        assert texts("int x; // comment here\nint y;") == expected

    def test_block_comment_skipped(self):
        assert texts("int /* hello */ x;") == ["int", "x", ";"]

    def test_block_comment_spanning_lines(self):
        tokens = tokenize("/* line one\nline two */ int x;")
        assert tokens[0].text == "int"
        assert tokens[0].line == 2

    def test_position_after_multi_line_block_comment(self):
        tokens = tokenize("a /* one\ntwo\nthree */ b c")
        positions = [(t.text, t.line, t.column) for t in tokens[:3]]
        assert positions == [("a", 1, 1), ("b", 3, 10), ("c", 3, 12)]

    def test_position_after_line_marker(self):
        tokens = tokenize('# 1 "file.c"\n  int x; # 7\ny')
        positions = [(t.text, t.line, t.column) for t in tokens[:4]]
        expected = [("int", 2, 3), ("x", 2, 7), (";", 2, 8), ("y", 3, 1)]
        assert positions == expected

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(CParseError):
            tokenize("/* never closed")


class TestIntegerConstants:
    def test_decimal_constant(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.INT_CONST
        assert isinstance(token.value, IntConstant)
        assert token.value.value == 42
        assert token.value.base == 10

    def test_hex_constant(self):
        token = tokenize("0xFF")[0]
        assert token.value.value == 255
        assert token.value.base == 16

    def test_octal_constant(self):
        token = tokenize("0777")[0]
        assert token.value.value == 511
        assert token.value.base == 8

    def test_unsigned_suffix(self):
        token = tokenize("42u")[0]
        assert token.value.unsigned is True

    def test_long_suffixes(self):
        assert tokenize("42L")[0].value.long is True
        assert tokenize("42LL")[0].value.long_long is True
        assert tokenize("42uLL")[0].value.unsigned is True

    def test_zero(self):
        assert tokenize("0")[0].value.value == 0

    @pytest.mark.parametrize(
        "source, text, value",
        [
            ("0x1Fu", "0x1Fu", IntConstant(31, unsigned=True, base=16)),
            ("0777", "0777", IntConstant(511, base=8)),
            ("42uLL", "42ull", IntConstant(42, unsigned=True, long_long=True)),
            ("7Lu", "7lu", IntConstant(7, unsigned=True, long=True)),
        ],
    )
    def test_spelling_and_decoded_value(self, source, text, value):
        token = tokenize(source)[0]
        assert token.kind is TokenKind.INT_CONST
        assert (token.text, token.value) == (text, value)

    def test_malformed_octal_constant(self):
        expected = ("malformed integer constant '08' at line 1", 1, 5)
        assert lex_error("x = 08;") == expected


class TestFloatingConstants:
    def test_simple_double(self):
        token = tokenize("3.5")[0]
        assert token.kind is TokenKind.FLOAT_CONST
        assert isinstance(token.value, FloatConstant)
        assert token.value.value == 3.5

    def test_exponent(self):
        assert tokenize("1e3")[0].value.value == 1000.0
        assert tokenize("2.5e-1")[0].value.value == 0.25

    def test_float_suffix(self):
        token = tokenize("1.5f")[0]
        assert token.value.is_float is True

    @pytest.mark.parametrize(
        "source, text, value",
        [
            (".5", ".5", FloatConstant(0.5)),
            ("1.", "1.", FloatConstant(1.0)),
            ("1e+3f", "1e+3f", FloatConstant(1000.0, is_float=True)),
            ("2.5L", "2.5l", FloatConstant(2.5, is_long_double=True)),
            ("1f", "1f", FloatConstant(1.0, is_float=True)),
        ],
    )
    def test_spelling_and_decoded_value(self, source, text, value):
        token = tokenize(source)[0]
        assert token.kind is TokenKind.FLOAT_CONST
        assert (token.text, token.value) == (text, value)

    def test_exponent_needs_digits(self):
        assert texts("1e") == ["1", "e"]
        assert texts("1e+") == ["1", "e", "+"]


class TestCharAndStringConstants:
    def test_simple_char(self):
        token = tokenize("'a'")[0]
        assert token.kind is TokenKind.CHAR_CONST
        assert token.value == ord("a")

    def test_escaped_char(self):
        assert tokenize(r"'\n'")[0].value == ord("\n")
        assert tokenize(r"'\0'")[0].value == 0
        assert tokenize(r"'\x41'")[0].value == 0x41

    def test_octal_and_hex_escapes(self):
        assert tokenize(r'"\101\x42\7"')[0].value == "AB\x07"
        assert tokenize(r"'\377'")[0].value == 0xFF

    def test_empty_char_constant_raises(self):
        with pytest.raises(CParseError):
            tokenize("''")

    def test_string_literal_value(self):
        token = tokenize('"hello"')[0]
        assert token.kind is TokenKind.STRING
        assert token.value == "hello"

    def test_string_with_escapes(self):
        assert tokenize(r'"a\tb\n"')[0].value == "a\tb\n"

    def test_unterminated_string_raises(self):
        with pytest.raises(CParseError):
            tokenize('"never closed')


@pytest.mark.parametrize(
    "source, message, line, column",
    [
        ("int x @ y;", "unexpected character '@'", 1, 7),
        ("int x;\n/* never\nclosed", "unterminated block comment", 3, 7),
        ('int x;\n"abc', "unterminated string literal", 2, 5),
        ('"ab\ncd"', "newline in string literal", 1, 4),
        ("x = '';", "empty character constant", 1, 7),
        ("'abc", "unterminated character constant", 1, 5),
        ('"a\\qb"', "unknown escape sequence \\q", 1, 4),
        ('"\\x"', "\\x used with no following hex digits", 1, 4),
    ],
)
def test_error_message_and_position(source, message, line, column):
    assert lex_error(source) == (f"{message} at line {line}", line, column)


_IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,6}", fullmatch=True)
_INTS = ["0", "42", "0x1f", "0777", "42u", "7l", "9ull"]
_FLOATS = ["1.5", ".5", "1.", "1e3", "2.5e-1", "1e+3f", "3.0l"]
_SEPARATORS = [" ", "\t", "\n", " /* c */ ", " /* a\nb */\n", " // x\n", '\n# 3 "f"\n']


def _spelled(kind, spellings):
    return spellings.map(lambda spelling: (kind, spelling))


_TOKENS = st.one_of(
    _spelled(TokenKind.IDENTIFIER, _IDENTIFIERS.filter(lambda s: s not in KEYWORDS)),
    _spelled(TokenKind.KEYWORD, st.sampled_from(sorted(KEYWORDS))),
    _spelled(TokenKind.PUNCTUATOR, st.sampled_from(PUNCTUATORS)),
    _spelled(TokenKind.INT_CONST, st.sampled_from(_INTS)),
    _spelled(TokenKind.FLOAT_CONST, st.sampled_from(_FLOATS)),
    _spelled(TokenKind.STRING, st.from_regex(r'"[a-z %]{0,5}"', fullmatch=True)),
    _spelled(TokenKind.CHAR_CONST, st.from_regex(r"'[a-z]'", fullmatch=True)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_TOKENS, st.sampled_from(_SEPARATORS)), max_size=30))
def test_tokens_relex_through_whitespace_and_comments(pairs):
    source = ""
    expected = []
    for (kind, spelling), separator in pairs:
        column = len(source) - source.rfind("\n")
        expected.append((kind, spelling, source.count("\n") + 1, column))
        source += spelling + separator
    tokens = tokenize(source)
    assert [(t.kind, t.text, t.line, t.column) for t in tokens[:-1]] == expected
    assert tokens[-1].kind is TokenKind.EOF
