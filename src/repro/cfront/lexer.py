"""A lexer for the C99/C11 subset supported by the reproduction.

The lexer works on already-preprocessed text (see
:mod:`repro.cfront.preprocessor`) and produces a flat list of
:class:`Token` objects carrying source positions, which every later stage
uses for error reports (kcc reports include the function and line of the
undefined behavior).

It is one pass of one compiled regular expression: every match is a whole
token or a run of whitespace, comments and residual ``#`` line markers.  The
line comes from counting the newlines each skipped run spans, the column from
where the current line starts, and constants and literals are decoded once,
when their token is built.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import CParseError


class TokenKind(enum.Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    INT_CONST = "integer-constant"
    FLOAT_CONST = "floating-constant"
    CHAR_CONST = "character-constant"
    STRING = "string-literal"
    PUNCTUATOR = "punctuator"
    EOF = "eof"


# fmt: off
KEYWORDS = frozenset({
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if",
    "inline", "int", "long", "register", "restrict", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union",
    "unsigned", "void", "volatile", "while", "_Bool", "_Alignof",
    "_Static_assert", "_Noreturn",
})

# Longest-match-first list of punctuators.  ``#`` is not among them: at a
# token boundary it always starts a residual line marker, which is skipped.
PUNCTUATORS = (
    "...", "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "*=", "/=", "%=", "+=", "-=", "&=", "^=", "|=",
    "[", "]", "(", ")", "{", "}", ".", "&", "*", "+", "-", "~", "!",
    "/", "%", "<", ">", "^", "|", "?", ":", ";", "=", ",",
)

SIMPLE_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "a": "\a", "b": "\b",
    "f": "\f", "v": "\v", "\\": "\\", "'": "'", '"': '"', "?": "?",
}
# fmt: on


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int
    value: object = None  # decoded value for constants / string literals

    def is_keyword(self, *names: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text in names

    def is_punct(self, *names: str) -> bool:
        return self.kind is TokenKind.PUNCTUATOR and self.text in names

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, line={self.line})"


@dataclass(frozen=True)
class IntConstant:
    """Decoded integer constant: value plus suffix information."""

    value: int
    unsigned: bool = False
    long: bool = False
    long_long: bool = False
    base: int = 10


@dataclass(frozen=True)
class FloatConstant:
    value: float
    is_float: bool = False  # 'f' suffix
    is_long_double: bool = False


# A literal body: plain characters and backslash escapes, never a raw newline
# in a string (a character constant may span lines).
_STRING_BODY = r'[^"\\\n]*(?:\\[^\n][^"\\\n]*)*'
_CHAR_BODY = r"[^'\\]*(?:\\[^\n][^'\\]*)*"
# The digits of a constant; its suffix is the run of ``[uUlLfF]`` after them.
_NUMBER_DIGITS = (
    r"0[xX][0-9a-fA-F]*|(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
)

# One match per token: the whitespace, comments and residual ``#`` line
# markers before it (``skip``), then one alternative per token class, tried in
# this order.  A literal that does not close matches only its opening quote
# (``bad_*``) and ``_unclosed_literal`` finds the exact error; ``bad`` catches
# any other character and ``end`` the end of the input.
_TOKEN_RE = re.compile(
    r"(?P<skip>(?:[ \t\r\n\f\v]+|//[^\n]*|/\*[\s\S]*?\*/|#[^\n]*)+)?(?:"
    + "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
            ("name", r"[^\W\d]\w*"),
            ("open_comment", r"/\*"),
            ("number", f"(?:{_NUMBER_DIGITS})[uUlLfF]*"),
            ("punct", "|".join(map(re.escape, PUNCTUATORS))),
            ("string", f'"{_STRING_BODY}"'),
            ("char", f"'{_CHAR_BODY}'"),
            ("bad_string", '"'),
            ("bad_char", "'"),
            ("bad", r"[\s\S]"),
            ("end", r"\Z"),
        )
    )
    + ")"
)
_UNCLOSED_RE = {'"': re.compile('"' + _STRING_BODY), "'": re.compile("'" + _CHAR_BODY)}
_NUMBER_RE = re.compile(f"({_NUMBER_DIGITS})(.*)")
_ESCAPE_RE = re.compile(r"\\(?:x([0-9a-fA-F]*)|([1-7][0-7]{0,2})|(.?))")

_KEYWORD = TokenKind.KEYWORD
_IDENTIFIER = TokenKind.IDENTIFIER
_PUNCTUATOR = TokenKind.PUNCTUATOR


def _error_at(source: str, pos: int, message: str) -> CParseError:
    line = source.count("\n", 0, pos) + 1
    return CParseError(message, line=line, column=pos - source.rfind("\n", 0, pos))


def _decode(source: str, start: int, end: int) -> str:
    """The characters ``source[start:end]`` spells, escapes resolved."""
    if "\\" not in source[start:end]:
        return source[start:end]
    parts = []
    pos = start
    for match in _ESCAPE_RE.finditer(source, start, end):
        parts.append(source[pos : match.start()])
        hex_digits, octal, other = match.groups()
        if hex_digits is not None:
            if not hex_digits:
                message = "\\x used with no following hex digits"
                raise _error_at(source, match.start() + 2, message)
            parts.append(chr(int(hex_digits, 16) & 0xFF))
        elif octal is not None:
            parts.append(chr(int(octal, 8) & 0xFF))
        elif other in SIMPLE_ESCAPES:
            parts.append(SIMPLE_ESCAPES[other])
        else:
            message = f"unknown escape sequence \\{other}"
            raise _error_at(source, match.start() + 1, message)
        pos = match.end()
    parts.append(source[pos:end])
    return "".join(parts)


def _unclosed_literal(source: str, start: int) -> CParseError:
    """The first error in the literal opening at ``start`` that never closes."""
    quote = source[start]
    stop = _UNCLOSED_RE[quote].match(source, start).end()
    _decode(source, start + 1, stop)  # an earlier bad escape is reported first
    if stop == len(source):
        kind = "string literal" if quote == '"' else "character constant"
        return _error_at(source, stop, f"unterminated {kind}")
    if source[stop] == "\n":
        return _error_at(source, stop, "newline in string literal")
    # A backslash with only a newline or the end of input after it.
    ch = source[stop + 1 : stop + 2]
    return _error_at(source, stop + 1, f"unknown escape sequence \\{ch}")


def _number(text: str, line: int, column: int) -> tuple[TokenKind, str, object]:
    """The kind, spelling and decoded value of the constant ``text``."""
    digits, suffix = _NUMBER_RE.match(text).groups()
    suffix = suffix.lower()
    hexadecimal = digits[:2] in ("0x", "0X")
    if not hexadecimal and ("f" in suffix or "." in digits or "e" in digits.lower()):
        value = FloatConstant(
            value=float(digits),
            is_float="f" in suffix,
            is_long_double="l" in suffix and "f" not in suffix,
        )
        return TokenKind.FLOAT_CONST, digits + suffix, value
    base = 16 if hexadecimal else 8 if digits[0] == "0" and len(digits) > 1 else 10
    try:
        int_value = int(digits, base)
    except ValueError as exc:
        raise CParseError(
            f"malformed integer constant {digits!r}", line, column
        ) from exc
    longs = suffix.count("l")
    value = IntConstant(
        value=int_value,
        unsigned="u" in suffix,
        long=longs == 1,
        long_long=longs >= 2,
        base=base,
    )
    return TokenKind.INT_CONST, digits + suffix, value


def tokenize(source: str, filename: str = "<input>") -> list[Token]:
    """Tokenize preprocessed source into a list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # ``Token(...)`` without its Python-level ``__new__``
    numbers: dict[str, tuple[TokenKind, str, object]] = {}
    line = 1
    line_start = 0  # offset of the first character of ``line``
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match[kind]
        start = match.start(kind)
        skipped = match["skip"]
        if skipped and "\n" in skipped:
            line += skipped.count("\n")
            line_start = start - len(skipped) + skipped.rindex("\n") + 1
        column = start - line_start + 1
        if kind == "punct":
            append(new(Token, (_PUNCTUATOR, text, line, column, None)))
        elif kind == "name":
            token_kind = _KEYWORD if text in KEYWORDS else _IDENTIFIER
            append(new(Token, (token_kind, text, line, column, None)))
        elif kind == "number":
            decoded = numbers.get(text)
            if decoded is None:
                decoded = numbers[text] = _number(text, line, column)
            token_kind, spelling, value = decoded
            append(new(Token, (token_kind, spelling, line, column, value)))
        elif kind == "string":
            value = _decode(source, start + 1, match.end() - 1)
            append(Token(TokenKind.STRING, f'"{value}"', line, column, value))
        elif kind == "char":
            chars = _decode(source, start + 1, match.end() - 1)
            if not chars:
                raise _error_at(source, match.end(), "empty character constant")
            # Multi-character constants have implementation-defined value; we
            # take the last character, which matches common implementations.
            value = ord(chars[-1])
            append(Token(TokenKind.CHAR_CONST, f"'{chars}'", line, column, value))
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rindex("\n") + 1
        elif kind == "end":
            break
        elif kind == "open_comment":
            raise _error_at(source, len(source), "unterminated block comment")
        elif kind == "bad":
            raise CParseError(f"unexpected character {text!r}", line, column)
        else:
            raise _unclosed_literal(source, start)
    append(Token(TokenKind.EOF, "", line, len(source) - line_start + 1))
    return tokens
