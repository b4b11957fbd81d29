"""Tokenizer for the supported Java subset: one compiled pattern, tuple tokens.

Token grammar, tried in this order at each position:

    skip    blanks (space, tab, CR, LF), ``// ...`` to a CR or LF, ``/* ... */``
    word    ``$`` or a word character that is not a decimal digit, then
            word characters or ``$``; a keyword if in `KEYWORDS`
    number  decimal digits with an optional ``.digits`` fraction and an
            ``l``/``L`` (long) or ``d``/``D`` (double) suffix; an ``f``/``F``
            suffix, or ``L`` after a fraction, is an error at its start
    string  ``"..."`` and char ``'...'``: a backslash escapes any character,
            a CR or LF ends the literal unterminated
    punct   ``== != <= >= && || ->`` and one of ``{}();,.=<>!+-*/%[]@:``

"Word character" and "decimal digit" are Unicode's, as in Python's ``\\w``
and ``\\d``: ``é``, ``ß`` or ``中`` spell identifiers, ``٣`` is a digit, and
numeric characters that are not decimal digits (``²``, ``½``, ``Ⅻ``) are
identifier characters.  Anything else is an unexpected character.

Line terminators are `LINE_END`'s (JLS 3.4): CR LF, a lone CR, or LF.
`tokenize` rewrites each to LF before lexing, which moves no token.
Tokens carry 1-based line/column positions with exclusive end columns.
Columns count characters from the last newline outside a literal; a
string continued by a backslash-newline stays one token on its start line,
so later tokens on that line keep counting from there.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..model import LINE_END, PRIMITIVES, DepsketchError, Span


class JavaSyntaxError(DepsketchError):
    """Lexical or syntactic error, positioned in the original source."""

    def __init__(self, message: str, line: int, col: int, expected: frozenset[str] = frozenset()):
        super().__init__(f"{line}:{col}: {message}")
        self.reason = message
        self.line = line
        self.col = col
        self.expected = expected


MODIFIER_KEYWORDS = frozenset({"public", "private", "protected", "static", "final"})

KEYWORDS = PRIMITIVES | MODIFIER_KEYWORDS | {
    "class", "extends", "import", "new", "package", "return", "if", "else", "while", "for",
    "true", "false", "null",
}


class Token(NamedTuple):
    kind: str  # ident | kw | int | long | double | string | char | punct | eof
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, self.line, self.col + len(self.text))


# Each named group is a token kind, or `skip`, `word` or one of `_ERRORS`.
_TOKEN = re.compile(r"""
    (?P<word>(?:[^\W\d]|\$)[\w$]*)
  | (?P<skip>(?:[ \t\r\n]+|//[^\r\n]*|/\*[\s\S]*?\*/)+)
  | (?P<float>\d+(?:\.\d+)?[fF])
  | (?P<bad_suffix>\d+\.\d+[lL])
  | (?P<long>\d+[lL])
  | (?P<double>\d+(?:\.\d+)?[dD]|\d+\.\d+)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
  | (?P<char>'(?:[^'\\\n]|\\[\s\S])*')
  | (?P<open_string>")
  | (?P<open_char>')
  | (?P<open_comment>/\*)
  | (?P<punct>==|!=|<=|>=|&&|\|\||->|[{}();,.=<>!+\-*/%\[\]@:])
""", re.VERBOSE).match

_ERRORS = {
    "float": "float literals are not supported",
    "bad_suffix": "bad numeric literal suffix",
    "open_string": "unterminated string literal",
    "open_char": "unterminated char literal",
    "open_comment": "unterminated block comment",
}


def tokenize(source: str) -> list[Token]:
    if "\r" in source:
        source = LINE_END.sub("\n", source)
    tokens: list[Token] = []
    line, line_start, pos, end = 1, 0, 0, len(source)
    while pos < end:
        match = _TOKEN(source, pos)
        col = pos - line_start + 1
        if match is None:
            raise JavaSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        kind, text, pos = match.lastgroup, match.group(), match.end()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = source.rindex("\n", 0, pos) + 1
        elif kind == "word":
            tokens.append(Token("kw" if text in KEYWORDS else "ident", text, line, col))
        elif kind in _ERRORS:
            raise JavaSyntaxError(_ERRORS[kind], line, col)
        else:
            tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", line, end - line_start + 1))
    return tokens
