"""Tokenizer for the supported Java subset: one compiled pattern, one match per token.

Each match is a prefix of blanks and comments, then one token:

    prefix  any run of blanks (space, tab, CR, LF), ``// ...`` to a CR or LF
            and ``/* ... */``; it holds no token
    word    ``$`` or a word character that is not a decimal digit, then
            word characters or ``$``; a keyword if in `KEYWORDS`
    number  decimal digits with an optional ``.digits`` fraction and an
            ``l``/``L`` (long) or ``d``/``D`` (double) suffix; an ``f``/``F``
            suffix, or ``L`` after a fraction, is an error at its start
    string  ``"..."`` and char ``'...'``: a backslash escapes any character,
            a CR or LF ends the literal unterminated
    punct   ``== != <= >= && || ->`` and one of ``{}();,.=<>!+-*/%[]@:``
    eof     the end of the source, after the last prefix
    bad     any other one character, an unexpected-character error

The token kinds are tried in this order, so every position matches and
`tokenize` makes one ``finditer`` pass over the source.

"Word character" and "decimal digit" are Unicode's, as in Python's ``\\w``
and ``\\d``: ``é``, ``ß`` or ``中`` spell identifiers, ``٣`` is a digit, and
numeric characters that are not decimal digits (``²``, ``½``, ``Ⅻ``) are
identifier characters.

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


# Each named group is a token kind, `word`, `bad` or one of `_ERRORS`, after
# a prefix of blanks and comments.  `eof` and `bad` make every position
# match, so the prefix is never given back.
_TOKENS = re.compile(r"""
    (?:[ \t\r\n]+|//[^\r\n]*|/\*[\s\S]*?\*/)*
    (?:
      (?P<word>(?:[^\W\d]|\$)[\w$]*)
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
    | (?P<eof>\Z)
    | (?P<bad>[\s\S])
    )
""", re.VERBOSE).finditer

_ERRORS = {
    "float": "float literals are not supported",
    "bad_suffix": "bad numeric literal suffix",
    "open_string": "unterminated string literal",
    "open_char": "unterminated char literal",
    "open_comment": "unterminated block comment",
}
_VALUE_KINDS = frozenset({"punct", "int", "long", "double", "string", "char"})
# `Token.__new__` is a Python function; building the tuple directly skips
# that call for each of the thousands of tokens in a long snippet.
_new = tuple.__new__


def tokenize(source: str) -> list[Token]:
    if "\r" in source:
        source = LINE_END.sub("\n", source)
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for match in _TOKENS(source):
        kind = match.lastgroup
        start, end = match.span(kind)
        skipped = match.start()
        if start != skipped:
            newlines = source.count("\n", skipped, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", skipped, start) + 1
        col = start - line_start + 1
        if kind == "word":
            text = source[start:end]
            append(_new(Token, ("kw" if text in KEYWORDS else "ident", text, line, col)))
        elif kind in _VALUE_KINDS:
            append(_new(Token, (kind, source[start:end], line, col)))
        elif kind == "eof":
            append(Token("eof", "", line, col))
            break
        elif kind == "bad":
            raise JavaSyntaxError(f"unexpected character {source[start]!r}", line, col)
        else:
            raise JavaSyntaxError(_ERRORS[kind], line, col)
    return tokens
