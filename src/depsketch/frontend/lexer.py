"""Tokenizer for the supported Java subset: one pattern, read into columns.

Each match of the pattern is a prefix of blanks and comments, then one
token or one error:

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

Every position matches one of these forms.  An error's match takes the
rest of the source with it, so the pass ends at the first error: an
unterminated literal or comment never makes later positions scan to the
end again.

`tokenize` runs the pattern's ``findall`` once and reads the matches into
columns, in C-level passes over them: each token's text, its kind (a dict
from keyword and punctuation texts, else the class of its first character,
found once per distinct text) and its start offset, from
``itertools.accumulate`` over the matched lengths.  Line and column are
not stored per token: `Tokens` keeps the offsets where lines start and
bisects them only for a token whose position is asked for, for a `Span`
the parser keeps or an error.  Indexing or iterating `Tokens` gives
`Token` tuples.

"Word character" and "decimal digit" are Unicode's, as in Python's ``\\w``
and ``\\d``: ``é``, ``ß`` or ``中`` spell identifiers, ``٣`` is a digit, and
numeric characters that are not decimal digits (``²``, ``½``, ``Ⅻ``) are
identifier characters.

Line terminators are `LINE_END`'s (JLS 3.4): CR LF, a lone CR, or LF.
`tokenize` rewrites each to LF before lexing, which moves no token.
Tokens carry 1-based line/column positions with exclusive end columns.
Lines start after a newline outside a literal; a string continued by a
backslash-newline stays one token on its start line, so later tokens on
that line keep counting columns from there.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate, chain, repeat
from operator import add, itemgetter
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


# Three groups: the prefix, then a token, or else an error's first
# characters, with the rest of the source after them uncaptured.  Token
# forms start with distinct characters, so their order only matters for
# speed.  The number form looks past the two number errors, and `/` is not
# punctuation before `*`: there the prefix has found no comment's end.
_TOKENS = re.compile(r"""
    ([ \t\r\n]*(?:(?://[^\r\n]*|/\*[\s\S]*?\*/)[ \t\r\n]*)*)
    (?:
      ( (?:[^\W\d]|\$)[\w$]*
      | ==|!=|<=|>=|&&|\|\||->|/(?!\*)|[{}();,.=<>!+\-*%\[\]@:]
      | (?!\d+(?:\.\d+)?[fF]|\d+\.\d+[lL])\d+(?:\.\d+)?[lLdD]?
      | "(?:[^"\\\n]|\\[\s\S])*"
      | '(?:[^'\\\n]|\\[\s\S])*'
      | \Z
      )
    | ( \d+(?:\.\d+)?[fF] | \d+\.\d+[lL] | " | ' | /\* | [\s\S] ) [\s\S]*
    )
""", re.VERBOSE).findall

_ERRORS = {
    '"': "unterminated string literal",
    "'": "unterminated char literal",
    "/*": "unterminated block comment",
}
_PUNCTUATION = "== != <= >= && || -> { } ( ) ; , . = < > ! + - * / % [ ] @ :".split()


class _Kinds(dict):
    """Token text -> kind; a text not in the dict is classified on first use."""

    def __missing__(self, text: str) -> str:
        first = text[0]
        if first == '"':
            kind = "string"
        elif first == "'":
            kind = "char"
        elif not first.isdecimal():
            kind = "ident"
        elif text[-1] in "lL":
            kind = "long"
        elif text[-1] in "dD" or "." in text:
            kind = "double"
        else:
            kind = "int"
        self[text] = kind
        return kind


_KINDS = {"": "eof"} | dict.fromkeys(KEYWORDS, "kw") | dict.fromkeys(_PUNCTUATION, "punct")
_prefix, _text = itemgetter(0), itemgetter(1)


class Tokens(Sequence):
    """The tokens of one source, as columns; items are `Token` tuples.

    ``texts``, ``kinds`` and ``starts`` (offsets into the source with line
    ends rewritten to LF) hold one entry per token, the ``eof`` token last.
    ``line_starts`` holds the offset where each line starts, 0 first.
    """

    __slots__ = ("texts", "kinds", "starts", "line_starts")

    def __init__(self, texts: list[str], kinds: list[str], starts: list[int], line_starts: list[int]):
        self.texts = texts
        self.kinds = kinds
        self.starts = starts
        self.line_starts = line_starts

    def __len__(self) -> int:
        return len(self.texts)

    def __getitem__(self, index: int) -> Token:
        return Token(self.kinds[index], self.texts[index], *self.position(index))

    def position(self, index: int) -> tuple[int, int]:
        """1-based line and column of token *index*."""
        start = self.starts[index]
        line = bisect_right(self.line_starts, start)
        return line, start - self.line_starts[line - 1] + 1

    def span(self, first: int, last: int | None = None) -> Span:
        """From the start of token *first* to the end of token *last*, or of *first*."""
        # `position`, inlined: the parser asks for thousands of spans.
        start = self.starts[first]
        line = bisect_right(self.line_starts, start)
        col = start - self.line_starts[line - 1] + 1
        if last is None:
            return Span(line, col, line, col + len(self.texts[first]))
        end_line, end_col = self.position(last)
        return Span(line, col, end_line, end_col + len(self.texts[last]))


def tokenize(source: str) -> Tokens:
    if "\r" in source:
        source = LINE_END.sub("\n", source)
    found = _TOKENS(source)
    texts = list(map(_text, found))
    starts = list(map(add, accumulate(map(len, map(_prefix, found))), accumulate(map(len, texts), initial=0)))
    # The first empty text is the eof token, or the error that ended the
    # pass; an empty match at the very end may follow it.
    last = texts.index("")
    del texts[last + 1:], starts[last + 1:]
    if "\\\n" in source:
        # A literal continued by a backslash-newline starts no line: blank
        # out its newlines, which keeps every offset.
        blanked = map(str.replace, texts, repeat("\n"), repeat(" "))
        source = "".join(chain.from_iterable(zip(map(_prefix, found), blanked)))
    # A line ends one character after its text, at an LF; the last line
    # ends at the end of the source instead, and starts no line after it.
    line_starts = [0, *accumulate(map(add, map(len, source.split("\n")), repeat(1)))]
    line_starts.pop()
    tokens = Tokens(texts, list(map(_Kinds(_KINDS).__getitem__, texts)), starts, line_starts)
    error = found[last][2]
    if error:
        if error in _ERRORS:
            message = _ERRORS[error]
        elif error[0].isdecimal():
            message = "float literals are not supported" if error[-1] in "fF" else "bad numeric literal suffix"
        else:
            message = f"unexpected character {error!r}"
        raise JavaSyntaxError(message, *tokens.position(last))
    return tokens
