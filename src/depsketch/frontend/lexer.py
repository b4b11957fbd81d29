"""Tokenizer for the supported Java subset.

Tokens carry 1-based line/column positions with exclusive end columns.
Strings and chars must close on the same line, so every token is
single-line and its span is trivial to compute.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..model import PRIMITIVES, DepsketchError, Span


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
    "class", "extends", "import", "new", "return", "if", "else", "while", "for",
    "true", "false", "null",
}

_TWO_CHAR = ("==", "!=", "<=", ">=", "&&", "||", "->")
_ONE_CHAR = set("{}();,.=<>!+-*/%[]@:")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | kw | int | long | double | string | char | punct | eof
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, self.line, self.col + len(self.text))


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)

    def error(message: str) -> JavaSyntaxError:
        return JavaSyntaxError(message, line, col)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
                col += 1
            continue
        if source.startswith("/*", i):
            start_line, start_col = line, col
            i += 2
            col += 2
            while i < n and not source.startswith("*/", i):
                if source[i] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                i += 1
            if i >= n:
                raise JavaSyntaxError("unterminated block comment", start_line, start_col)
            i += 2
            col += 2
            continue
        if ch.isalpha() or ch in "_$":
            j = i
            while j < n and (source[j].isalnum() or source[j] in "_$"):
                j += 1
            text = source[i:j]
            tokens.append(Token("kw" if text in KEYWORDS else "ident", text, line, col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            kind = "int"
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
                kind = "double"
            if j < n and source[j] in "lL":
                if kind == "double":
                    raise error("bad numeric literal suffix")
                j += 1
                kind = "long"
            elif j < n and source[j] in "dD":
                j += 1
                kind = "double"
            elif j < n and source[j] in "fF":
                raise error("float literals are not supported")
            text = source[i:j]
            tokens.append(Token(kind, text, line, col))
            col += j - i
            i = j
            continue
        if ch in "\"'":
            quote = ch
            start_line, start_col = line, col
            j = i + 1
            while j < n and source[j] != quote:
                if source[j] == "\n":
                    break
                j += 2 if source[j] == "\\" else 1
            if j >= n or source[j] != quote:
                what = "string" if quote == '"' else "char"
                raise JavaSyntaxError(f"unterminated {what} literal", start_line, start_col)
            text = source[i : j + 1]
            tokens.append(Token("string" if quote == '"' else "char", text, line, col))
            col += j + 1 - i
            i = j + 1
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise error(f"unexpected character {ch!r}")

    tokens.append(Token("eof", "", line, col))
    return tokens
