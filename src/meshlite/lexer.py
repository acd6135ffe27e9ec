"""Tokenizer for meshlite source text."""

import re

from .errors import LexError

KEYWORDS = {"var", "for", "from", "to", "proc", "function", "sync"}

# Longest operators first so ':=' wins over ':' and '::' over ':'.
OPERATORS = ["::", ":=", "<=", ">=", "==", "!=", ":", "+", "-", "*", "/", "<", ">"]

PUNCTUATION = {";", ",", "(", ")", "[", "]", "{", "}", "."}

END = "end"


class Token:
    """One token; equality compares kind and lexeme, not position."""

    __slots__ = ("kind", "lexeme", "line", "column")

    def __init__(self, kind, lexeme, line, column):
        self.kind = kind  # identifier | integer-literal | real-literal | string-literal | keyword | operator | punctuation | end
        self.lexeme = lexeme
        self.line = line
        self.column = column

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.lexeme == other.lexeme

    def __hash__(self):
        return hash((self.kind, self.lexeme))

    def __repr__(self):
        return f"Token({self.kind}, {self.lexeme!r}, {self.line}:{self.column})"


# Whitespace and comments that may precede a token. The quantifier is
# possessive: backtracking into a comment would lex its text as tokens.
_SKIP = r"(?:[ \t\r\n]+|//[^\n]*)*+"

# Each token kind and its pattern, tried in this order; the number of the
# group that matched indexes _KINDS. `\d` is exactly str.isdecimal() and
# `\w` exactly str.isalnum() or '_'. An identifier's first character is
# checked in tokenize, because `[^\W\d]` also admits numeric characters
# such as '½' that str.isalpha() rejects. Any other character matches the
# last pattern, so the scan never stops short of the end marker.
_PATTERNS = (
    ("punctuation", "[" + re.escape("".join(sorted(PUNCTUATION))) + "]"),
    ("operator", "|".join(re.escape(op) for op in OPERATORS)),
    ("identifier", r"[^\W\d]\w*"),
    ("real-literal", r"\d+\.\d+"),
    ("integer-literal", r"\d+"),
    ("string-literal", r'"[^"\n]*"'),
    (END, r"\Z"),
    (None, r"(?s:.)"),
)
_TOKEN = re.compile(_SKIP + "(?:" + "|".join(f"({p})" for _, p in _PATTERNS) + ")")
_KINDS = (None, *(kind for kind, _ in _PATTERNS))


def tokenize(source: str) -> list[Token]:
    """Split source into tokens, terminated by an end marker.

    Comments run from `//` to end of line. Raises LexError with the
    offending position for any character outside the language.
    """
    tokens = []
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN.finditer(source):
        group = m.lastindex
        start = m.start(group)
        if start != pos:
            newlines = source.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = source.rindex("\n", pos, start) + 1
        pos = m.end()
        kind = _KINDS[group]
        lexeme = source[start:pos]
        column = start - line_start + 1
        if kind == "identifier":
            if lexeme in KEYWORDS:
                kind = "keyword"
            elif not (lexeme[0].isalpha() or lexeme[0] == "_"):
                raise LexError(f"unexpected character {lexeme[0]!r}", line, column)
        elif kind is None:
            if lexeme == '"':
                raise LexError("unterminated string literal", line, column)
            raise LexError(f"unexpected character {lexeme!r}", line, column)
        tokens.append(Token(kind, lexeme, line, column))
        if kind == END:
            return tokens
