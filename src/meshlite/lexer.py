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


# The pattern scans one line at a time. Whitespace, and a comment running
# to the end of the line, may precede a token. The quantifiers are
# possessive: backtracking into a comment would lex its text as tokens.
_SKIP = r"[ \t\r]*+(?://[^\n]*)?+"

# Each token kind and its pattern, tried in this order; the number of the
# group that matched indexes _KINDS. `\d` is exactly str.isdecimal() and
# `\w` exactly str.isalnum() or '_'. An identifier's first character is
# checked in tokenize, because `[^\W\d]` also admits numeric characters
# such as '½' that str.isalpha() rejects. The end of the line matches END
# and any other character the last pattern, so every position of a line
# starts a match and the scan never skips text.
_PATTERNS = (
    ("punctuation", "[" + re.escape("".join(sorted(PUNCTUATION))) + "]"),
    ("operator", "|".join(re.escape(op) for op in OPERATORS)),
    ("identifier", r"[^\W\d]\w*"),
    ("real-literal", r"\d+\.\d+"),
    ("integer-literal", r"\d+"),
    ("string-literal", r'"[^"\n]*"'),
    (END, r"\Z"),
    (None, r"."),
)
_TOKEN = re.compile(_SKIP + "(?:" + "|".join(f"({p})" for _, p in _PATTERNS) + ")")
_KINDS = (None, *(kind for kind, _ in _PATTERNS))


def tokenize(source: str) -> list[Token]:
    """Split source into tokens, terminated by an end marker.

    Scans one line at a time: no token, string or comment spans a line, so
    a token's line is its line's number and its column its offset there.
    Comments run from `//` to end of line. Raises LexError with the
    offending position for any character outside the language.
    """
    tokens = []
    for line, text in enumerate(source.split("\n"), 1):
        for m in _TOKEN.finditer(text):
            group = m.lastindex
            kind = _KINDS[group]
            if kind == END:
                break
            start = m.start(group)
            lexeme = m[group]
            column = start + 1
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
    tokens.append(Token(END, "", line, len(text) + 1))
    return tokens
