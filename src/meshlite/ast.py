"""AST node definitions, and how diagnostics print expressions and types.

Nodes are slotted dataclasses, compared and hashed by field. Position
fields never participate in equality so that a pretty-print / re-parse
round trip compares structurally equal. Nodes are not frozen, because a
frozen dataclass sets each field through object.__setattr__ and that
would be most of the parser's cost; but no pass may mutate a node after
parsing: the checker keys its facts by id(node) and the compiled closures
hold nodes.
"""

from dataclasses import dataclass, field
from typing import Optional, Union

# No source tree nests deeper than this (the parser refuses it), and no
# process runs loops, `proc` bodies and calls nested deeper (interp.py):
# either fits Python's default stack.
MAX_DEPTH = 128


@dataclass(unsafe_hash=True, slots=True)
class Node:
    line: int = field(compare=False, repr=False, kw_only=True, default=0)
    column: int = field(compare=False, repr=False, kw_only=True, default=0)


# --- expressions ---


@dataclass(unsafe_hash=True, slots=True)
class IntLit(Node):
    value: int


@dataclass(unsafe_hash=True, slots=True)
class RealLit(Node):
    value: float


@dataclass(unsafe_hash=True, slots=True)
class StrLit(Node):
    value: str


@dataclass(unsafe_hash=True, slots=True)
class Name(Node):
    name: str


@dataclass(unsafe_hash=True, slots=True)
class BinOp(Node):
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(unsafe_hash=True, slots=True)
class Index(Node):
    base: "Expr"
    index: "Expr"


@dataclass(unsafe_hash=True, slots=True)
class Accessor(Node):
    """A.localblocks, A.localblockid[j], A[bid].low, A[bid].high"""

    base: "Expr"
    which: str  # localblocks | localblockid | low | high
    arg: Optional["Expr"]


@dataclass(unsafe_hash=True, slots=True)
class Call(Node):
    func: str
    args: tuple


Expr = Union[IntLit, RealLit, StrLit, Name, BinOp, Index, Accessor, Call]


# --- type expressions ---


@dataclass(unsafe_hash=True, slots=True)
class TypeApp(Node):
    """One constructor application: name plus bracketed arguments.

    An argument is either an expression or a nested TypeExpr chain.
    `has_args` distinguishes `async` (no brackets) from `row[]`.
    """

    ctor: str
    args: tuple
    has_args: bool


@dataclass(unsafe_hash=True, slots=True)
class TypeExpr(Node):
    """A `::`-joined sequence of constructor applications, left to right."""

    apps: tuple


# --- statements ---


@dataclass(unsafe_hash=True, slots=True)
class VarDecl(Node):
    name: str
    type_expr: Optional[TypeExpr]
    init: Optional[Expr]


@dataclass(unsafe_hash=True, slots=True)
class Assign(Node):
    target: Expr  # Name or Index chains; validated by the checker
    value: Expr


@dataclass(unsafe_hash=True, slots=True)
class For(Node):
    var: str
    start: Expr
    stop: Expr  # inclusive
    body: tuple


@dataclass(unsafe_hash=True, slots=True)
class ProcBlock(Node):
    rank: Expr
    body: tuple


@dataclass(unsafe_hash=True, slots=True)
class ExprStmt(Node):
    expr: Expr


@dataclass(unsafe_hash=True, slots=True)
class Sync(Node):
    var: Optional[str]


@dataclass(unsafe_hash=True, slots=True)
class Param(Node):
    name: str
    type_expr: TypeExpr


@dataclass(unsafe_hash=True, slots=True)
class FuncDef(Node):
    name: str
    params: tuple
    body: tuple


Stmt = Union[VarDecl, Assign, For, ProcBlock, ExprStmt, Sync, FuncDef]


@dataclass(unsafe_hash=True, slots=True)
class Program(Node):
    statements: tuple


# --- pretty printing ---

_PRECEDENCE = {
    "==": 1, "!=": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3,
}


def _fmt_expr(e, parent_prec=0):
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, RealLit):
        return repr(e.value)
    if isinstance(e, StrLit):
        return '"' + e.value + '"'
    if isinstance(e, Name):
        return e.name
    if isinstance(e, BinOp):
        prec = _PRECEDENCE[e.op]
        s = f"{_fmt_expr(e.left, prec)} {e.op} {_fmt_expr(e.right, prec + 1)}"
        return f"({s})" if prec < parent_prec else s
    if isinstance(e, Index):
        return f"{_fmt_expr(e.base, 99)}[{_fmt_expr(e.index)}]"
    if isinstance(e, Accessor):
        base = _fmt_expr(e.base, 99)
        if e.arg is not None:
            return f"{base}.{e.which}[{_fmt_expr(e.arg)}]"
        return f"{base}.{e.which}"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(_fmt_expr(a) for a in e.args)})"
    raise TypeError(f"not an expression: {e!r}")


def _fmt_type_app(app):
    if not app.has_args:
        return app.ctor
    parts = []
    for a in app.args:
        if isinstance(a, TypeExpr):
            parts.append(format_type(a))
        else:
            parts.append(_fmt_expr(a))
    return f"{app.ctor}[{', '.join(parts)}]"


def format_type(te: TypeExpr) -> str:
    return " :: ".join(_fmt_type_app(a) for a in te.apps)
