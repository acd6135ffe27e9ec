"""Static checking: name resolution, chain validation, call signatures.

Diagnostics render as `file:line:col: RULE: message`, one per line.
Extent expressions inside type chains are evaluated at declaration time
by the interpreter; here they are folded where constant and validated
structurally otherwise.
"""

from dataclasses import dataclass
from typing import Optional

from . import ast, chains
from .errors import CheckError, MeshError

BUILTINS = {
    "processes": 0,
    "computeSin": 1,
    "FFT": 2,
    "readfile": 2,
    "writefile": 2,
}


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    message: str
    line: int
    column: int
    file: str = "<source>"

    def __str__(self):
        return f"{self.file}:{self.line}:{self.column}: {self.rule}: {self.message}"


@dataclass
class VarInfo:
    name: str
    type_expr: Optional[ast.TypeExpr]
    folded_type: Optional[ast.TypeExpr]
    kind: chains.Kind


@dataclass
class CheckedProgram:
    program: ast.Program
    functions: dict
    source_name: str


def fold(expr):
    """Constant-fold integer arithmetic; leaves everything else intact."""
    if isinstance(expr, ast.BinOp):
        left = fold(expr.left)
        right = fold(expr.right)
        if isinstance(left, ast.IntLit) and isinstance(right, ast.IntLit):
            a, b = left.value, right.value
            if expr.op == "+":
                return ast.IntLit(a + b)
            if expr.op == "-":
                return ast.IntLit(a - b)
            if expr.op == "*":
                return ast.IntLit(a * b)
            if expr.op == "/" and b != 0:
                return ast.IntLit(a // b)
        return ast.BinOp(expr.op, left, right, line=expr.line, column=expr.column)
    if isinstance(expr, ast.Index):
        return ast.Index(fold(expr.base), fold(expr.index), line=expr.line, column=expr.column)
    if isinstance(expr, ast.Call):
        return ast.Call(expr.func, tuple(fold(a) for a in expr.args), line=expr.line, column=expr.column)
    return expr


def fold_type(texpr: ast.TypeExpr) -> ast.TypeExpr:
    apps = []
    for app in texpr.apps:
        args = tuple(fold_type(a) if isinstance(a, ast.TypeExpr) else fold(a) for a in app.args)
        apps.append(ast.TypeApp(app.ctor, args, app.has_args, line=app.line, column=app.column))
    return ast.TypeExpr(tuple(apps), line=texpr.line, column=texpr.column)


def static_eval(expr) -> Optional[int]:
    e = fold(expr)
    return e.value if isinstance(e, ast.IntLit) else None


class Checker:
    def __init__(self, program: ast.Program, source_name="<source>"):
        self.program = program
        self.source_name = source_name
        self.diagnostics = []
        self.functions = {}
        self.scopes = [{}]

    # --- helpers ---

    def report(self, rule, message, node):
        self.diagnostics.append(
            Diagnostic(rule, message, node.line, node.column, self.source_name))

    def lookup(self, name) -> Optional[VarInfo]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def declare(self, info: VarInfo, node):
        if info.name in self.scopes[-1]:
            self.report("Redeclaration", f"{info.name!r} is already declared in this scope", node)
        self.scopes[-1][info.name] = info

    # --- entry ---

    def check(self) -> CheckedProgram:
        for stmt in self.program.statements:
            self.check_stmt(stmt, in_proc=False)
        if self.diagnostics:
            raise CheckError(self.diagnostics)
        return CheckedProgram(self.program, self.functions, self.source_name)

    # --- statements ---

    def check_stmt(self, stmt, in_proc):
        if isinstance(stmt, ast.VarDecl):
            self.check_decl(stmt, in_proc)
        elif isinstance(stmt, ast.Assign):
            self.check_assign(stmt, in_proc)
        elif isinstance(stmt, ast.For):
            self.check_expr(stmt.start)
            self.check_expr(stmt.stop)
            existing = self.lookup(stmt.var)
            if existing is not None and existing.kind.read_only:
                self.report("ConstViolation", f"loop variable {stmt.var!r} is declared const", stmt)
            self.scopes.append({})
            if self.lookup(stmt.var) is None:
                self.scopes[-1][stmt.var] = VarInfo(stmt.var, None, None, chains.LOCAL)
            for s in stmt.body:
                self.check_stmt(s, in_proc)
            self.scopes.pop()
        elif isinstance(stmt, ast.ProcBlock):
            self.check_expr(stmt.rank)
            self.scopes.append({})
            for s in stmt.body:
                self.check_stmt(s, in_proc=True)
            self.scopes.pop()
        elif isinstance(stmt, ast.ExprStmt):
            self.check_expr(stmt.expr, statement=True)
        elif isinstance(stmt, ast.Sync):
            if stmt.var is not None and self.lookup(stmt.var) is None:
                self.report("UnknownVariable", f"sync target {stmt.var!r} is not declared", stmt)
            if in_proc:
                self.report("GuardedCollective",
                            "sync is collective and cannot run inside a proc block", stmt)
        elif isinstance(stmt, ast.FuncDef):
            self.check_funcdef(stmt)
        else:
            raise TypeError(f"unhandled statement {stmt!r}")

    def check_decl(self, stmt: ast.VarDecl, in_proc):
        folded = None
        kind = chains.LOCAL
        if stmt.type_expr is not None:
            folded = fold_type(stmt.type_expr)

            def evaluate(arg):
                self.check_expr(arg)
                return static_eval(arg)
            try:
                chain = chains.from_type_expr(stmt.type_expr, evaluate)
            except MeshError as exc:
                self.report("InvalidCombination", str(exc), stmt)
            else:
                kind = chains.kind_of(chain)
                for problem in chains.plan_problems(chain):
                    self.report("IncompletePlan", problem, stmt)
                self.check_chain_refs(chain, stmt)
                if kind.distributed and in_proc:
                    self.report(
                        "GuardedAllocation",
                        f"{stmt.name!r} allocates global storage inside a proc block; "
                        "allocation is collective", stmt)
        if stmt.init is not None:
            self.check_expr(stmt.init)
            if kind.distributed:
                self.report(
                    "InitializerUnsupported",
                    f"{stmt.name!r} owns global storage and cannot take an initializer", stmt)
        self.declare(VarInfo(stmt.name, stmt.type_expr, folded, kind), stmt)

    def check_chain_refs(self, chain, node):
        for role, var in chains.references(chain).items():
            target = self.lookup(var)
            if role == "arraydist":
                if target is None:
                    self.report("ArrayDistTarget",
                                f"distribution array {var!r} is not declared", node)
                elif not (target.kind.ndim and target.kind.elem == "int"):
                    self.report("ArrayDistTarget", f"{var!r} is not an integer array", node)
            elif target is None:
                self.report("ShareTarget", f"share base {var!r} is not declared", node)
            elif not target.kind.ndim:
                self.report("ShareTarget", f"share base {var!r} is not a distributed array", node)

    def check_assign(self, stmt: ast.Assign, in_proc):
        target = stmt.target
        base = target
        depth = 0
        while isinstance(base, ast.Index):
            self.check_expr(base.index)
            base = base.base
            depth += 1
        info = self.lookup(base.name) if isinstance(base, ast.Name) else None
        if info is None:
            self.report("UnknownVariable", f"assignment to undeclared {getattr(base, 'name', '?')!r}", stmt)
            self.check_expr(stmt.value)
            return
        if info.kind.read_only:
            self.report("ConstViolation", f"{info.name!r} is declared const", stmt)
        self.check_expr(stmt.value)
        vinfo = self.lookup(stmt.value.name) if isinstance(stmt.value, ast.Name) else None
        if depth == 0 and info.kind.ndim:
            if vinfo is None or not vinfo.kind.ndim:
                self.report("ArrayAssignment",
                            f"{info.name!r} is an array; assign another array to it", stmt)
            elif in_proc:
                self.report("GuardedCollective",
                            "array assignment is collective and cannot run inside a proc block",
                            stmt)
        elif depth == 0 and vinfo is not None and vinfo.kind.ndim:
            self.report("ArrayAssignment",
                        f"cannot store array {stmt.value.name!r} into {info.name!r}", stmt)

    def check_funcdef(self, stmt: ast.FuncDef):
        if stmt.name in self.functions or stmt.name in BUILTINS:
            self.report("Redeclaration", f"function {stmt.name!r} is already defined", stmt)
        self.functions[stmt.name] = stmt
        self.scopes.append({})
        for p in stmt.params:
            kind = chains.LOCAL
            try:
                kind = chains.kind_of(chains.from_type_expr(p.type_expr, static_eval))
            except MeshError as exc:
                self.report("InvalidCombination", str(exc), p)
            self.scopes[-1][p.name] = VarInfo(p.name, p.type_expr, fold_type(p.type_expr), kind)
        for s in stmt.body:
            self.check_stmt(s, in_proc=False)
        self.scopes.pop()

    # --- expressions ---

    def check_expr(self, expr, statement=False):
        if isinstance(expr, (ast.IntLit, ast.RealLit, ast.StrLit)):
            return
        if isinstance(expr, ast.Name):
            if self.lookup(expr.name) is None:
                self.report("UnknownVariable", f"{expr.name!r} is not declared", expr)
            return
        if isinstance(expr, ast.BinOp):
            self.check_expr(expr.left)
            self.check_expr(expr.right)
            return
        if isinstance(expr, ast.Index):
            self.check_expr(expr.base)
            self.check_expr(expr.index)
            return
        if isinstance(expr, ast.Accessor):
            root = expr.base
            while isinstance(root, ast.Index):
                root = root.base
            info = self.lookup(root.name) if isinstance(root, ast.Name) else None
            if info is None:
                self.report("UnknownVariable", "accessor on an undeclared variable", expr)
            elif not info.kind.distributed:
                self.report("AccessorMisuse",
                            f"accessor .{expr.which} needs a distributed array", expr)
            if expr.arg is not None:
                self.check_expr(expr.arg)
            return
        if isinstance(expr, ast.Call):
            self.check_call(expr, statement)
            return
        raise TypeError(f"unhandled expression {expr!r}")

    def check_call(self, expr: ast.Call, statement):
        for a in expr.args:
            self.check_expr(a)
        if expr.func in BUILTINS:
            want = BUILTINS[expr.func]
            if len(expr.args) != want:
                self.report("BuiltinArity",
                            f"{expr.func} takes {want} argument{'s' if want != 1 else ''}", expr)
            return
        fn = self.functions.get(expr.func)
        if fn is None:
            self.report("UnknownFunction", f"{expr.func!r} is not a builtin or defined function", expr)
            return
        if not statement:
            self.report("NoValue", f"function {expr.func!r} has no result and cannot be used in an expression", expr)
        if len(expr.args) != len(fn.params):
            self.report("CallArity",
                        f"{expr.func} takes {len(fn.params)} arguments, got {len(expr.args)}", expr)
            return
        for arg, param in zip(expr.args, fn.params):
            if not isinstance(arg, ast.Name):
                self.report("ArgumentChainMismatch",
                            "function arguments must be variables carrying their full type chain", expr)
                continue
            info = self.lookup(arg.name)
            if info is None:
                continue
            formal = fold_type(param.type_expr)
            actual = info.folded_type
            if actual is None or actual != formal:
                self.report(
                    "ArgumentChainMismatch",
                    f"argument {arg.name!r} has chain "
                    f"{ast.format_type(info.type_expr) if info.type_expr else '<none>'} "
                    f"but {param.name!r} requires {ast.format_type(param.type_expr)}",
                    expr)


def check_program(program: ast.Program, source_name="<source>") -> CheckedProgram:
    """Type-check a parsed program; raises CheckError with diagnostics."""
    return Checker(program, source_name).check()
