"""Static checking: name resolution, chain validation, call signatures.

Diagnostics render as `file:line:col: RULE: message`, one per line.
Type arguments are read by one walk, `type_argument`, shared with the
compiler: a constant argument is checked here against every allocation
rule, an argument over local integers is evaluated when its declaration
runs, and any other argument is a diagnostic at the offending node.
"""

from dataclasses import dataclass
from typing import Optional

from . import ast, chains
from .errors import CheckError, MeshError
from .values import arith

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
    kind: chains.Kind


@dataclass
class CheckedProgram:
    program: ast.Program
    functions: dict
    source_name: str


def type_argument(expr, kind_of, report):
    """Read a type argument: its value if constant, else a closure ctx -> int
    over process-local integers and `processes()`.

    `kind_of(name)` is a name's declared chains.Kind, None if undeclared. An
    argument that no values make an integer is what `report(rule, message,
    node)` returns for the node at fault, or None if that returns None.
    """
    kind = type(expr)
    if kind is ast.IntLit:
        return expr.value
    if kind is ast.Call and expr.func == "processes" and not expr.args:
        return lambda ctx: ctx.state.nprocs
    if kind is ast.Name:
        name, known = expr.name, kind_of(expr.name)
        if known is None:
            return report("UnknownVariable", f"{name!r} is not declared", expr)
        message = f"type argument {name!r} is not a local integer"
        if known.distributed or known.elem in ("real", "complex"):
            return report("TypeArgument", message, expr)

        def local(ctx):
            binding = ctx.env.get(name)
            if binding is None or binding.kind != "local" or not isinstance(binding.value, int):
                raise ctx.fault(message, expr)
            return binding.value
        return local
    if kind is not ast.BinOp:
        return report("TypeArgument",
                      "type arguments must be integer expressions over local variables", expr)
    left, right = (type_argument(e, kind_of, report) for e in (expr.left, expr.right))
    if left is None or right is None:
        return None
    if left.__class__ is int and right.__class__ is int:
        try:
            return arith(expr.op, left, right)
        except ZeroDivisionError as exc:
            return report("TypeArgument", str(exc), expr)

    def binop(ctx):
        try:
            return arith(expr.op, evaluated(left, ctx), evaluated(right, ctx))
        except ZeroDivisionError as exc:
            raise ctx.fault(str(exc), expr)
    return binop


def evaluated(arg, ctx):
    """A type argument's value when its declaration runs."""
    return arg if arg.__class__ is int else arg(ctx)


def fold_type(texpr: ast.TypeExpr) -> list:
    """The form call sites compare: each constant argument as its value."""
    def normal(arg):
        if isinstance(arg, ast.TypeExpr):
            return fold_type(arg)
        value = type_argument(arg, lambda name: chains.LOCAL, lambda *fault: None)
        return value if value.__class__ is int else arg
    return [(app.ctor, app.has_args, list(map(normal, app.args))) for app in texpr.apps]


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
            # the run binds a fresh local unless the name already holds one
            if existing is None or existing.kind.distributed:
                self.scopes[-1][stmt.var] = VarInfo(stmt.var, None, chains.LOCAL)
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
        kind = chains.LOCAL if stmt.type_expr is None else self.check_chain(stmt.type_expr, stmt)
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
        self.declare(VarInfo(stmt.name, stmt.type_expr, kind), stmt)

    def check_chain(self, type_expr, node):
        """The Kind of a declared or formal name; reports each rule its chain breaks."""
        def evaluate(arg):
            value = type_argument(arg, lambda name: getattr(self.lookup(name), "kind", None),
                                  self.report)
            return value if value.__class__ is int else None
        try:
            chain = chains.from_type_expr(type_expr, evaluate)
        except MeshError as exc:
            self.report("InvalidCombination", str(exc), node)
            return chains.LOCAL
        for problem in chains.plan_problems(chain):
            self.report("IncompletePlan", problem, node)
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
        return chains.kind_of(chain)

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
        """A body sees its parameters, its own declarations and the
        top-level names declared before it: scoping is lexical."""
        if len(self.scopes) > 1:
            self.report("NestedFunction", f"function {stmt.name!r} must be defined at top level",
                        stmt)
        if stmt.name in self.functions or stmt.name in BUILTINS:
            self.report("Redeclaration", f"function {stmt.name!r} is already defined", stmt)
        self.functions[stmt.name] = stmt
        self.scopes.append({})
        for p in stmt.params:
            self.declare(VarInfo(p.name, p.type_expr, self.check_chain(p.type_expr, p)), p)
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
                self.check_expr(root.index)
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
        fn = None
        if expr.func in BUILTINS:
            want = BUILTINS[expr.func]
            if len(expr.args) != want:
                self.report("BuiltinArity",
                            f"{expr.func} takes {want} argument{'s' if want != 1 else ''}", expr)
        else:
            fn = self.functions.get(expr.func)
            if fn is None:
                self.report("UnknownFunction",
                            f"{expr.func!r} is not a builtin or defined function", expr)
                return
        if not statement and expr.func != "processes":
            self.report("NoValue", f"function {expr.func!r} has no result and cannot be used in an expression", expr)
        if fn is None:
            return
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
            if info.type_expr is None or fold_type(info.type_expr) != fold_type(param.type_expr):
                self.report(
                    "ArgumentChainMismatch",
                    f"argument {arg.name!r} has chain "
                    f"{ast.format_type(info.type_expr) if info.type_expr else '<none>'} "
                    f"but {param.name!r} requires {ast.format_type(param.type_expr)}",
                    expr)


def check_program(program: ast.Program, source_name="<source>") -> CheckedProgram:
    """Type-check a parsed program; raises CheckError with diagnostics."""
    return Checker(program, source_name).check()
