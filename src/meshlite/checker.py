"""Static checking: name resolution, chain validation, call signatures,
and each expression's class, so that no value is used as its class forbids.

Diagnostics render as `file:line:col: RULE: message`, one per line.
Scoping is lexical, and this is the one walk over the scopes. Each
declaration gets the next slot of its frame (the top level's, or a
function's, which starts with the top-level slots its body sees), free
again once its scope closes. The compiler gets what this resolves in the
CheckedProgram, and the run finds every array and local by its slot,
never by its name. Type arguments are read by one walk,
`type_argument`: a constant argument is checked here against every
allocation rule, an argument over local integers becomes a closure run
when its declaration runs, and any other argument is a diagnostic at the
offending node.

The walk also settles each loop's class (`LocalOnly`), which the compiler
reads as it reads slots (`CheckedProgram.loops` and `owners`).
"""

from dataclasses import dataclass, field
from typing import Optional

from . import ast, chains
from .errors import CheckError, MeshError
from .values import OPERATORS

# An expression's class, decided from the declared kinds alone, is what its
# value is: a scalar (a number or a string), an array (a declared array's
# name), a block (A[b] of a partitioned 2D array) or a line (A[b][i], or U[i]
# of an unpartitioned 2D array). None is the class of an expression already
# refused, so that one misuse gives one diagnostic.
A_CLASS = {"scalar": "a scalar", "array": "an array", "block": "a block", "line": "a line"}


def indexed(cls, kind):
    """The class of v[i] for v of class cls (kind: the Layout of an array v)."""
    if cls == "array":
        return "scalar" if kind.ndim == 1 else "block" if kind.partitioned else "line"
    return "line" if cls == "block" else "scalar"


_FILE = [("array", lambda k: not (k.replicated or k.partitioned),
          "file transfer needs a singly-allocated, unpartitioned array"),
         ("scalar", None, "file path must be a string")]

# Each builtin's arguments: the class each must have, what its array's Layout
# must be, and the diagnostic otherwise.
BUILTINS = {
    "processes": [],
    "computeSin": [("array", lambda k: k.replicated and k.ndim == 1 and k.elem == "complex",
                    "computeSin needs a replicated 1D complex array")],
    "FFT": [("line", lambda k: k.elem == "complex",
             "FFT needs a line like A[blockid][i] of a complex array"),
            ("array", lambda k: k.replicated, "FFT needs the replicated twiddle array")],
    "readfile": _FILE,
    "writefile": _FILE,
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
    kind: chains.Layout
    refused: bool = False  # a local whose initializer was refused: its uses report nothing
    node: object = None  # the VarDecl, Param or For declaring it
    slot: int = 0  # the index of its array or Local in its frame


class LocalOnly:
    """A loop's record, filled as the checker walks its bounds and body,
    nested loops included (`Checker.close`). The loop is local-only when
    they hold only literals, locals, replicated scalars, elements of 1D
    replicated arrays, arithmetic, `processes()`, untyped `var`
    declarations and stores to locals or replica elements, and reads X[v]
    of one 1D single-copy X, v the loop variable, in its body only, if that
    stores nothing into v and no nested loop counts in v. Then `locals` and
    `replicas` are the slots of the names declared outside it that it uses,
    `stores` and `fills` the positions in each of those it stores, and
    `gathers` X's slot, or None."""

    def __init__(self, first):
        self.first = first  # the loop's first slot: those from it on are declared in it
        self.outer = {}  # slot of a name declared outside -> (is it a local, is it stored)
        self.written = set()  # the slots it stores as names, and its nested loops' variables
        self.reads = set()  # (X's slot, n's slot) of each X[n], X a 1D single-copy array
        self.statements = 0  # of its body, nested ones included
        self.local = True  # False once it holds what no loop around it may hold either

    def note(self, slot, local, stored):
        self.outer[slot] = (local, stored or self.outer.get(slot, (local, False))[1])


@dataclass
class CheckedProgram:
    """A checked program and what the check resolved, each keyed by the
    id() of its node (the program holds every node while this lives)."""
    program: ast.Program
    functions: dict
    source_name: str
    names: dict = field(default_factory=dict)  # each Name's, VarDecl's, Param's, For's VarInfo
    toplevel: dict = field(default_factory=dict)  # each top-level name -> its VarInfo
    size: int = 0  # every frame's slots
    seen: dict = field(default_factory=dict)  # function -> the top-level slots its body sees
    # a distributed declaration -> (its type_argument()s, the VarInfo of
    # each name its chain references, by role: "arraydist" or "share")
    allocations: dict = field(default_factory=dict)
    loops: dict = field(default_factory=dict)  # each local-only For -> its LocalOnly
    # each For whose body is `X[v] := e` alone, v its variable and X a 1D
    # single-copy writable array -> X's slot: outside `proc` only owners store
    owners: dict = field(default_factory=dict)


def type_argument(expr, info_of, report):
    """Read a type argument: its value if constant, else a closure ctx -> int
    over process-local integers and `processes()`.

    `info_of(name)` is a name's VarInfo, None if undeclared. An argument
    that no values make an integer is what `report(rule, message, node)`
    returns for the node at fault, or None if that returns None.
    """
    kind = type(expr)
    if kind is ast.IntLit:
        return expr.value
    if kind is ast.Call and expr.func == "processes" and not expr.args:
        return lambda ctx: ctx.state.nprocs
    if kind is ast.Name:
        name, info = expr.name, info_of(expr.name)
        if info is None:
            return report("UnknownVariable", f"{name!r} is not declared", expr)
        message = f"type argument {name!r} is not a local integer"
        if info.kind.distributed or info.kind.elem in ("real", "complex"):
            return report("TypeArgument", message, expr)
        slot = info.slot

        def local(ctx):
            value = ctx.frame[slot].value
            if not isinstance(value, int):
                raise ctx.fault(message, expr)
            return value
        return local
    if kind is not ast.BinOp:
        return report("TypeArgument",
                      "type arguments must be integer expressions over local variables", expr)
    left, right = (type_argument(e, info_of, report) for e in (expr.left, expr.right))
    if left is None or right is None:
        return None
    if left.__class__ is int and right.__class__ is int:
        try:
            return OPERATORS[expr.op](left, right)
        except ZeroDivisionError as exc:
            return report("TypeArgument", str(exc), expr)

    def binop(ctx):
        try:
            return OPERATORS[expr.op](evaluated(left, ctx), evaluated(right, ctx))
        except ZeroDivisionError as exc:
            raise ctx.fault(str(exc), expr)
    return binop


def evaluated(arg, ctx):
    """A type argument's value when its declaration runs."""
    return arg if arg.__class__ is int else arg(ctx)


def chain_of(type_expr, values):
    """type_expr's chain, its arguments' values given in the order it reads
    them: as `CheckedProgram.allocations` lists them."""
    values = iter(values)
    return chains.from_type_expr(type_expr, lambda arg: next(values))


def fold_type(texpr: ast.TypeExpr) -> list:
    """The form call sites compare: each constant argument as its value."""
    def normal(arg):
        if isinstance(arg, ast.TypeExpr):
            return fold_type(arg)
        value = type_argument(arg, lambda name: None, lambda *fault: None)
        return value if value.__class__ is int else arg
    return [(app.ctor, app.has_args, list(map(normal, app.args))) for app in texpr.apps]


class Checker:
    def __init__(self, program: ast.Program, source_name="<source>"):
        self.program = program
        self.source_name = source_name
        self.diagnostics = []
        self.functions = {}
        self.scopes = [{}]
        self.resolved = CheckedProgram(program, self.functions, source_name,
                                       toplevel=self.scopes[0])
        self.slots = 0  # the next free slot of the frame being checked
        self.loops = []  # the LocalOnly of each loop being checked, innermost last

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
        """Declare info's name in the innermost scope, at the next slot."""
        if info.name in self.scopes[-1]:
            self.report("Redeclaration", f"{info.name!r} is already declared in this scope", node)
        info.node, info.slot = node, self.slots
        self.slots += 1
        self.resolved.size = max(self.resolved.size, self.slots)
        self.scopes[-1][info.name] = self.resolved.names[id(node)] = info

    def scoped(self, stmts, in_proc, *declared):
        """Check stmts in a new scope, which first declares each (VarInfo,
        node) of declared; its slots are free again after it."""
        slots = self.slots
        self.scopes.append({})
        for info, node in declared:
            self.declare(info, node)
        for s in stmts:
            self.check_stmt(s, in_proc)
        self.scopes.pop()
        self.slots = slots

    # --- entry ---

    def check(self) -> CheckedProgram:
        for stmt in self.program.statements:
            self.check_stmt(stmt, in_proc=False)
        if self.diagnostics:
            raise CheckError(self.diagnostics)
        return self.resolved

    # --- statements ---

    def check_stmt(self, stmt, in_proc):
        if self.loops:  # a statement of the innermost loop's body
            loop, kind = self.loops[-1], type(stmt)
            loop.statements += 1
            if not (kind is ast.Assign or kind is ast.For
                    or kind is ast.VarDecl and stmt.type_expr is None):
                loop.local = False
        if isinstance(stmt, ast.VarDecl):
            self.check_decl(stmt, in_proc)
        elif isinstance(stmt, ast.Assign):
            self.check_assign(stmt, in_proc)
        elif isinstance(stmt, ast.For):
            loop = LocalOnly(self.slots)
            self.loops.append(loop)
            self.check_scalar(stmt.start, "a loop bound")
            self.check_scalar(stmt.stop, "a loop bound")
            bounded = bool(loop.reads)  # an X[n] in its own bounds: it gathers nothing
            existing = self.lookup(stmt.var)
            if existing is not None and existing.kind.read_only:
                self.report("ConstViolation", f"loop variable {stmt.var!r} is declared const", stmt)
            # the run binds a fresh local unless the name already holds one
            if existing is None or existing.kind.distributed:
                self.scoped(stmt.body, in_proc, (VarInfo(stmt.var, None, chains.LOCAL), stmt))
            else:
                self.resolved.names[id(stmt)] = existing
                loop.note(existing.slot, True, True)  # an outer local, counted in: stored
                self.scoped(stmt.body, in_proc)
            self.close(stmt, bounded)
        elif isinstance(stmt, ast.ProcBlock):
            self.check_scalar(stmt.rank, "a proc rank")
            self.scoped(stmt.body, True)
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

    def close(self, stmt, bounded):
        """Settle the class of loop stmt, the innermost, and hand what it
        holds to the loop around it; bounded: its own bounds read an X[n]."""
        loop, names = self.loops.pop(), self.resolved.names
        v = names[id(stmt)].slot
        gathers = {x for x, _ in loop.reads}
        if loop.local and not bounded and all(n == v for _, n in loop.reads) \
                and len(gathers) < 2 and not (gathers and v in loop.written):
            outer = loop.outer
            loop.locals = [slot for slot, (local, _) in outer.items() if local]
            loop.replicas = [slot for slot, (local, _) in outer.items() if not local]
            loop.stores = [k for k, slot in enumerate(loop.locals) if outer[slot][1]]
            loop.fills = [k for k, slot in enumerate(loop.replicas) if outer[slot][1]]
            loop.gathers = gathers.pop() if gathers else None
            self.resolved.loops[id(stmt)] = loop
        if self.loops:
            around = self.loops[-1]
            around.local = around.local and loop.local
            around.statements += loop.statements
            around.reads |= loop.reads
            around.written |= loop.written | {v}
            for slot, (local, stored) in loop.outer.items():
                if slot < around.first:
                    around.note(slot, local, stored)
        s = stmt.body[0] if len(stmt.body) == 1 else None
        x = type(s) is ast.Assign and type(s.target) is ast.Index and names.get(id(s.target.base))
        if x and type(s.target.index) is ast.Name and s.target.index.name == stmt.var \
                and x.kind.ndim == 1 and not (x.kind.replicated or x.kind.read_only):
            self.resolved.owners[id(stmt)] = x.slot

    def used(self, info, ndim, stored=False):
        """Note in the innermost loop a read, or a store, of info's name with
        ndim indices: from outside, a loop may use only locals and replicas."""
        loop, slot, kind = self.loops[-1], info.slot, info.kind
        if stored:
            loop.written.add(slot)
        if slot < loop.first:  # else declared in the loop: an untyped local
            local = not kind.distributed
            if ndim == 0 if local else kind.replicated and kind.ndim == ndim:
                loop.note(slot, local, stored)
            else:
                loop.local = False

    def check_decl(self, stmt: ast.VarDecl, in_proc):
        kind = chains.LOCAL if stmt.type_expr is None else self.check_chain(stmt.type_expr, stmt)
        if kind.distributed and in_proc:
            self.report(
                "GuardedAllocation",
                f"{stmt.name!r} allocates global storage inside a proc block; "
                "allocation is collective", stmt)
        refused = False
        if stmt.init is not None:
            cls = self.check_expr(stmt.init)
            if kind.distributed:
                self.report(
                    "InitializerUnsupported",
                    f"{stmt.name!r} owns global storage and cannot take an initializer", stmt)
            elif cls not in ("scalar", None):
                refused = True
                self.report("ArrayAssignment", f"{stmt.name!r} is a local, which holds only a "
                            f"scalar: it cannot be initialized with {A_CLASS[cls]}", stmt)
        self.declare(VarInfo(stmt.name, stmt.type_expr, kind, refused), stmt)

    def check_chain(self, type_expr, node):
        """The Layout of a declared or formal name; reports each rule its
        chain breaks, and records a distributed one's type arguments as read."""
        readers = []

        def evaluate(arg):
            value = type_argument(arg, self.lookup, self.report)
            readers.append(value)
            return value if value.__class__ is int else None
        try:
            chain = chains.from_type_expr(type_expr, evaluate)
        except MeshError as exc:
            self.report("InvalidCombination", str(exc), node)
            return chains.LOCAL
        layout = chains.layout_of(chain)
        for problem in layout.problems:
            self.report("IncompletePlan", problem, node)
        targets = {}
        for role, var in layout.references:
            targets[role] = target = self.lookup(var)
            if role == "arraydist":
                if target is None:
                    self.report("ArrayDistTarget",
                                f"distribution array {var!r} is not declared", node)
                elif not (target.kind.ndim and target.kind.elem == "int"
                          and target.kind.replicated):
                    self.report("ArrayDistTarget", f"{var!r} is not a replicated integer array",
                                node)
                elif target.kind.ndim != 1:
                    self.report("ArrayDistTarget", f"distribution array {var!r} has "
                                f"{target.kind.ndim} dimensions; a block map has one", node)
            elif target is None:
                self.report("ShareTarget", f"share base {var!r} is not declared", node)
            elif not target.kind.ndim:
                self.report("ShareTarget", f"share base {var!r} is not a distributed array", node)
            elif target.kind.replicated:
                self.report("ShareTarget", f"share base {var!r} is replicated; a share view "
                            "aliases a single-copy array", node)
        if layout.distributed:
            self.resolved.allocations[id(node)] = (readers, targets)
        return layout

    def check_assign(self, stmt: ast.Assign, in_proc):
        """A store: what its target holds, read as an expression, must be
        what the value is; x[i] must hold a scalar, x[i][j] a line."""
        target = root = stmt.target
        while isinstance(root, ast.Index):  # the parser admits only x, x[i] and x[i][j]
            root = root.base
        held, info = self.check_expr(target), self.lookup(root.name)
        if info is not None and info.kind.read_only:
            self.report("ConstViolation", f"{info.name!r} is declared const", stmt)
        cls = self.check_expr(stmt.value)
        if self.loops and info is not None:
            self.used(info, 0 if target is root else 1, stored=True)
        if held is None:
            return
        if target is not root and target.base is root and held != "scalar":
            self.report("ElementAssignment", "element assignment needs a one-dimensional "
                        f"array; {root.name!r} has two dimensions", stmt)
        elif target is not root and target.base is not root and held != "line":
            self.report("LineAssignment", "a line store needs A[block][line] of a partitioned "
                        f"2D array; {root.name!r} is not one", stmt)
        elif cls not in (held, None):
            into = repr(root.name) if target is root else f"an element of {root.name!r}"
            self.report(*{
                "array": ("ArrayAssignment", f"{into} is an array; assign another array to it"),
                "line": ("LineAssignment", f"a line of {root.name!r} takes a line, "
                                           f"not {A_CLASS[cls]}"),
                "scalar": ("ArrayAssignment", f"cannot store {A_CLASS[cls]} into {into}"),
            }[held], stmt)
        elif held == "array" and in_proc:
            self.report("GuardedCollective",
                        "array assignment is collective and cannot run inside a proc block", stmt)

    def check_funcdef(self, stmt: ast.FuncDef):
        """A body sees its parameters, its own declarations and the
        top-level names declared before it: scoping is lexical."""
        if len(self.scopes) > 1:
            self.report("NestedFunction", f"function {stmt.name!r} must be defined at top level",
                        stmt)
        if stmt.name in self.functions or stmt.name in BUILTINS:
            self.report("Redeclaration", f"function {stmt.name!r} is already defined", stmt)
        self.functions[stmt.name] = stmt
        self.resolved.seen[stmt.name] = self.slots  # its frame starts with these
        self.scopes.append({})
        for p in stmt.params:  # a formal's chain is never run
            self.declare(VarInfo(p.name, p.type_expr, self.check_chain(p.type_expr, p)), p)
        for s in stmt.body:
            self.check_stmt(s, in_proc=False)
        self.scopes.pop()
        self.slots = self.resolved.seen[stmt.name]

    # --- expressions ---

    def check_expr(self, expr, statement=False):
        """Report what expr breaks; returns its class (None once refused)."""
        kind = type(expr)
        if kind is ast.Name:
            info = self.lookup(expr.name)
            if info is None:
                self.report("UnknownVariable", f"{expr.name!r} is not declared", expr)
                return None
            self.resolved.names[id(expr)] = info
            if self.loops and not info.kind.ndim:  # an array is noted where it is indexed
                self.used(info, 0)
            return None if info.refused else "array" if info.kind.ndim else "scalar"
        if kind is ast.BinOp:
            self.check_scalar(expr.left, "an operand")
            self.check_scalar(expr.right, "an operand")
            return "scalar"
        if kind is ast.Index:
            cls = self.check_expr(expr.base)
            self.check_scalar(expr.index, "an index")
            if self.loops:
                self.element(expr, cls)
            if cls == "array":  # only a name is an array
                return indexed(cls, self.lookup(expr.base.name).kind)
            if cls == "scalar":
                what = f"{expr.base.name!r} is a scalar and" \
                    if type(expr.base) is ast.Name else "a scalar"
                self.report("NotIndexable", f"{what} cannot be indexed", expr)
                return None
            return cls and indexed(cls, None)
        if kind is ast.Accessor:
            if self.loops:
                self.loops[-1].local = False
            cls = self.check_expr(expr.base)
            want = "block" if expr.which in ("low", "high") else "array"
            if cls not in (want, None):
                needs = "a block like A[blockid]" if want == "block" else "a distributed array"
                self.report("AccessorMisuse", f".{expr.which} needs {needs}, not {A_CLASS[cls]}",
                            expr)
            if expr.arg is not None:
                self.check_scalar(expr.arg, "a local block index")
            return "scalar"
        if kind is ast.Call:
            return self.check_call(expr, statement)
        return "scalar"  # a literal

    def element(self, expr, cls):
        """Note in the innermost loop the read expr, base[i] of base's class
        cls: an element of a 1D replicated array, or of a 1D single-copy X
        read as X[n], which may gather for the loop counting in n."""
        loop = self.loops[-1]
        if cls == "array":  # only a name is an array
            info = self.lookup(expr.base.name)
            kind = info.kind
            if kind.replicated or not kind.distributed or kind.ndim != 1:
                return self.used(info, 1)
            n = self.resolved.names.get(id(expr.index))  # None unless a Name
            if n is not None:
                return loop.reads.add((info.slot, n.slot))
        loop.local = False

    def check_scalar(self, expr, role):
        cls = self.check_expr(expr)
        if cls != "scalar" and cls is not None:
            self.report("NotAScalar", f"{role} must be a scalar, not {A_CLASS[cls]}", expr)

    def array_kind(self, expr):
        """The declared Layout of the array that expr, an array, block or line, is of."""
        while type(expr) is ast.Index:
            expr = expr.base
        return self.lookup(expr.name).kind

    def check_call(self, expr: ast.Call, statement):
        """Report what the call breaks; returns its class: processes() alone has a value."""
        classes = [self.check_expr(a) for a in expr.args]
        want = BUILTINS.get(expr.func)
        fn = None if want is not None else self.functions.get(expr.func)
        if want is None and fn is None:
            self.report("UnknownFunction",
                        f"{expr.func!r} is not a builtin or defined function", expr)
            return None
        if want is not None and len(expr.args) != len(want):
            self.report("BuiltinArity", f"{expr.func} takes {len(want)} "
                        f"argument{'s' if len(want) != 1 else ''}", expr)
        elif want is not None:
            for arg, cls, (need, fits, message) in zip(expr.args, classes, want):
                if cls not in (need, None) or cls and fits and not fits(self.array_kind(arg)):
                    self.report("BuiltinArgument", message, arg)
        if expr.func == "processes":
            return "scalar"
        if not statement:
            self.report("NoValue", f"function {expr.func!r} has no result and cannot be used in an expression", expr)
        if fn is None:
            return None
        if len(expr.args) != len(fn.params):
            self.report("CallArity",
                        f"{expr.func} takes {len(fn.params)} arguments, got {len(expr.args)}", expr)
            return None
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
        return None


def check_program(program: ast.Program, source_name="<source>") -> CheckedProgram:
    """Type-check a parsed program; raises CheckError with diagnostics."""
    return Checker(program, source_name).check()
