"""Compile a checked program, once per run, into closures.

Every statement and expression becomes one closure over the process
context; that is how a program runs. An expression's closure returns its
value: a one-sided get records its event and completes where it is made,
so no expression waits. Only statements wait for another process (puts,
channel transfers, collectives, and calls, which the checker allows only
as statements); a statement's closure returns a generator then, which
yields to the scheduler, and otherwise runs straight through. Callers
drain a generator with `yield from`.

A statement list compiles to (statement, closure) pairs, held by what
runs it: the program, a loop, a `proc` body, a function. A loop's and a
call's closure is a generator function, and a `proc` body's returns one
on the rank it names, so each returns its own generator, which its
caller drains: one Python frame per level of nesting.

What a name reads and how a store communicates are decided here, once,
from the declarations in scope (the Mesham types decide it before the
program runs); no closure looks at a binding's kind. Scoping is dynamic,
so a function body is compiled for each distinct scope it is called from
(`Compiler.body`), where each name it sees has a kind: once for each set
of kinds of the names it and the functions it calls mention, after the
body holding the call, so that compiling never recurses through calls.
A name used where it is not declared, or stored as its kind refuses,
compiles to a closure that faults. The types also decide who stores:
outside `proc` only X[i]'s owner stores `X[i] := e`, so a loop whose body
is that one statement over a 1D single-copy array runs only the
iterations the process owns (`owner_computes`). The rules that hold
whatever the kind live in ProcessContext: who performs an access
(`performs`), that collectives cannot run inside `proc`, and the
one-sided and channel transfers.
"""

import itertools
from dataclasses import fields, replace
from types import GeneratorType as Generator

from . import ast, chains
from .checker import BUILTINS, evaluated, type_argument
from .runtime import ZEROES, DistributedArray
from .values import OPERATORS, Binding, BlockRef, LineSlice, arith, owned_blocks, row_of


_LITERALS = (ast.IntLit, ast.RealLit, ast.StrLit)
_SCALARS = (ast.BinOp, *_LITERALS)  # never array values


def overridable(program) -> dict:
    """The declarations a run's `overrides` set, by name: the program's
    top-level `var`s without a type."""
    return {s.name: s for s in program.statements
            if type(s) is ast.VarDecl and s.type_expr is None}


def compile_program(checked) -> list:
    """The program's top-level statements as (statement, closure) pairs."""
    return Compiler(checked.functions, overridable(checked.program)).program(checked.program)


def _class(kind):
    """How a name of chains.Kind kind is read and stored: a leaf's class."""
    if not kind.distributed:
        return "local"
    if kind.ndim:
        return "array"
    return "replica" if kind.replicated else "single"


def _observed(kind):
    """kind as a compiled body reads it: an array's element type and
    partitioning decide nothing there."""
    return replace(kind, elem=None, partitioned=False) if kind.distributed else kind


def _fails(message, node, name=None, reads=()):
    """A closure that faults with message once it has run reads (what its
    statement reads first); with name, message formats the name of name's
    binding (a caller's variable for a parameter)."""
    def fail(ctx):
        for read in reads:
            read(ctx)
        raise ctx.fault(message if name is None else message.format(ctx.env[name].name), node)
    return fail


# --- statements that may wait ---


def _owned(array, rank, lo, hi):
    """The values v from lo to hi (lo <= hi) for which `X[v] := e` on the
    1D single-copy array X does more than find the owner, on rank outside
    `proc`: lo alone when it is negative, as the first iteration faults;
    else the indices of rank's blocks in block order, then the first past
    the end when hi is, which faults after the stores."""
    if lo < 0:
        return (lo,)
    runs = [range(max(lo, b.low), min(hi, b.high) + 1) for b in array.blocks if b.owner == rank]
    m = array.descriptor.shape[0]
    if hi >= m:
        runs.append((max(lo, m),))
    return itertools.chain.from_iterable(runs)


def _integer(ctx, node, i):
    if not isinstance(i, int):
        raise ctx.fault("array index must be an integer", node)
    return i


def _element(ctx, node, shape, i):
    """i as an index into a replicated 1D array: an integer, in range."""
    if not 0 <= _integer(ctx, node, i) < shape[0]:
        raise ctx.fault(f"index {i} outside shape {shape}", node)
    return i


def _store(ctx, node, check, binding, block, offset, value):
    """Store into one element of binding's array; may wait (a put when remote)."""
    if check:
        value = ctx.storable(value, node)
    if block.owner != ctx.rank:
        return ctx.store(binding, block, offset, value)
    block.buffer[offset] = value


def _index_value(ctx, node, base, i):
    """base[i] but for an array's name (`index`): a line or an element of one."""
    if not isinstance(base, (BlockRef, LineSlice)):
        raise ctx.fault("value is not indexable", node)
    _integer(ctx, node, i)
    if isinstance(base, BlockRef):
        return LineSlice(base.array, base.block, i)
    return ctx.read_line(base, i)


class Compiler:
    def __init__(self, functions, overridable):
        self.bodies = {}  # (function name, its scope) -> its body's (statement, closure) pairs
        self.pending = []  # (body, function, scopes) for each body not compiled yet
        self.mentioned = {}  # function name -> every string in its body and its callees'
        self.leaves = {}
        self.scopes = [{}]
        self.functions = functions
        self.overridable = overridable

    def open_scope(self):
        """The scope of a loop or `proc` body."""
        self.scopes.append({})
        return self.scopes[-1]

    def lookup(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # --- statements ---

    def program(self, program):
        """program's statements as (statement, closure) pairs. The function
        bodies their calls need are compiled after them, one at a time, so
        that compiling never recurses through a chain of calls."""
        stmts = self.block(program.statements)
        while self.pending:
            body, func, self.scopes = self.pending.pop()
            body += self.block(func.body)
        return stmts

    def block(self, stmts):
        return [(s, self.stmt(s)) for s in stmts]

    def stmt(self, node):
        kind = type(node)
        if kind is ast.Assign:
            return self.assign(node)
        if kind is ast.VarDecl:
            return self.decl(node)
        if kind is ast.For:
            return self.loop(node)
        if kind is ast.ProcBlock:
            return self.proc(node)
        if kind is ast.ExprStmt:
            return self.call(node.expr) if type(node.expr) is ast.Call else self.expr(node.expr)
        if kind is ast.Sync:
            return lambda ctx: ctx.sync(node)
        return lambda ctx: None  # a FuncDef, registered by the checker

    def decl(self, node):
        name, type_expr = node.name, node.type_expr
        init = None if node.init is None else self.expr(node.init)
        kind = chains.LOCAL
        if type_expr is not None:
            # each type argument, in the order the chain reads them: its
            # value, or a closure run with the declaration
            args = {}

            def read(e):  # an undeclared name or a non-integer value faults as it runs
                args[id(e)] = type_argument(e, lambda name: self.lookup(name) or chains.LOCAL,
                                            lambda rule, message, at: _fails(message, at))

            kind = chains.kind_of(chains.from_type_expr(type_expr, read))  # whatever the values
        self.scopes[-1][name] = kind
        if kind.distributed:
            def chain(values):
                known = dict(zip(args, values))
                return chains.from_type_expr(type_expr, lambda e: known[id(e)])

            def allocate(ctx):
                # every argument in the order the chain reads them, so each
                # fault comes where building the chain would raise it
                values = tuple([evaluated(arg, ctx) for arg in args.values()])
                return ctx.allocate(node, lambda: chain(values), kind.read_only, values)
            return allocate

        # a typed local's chain has no arguments to evaluate: the checker
        # rejects every constructor taking one outside an array or allocated[...]
        zero = 0 if type_expr is None else ZEROES[kind.elem]
        override = self.overridable.get(name) is node

        def bind(ctx):
            if override and name in ctx.state.overrides:
                value = ctx.state.overrides[name]
            else:
                value = zero if init is None else init(ctx)
            ctx.bind(name, Binding(name, "local", value=value, read_only=kind.read_only))
        return bind

    # --- assignments ---

    def assign(self, node):
        target = node.target
        if type(target) is ast.Name:
            return self.assign_name(node, target.name)
        # the parser admits only x, x[i] and x[i][j]
        if type(target.base) is ast.Name:
            return self.assign_element(node, target.base.name)
        return self.assign_line(node, target.base.base.name)

    def assign_name(self, node, name):
        value, known = self.expr(node.value), self.lookup(name)
        if known is None:
            return _fails(f"{name!r} is not declared", node)
        if known.read_only:
            return _fails(f"{name!r} is read-only", node)
        check = not isinstance(node.value, _SCALARS)
        kind = _class(known)
        if kind == "local":
            def local(ctx):  # the commonest statement, as one call
                v = value(ctx)
                ctx.env[name].value = ctx.storable(v, node) if check else v
            return local
        if kind == "replica":
            def replica(ctx):
                v = value(ctx)
                ctx.env[name].array.replicas[ctx.rank][0] = ctx.storable(v, node) if check else v
            return replica
        source = node.value.name if type(node.value) is ast.Name else None
        source_kind = _class(self.lookup(source) or chains.LOCAL)  # "local" when source is None
        if kind == "array":
            if source is None:
                return _fails("{!r} is an array; assign another array", node, name)
            if source_kind == "local":
                return _fails(f"{source!r} is not an array", node)

            def redistribute(ctx):
                ctx.unguarded("array assignment", node)
                return ctx.assign_arrays(ctx.env[name].array, ctx.env[source].array, node)
            return redistribute

        if source_kind == "single":
            def transfer(ctx):
                """From a single-copy scalar: over a matching channel, else one-sided."""
                binding, src = ctx.env[name], ctx.env[source]
                owner, src_owner = binding.array.blocks[0].owner, src.array.blocks[0].owner
                comm = binding.comm
                if comm is not None and (comm[1], comm[2]) == (src_owner, owner) \
                        and src_owner != owner:
                    return ctx.channel_assign(node, binding, src, comm)
                if ctx.performs(owner):
                    return _store(ctx, node, False, binding, binding.array.blocks[0], 0,
                                  ctx.read_remote_scalar(src))
            return transfer

        def single(ctx):
            """A single-copy scalar from any other value, stored by whoever performs it."""
            binding = ctx.env[name]
            block = binding.array.blocks[0]
            if ctx.performs(block.owner):
                return _store(ctx, node, check, binding, block, 0, value(ctx))
        return single

    def assign_element(self, node, name):
        """name[i] := value."""
        known = self.lookup(name)
        if known is None:
            return _fails(f"{name!r} is not declared", node)
        if known.read_only:
            return _fails("{!r} is read-only", node, name)
        if not known.distributed:
            return _fails("{!r} is not an array", node, name)
        index, value = self.expr(node.target.index), self.expr(node.value)
        check = not isinstance(node.value, _SCALARS)
        if known.ndim != 1 and known.replicated:
            return _fails("element assignment needs a one-dimensional array", node,
                          reads=(index, value))
        if known.ndim != 1:
            return _fails("use A[block][line] to address rows of a 2D array", node, reads=(index,))
        if known.replicated:
            def replica(ctx):
                """This process's replica."""
                i, v = index(ctx), value(ctx)
                array = ctx.env[name].array
                array.replicas[ctx.rank][_element(ctx, node, array.descriptor.shape, i)] = (
                    ctx.storable(v, node) if check else v)
            return replica

        local = self.local(node.target.index)  # a known-local index, read inline

        def distributed(ctx):
            """Element i of a single-copy array, stored by whoever performs it."""
            i = ctx.env[local].value if local is not None else index(ctx)
            binding = ctx.env[name]
            array = binding.array
            if i.__class__ is not int:
                _integer(ctx, node, i)
            k, off = array.descriptor.element(i)
            block = array.blocks[k]
            if ctx.performs(block.owner):
                return _store(ctx, node, check, binding, block, off, value(ctx))
        return distributed

    def assign_line(self, node, name):
        """A[block][line] := other line: whole-line copy."""
        known = self.lookup(name)
        if known is None or not known.distributed:
            return _fails("line assignment needs a distributed array", node)
        if known.read_only:
            return _fails("{!r} is read-only", node, name)
        line, value = self.expr(node.target), self.expr(node.value)

        def run(ctx):
            binding = ctx.env[name]
            dst = line(ctx)
            if not isinstance(dst, LineSlice):
                raise ctx.fault("line assignment needs a partitioned array", node)
            owner = dst.block.owner
            if not ctx.performs(owner):
                return
            src = value(ctx)
            if not isinstance(src, LineSlice) or len(src) != len(dst):
                raise ctx.fault("line assignment needs an equal-length line", node)
            array = binding.array
            if src.block.owner != ctx.rank:
                ctx.fetch(src.block.owner, array, binding.name, len(src))
            payload = src.values()
            if owner != ctx.rank:
                yield from ctx.put(owner, array, binding.name, len(payload))
            dst.store(payload)
        return run

    # --- control flow ---

    def loop(self, node):
        start, stop, var = self.expr(node.start), self.expr(node.stop), node.var
        existing = self.lookup(var)  # an existing local is the loop variable
        reuse = existing is not None and not existing.distributed
        read_only = existing is not None and existing.read_only
        self.open_scope()[var] = chains.LOCAL
        stmts = self.block(node.body)
        target = self.owner_computes(node)
        self.scopes.pop()
        # declarations in the body vanish at the end of every iteration
        scoped = any(type(s) is ast.VarDecl for s in node.body)

        def iterate(ctx):
            lo, hi = start(ctx), stop(ctx)
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise ctx.fault("loop bounds must be integers", node)
            if read_only:
                raise ctx.fault(f"loop variable {var!r} is read-only", node)
            if lo > hi:
                return
            mark = ctx.enter(node)
            if reuse:
                binding = ctx.env[var]
            else:
                binding = Binding(var, "local")
                ctx.bind(var, binding)
            inner = len(ctx.shadow)
            exec_stmt = ctx.exec_stmt
            if target is not None and ctx.proc_depth == 0:
                # owner computes: run only the iterations that store on this
                # rank (or fault); every other one would only find the owner.
                # Local stores never wait.
                ((s, fn),) = stmts
                for binding.value in _owned(ctx.env[target].array, ctx.rank, lo, hi):
                    exec_stmt(s, fn)
                binding.value = hi
            else:
                for binding.value in range(lo, hi + 1):
                    for s, fn in stmts:
                        result = exec_stmt(s, fn)
                        if result.__class__ is Generator:
                            yield from result
                    if scoped:
                        ctx.restore(inner)
            ctx.leave(mark)
        return iterate

    def owner_computes(self, node):
        """X when the body of loop node is the one statement `X[v] := e`,
        v the loop variable and X a 1D single-copy writable array: outside
        `proc` only X[v]'s owner runs more of it than the index. Call it
        with the loop's scope open."""
        if len(node.body) != 1:
            return None
        s = node.body[0]
        if type(s) is not ast.Assign or type(s.target) is not ast.Index:
            return None
        base, index = s.target.base, s.target.index
        if type(base) is not ast.Name or type(index) is not ast.Name or index.name != node.var:
            return None
        known = self.lookup(base.name)
        if known is not None and known.distributed and known.ndim == 1 \
                and not known.replicated and not known.read_only:
            return base.name
        return None

    def proc(self, node):
        rank = self.expr(node.rank)
        self.open_scope()
        stmts = self.block(node.body)
        self.scopes.pop()

        def guarded(ctx):
            mark = ctx.enter(node)
            ctx.proc_depth += 1
            exec_stmt = ctx.exec_stmt
            for s, fn in stmts:
                result = exec_stmt(s, fn)
                if result.__class__ is Generator:
                    yield from result
            ctx.proc_depth -= 1
            ctx.leave(mark)

        def run(ctx):  # other ranks skip the body without building a generator
            r, nprocs = rank(ctx), ctx.state.nprocs
            if not isinstance(r, int) or not 0 <= r < nprocs:
                raise ctx.fault(f"proc rank {r} outside [0, {nprocs})", node)
            if r == ctx.rank:
                return guarded(ctx)
        return run

    # --- expressions: each is one closure returning the value ---

    def expr(self, node):
        kind = type(node)
        if kind is ast.Name:
            return self.name(node)
        if kind is ast.BinOp:
            return self.binop(node)
        if kind is ast.Index:
            return self.index(node)
        if kind in _LITERALS:
            return self.leaf(("const", type(node.value), node.value))
        if kind is ast.Accessor:
            return self.accessor(node)
        return lambda ctx: ctx.state.nprocs  # processes(), the one call the checker lets in

    def leaf(self, key):
        """Closure for a leaf that cannot fault, one per distinct leaf.

        Sharing them keeps the compiled form small: a program names the
        same few variables and constants over and over.
        """
        fn = self.leaves.get(key)
        if fn is None:
            kind, name = key[0], key[-1]
            if kind == "const":
                fn = lambda ctx: name  # noqa: E731  (here `name` is the value)
            elif kind == "local":
                fn = lambda ctx: ctx.env[name].value  # noqa: E731
            elif kind == "array":
                fn = lambda ctx: ctx.env[name].array  # noqa: E731
            elif kind == "replica":
                fn = lambda ctx: ctx.env[name].array.replicas[ctx.rank][0]  # noqa: E731
            else:
                fn = lambda ctx: ctx.read_remote_scalar(ctx.env[name])  # noqa: E731
            self.leaves[key] = fn
        return fn

    def name(self, node):
        known = self.lookup(node.name)
        if known is None:
            return _fails(f"{node.name!r} is not declared", node)
        return self.leaf((_class(known), node.name))

    def local(self, node):
        """node's name when it names a local known here, else None."""
        if type(node) is ast.Name:
            known = self.lookup(node.name)
            if known is not None and not known.distributed:
                return node.name
        return None

    def binop(self, node):
        op = OPERATORS.get(node.op) or (lambda a, b: arith(node.op, a, b))
        left, right = self.expr(node.left), self.expr(node.right)
        # a known local on the left, or a literal on the right, is read in
        # the closure itself: one call fewer per operand
        name = self.local(node.left)
        literal = type(node.right) in _LITERALS
        if name is not None and literal:
            b = node.right.value

            def run(ctx):
                a = ctx.env[name].value
                try:
                    return op(a, b)
                except (TypeError, ZeroDivisionError) as exc:
                    raise ctx.fault(str(exc), node)
        elif name is not None:
            def run(ctx):
                a = ctx.env[name].value
                b = right(ctx)
                try:
                    return op(a, b)
                except (TypeError, ZeroDivisionError) as exc:
                    raise ctx.fault(str(exc), node)
        elif literal:
            b = node.right.value

            def run(ctx):
                a = left(ctx)
                try:
                    return op(a, b)
                except (TypeError, ZeroDivisionError) as exc:
                    raise ctx.fault(str(exc), node)
        else:
            def run(ctx):
                a = left(ctx)
                b = right(ctx)
                try:
                    return op(a, b)
                except (TypeError, ZeroDivisionError) as exc:
                    raise ctx.fault(str(exc), node)
        return run

    def index(self, node):
        base, index = self.expr(node.base), self.expr(node.index)
        name = node.base.name if type(node.base) is ast.Name else None
        known = self.lookup(name) if name is not None else None
        if known is not None and known.distributed and known.ndim == 1:
            # an element of a 1D array, read straight from the binding
            local = self.local(node.index)  # a known-local index, read inline
            if known.replicated:
                def element(ctx):
                    array = ctx.env[name].array
                    i = ctx.env[local].value if local is not None else index(ctx)
                    shape = array.descriptor.shape
                    # _element's rule, inline on the commonest read: a call
                    # here costs interp-local-p4 about 3% of its run
                    if i.__class__ is not int or not 0 <= i < shape[0]:
                        _element(ctx, node, shape, i)
                    return array.replicas[ctx.rank][i]
                return element

            def single_copy(ctx):
                array = ctx.env[name].array
                i = ctx.env[local].value if local is not None else index(ctx)
                if i.__class__ is not int:
                    _integer(ctx, node, i)
                return ctx.read_element(array, i)
            return single_copy
        if known is not None and known.distributed and known.ndim:  # a row of a 2D array
            return lambda ctx: row_of(ctx.env[name].array, _integer(ctx, node, index(ctx)))
        return lambda ctx: _index_value(ctx, node, base(ctx), index(ctx))

    def accessor(self, node):
        base, which = self.expr(node.base), node.which
        arg = None if node.arg is None else self.expr(node.arg)

        def run(ctx):
            value = base(ctx)
            if which in ("low", "high"):
                if not isinstance(value, BlockRef):
                    raise ctx.fault(f".{which} needs a block reference like A[blockid]", node)
                return value.block.low if which == "low" else value.block.high
            if not isinstance(value, DistributedArray):
                raise ctx.fault(f".{which} needs a distributed array", node)
            owned = owned_blocks(value, ctx.rank)
            if which == "localblocks":
                return len(owned)
            j = arg(ctx)
            if not isinstance(j, int) or not 0 <= j < len(owned):
                raise ctx.fault(f"local block index {j} outside [0, {len(owned)})", node)
            return owned[j]
        return run

    # --- call statements: a user function or a file builtin may wait ---

    def call(self, node):
        name, args = node.func, node.args
        if name == "processes":
            return self.expr(node)
        if name not in BUILTINS:
            return self.user_call(node)
        parts = [self.expr(a) for a in args]  # as many as the checker's BUILTINS says
        if name == "computeSin":
            array = parts[0]
            return lambda ctx: ctx.compute_sin(node, array(ctx))
        if name == "FFT":
            row, sins = parts
            return lambda ctx: ctx.fft_line(node, row(ctx), sins(ctx))
        (array, path), write = parts, name == "writefile"
        return lambda ctx: ctx.builtin_file(node, array(ctx), path(ctx), write)

    def user_call(self, node):
        func, scope = self.functions[node.func], {}
        for names in self.scopes:  # what the body sees: the caller's names, then the parameters
            scope.update(names)
        for param, arg in zip(func.params, node.args):  # names: the checker refuses any other
            known = self.lookup(arg.name)
            if known is None:
                return _fails(f"{arg.name!r} is not declared", node)
            scope[param.name] = known
        seen = self.mentions(func.name)
        stmts = self.body(func, {n: _observed(k) for n, k in scope.items() if n in seen})
        params, args = [p.name for p in func.params], [a.name for a in node.args]

        def call(ctx):
            bindings = [ctx.env[a] for a in args]
            mark = ctx.enter(node)
            for param, b in zip(params, bindings):
                ctx.bind(param, b)
            exec_stmt = ctx.exec_stmt
            for s, fn in stmts:
                result = exec_stmt(s, fn)
                if result.__class__ is Generator:
                    yield from result
            ctx.leave(mark)
        return call

    def body(self, func, scope):
        """func's body as (statement, closure) pairs, compiled in scope, the
        Kind of each name it may look up: once for each distinct scope. The
        list is filled after the body calling func (`program`)."""
        key = (func.name, frozenset(scope.items()))
        stmts = self.bodies.get(key)
        if stmts is None:
            stmts = self.bodies[key] = []
            self.pending.append((stmts, func, [scope]))
        return stmts

    def mentions(self, name):
        """Every string in the body of function name and of the functions it
        calls: among them, every name its compiled body looks up."""
        seen = self.mentioned.get(name)
        if seen is None:
            seen, walked, nodes = set(), {name}, list(self.functions[name].body)
            while nodes:
                node = nodes.pop()
                for field in fields(node):  # not vars(node), which would give node a dict
                    value = getattr(node, field.name)
                    for v in value if type(value) is tuple else (value,):
                        if isinstance(v, ast.Node):
                            nodes.append(v)
                        elif type(v) is str:
                            seen.add(v)
                            if v in self.functions and v not in walked:
                                walked.add(v)
                                nodes += self.functions[v].body
            self.mentioned[name] = seen
        return seen
