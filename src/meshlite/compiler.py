"""Compile a checked program, once per run, into closures.

Every statement and expression becomes a closure over the process
context. Whether a node can communicate is decided here, once, from the
declarations in scope, resolved the way the interpreter will resolve
them at run time:

  plain closure `f(ctx) -> value`   literals, locals, replicated data,
                                    arithmetic over these, 2D block and
                                    line references, `processes()`,
                                    `FFT` and `computeSin`
  generator closure                 a single scalar, an element of a
                                    non-replicated 1D array, an element
                                    of a line

A generator closure still evaluates its plain subtrees as plain calls.
A statement closure returns what `ProcessContext.exec_stmt` returns: a
generator if the statement can communicate, else () once it has run. A
loop or `proc` body made only of plain statements runs as a Python loop.

Statements the compiler does not specialise compile to a call into the
AST walk of interp.py, a generator that is always right: collectives,
channel and one-sided scalar assignments, typed declarations, stores
into replicated scalars and block lines, element writes to distributed
arrays inside `proc`, and function definitions. So do calls of user
functions, whose bodies are compiled on their own, and of `readfile`
and `writefile`, and expressions whose kind the declarations do not
fix: names a function body takes from its caller (scoping is dynamic),
and indexing a local's value.
"""

from . import ast, chains
from .checker import BUILTINS, static_eval
from .values import OPERATORS, Binding, LineSlice, owned_blocks, row_of


_SCALARS = (ast.BinOp, ast.IntLit, ast.RealLit, ast.StrLit)  # never array values


def compile_program(checked) -> dict:
    """Closures for every statement of the program and of its functions.

    Returns {id(statement): closure}; AST nodes compare structurally, so
    the key is the node's identity.
    """
    compiler = Compiler()
    for fn in checked.functions.values():
        # a body runs in its caller's scope: free names and parameters
        # stay unknown, and so does whether it runs inside `proc`
        compiler.scopes, compiler.in_proc = [{}], None
        compiler.body(fn.body)
    compiler.scopes, compiler.in_proc = [{}], False
    compiler.body(checked.program.statements)
    return compiler.code


def _walked_stmt(node):
    return (lambda ctx: ctx.walk_stmt(node)), True


def _walked_expr(node):
    return (lambda ctx: ctx.eval(node)), True, None


class Compiler:
    def __init__(self):
        self.code = {}
        self.leaves = {}
        self.scopes = [{}]
        self.in_proc = False  # None where it depends on the caller

    def lookup(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    # --- statements: each returns (closure, can communicate) ---

    def body(self, stmts):
        """Compile a statement list; True if none can communicate."""
        return not any([self.stmt(s) for s in stmts])

    def stmt(self, node):
        kind = type(node)
        if kind is ast.Assign:
            fn, gen = self.assign(node)
        elif kind is ast.VarDecl:
            fn, gen = self.decl(node)
        elif kind is ast.For:
            fn, gen = self.loop(node)
        elif kind is ast.ProcBlock:
            fn, gen = self.proc(node)
        elif kind is ast.ExprStmt:
            fn, gen = self.expr_stmt(node)
        else:
            fn, gen = _walked_stmt(node)
        self.code[id(node)] = fn
        return gen

    def expr_stmt(self, node):
        fn, gen, _ = self.expr(node.expr)
        if gen:
            return fn, True  # the expression's generator is the statement's

        def run(ctx):
            fn(ctx)
            return ()
        return run, False

    def decl(self, node):
        name = node.name
        if node.type_expr is not None:
            chain = chains.from_type_expr(node.type_expr, static_eval)
            self.scopes[-1][name] = chains.kind_of(chain)
            return _walked_stmt(node)
        if node.init is None:
            init, gen = None, False
        else:
            init, gen, _ = self.expr(node.init)
        self.scopes[-1][name] = chains.LOCAL
        if gen:
            return _walked_stmt(node)

        def run(ctx):
            if ctx.depth == 0 and name in ctx.state.overrides:
                value = ctx.state.overrides[name]
            else:
                value = 0 if init is None else init(ctx)
            ctx.bind(name, Binding(name, "local", value=value))
            return ()
        return run, False

    def assign(self, node):
        target = node.target
        if type(target) is ast.Name:
            known = self.lookup(target.name)
            if known is not None and not known.distributed and not known.read_only:
                return self.store_local(node, target.name)
        elif type(target) is ast.Index and type(target.base) is ast.Name:
            known = self.lookup(target.base.name)
            if known is not None and known.ndim == 1 and not known.read_only:
                if known.replicated:
                    return self.store_element(node, target.base.name)
                if self.in_proc is False:
                    return self.store_owned(node, target.base.name)
        return _walked_stmt(node)

    def store_local(self, node, name):
        value, gen, _ = self.expr(node.value)
        check = not isinstance(node.value, _SCALARS)
        if gen:
            def run(ctx):
                v = yield from value(ctx)
                ctx.env[name].value = ctx.storable(v, node) if check else v
            return run, True

        def run(ctx):
            v = value(ctx)
            ctx.env[name].value = ctx.storable(v, node) if check else v
            return ()
        return run, False

    def store_element(self, node, name):
        """A[i] := v on a replicated 1D array: this rank's replica."""
        index, igen, _ = self.expr(node.target.index)
        value, vgen, _ = self.expr(node.value)
        if igen or vgen:
            return _walked_stmt(node)
        check = not isinstance(node.value, _SCALARS)

        def run(ctx):
            array = ctx.env[name].array
            i = index(ctx)
            v = value(ctx)
            shape = array.descriptor.shape
            if not 0 <= i < shape[0]:
                raise ctx.fault(f"index {i} outside shape {shape}", node)
            array.replicas[ctx.rank][i] = ctx.storable(v, node) if check else v
            return ()
        return run, False

    def store_owned(self, node, name):
        """A[i] := v on a distributed 1D array outside proc: the owner stores."""
        index, igen, _ = self.expr(node.target.index)
        value, vgen, _ = self.expr(node.value)
        if igen or vgen:
            return _walked_stmt(node)
        check = not isinstance(node.value, _SCALARS)

        def run(ctx):
            array = ctx.env[name].array
            k, off = array.descriptor.locate((index(ctx),))
            block = array.blocks[k]
            if ctx.rank == block.owner:
                v = value(ctx)
                block.buffer[off] = ctx.storable(v, node) if check else v
            return ()
        return run, False

    def loop(self, node):
        start, sgen, _ = self.expr(node.start)
        stop, tgen, _ = self.expr(node.stop)
        var = node.var
        self.scopes.append({var: chains.LOCAL})
        plain = self.body(node.body)
        self.scopes.pop()
        if sgen or tgen:
            return _walked_stmt(node)
        body = node.body
        # declarations in the body vanish at the end of every iteration
        scoped = any(type(s) is ast.VarDecl for s in body)

        def begin(ctx):
            """Bounds, the loop variable's binding, and the scope mark to leave."""
            lo, hi = start(ctx), stop(ctx)
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise ctx.fault("loop bounds must be integers", node)
            existing = ctx.env.get(var)
            if existing is not None and existing.read_only:
                raise ctx.fault(f"loop variable {var!r} is read-only", node)
            if existing is not None and existing.kind == "local":
                return range(lo, hi + 1), existing, None
            mark = ctx.enter()
            binding = Binding(var, "local")
            ctx.bind(var, binding)
            return range(lo, hi + 1), binding, mark

        if plain:
            def run(ctx):
                values, binding, mark = begin(ctx)
                exec_stmt = ctx.exec_stmt
                for v in values:
                    binding.value = v
                    if scoped:
                        inner = ctx.enter()
                    for s in body:
                        exec_stmt(s)
                    if scoped:
                        ctx.leave(inner)
                if mark is not None:
                    ctx.leave(mark)
                return ()
            return run, False

        def run(ctx):
            values, binding, mark = begin(ctx)
            exec_stmt = ctx.exec_stmt
            for v in values:
                binding.value = v
                if scoped:
                    inner = ctx.enter()
                for s in body:
                    yield from exec_stmt(s)
                if scoped:
                    ctx.leave(inner)
            if mark is not None:
                ctx.leave(mark)
        return run, True

    def proc(self, node):
        rank, rgen, _ = self.expr(node.rank)
        self.scopes.append({})
        saved, self.in_proc = self.in_proc, True
        plain = self.body(node.body)
        self.in_proc = saved
        self.scopes.pop()
        if rgen:
            return _walked_stmt(node)
        body = node.body

        def selected(ctx):
            r = rank(ctx)
            nprocs = ctx.state.nprocs
            if not isinstance(r, int) or not 0 <= r < nprocs:
                raise ctx.fault(f"proc rank {r} outside [0, {nprocs})", node)
            return r == ctx.rank

        if plain:
            def run(ctx):
                if selected(ctx):
                    mark = ctx.enter()
                    ctx.proc_depth += 1
                    exec_stmt = ctx.exec_stmt
                    for s in body:
                        exec_stmt(s)
                    ctx.proc_depth -= 1
                    ctx.leave(mark)
                return ()
            return run, False

        def run(ctx):
            if selected(ctx):
                mark = ctx.enter()
                ctx.proc_depth += 1
                for s in body:
                    yield from ctx.exec_stmt(s)
                ctx.proc_depth -= 1
                ctx.leave(mark)
        return run, True

    # --- expressions: each returns (closure, can communicate, shape) ---
    #
    # shape is what the value is known to be: the chains.Kind of an array of
    # one or two dimensions, "block" for A[b], "line" for a block line,
    # or None.

    def expr(self, node):
        kind = type(node)
        if kind is ast.Name:
            return self.name(node)
        if kind is ast.BinOp:
            return self.binop(node)
        if kind is ast.Index:
            return self.index(node)
        if kind in (ast.IntLit, ast.RealLit, ast.StrLit):
            return self.leaf(("const", type(node.value), node.value)), False, None
        if kind is ast.Accessor:
            return self.accessor(node)
        if kind is ast.Call:
            return self.call(node)
        return _walked_expr(node)

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
        name = node.name
        known = self.lookup(name)
        if known is None:
            return _walked_expr(node)
        if not known.distributed:
            return self.leaf(("local", name)), False, None
        if known.ndim:
            return self.leaf(("array", name)), False, known
        if known.replicated:
            return self.leaf(("replica", name)), False, None
        return self.leaf(("single", name)), True, None

    def binop(self, node):
        op = OPERATORS.get(node.op)
        if op is None:
            return _walked_expr(node)
        left, lgen, _ = self.expr(node.left)
        right, rgen, _ = self.expr(node.right)
        if not (lgen or rgen):
            def run(ctx):
                a = left(ctx)
                b = right(ctx)
                try:
                    return op(a, b)
                except (TypeError, ZeroDivisionError) as exc:
                    raise ctx.fault(str(exc), node)
            return run, False, None

        def run(ctx):
            a = (yield from left(ctx)) if lgen else left(ctx)
            b = (yield from right(ctx)) if rgen else right(ctx)
            try:
                return op(a, b)
            except (TypeError, ZeroDivisionError) as exc:
                raise ctx.fault(str(exc), node)
        return run, True, None

    def index(self, node):
        base, bgen, shape = self.expr(node.base)
        index, igen, _ = self.expr(node.index)
        if bgen or igen:
            return _walked_expr(node)
        if shape == "block":
            def line(ctx):
                ref = base(ctx)
                return LineSlice(ref.array, ref.block, index(ctx))
            return line, False, "line"
        if shape == "line":
            return (lambda ctx: ctx.read_line(base(ctx), index(ctx))), True, None
        if not isinstance(shape, chains.Kind):
            return _walked_expr(node)
        name = node.base.name  # only a name has an array shape

        def integer(ctx):
            i = index(ctx)
            if not isinstance(i, int):
                raise ctx.fault("array index must be an integer", node)
            return i

        if shape.ndim == 2:
            return (lambda ctx: row_of(ctx.env[name].array, integer(ctx))), False, (
                "block" if shape.partitioned else "line")
        if not shape.replicated:
            return (lambda ctx: ctx.read_element(ctx.env[name].array, integer(ctx))), True, None

        def element(ctx):
            array = ctx.env[name].array
            i = index(ctx)
            if not isinstance(i, int):
                raise ctx.fault("array index must be an integer", node)
            shape = array.descriptor.shape
            if not 0 <= i < shape[0]:
                raise ctx.fault(f"index {i} outside shape {shape}", node)
            return array.replicas[ctx.rank][i]
        return element, False, None

    def accessor(self, node):
        base, bgen, shape = self.expr(node.base)
        which = node.which
        if bgen:
            return _walked_expr(node)
        if shape == "block" and which == "low":
            return (lambda ctx: base(ctx).block.low), False, None
        if shape == "block" and which == "high":
            return (lambda ctx: base(ctx).block.high), False, None
        if not isinstance(shape, chains.Kind):
            return _walked_expr(node)
        if which == "localblocks":
            return (lambda ctx: len(owned_blocks(base(ctx), ctx.rank))), False, None
        if which != "localblockid":
            return _walked_expr(node)
        arg, agen, _ = self.expr(node.arg)
        if agen:
            return _walked_expr(node)

        def block_id(ctx):
            owned = owned_blocks(base(ctx), ctx.rank)
            j = arg(ctx)
            if not isinstance(j, int) or not 0 <= j < len(owned):
                raise ctx.fault(f"local block index {j} outside [0, {len(owned)})", node)
            return owned[j]
        return block_id, False, None

    def call(self, node):
        name, args = node.func, node.args
        if name == "processes":
            return (lambda ctx: ctx.state.nprocs), False, None
        if name in ("FFT", "computeSin") and len(args) == BUILTINS[name]:
            parts = [self.expr(a) for a in args]
            if any(gen for _, gen, _ in parts):
                return _walked_expr(node)
            if name == "FFT":
                (row, _, _), (sins, _, _) = parts
                return (lambda ctx: ctx.fft_line(node, row(ctx), sins(ctx))), False, None
            (array, _, _), = parts
            return (lambda ctx: ctx.compute_sin(node, array(ctx))), False, None
        # user functions (their bodies are compiled) and file I/O
        return _walked_expr(node)
