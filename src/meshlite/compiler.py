"""Compile a checked program, once per run, into closures.

Every statement and expression becomes one closure over the process
context; that is how a program runs. An expression's closure returns its
value: a one-sided get records its event and completes where it is made,
so no expression waits. Only statements wait for another process (puts,
channel transfers, collectives, and calls, which the checker allows only
as statements); a statement's closure returns a generator then, which
yields to the scheduler, and otherwise runs straight through. Callers
drain a generator with `yield from`.

A loop whose bounds and body touch nothing but locals and replicas (the
checker's `CheckedProgram.loops`) never waits, and outside `proc` a
process whose inputs to it match another's bit for bit takes that one's
outputs instead of running it (`ProcessContext.run_once`).

A statement list compiles to (statement, closure) pairs, held by what
runs it: the program, a loop, a `proc` body, a function. A loop's and a
call's closure is a generator function, and a `proc` body's returns one
on the rank it names, so each returns its own generator, which its
caller drains: one Python frame per level of nesting.

What a name reads and how a store communicates are decided here, once,
from the Layout the checker resolved it to (the Mesham types decide it
before the program runs); no closure looks at a kind. No closure looks
a name up either: each reads and stores the slot the checker gave its
declaration, in `ctx.frame`, which holds a distributed name's array
itself, or a local's `values.Local` cell. A function
is defined at top level, and its body is compiled once, where it is
defined (`funcdef`); a call's frame starts with the top-level slots the
body sees, so the body reads the names where it is defined, whatever
its caller hides. The checker has refused every name used where it is
not declared and every value used as its class forbids, so the kinds
alone pick each closure, none tests a value's class, and a closure
faults only on what values alone show: an index's type and range, a
loop bound, a `proc` rank, a line's length. The types also decide who
stores: outside `proc` only X[i]'s owner stores `X[i] := e`,
so a loop whose body is that one statement over a 1D single-copy array
runs only the iterations the process owns (`CheckedProgram.owners`). The
geometry decides the reads too: a loop whose body would be local-only
but for reads X[v] of one 1D single-copy X, v the loop variable, never
waits, so it runs one block of X at a time, reading the block's buffer,
and records a remote block's gets as one record of that many
(`LocalOnly.gathers`); the trace, values and faults are unchanged. Both
run through the one loop every loop has, over (block, indices) pieces: a
plain loop is the single piece of its whole range, and these two walk
X's blocks (`_pieces`). The rules
that hold whatever the kind live in ProcessContext: who performs an
access (`performs`), that collectives cannot run inside `proc`, and the
transfers. A closure hands a one-sided `get` or `put` only the array and
block it moves, and never an owner, a size or a tag.
"""

from types import GeneratorType as Generator

from . import ast
from .checker import BUILTINS, chain_of, evaluated
from .runtime import ZEROES
from .values import OPERATORS, LineSlice, Local, owned_blocks, row_of


_LITERALS = (ast.IntLit, ast.RealLit, ast.StrLit)


def compile_program(checked) -> list:
    """The program's top-level statements as (statement, closure) pairs."""
    return Compiler(checked).block(checked.program.statements)


def _class(kind):
    """How a name of chains.Layout kind is read and stored: a leaf's class."""
    if not kind.distributed:
        return "local"
    if kind.ndim:
        return "array"
    return "replica" if kind.replicated else "single"


# --- statements that may wait ---


def _pieces(array, lo, hi, rank):
    """The (block, indices) pieces of a blockwise loop from lo to hi over the
    1D single-copy array, in order: the indices below 0, with no block; each
    block's run, only rank's blocks unless rank is None; the indices past
    the end, with no block. Those outside the array take the body's usual
    reads and stores, and fault where those do."""
    yield None, range(lo, min(hi, -1) + 1)
    for b in array.blocks:
        if rank is None or b.owner == rank:
            yield b, range(max(lo, b.low), min(hi, b.high) + 1)
    yield None, range(max(lo, array.descriptor.shape[0]), hi + 1)


def _integer(ctx, node, i):
    if not isinstance(i, int):
        raise ctx.fault("array index must be an integer", node)
    return i


def _element(ctx, node, shape, i):
    """i as an index into a replicated 1D array: an integer, in range."""
    if not 0 <= _integer(ctx, node, i) < shape[0]:
        raise ctx.fault(f"index {i} outside shape {shape}", node)
    return i


def _store(ctx, array, block, offset, value):
    """Store into one element of array; may wait (a put when remote)."""
    if block.owner != ctx.rank:
        return ctx.store(array, block, offset, value)
    block.buffer[offset] = value


class Compiler:
    def __init__(self, checked):
        # function name -> its body's (statement, closure) pairs, filled as it compiles
        self.bodies = {}
        self.leaves = {}
        self.checked = checked
        self.names = checked.names  # the VarInfo the checker resolved each name to
        self.within_once = False  # compiling the body of a local-only loop
        self.gathering = None  # (X's slot, v's slot, window) in a gathered loop's body

    # --- statements ---

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
        return self.funcdef(node)

    def decl(self, node):
        name, type_expr, info = node.name, node.type_expr, self.names[id(node)]
        kind, slot = info.kind, info.slot
        init = None if node.init is None else self.expr(node.init)
        if kind.distributed:
            # each type argument (value or closure), and the names the chain references
            readers, targets = self.checked.allocations[id(node)]

            def allocate(ctx):
                # every argument in the order the chain reads them, so each
                # fault comes where building the chain would raise it
                values = tuple([evaluated(arg, ctx) for arg in readers])
                frame = ctx.frame
                frame[slot] = yield from ctx.allocate(
                    node, lambda: chain_of(type_expr, values),
                    {role: frame[t.slot] for role, t in targets.items()}, values)
            return allocate

        # a typed local's chain has no arguments to evaluate: the checker
        # rejects every constructor taking one outside an array or allocated[...]
        zero = 0 if type_expr is None else ZEROES[kind.elem]
        # a run's `overrides` set the top-level `var`s without a type
        override = type_expr is None and self.checked.toplevel.get(name) is info

        def local(ctx):
            if override and name in ctx.state.overrides:
                value = ctx.state.overrides[name]
            else:
                value = zero if init is None else init(ctx)
            ctx.frame[slot] = Local(value)
        return local

    # --- assignments ---

    def assign(self, node):
        target = node.target
        if type(target) is ast.Name:
            return self.assign_name(node, target)
        # the parser admits only x, x[i] and x[i][j]
        if type(target.base) is ast.Name:
            return self.assign_element(node, target.base)
        return self.assign_line(node)

    def assign_name(self, node, target):
        info = self.names[id(target)]
        kind, slot = _class(info.kind), info.slot
        value = self.expr(node.value)
        if kind == "local":
            def local(ctx):  # the commonest statement, as one call
                ctx.frame[slot].value = value(ctx)
            return local
        if kind == "replica":
            def replica(ctx):
                ctx.frame[slot].replicas[ctx.rank][0] = value(ctx)
            return replica
        source = self.names[id(node.value)] if type(node.value) is ast.Name else None
        if kind == "array":  # the checker lets in only another array
            def redistribute(ctx):
                ctx.unguarded("array assignment", node)
                frame = ctx.frame
                return ctx.assign_arrays(frame[slot], frame[source.slot], node)
            return redistribute

        if source is not None and _class(source.kind) == "single":
            def transfer(ctx):
                """From a single-copy scalar: over a matching channel, else one-sided."""
                array, src = ctx.frame[slot], ctx.frame[source.slot]
                owner, src_owner = array.blocks[0].owner, src.blocks[0].owner
                comm = array.descriptor.comm
                if comm is not None and (comm[1], comm[2]) == (src_owner, owner) \
                        and src_owner != owner:
                    return ctx.channel_assign(node, array, src)
                if ctx.performs(owner):
                    return _store(ctx, array, array.blocks[0], 0, ctx.read_element(src, 0))
            return transfer

        def single(ctx):
            """A single-copy scalar from any other value, stored by whoever performs it."""
            array = ctx.frame[slot]
            block = array.blocks[0]
            if ctx.performs(block.owner):
                return _store(ctx, array, block, 0, value(ctx))
        return single

    def assign_element(self, node, base):
        """base[i] := value, base naming a 1D array."""
        info = self.names[id(base)]
        slot = info.slot
        index, value = self.expr(node.target.index), self.expr(node.value)
        if info.kind.replicated:
            def replica(ctx):
                """This process's replica."""
                i, v = index(ctx), value(ctx)
                array = ctx.frame[slot]
                array.replicas[ctx.rank][_element(ctx, node, array.descriptor.shape, i)] = v
            return replica

        local = self.local(node.target.index)  # a known-local index, read inline

        def distributed(ctx):
            """Element i of a single-copy array, stored by whoever performs it."""
            frame = ctx.frame
            i = frame[local].value if local is not None else index(ctx)
            array = frame[slot]
            if i.__class__ is not int:
                _integer(ctx, node, i)
            k, off = array.descriptor.element(i)
            block = array.blocks[k]
            if ctx.performs(block.owner):
                return _store(ctx, array, block, off, value(ctx))
        return distributed

    def assign_line(self, node):
        """A[block][line] := other line: whole-line copy."""
        line, value = self.expr(node.target), self.expr(node.value)

        def run(ctx):
            dst = line(ctx)
            if not ctx.performs(dst.block.owner):
                return
            src = value(ctx)
            if len(src) != len(dst):
                raise ctx.fault("line assignment needs an equal-length line", node)
            ctx.get(src.array, src.block, len(src))
            payload = src.values()
            yield from ctx.put(dst.array, dst.block, len(payload))
            dst.store(payload)
        return run

    # --- control flow ---

    def loop(self, node):
        start, stop = self.expr(node.start), self.expr(node.stop)
        info = self.names[id(node)]
        slot, reuse = info.slot, info.node is not node  # reuse: an existing local counts
        # a loop nested in a local-only one runs with it, never on its own
        within, gathering = self.within_once, self.gathering
        once = None if within else self.checked.loops.get(id(node))
        gather = None if once is None else once.gathers
        if gather is not None:
            # the block a run reads, per compile (a checked program may serve
            # many runs): its buffer (None between runs), its first index,
            # and the reads of it made so far
            window = [None, 0, 0]
            self.gathering, once = (gather, slot, window), None
        self.within_once = within or once is not None
        stmts = self.block(node.body)
        target = self.checked.owners.get(id(node))
        self.within_once, self.gathering = within, gathering

        def iterate(ctx):
            lo, hi = start(ctx), stop(ctx)
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise ctx.fault("loop bounds must be integers", node)
            if lo > hi:
                return
            if once is not None and not ctx.proc_depth and ctx.state.nprocs > 1:
                # the iterations never yield: next() runs them to the end
                ctx.run_once(once, hi - lo + 1, lambda: next(iterations(ctx, lo, hi), None))
            else:
                yield from iterations(ctx, lo, hi)

        def iterations(ctx, lo, hi):
            ctx.enter(node)
            frame = ctx.frame
            if reuse:
                counter = frame[slot]
            else:
                counter = frame[slot] = Local()
            # a plain loop is one piece; a blockwise one walks X's blocks:
            # owner computes outside `proc` only this rank's (any other
            # iteration would only find the owner, and local stores never
            # wait), gathered reads every one (the body never waits, so
            # nothing lands in X while a run reads its block's buffer)
            blockwise = target if gather is None and not ctx.proc_depth else gather
            if blockwise is None:
                pieces = ((None, range(lo, hi + 1)),)
            else:
                array = frame[blockwise]
                pieces = _pieces(array, lo, hi, None if gather is not None else ctx.rank)
            exec_stmt = ctx.exec_stmt
            for block, indices in pieces:
                opened = gather is not None and block is not None
                if opened:
                    window[:] = block.buffer, block.low, 0
                try:
                    for counter.value in indices:
                        for s, fn in stmts:
                            result = exec_stmt(s, fn)
                            if result.__class__ is Generator:
                                yield from result
                finally:  # a remote run's gets: one record, even when an iteration faults
                    if opened:
                        window[0] = None
                        if window[2]:
                            ctx.get(array, block, repeat=window[2])
            if blockwise is not None:  # a plain loop's body may store its variable
                counter.value = hi
            ctx.leave()
        return iterate

    def proc(self, node):
        rank = self.expr(node.rank)
        stmts = self.block(node.body)

        def guarded(ctx):
            ctx.enter(node)
            ctx.proc_depth += 1
            exec_stmt = ctx.exec_stmt
            for s, fn in stmts:
                result = exec_stmt(s, fn)
                if result.__class__ is Generator:
                    yield from result
            ctx.proc_depth -= 1
            ctx.leave()

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
            kind, arg = key[0], key[-1]  # a constant's value, or a name's slot
            if kind == "const":
                fn = lambda ctx: arg  # noqa: E731
            elif kind == "local":
                fn = lambda ctx: ctx.frame[arg].value  # noqa: E731
            elif kind == "array":
                fn = lambda ctx: ctx.frame[arg]  # noqa: E731
            elif kind == "replica":
                fn = lambda ctx: ctx.frame[arg].replicas[ctx.rank][0]  # noqa: E731
            else:
                fn = lambda ctx: ctx.read_element(ctx.frame[arg], 0)  # noqa: E731
            self.leaves[key] = fn
        return fn

    def name(self, node):
        info = self.names[id(node)]
        return self.leaf((_class(info.kind), info.slot))

    def local(self, node):
        """The slot of the local node names, else None."""
        if type(node) is ast.Name:
            info = self.names[id(node)]
            if not info.kind.distributed:
                return info.slot
        return None

    def binop(self, node):
        op = OPERATORS[node.op]
        left, right = self.expr(node.left), self.expr(node.right)
        # a known local on the left, or a literal on the right, is read in
        # the closure itself: one call fewer per operand
        local = self.local(node.left)
        literal = type(node.right) in _LITERALS
        if local is not None and literal:
            b = node.right.value

            def run(ctx):
                a = ctx.frame[local].value
                try:
                    return op(a, b)
                except (TypeError, ZeroDivisionError) as exc:
                    raise ctx.fault(str(exc), node)
        elif local is not None:
            def run(ctx):
                a = ctx.frame[local].value
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
        """base[i]: the kinds declared say which value base is, so which step
        this is: an element of a 1D array, a row of a 2D one (`row_of`), a
        line of a block or an element of a line."""
        base, index = node.base, self.expr(node.index)
        if type(base) is not ast.Name:  # a block or a line
            row = self.expr(base)
            if type(base.base) is ast.Name and self.names[id(base.base)].kind.partitioned:
                def line(ctx):
                    ref = row(ctx)
                    return LineSlice(ref.array, ref.block, _integer(ctx, node, index(ctx)))
                return line
            return lambda ctx: ctx.read_line(row(ctx), _integer(ctx, node, index(ctx)))
        info = self.names[id(base)]
        slot, known = info.slot, info.kind
        if known.ndim == 2:
            return lambda ctx: row_of(ctx.frame[slot], _integer(ctx, node, index(ctx)))
        # an element of a 1D array, read straight from the array
        local = self.local(node.index)  # a known-local index, read inline
        if known.replicated:
            def element(ctx):
                frame = ctx.frame
                array = frame[slot]
                i = frame[local].value if local is not None else index(ctx)
                shape = array.descriptor.shape
                # _element's rule, inline on the commonest read: a call
                # here costs interp-local-p4 about 3% of its run
                if i.__class__ is not int or not 0 <= i < shape[0]:
                    _element(ctx, node, shape, i)
                return array.replicas[ctx.rank][i]
            return element

        def single_copy(ctx):
            frame = ctx.frame
            array = frame[slot]
            i = frame[local].value if local is not None else index(ctx)
            if i.__class__ is not int:
                _integer(ctx, node, i)
            return ctx.read_element(array, i)
        if self.gathering is None or self.gathering[:2] != (slot, local):
            return single_copy
        window = self.gathering[2]

        def gathered(ctx):
            """X[v] in a gathered loop: from the block a run reads, if one is open."""
            buffer = window[0]
            if buffer is None:
                return single_copy(ctx)
            window[2] += 1
            return buffer[ctx.frame[local].value - window[1]]
        return gathered

    def accessor(self, node):
        base, which = self.expr(node.base), node.which
        if which == "low":  # of a block
            return lambda ctx: base(ctx).block.low
        if which == "high":
            return lambda ctx: base(ctx).block.high
        if which == "localblocks":  # of an array
            return lambda ctx: len(owned_blocks(base(ctx), ctx.rank))
        arg = self.expr(node.arg)

        def localblockid(ctx):
            owned = owned_blocks(base(ctx), ctx.rank)
            j = arg(ctx)
            if not isinstance(j, int) or not 0 <= j < len(owned):
                raise ctx.fault(f"local block index {j} outside [0, {len(owned)})", node)
            return owned[j]
        return localblockid

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

    def funcdef(self, node):
        """Compile node's body once, where it is defined, at top level."""
        stmts = self.bodies[node.name] = []  # for its recursive calls
        stmts += self.block(node.body)
        return lambda ctx: None

    def user_call(self, node):
        """A call: its frame holds the top-level slots the body sees, then
        the arguments' arrays and Local cells for the parameters, then the
        body's own."""
        stmts = self.bodies[node.func]
        seen = self.checked.seen[node.func]
        args = [self.names[id(a)].slot for a in node.args]  # names: the checker refuses any other
        rest = [None] * (self.checked.size - seen - len(args))

        def call(ctx):
            caller = ctx.frame
            frame = ctx.top[:seen] + [caller[a] for a in args] + rest
            ctx.enter(node)
            ctx.frame = frame
            exec_stmt = ctx.exec_stmt
            for s, fn in stmts:
                result = exec_stmt(s, fn)
                if result.__class__ is Generator:
                    yield from result
            ctx.frame = caller
            ctx.leave()
        return call
