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
outputs instead of running it (`ProcessContext.run_once`). Once such a
loop, or a gathered one (below), has run HOT_STATEMENTS statements in a
run, it runs as one Python function generated for it and shared by every
rank (`generate`), nested loops included; its closures stay the path of
a cold loop, what a fault in the function runs again, and the plain
reference the function is tested against. A local-only loop nested in a
gathered one runs with it, but for an arrival long enough that sharing
it between ranks repays a snapshot (ELEMENTS_PER_STATEMENT): that runs
on its own (`Compiler.loop`).

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
runs only the iterations the process owns (`CheckedProgram.owners`),
walking X's blocks (`_pieces`); any other loop is the single piece of
its whole range. The geometry decides the reads too: a loop whose body
would be local-only but for reads X[v] of one 1D single-copy X, v the
loop variable, never waits (`LocalOnly.gathers`). Its closures read
element by element; once hot, its generated function reads one block of
X at a time from the block's buffer and records a remote block's gets
as one record of that many. The trace, values and faults are the same
either way. The rules
that hold whatever the kind live in ProcessContext: who performs an
access (`performs`), that collectives cannot run inside `proc`, and the
transfers. A closure hands a one-sided `get` or `put` only the array and
block it moves, and never an owner, a size or a tag.
"""

from types import GeneratorType as Generator

from . import ast
from .ast import MAX_DEPTH
from .checker import BUILTINS, chain_of, evaluated
from .runtime import ZEROES
from .values import OPERATORS, LineSlice, Local, owned_blocks, row_of


_LITERALS = (ast.IntLit, ast.RealLit, ast.StrLit)

# A local-only or gathered loop runs as one generated Python function (see
# `generate`) once the statements it has run in this run, over all ranks,
# reach this many, counted as trips x LocalOnly.statements per arrival that
# runs it. Generating a one-statement body took 0.14-0.23 ms (best of 30),
# and the function runs a statement 0.35-0.40 us faster than the closures
# in a local-only loop and 1.0-1.1 us faster in a gathered one, whose
# closures read element by element (CPython 3.11, 2 cores, P=8): 200-450
# statements repay it. So a loop that turns hot and never runs again loses
# what a fifth to a half of the statements it has run would save, and
# `pgas-fine-p64`'s gathered loop, of 1,024 statements an arrival, runs
# generated from its first.
HOT_STATEMENTS = 1000

# A local-only loop runs once per set of inputs only when its iterations
# run at least one statement per this many elements of its snapshot: a
# statement costs about 1.4 us, and snapshotting, recording and taking an
# element about 25 ns (CPython 3.11, 2 cores). A local-only loop nested in
# a gathered one runs on its own only at an arrival of at least this many
# statements, and with the gathered loop below it: a snapshot, its take
# and the call cost each rank 3-4 us, as much as 130-170 statements of a
# generated body (P=4 and 16), so a shorter arrival is cheaper run on
# every rank, and one from here to there costs what a snapshot costs.
ELEMENTS_PER_STATEMENT = 32


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
        self.around = None  # the hot count of the gathered loop whose body this is

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
        # a loop nested in a local-only one runs with it, never on its own;
        # a local-only one nested in a gathered one runs with that one too,
        # but for an arrival long enough that sharing it repays a snapshot
        within, around = self.within_once, self.around
        facts = None if within else self.checked.loops.get(id(node))
        once = None if facts is None or facts.gathers is not None else facts
        hot = [0, None]  # statements run, then the generated function (False: none)
        self.within_once = within or once is not None
        self.around = hot if facts is not None and once is None else around
        stmts = self.block(node.body)
        self.within_once, self.around = within, around
        around = None if once is None else around
        target = self.checked.owners.get(id(node))
        names = self.names

        def iterate(ctx):
            lo, hi = start(ctx), stop(ctx)
            if not isinstance(lo, int) or not isinstance(hi, int):
                raise ctx.fault("loop bounds must be integers", node)
            if lo > hi:
                return
            if around is not None and (hi - lo + 1) * once.statements < ELEMENTS_PER_STATEMENT:
                around[0] += (hi - lo + 1) * once.statements  # what the gathered loop runs
                run(ctx, lo, hi)
            elif once is not None and not ctx.proc_depth and ctx.state.nprocs > 1:
                ctx.run_once(once, hi - lo + 1, lambda: run(ctx, lo, hi))
            elif facts is not None:
                run(ctx, lo, hi)
            else:
                yield from iterations(ctx, lo, hi)
        iterate.body = stmts  # what a hot loop around this one generates from
        iterate.own = None if around is None else once  # may run on its own: its LocalOnly

        def run(ctx, lo, hi):
            """The iterations of a local-only or gathered loop, which never
            yield: by the generated function once the loop is hot and no
            nested loop would pass MAX_DEPTH, else by the closures."""
            code = hot[1]
            if code is None:
                hot[0] += (hi - lo + 1) * facts.statements
                if hot[0] >= HOT_STATEMENTS:
                    code = hot[1] = generate(names, node, stmts, facts) or False
            frame = ctx.frame
            # a call's frame may bind two names to one Local, which the
            # generated function would hold as two Python locals
            if code and ctx.depth + code.nest <= MAX_DEPTH and (
                    frame is ctx.top or len({id(frame[s]) for s in facts.locals})
                    == len(facts.locals)):
                ctx.enter(node)
                code(ctx, frame, lo, hi)
                ctx.leave()
            else:
                next(iterations(ctx, lo, hi), None)

        def iterations(ctx, lo, hi):
            ctx.enter(node)
            frame = ctx.frame
            if reuse:
                counter = frame[slot]
            else:
                counter = frame[slot] = Local()
            # a plain loop is one piece; owner computes outside `proc` walk
            # only this rank's blocks of X (any other iteration would only
            # find the owner, and local stores never wait)
            blockwise = None if ctx.proc_depth else target
            if blockwise is None:
                pieces = ((None, range(lo, hi + 1)),)
            else:
                pieces = _pieces(frame[blockwise], lo, hi, ctx.rank)
            exec_stmt = ctx.exec_stmt
            for _, indices in pieces:
                for counter.value in indices:
                    for s, fn in stmts:
                        result = exec_stmt(s, fn)
                        if result.__class__ is Generator:
                            yield from result
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
        return single_copy

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


# --- hot loops: one generated Python function per loop body ---


def _index(i, n):
    """i, when the closures accept it as an index into a replica of n
    elements; otherwise an error, and the closure, run again, faults."""
    if isinstance(i, int) and 0 <= i < n:
        return i
    raise IndexError(i)


# The operators a generated body writes infix: `/` and the comparisons are
# calls, since their meaning differs from Python's operators.
_INFIX = ("+", "-", "*")


class _Source:
    """A hot loop's body as the lines of a Python function: a local of slot
    k is the Python local Lk, a replica's copy on this process the list Rk
    (of Nk elements), X[v] in a gathered loop `buf[Lv - low]`, `+`, `-`
    and `*` infix, and each other operator and literal a name bound to the
    object itself, never its text.
    Each statement is one line, a loop two (its bounds, then its `for`),
    and `at` maps each to the statement, its closure and the loops around
    it in the body. A loop that may run on its own has its `for` under an
    `if` that runs it by its closure, on a line `at` maps to the
    statement, None and the slots of the locals it uses."""

    def __init__(self, names, gather, v, first):
        self.names, self.gather, self.v, self.first = names, gather, v, first
        self.lines = []
        self.at = {}
        self.fors = {}  # id of each loop in the body -> n, which names its lo<n> and hi<n>
        self.bound = {}  # id of a bound object -> (its name, the object)
        self.slots = set()  # the slots of the locals held as Python locals
        self.replicas = {}  # slot -> whether it is indexed
        self.nprocs = False
        self.deepest = 0  # loops nested in the body, at the deepest
        self.reads = 0  # gathered reads in the statement being written

    def bind(self, obj):
        return self.bound.setdefault(id(obj), (f"_{len(self.bound)}", obj))[0]

    def local(self, slot):
        self.slots.add(slot)
        return f"L{slot}"

    def replica(self, slot, indexed=False):
        self.replicas[slot] = indexed or self.replicas.get(slot, False)
        return f"R{slot}"

    def expr(self, e):
        kind = type(e)
        if kind is ast.BinOp:
            if e.op in _INFIX:  # raise what operator.add, sub and mul raise
                return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
            return f"{self.bind(OPERATORS[e.op])}({self.expr(e.left)}, {self.expr(e.right)})"
        if kind in _LITERALS:
            return self.bind(e.value)
        if kind is ast.Call:  # processes(), the one call a local-only loop holds
            self.nprocs = True
            return "nprocs"
        if kind is ast.Name:
            info = self.names[id(e)]
            if info.kind.distributed:  # a replicated scalar
                return f"{self.replica(info.slot)}[0]"
            return self.local(info.slot)
        slot = self.names[id(e.base)].slot  # an element of a 1D array
        if slot == self.gather:
            self.reads += 1
            return f"buf[{self.local(self.v)} - low]"
        return (f"{self.replica(slot, True)}[_t if (_t := {self.expr(e.index)}).__class__ is int"
                f" and 0 <= _t < N{slot} else _index(_t, N{slot})]")

    def line(self, text, pad, at=None):
        self.lines.append("    " * pad + text)
        if at is not None:
            self.at[len(self.lines)] = at

    def body(self, pairs, level, pad):
        """The lines of pairs, (statement, closure), inside `level` loops of the body."""
        self.deepest = max(self.deepest, level)
        if not pairs:
            self.line("pass", pad)
        for s, fn in pairs:
            self.reads, kind = 0, type(s)
            if kind is ast.For:
                n = self.fors[id(s)] = len(self.lines) + 1
                text = (f"lo{n} = {self.expr(s.start)}; hi{n} = {self.expr(s.stop)}; "
                        f"r{n} = range(lo{n}, hi{n} + 1)")
            elif kind is ast.VarDecl:  # untyped: the checker lets in no other
                text = f"{self.local(self.names[id(s)].slot)} = " \
                    + ("0" if s.init is None else self.expr(s.init))
            elif type(s.target) is ast.Name:
                info = self.names[id(s.target)]
                store = f"{self.replica(info.slot)}[0]" if info.kind.distributed \
                    else self.local(info.slot)
                text = f"{store} = {self.expr(s.value)}"
            else:  # a replica element: index, then value, as the closure reads them
                slot = self.names[id(s.target.base)].slot
                text = (f"_i = {self.expr(s.target.index)}; _v = {self.expr(s.value)}; "
                        f"{self.replica(slot, True)}[_i if _i.__class__ is int and "
                        f"0 <= _i < N{slot} else _index(_i, N{slot})] = _v")
            # the reads count once the statement is done: a fault in it
            # leaves them to its closure, run again
            self.line(text + (f"; g += {self.reads}" if self.reads else ""), pad, (s, fn, level))
            if kind is ast.For:
                own = fn.own
                if own is not None:  # on its own, as `iterate` decides: by its closure
                    self.line(f"if (hi{n} - lo{n} + 1) * {own.statements} >= "
                              f"{ELEMENTS_PER_STATEMENT}:", pad)
                    for k in own.locals:  # stored to the cells it reads
                        self.line(f"    frame[{k}] = {self.bind(Local)}({self.local(k)})"
                                  if k >= self.first else f"    frame[{k}].value = L{k}", pad)
                    self.line(f"    ctx.stmt = {self.bind(s)}; ctx.depth += {level}; "
                              f"next({self.bind(fn)}(ctx), None); ctx.depth -= {level}",
                              pad, (s, None, own.locals))
                    for k in (own.locals[i] for i in own.stores):
                        self.line(f"    L{k} = frame[{k}].value", pad)
                    self.line("else:", pad)
                    pad += 1
                self.line(f"for {self.local(self.names[id(s)].slot)} in r{n}:", pad, (s, fn, level))
                self.body(fn.body, level + 1, pad + 1)

    def last(self, pairs):
        """The statement the closures start last in a run of pairs."""
        s, fn = pairs[-1]
        if type(s) is not ast.For or not fn.body:
            return self.bind(s)
        n = self.fors[id(s)]
        return f"({self.last(fn.body)} if hi{n} >= lo{n} else {self.bind(s)})"


def generate(names, node, stmts, facts):
    """The iterations of the hot loop node, nested loops included, as one
    Python function of (ctx, frame, lo, hi), shared by every rank, or None
    for a body nested deeper than CPython compiles. The function holds the
    body's locals as Python locals, loaded from their Local cells and
    stored back at the end; a gathered loop's walks X's blocks (`_pieces`),
    reads each block's buffer and records a remote block's gets as one
    record, and runs an arrival of a nested loop that its closure would run
    on its own through that closure. On any error it stores back
    what it holds and re-runs the faulting statement's closure, so the
    fault, its location and what it leaves are the closures' (`redo`).
    `facts` is the loop's LocalOnly, `stmts` its body's (statement,
    closure) pairs."""
    v = names[id(node)].slot
    src = _Source(names, facts.gathers, v, facts.first)
    gathered = facts.gathers is not None
    src.body(stmts, 0, 4 if gathered else 3)
    head = []
    if src.replicas:
        head.append("rank = ctx.rank")
    if src.nprocs:
        head.append("nprocs = ctx.state.nprocs")
    for slot, indexed in src.replicas.items():
        head.append(f"R{slot} = frame[{slot}].replicas[rank]")
        if indexed:
            head.append(f"N{slot} = frame[{slot}].descriptor.shape[0]")
    for slot in facts.locals:
        head.append(f"C{slot} = frame[{slot}]; L{slot} = C{slot}.value")
    if gathered:
        head += [f"array = frame[{facts.gathers}]",
                 "for block, indices in pieces(array, lo, hi, None):",
                 "    buf, low = (None, 0) if block is None else (block.buffer, block.low)",
                 "    g = 0",
                 "    try:",
                 f"        for L{v} in indices:"]
        tail = ["    except Exception as exc:",
                "        redo(exc, locals())",
                "    if g:",
                "        ctx.get(array, block, repeat=g)",
                f"L{v} = hi"]
    else:
        head += ["try:", f"    for L{v} in range(lo, hi + 1):"]
        tail = ["except Exception as exc:", "    redo(exc, locals())"]
    tail += [f"C{facts.locals[k]}.value = L{facts.locals[k]}" for k in facts.stores]
    if stmts:
        tail.append(f"ctx.stmt = {src.last(stmts)}")
    bound = dict(src.bound.values())
    defaults = "".join(f", {name}={name}" for name in bound)
    text = "\n".join([f"def loop(ctx, frame, lo, hi, *, redo=redo, pieces=pieces{defaults}):"]
                     + ["    " + line for line in head] + src.lines
                     + ["    " + line for line in tail]) + "\n"
    skip = 1 + len(head)  # the lines above the body's
    at = {n + skip: entry for n, entry in src.at.items()}
    slots, first = sorted(src.slots), facts.first

    def redo(exc, held):
        """At an exception in the function, whose locals are held: store them
        back, as cells for the slots the body declares, but for those of a
        nested loop that faulted running on its own, whose cells hold them;
        record the gets the statements done in the open block made; set the
        scope depth and ctx.stmt; then run the faulting statement's closure,
        which reads element by element and raises the fault the closures
        raise."""
        ctx, frame, block = held["ctx"], held["frame"], held.get("block")
        entry = at.get(exc.__traceback__.tb_lineno)
        kept = entry[2] if entry is not None and entry[1] is None else ()
        for slot in slots:
            name = f"L{slot}"
            if name in held and slot not in kept:
                if slot < first:
                    frame[slot].value = held[name]
                else:
                    frame[slot] = Local(held[name])
        if entry is None:
            raise exc
        stmt, fn, level = entry
        if block is not None and held["g"]:
            ctx.get(held["array"], block, repeat=held["g"])
        if fn is None:
            raise exc
        ctx.depth += level
        ctx.stmt = stmt
        result = fn(ctx)
        if result.__class__ is Generator:
            next(result, None)
        raise exc

    scope = dict(bound, redo=redo, pieces=_pieces, _index=_index)
    try:
        exec(compile(text, f"<loop at {node.line}:{node.column}>", "exec"), scope)
    except (SyntaxError, RecursionError, MemoryError):  # nested past what CPython compiles
        return None
    code = scope["loop"]
    code.nest = src.deepest + 1
    return code
