"""Shared helpers: corpus access, collective harness, brute-force oracles."""

import cmath
from dataclasses import dataclass, field

import pytest

from meshlite import ast, chains, check_program, parse
from meshlite.fixtures import corpus_source
from meshlite.errors import BadLength, LexError, MeshError, NotPowerOfTwo, ShapeMismatch
from meshlite.interp import ProcessContext, RunState, bit_reversal
from meshlite.lexer import END, KEYWORDS, OPERATORS, PUNCTUATION
from meshlite.runtime import (
    ELEMENT_SIZES,
    STAMPED_BY_DST,
    ArrayDescriptor,
    Segment,
    TraceEvent,
    TraceLog,
    owner_of,
)
from meshlite.sched import ASYNC_PROGRESS, Barrier


@dataclass(frozen=True)
class ReferenceToken:
    kind: str  # identifier | integer-literal | real-literal | string-literal | keyword | operator | punctuation | end
    lexeme: str
    line: int = field(compare=False)
    column: int = field(compare=False)

    def __repr__(self):
        return f"Token({self.kind}, {self.lexeme!r}, {self.line}:{self.column})"


def reference_tokenize(source: str) -> list[ReferenceToken]:
    """Character-at-a-time tokenizer; the oracle for lexer.tokenize.

    The lexer before the master-pattern scan, unchanged except that digits
    are str.isdecimal() characters (it used str.isdigit(), which admits
    '²' and made the parser's int() call fail).
    """
    Token = ReferenceToken
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(source)

    def advance(k=1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance()
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            kind = "keyword" if word in KEYWORDS else "identifier"
            tokens.append(Token(kind, word, start_line, start_col))
            advance(j - i)
            continue
        if ch.isdecimal():
            j = i
            while j < n and source[j].isdecimal():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdecimal():
                j += 1
                while j < n and source[j].isdecimal():
                    j += 1
                tokens.append(Token("real-literal", source[i:j], start_line, start_col))
            else:
                tokens.append(Token("integer-literal", source[i:j], start_line, start_col))
            advance(j - i)
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise LexError("unterminated string literal", start_line, start_col)
                j += 1
            if j >= n:
                raise LexError("unterminated string literal", start_line, start_col)
            tokens.append(Token("string-literal", source[i : j + 1], start_line, start_col))
            advance(j + 1 - i)
            continue
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("operator", op, start_line, start_col))
                advance(len(op))
                break
        else:
            if ch in PUNCTUATION:
                tokens.append(Token("punctuation", ch, start_line, start_col))
                advance()
            else:
                raise LexError(f"unexpected character {ch!r}", start_line, start_col)
    tokens.append(Token(END, "", line, col))
    return tokens


def iter_indices(shape):
    """Every logical index of an array, row-major."""
    if len(shape) == 0:
        yield ()
    elif len(shape) == 1:
        for i in range(shape[0]):
            yield (i,)
    else:
        for i in range(shape[0]):
            for j in range(shape[1]):
                yield (i, j)


def under_frames(depth, thunk):
    """thunk(), called under `depth` more Python frames."""
    return thunk() if depth == 0 else under_frames(depth - 1, thunk)


def checked_corpus(name):
    return check_program(parse(corpus_source(name)))


def make_descriptor(shape, elem="complex", ordering="row", partition=None,
                    distribution=("on", 0), nprocs=2):
    return ArrayDescriptor(shape=shape, elem=elem, ordering=ordering,
                           partition=partition, distribution=distribution,
                           nprocs=nprocs)


def fill_sequential(array):
    """Deterministic distinct contents: value encodes the logical index."""
    counter = 0
    for idx in iter_indices(array.descriptor.shape):
        if array.descriptor.elem == "complex":
            logical_set(array, idx, complex(counter, -counter))
        else:
            logical_set(array, idx, counter)
        counter += 1
    return array


def brute_force_copy(dst, src):
    """Element-at-a-time logical copy; the redistribution oracle."""
    for idx in iter_indices(src.descriptor.shape):
        logical_set(dst, idx, src.logical_get(idx))


def reference_slices(seg) -> list:
    """(src_start, dst_start, length, src_step, dst_step), one per slice.

    The rectangle is cut along whichever axis gives fewer slices.
    """
    n = seg.lines
    w = seg.count // n
    ss, ds = seg.src_stride, seg.dst_stride
    sl, dl = seg.src_line_stride, seg.dst_line_stride
    if n > w:
        n, w, ss, ds, sl, dl = w, n, sl, dl, ss, ds
    return [(seg.src_offset + t * sl, seg.dst_offset + t * dl, w, ss, ds)
            for t in range(n)]


def reference_copy(segments, src, dst) -> None:
    """Apply a plan with extended-slice copies, skipping identities; the
    oracle for runtime.copy_array.

    The copy before it was made from the two layouts: one slice per line
    of every segment, unchanged except that `Segment.slices` is
    `reference_slices`. Every payload is read before any is written,
    because views sharing storage can overlap.
    """
    moves = []
    for seg in segments:
        if seg.identity:
            continue
        if src.replicated:
            sbuf = src.replicas[seg.src_owner]
        else:
            sbuf = src.blocks[seg.src_block].buffer
        if dst.replicated:
            dbuf = dst.replicas[seg.dst_replica]
        else:
            dbuf = dst.blocks[seg.dst_block].buffer
        for s, d, length, ss, ds in reference_slices(seg):
            moves.append((dbuf, slice(d, d + (length - 1) * ds + 1, ds),
                          sbuf[s : s + (length - 1) * ss + 1 : ss]))
    for buf, where, payload in moves:
        buf[where] = payload


def brute_force_plan(src, dst, same_storage=False):
    """Element-at-a-time planner; the oracle for plan_redistribution.

    Walks every destination buffer in storage order, locates each element
    in the source and coalesces runs while both offsets advance by one
    inside the same pair of blocks. Returns contiguous segments only.
    """
    if src.shape != dst.shape or src.elem != dst.elem:
        raise ShapeMismatch(
            f"cannot assign {dst.elem}{dst.shape} from {src.elem}{src.shape}")
    esize = ELEMENT_SIZES[src.elem]
    segments = []

    def emit(run, dst_block, dst_owner, dst_off, replica):
        sb, so, count = run
        s_owner = src_owner_of(sb, dst_owner)
        same_block = same_storage and sb == dst_block and so == dst_off
        segments.append(Segment(
            src_owner=s_owner, dst_owner=dst_owner,
            src_block=sb, src_offset=so,
            dst_block=dst_block, dst_offset=dst_off,
            count=count, nbytes=count * esize,
            local=s_owner == dst_owner,
            identity=same_block and s_owner == dst_owner,
            dst_replica=replica,
        ))

    def src_owner_of(block_id, dst_owner):
        if src.replicated:
            # every rank holds a replica: read the co-located one
            return dst_owner
        return owner_of(src.distribution, block_id, src.nprocs)

    def walk(dst_blocks):
        for dst_block, dst_owner, replica, indices in dst_blocks:
            run = None  # (src_block, src_offset_start, count)
            run_dst_off = 0
            next_dst_off = 0
            for index in indices:
                if src.replicated:
                    sb, so = 0, _dense_offset(src, index) if src.ndim else 0
                else:
                    sb, so = src.locate(index)
                if run is not None and sb == run[0] and so == run[1] + run[2]:
                    run = (run[0], run[1], run[2] + 1)
                else:
                    if run is not None:
                        emit(run, dst_block, dst_owner, run_dst_off, replica)
                    run = (sb, so, 1)
                    run_dst_off = next_dst_off
                next_dst_off += 1
            if run is not None:
                emit(run, dst_block, dst_owner, run_dst_off, replica)

    if dst.replicated:
        walk([(0, rank, rank, _buffer_order(dst)) for rank in range(dst.nprocs)])
    else:
        walk([(k, owner_of(dst.distribution, k, dst.nprocs), None, _block_order(dst, k))
              for k in range(dst.block_count)])
    return segments


def _block_order(desc, block_id):
    """Logical indices of one block in buffer order."""
    low, high = desc.bounds(block_id)
    if desc.ndim == 0:
        yield ()
        return
    if desc.ndim == 1:
        for i in range(low, high + 1):
            yield (i,)
        return
    for along in range(low, high + 1):
        for free in range(desc.line_len):
            if desc.part_dim == 0:
                yield (along, free)
            else:
                yield (free, along)


def _buffer_order(desc):
    """Logical indices of a dense (replicated) buffer in storage order."""
    if desc.ndim == 0:
        yield ()
    elif desc.ndim == 1:
        for i in range(desc.shape[0]):
            yield (i,)
    elif desc.ordering == "row":
        for i in range(desc.shape[0]):
            for j in range(desc.shape[1]):
                yield (i, j)
    else:
        for j in range(desc.shape[1]):
            for i in range(desc.shape[0]):
                yield (i, j)


def run_lengths(segment):
    """Lengths of a segment's maximal contiguous runs, from its (length, repeat) pair."""
    length, repeat = segment.runs()
    return [length] * repeat


def expand_runs(segment, same_storage=False):
    """A strided segment as contiguous segments, walked element by element."""
    n = segment.lines
    w = segment.count // n
    elements = [
        (segment.src_offset + t * segment.src_line_stride + e * segment.src_stride,
         segment.dst_offset + t * segment.dst_line_stride + e * segment.dst_stride)
        for t in range(n) for e in range(w)
    ]
    runs = []
    for s, d in elements:
        if runs and s == runs[-1][0] + runs[-1][2] and d == runs[-1][1] + runs[-1][2]:
            runs[-1][2] += 1
        else:
            runs.append([s, d, 1])
    esize = segment.nbytes // segment.count
    return [Segment(
        src_owner=segment.src_owner, dst_owner=segment.dst_owner,
        src_block=segment.src_block, src_offset=s,
        dst_block=segment.dst_block, dst_offset=d,
        count=count, nbytes=count * esize, local=segment.local,
        identity=(same_storage and segment.local
                  and segment.src_block == segment.dst_block and s == d),
        dst_replica=segment.dst_replica,
    ) for s, d, count in runs]


TRACE_KINDS = ("onesided-get", "onesided-put", "channel-send", "channel-recv",
               "block-transfer")


class ReferenceTraceLog:
    """One TraceEvent per event, numbered by its place in its rank's list;
    the oracle for TraceLog's batches.

    The trace log before collectives were recorded as batches, unchanged
    except that `record_plan` replays the per-run loop the collective ran,
    with run lengths from the element walk `expand_runs`.
    """

    def __init__(self, nprocs):
        self._by_rank = [[] for _ in range(nprocs)]

    def record(self, kind, src, dst, nbytes, tag):
        log = self._by_rank[dst if kind in STAMPED_BY_DST else src]
        ev = TraceEvent(kind, src, dst, nbytes, len(log), tag)
        log.append(ev)
        return ev

    def record_plan(self, plan, esize, tag):
        for seg in plan:
            if seg.local:
                continue
            for run in expand_runs(seg):
                self.record("block-transfer", src=seg.src_owner, dst=seg.dst_owner,
                            nbytes=run.count * esize, tag=tag)

    @property
    def events(self) -> list:
        return [e for log in self._by_rank for e in log]

    def render(self) -> str:
        lines = [
            f"{e.kind}\t{e.src}\t{e.dst}\t{e.bytes}\t{e.seq}\t{e.tag}"
            for log in self._by_rank for e in log
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def count(self, kind) -> int:
        return sum(e.kind == kind for log in self._by_rank for e in log)


class TeeTraceLog(TraceLog):
    """A TraceLog that also records everything into a ReferenceTraceLog.

    Records are compared as whole logs, with assert_trace_matches_reference,
    because one `record` call may extend a record an earlier call returned.
    A collective's plan reaches the reference through its own per-run walk.
    """

    def __init__(self, nprocs):
        super().__init__(nprocs)
        self.reference = ReferenceTraceLog(nprocs)
        self.planning = False

    def record(self, kind, src, dst, nbytes, tag, repeat=1):
        if not self.planning:
            for _ in range(repeat):
                self.reference.record(kind, src, dst, nbytes, tag)
        return super().record(kind, src, dst, nbytes, tag, repeat)

    def record_plan(self, plan, esize, tag):
        self.reference.record_plan(plan, esize, tag)
        self.planning = True
        try:
            super().record_plan(plan, esize, tag)
        finally:
            self.planning = False


def reference_render(log) -> str:
    """A TraceLog's rendering with each row's seq made into text on its own:
    TraceLog.render before one list of seq strings served every record;
    the oracle for that list and for the rows rendered a hundred at a time."""
    parts = []
    for records in log._by_rank:
        for e in records:
            if e.repeat == 1:
                parts.append(f"{e.kind}\t{e.src}\t{e.dst}\t{e.bytes}\t{e.seq}\t{e.tag}\n")
            else:
                head, tail = f"{e.kind}\t{e.src}\t{e.dst}\t{e.bytes}\t", f"\t{e.tag}\n"
                seqs = map(str, range(e.seq, e.seq + e.repeat))
                parts += (head, (tail + head).join(seqs), tail)
    return "".join(parts)


def assert_same_text(got, want, context=""):
    """got == want, or a failure naming the first line that differs (a
    plain assert would diff two traces of 10**5 lines)."""
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        i = next(i for i, (a, b) in enumerate(zip(g + [None], w + [None])) if a != b)
        pytest.fail(f"{context}: line {i + 1} of {len(g)} and {len(w)} differs: "
                    f"{g[i:i + 1]} != {w[i:i + 1]}")


def assert_trace_matches_reference(log, reference, context=""):
    """render(), events and count(kind) agree with the per-event oracle, and
    render() with reference_render."""
    text = log.render()
    assert_same_text(text, reference.render(), context)
    assert_same_text(text, reference_render(log), context)
    assert events(log) == reference.events, context
    for kind in TRACE_KINDS:
        assert log.count(kind) == reference.count(kind), (context, kind)


def owner_changes_bytes(src_desc, dst_desc, esize):
    """Bytes that must cross ranks: elements whose owner changes."""
    total = 0
    for idx in iter_indices(src_desc.shape):
        sk, _ = src_desc.locate(idx)
        dk, _ = dst_desc.locate(idx)
        so = owner_of(src_desc.distribution, sk, src_desc.nprocs)
        do = owner_of(dst_desc.distribution, dk, dst_desc.nprocs)
        if so != do:
            total += esize
    return total


def reference_schedule(scheduler, generators):
    """Drive process generators as Scheduler.run does; the oracle for it.

    Rebuilds the live and the runnable list on every step, polling in rank
    order whether each waiting process is ready from the public state of
    what it waits for, never from the scheduler's parked ranks. Draws from
    the scheduler's RNG exactly where Scheduler.run must: one choice per
    step, and one progress draw per step that did not finish a process
    while transfers are pending. What is still pending when the last
    process finishes is delivered then.
    """
    procs = [{"rank": r, "gen": g, "waiting": None, "done": False}
             for r, g in enumerate(generators)]
    while True:
        live = [p for p in procs if not p["done"]]
        if not live:
            break
        runnable = [p for p in live if p["waiting"] is None or ready(p["rank"], p["waiting"])]
        if not runnable:
            raise scheduler.deadlock(len(procs))
        proc = scheduler.rng.choice(runnable)
        proc["waiting"] = None
        try:
            instr = next(proc["gen"])
        except StopIteration:
            proc["done"] = True
            continue
        if instr is not None and instr[0] == "wait":
            proc["waiting"] = instr[1]
        if scheduler.pending and scheduler.rng.random() < ASYNC_PROGRESS:
            scheduler.pending.pop(0).deliver()
    scheduler.drain_async()


def ready(rank, what):
    """Whether rank's wait on what is over: at a barrier once rank is no
    longer among its arrivals, at a channel slot once the slot is full for
    the receiver and empty for the sender."""
    if isinstance(what, Barrier):
        return all(r != rank for r, _ in what.arrivals)
    return what.full if rank == what.dst else not what.full


def run_collective(nprocs, make_gen, seed=0):
    """Drive one collective generator per simulated process."""
    state = RunState(nprocs, seed=seed)
    contexts = [ProcessContext(r, state, None) for r in range(nprocs)]
    state.scheduler.run([make_gen(c) for c in contexts])
    return state


def buffers_of(array):
    if array.replicated:
        return [list(r) for r in array.replicas]
    return [list(b.buffer) for b in array.blocks]


@pytest.fixture
def fft_workdir(tmp_path):
    """Temp dir holding a 16x16 generated transform input."""
    from meshlite.fixtures import generate_image

    generate_image(16, 1, tmp_path / "image.dat")
    return tmp_path


# --- readings and oracles of the package's values that only tests need ---


def initiator(event):
    """Rank whose logical clock stamped a TraceEvent."""
    return event.dst if event.kind in STAMPED_BY_DST else event.src


def events(log):
    """Every event of a TraceLog in canonical order, runs expanded."""
    out = []
    for records in log._by_rank:
        for e in records:
            if e.repeat == 1:
                out.append(e)
            else:
                out += [TraceEvent(e.kind, e.src, e.dst, e.bytes, s, e.tag)
                        for s in range(e.seq, e.seq + e.repeat)]
    return out


def _dense_offset(descriptor, index):
    """Offset into an unpartitioned/replicated buffer, ordering-major:
    written out here so logical_set and brute_force_plan stay independent of locate."""
    if descriptor.ndim == 1:
        return index[0]
    if descriptor.ordering == "row":
        return index[0] * descriptor.shape[1] + index[1]
    return index[1] * descriptor.shape[0] + index[0]


def logical_set(array, index, value, rank=None):
    """Store value at a logical index of array: into rank's replica, or
    every replica when rank is None, of a replicated array."""
    if array.replicated:
        d = array.descriptor
        off = 0 if d.ndim == 0 else _dense_offset(d, index)
        targets = [array.replicas[rank]] if rank is not None else array.replicas
        for t in targets:
            t[off] = value
        return
    k, off = array.descriptor.locate(index)
    array.blocks[k].buffer[off] = value


def remote_bytes(segments) -> int:
    return sum(s.nbytes for s in segments if not s.local)


def chain_of(*ctors):
    """Build a chain constructor by constructor through chains.combine."""
    chain = ()
    for c in ctors:
        chain = chains.combine(chain, c)
    return chain


class UnknownAttribute(MeshError):
    """A chain provides no such attribute, and it has no default."""


def resolve_attribute(chain, attribute):
    """Value of the rightmost constructor providing the attribute, or the
    documented default."""
    values = chains._attributes(chain)
    if attribute not in values:
        raise UnknownAttribute(f"unknown attribute {attribute!r}")
    return values[attribute]


def reference_fft(values: list, sins: list) -> None:
    """The stage-loop kernel that `fft_inplace` replaced: the same
    butterflies in the same order, with each index and twiddle position
    computed as it runs. `fft_inplace` must match it bit for bit."""
    n = len(values)
    if n == 0 or n & (n - 1):
        raise NotPowerOfTwo(f"transform length {n} is not a power of two")
    if len(sins) * 2 != n:
        raise BadLength(f"need {n // 2} twiddle factors for length {n}, got {len(sins)}")
    values[:] = [values[j] for j in bit_reversal(n)]
    size = 2
    while size <= n:
        half = size // 2
        stride = n // size
        for base in range(0, n, size):
            for j in range(half):
                w = sins[j * stride]
                a = values[base + j]
                b = values[base + j + half] * w
                values[base + j] = a + b
                values[base + j + half] = a - b
        size *= 2


def oracle_dft1d(values):
    """Direct O(n^2) unnormalized forward DFT."""
    n = len(values)
    return [
        sum(values[j] * cmath.exp(-2j * cmath.pi * j * k / n) for j in range(n))
        for k in range(n)
    ]


def oracle_dft2d(matrix):
    """Direct O(n^4) 2D DFT: X[k,l] = sum over (a,b) of x[a,b] w^(ak+bl).

    Uses a precomputed root table; still a plain double sum so it stays
    independent of the fast transform it checks.
    """
    n = len(matrix)
    roots = [cmath.exp(-2j * cmath.pi * t / n) for t in range(n)]
    out = [[0j] * n for _ in range(n)]
    for k in range(n):
        for l in range(n):
            acc = 0j
            for a in range(n):
                row = matrix[a]
                ak = a * k
                for b in range(n):
                    acc += row[b] * roots[(ak + b * l) % n]
            out[k][l] = acc
    return out


# --- the canonical pretty-printer ---


def _fmt_stmt(s, indent):
    pad = "    " * indent
    if isinstance(s, ast.VarDecl):
        out = pad + "var " + s.name
        if s.type_expr is not None:
            out += " : " + ast.format_type(s.type_expr)
        if s.init is not None:
            out += " := " + ast._fmt_expr(s.init)
        return out + ";"
    if isinstance(s, ast.Assign):
        return f"{pad}{ast._fmt_expr(s.target)} := {ast._fmt_expr(s.value)};"
    if isinstance(s, ast.For):
        head = f"{pad}for {s.var} from {ast._fmt_expr(s.start)} to {ast._fmt_expr(s.stop)}"
        if len(s.body) == 1 and not isinstance(s.body[0], (ast.For, ast.ProcBlock)):
            return head + " " + _fmt_stmt(s.body[0], 0)
        return head + " " + _fmt_block(s.body, indent) + ";"
    if isinstance(s, ast.ProcBlock):
        return f"{pad}proc {ast._fmt_expr(s.rank)} " + _fmt_block(s.body, indent) + ";"
    if isinstance(s, ast.ExprStmt):
        return f"{pad}{ast._fmt_expr(s.expr)};"
    if isinstance(s, ast.Sync):
        return f"{pad}sync{' ' + s.var if s.var else ''};"
    if isinstance(s, ast.FuncDef):
        params = ", ".join(f"{p.name} : {ast.format_type(p.type_expr)}" for p in s.params)
        return f"{pad}function {s.name}({params}) " + _fmt_block(s.body, indent)
    raise TypeError(f"not a statement: {s!r}")


def _fmt_block(body, indent):
    if not body:
        return "{ }"
    inner = "\n".join(_fmt_stmt(s, indent + 1) for s in body)
    return "{\n" + inner + "\n" + "    " * indent + "}"


def format_program(program: ast.Program) -> str:
    """The canonical source of a program: parsing it gives the program back."""
    return "\n".join(_fmt_stmt(s, 0) for s in program.statements) + "\n"


# --- the compile-time loop walk the checker's record replaced: the oracle ---
# `checker.Checker` settles each loop's class in its one walk; these are the
# second walk over every loop that the compiler used to make, kept verbatim
# but for reading `checked.names`. The classes must agree on every loop.

_LITERALS = (ast.IntLit, ast.RealLit, ast.StrLit)


class ReferenceLocalOnly:
    """A local-only loop (`reference_local_only`): the slots of the names
    declared outside it that it reads or stores, split into locals and
    replicas (replicated scalars and 1D arrays), the positions in each of
    those it stores, and the statements of its body, nested ones included.
    `gathers` is the slot of the one 1D single-copy array X it also reads,
    as X[v] only, or None."""

    def __init__(self, outer, statements, gathers):
        self.locals = [slot for slot, (local, _) in outer.items() if local]
        self.replicas = [slot for slot, (local, _) in outer.items() if not local]
        self.stores = [k for k, slot in enumerate(self.locals) if outer[slot][1]]
        self.fills = [k for k, slot in enumerate(self.replicas) if outer[slot][1]]
        self.statements = statements
        self.gathers = gathers


def reference_local_only(checked, node):
    """A ReferenceLocalOnly for loop node when its bounds and body, nested loops
    included, hold only literals, locals, replicated scalars, elements
    of 1D replicated arrays, arithmetic, `processes()`, untyped `var`
    declarations and stores to locals or replica elements; else None.
    Besides, the body may read one 1D single-copy array X as X[v], v
    the loop variable, if it stores nothing into v (`gathers`)."""
    outer = {}  # slot of a name declared outside the loop -> (is it a local, is it stored)
    statements = 0
    v = checked.names[id(node)].slot
    gathers = set()  # the slots of the arrays X read as X[v]
    moved = False  # whether the body stores v or a nested loop counts in it

    def use(e, inner, ndim, store=False):
        """Whether the name e, read or stored with ndim indices, is a
        local or a replica; inner holds the slots declared in the loop."""
        nonlocal moved
        info = checked.names[id(e)]
        slot, kind = info.slot, info.kind
        moved = moved or store and slot == v
        if slot in inner:  # untyped: a local
            return ndim == 0
        local = not kind.distributed
        if not (ndim == 0 if local else kind.replicated and kind.ndim == ndim):
            return False
        outer[slot] = (local, store or outer.get(slot, (local, False))[1])
        return True

    def expr(e, inner):
        t = type(e)
        if t is ast.Name:
            return use(e, inner, 0)
        if t is ast.BinOp:
            return expr(e.left, inner) and expr(e.right, inner)
        if t is ast.Index:
            if type(e.base) is not ast.Name:
                return False
            if use(e.base, inner, 1):
                return expr(e.index, inner)
            x, i = checked.names[id(e.base)], e.index
            if x.kind.ndim == 1 and x.kind.distributed and type(i) is ast.Name \
                    and v in inner and checked.names[id(i)].slot == v:
                gathers.add(x.slot)  # not replicated, as use() refused it
                return True
            return False
        return t in _LITERALS or (t is ast.Call and e.func == "processes")

    def loop(s, inner):
        nonlocal statements, moved
        if not (expr(s.start, inner) and expr(s.stop, inner)):
            return False
        var = checked.names[id(s)]
        moved = moved or s is not node and var.slot == v
        if var.node is not s and var.slot not in inner:
            outer[var.slot] = (True, True)  # an outer local, reused: stored
        inner = inner | {var.slot}
        for b in s.body:
            statements += 1
            t = type(b)
            if t is ast.For:
                ok = loop(b, inner)
            elif t is ast.VarDecl:
                ok = b.type_expr is None and (b.init is None or expr(b.init, inner))
                inner = inner | {checked.names[id(b)].slot}
            elif t is ast.Assign:
                target = b.target
                ok = expr(b.value, inner) and (
                    use(target, inner, 0, store=True) if type(target) is ast.Name
                    else type(target.base) is ast.Name
                    and use(target.base, inner, 1, store=True)
                    and expr(target.index, inner))
            else:
                ok = False
            if not ok:
                return False
        return True

    if not loop(node, frozenset()) or gathers and (moved or len(gathers) > 1):
        return None
    return ReferenceLocalOnly(outer, statements, gathers.pop() if gathers else None)


def reference_owner_computes(checked, node):
    """X's slot when the body of loop node is the one statement `X[v] := e`,
    v the loop variable and X a 1D single-copy writable array: outside
    `proc` only X[v]'s owner runs more of it than the index."""
    if len(node.body) != 1:
        return None
    s = node.body[0]
    if type(s) is not ast.Assign or type(s.target) is not ast.Index:
        return None
    base, index = s.target.base, s.target.index
    if type(base) is not ast.Name or type(index) is not ast.Name or index.name != node.var:
        return None
    info = checked.names[id(base)]
    known = info.kind
    if known.ndim == 1 and not known.replicated and not known.read_only:
        return info.slot
    return None
