"""SPMD interpretation: every simulated process runs the whole program.

Each process is a generator driven by the cooperative scheduler. A run
compiles the program once into closures (compiler.py), and every
statement runs as its closure, or in a hot local-only loop as the Python
generated for the loop: local work and one-sided gets run straight
through; puts, channel transfers and collectives yield. The
closures share the rules and the data movement of ProcessContext below.
A process's frames hold only data: a distributed name's array, whose
descriptor carries its channel mode, or a local's values.Local cell.
The dispatch for an assignment follows the resolved type attributes:

  local variable          plain per-process store
  single scalar           channel transfer when the (source, destination)
                          owners match a declared channel, one-sided
                          otherwise; outside proc guards the destination
                          owner performs the access, inside a guard the
                          executing rank does
  array := array          collective redistribution
  replicated storage      each process writes its own replica
"""

import functools
import marshal
import math
import os
from types import GeneratorType

from . import chains, mshd, runtime
from .ast import MAX_DEPTH
from .checker import CheckedProgram, check_program
from .compiler import compile_program
from .errors import (
    BadLength,
    FormatError,
    MeshError,
    NotPowerOfTwo,
    RuntimeFault,
)
from .sched import PAUSE, Barrier, ChannelSlot, Collective, PendingTransfer, Scheduler


# --- FFT kernel ---


def fft_inplace(values: list, sins: list) -> None:
    """Unnormalized forward DFT, iterative radix-2 with bit reversal.

    `sins` holds e^(-2*pi*i*k/n) for k < n/2 and is read on every call;
    the butterflies run in the fixed order of butterflies(n), so repeated
    runs are bit-identical.
    """
    n = len(values)
    if n == 0 or n & (n - 1):
        raise NotPowerOfTwo(f"transform length {n} is not a power of two")
    if len(sins) * 2 != n:
        raise BadLength(f"need {n // 2} twiddle factors for length {n}, got {len(sins)}")
    values[:] = [values[j] for j in bit_reversal(n)]
    for i, k, t in butterflies(n):
        a = values[i]
        b = values[k] * sins[t]
        values[i] = a + b
        values[k] = a - b


@functools.lru_cache(maxsize=16)
def bit_reversal(n: int) -> tuple:
    """Index i's bits reversed over log2(n) bits, for every i < n."""
    bits = n.bit_length() - 1
    rev = [0] * n
    for i in range(1, n):
        rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (bits - 1))
    return tuple(rev)


@functools.lru_cache(maxsize=16)
def butterflies(n: int) -> tuple:
    """The (i, k, t) of every butterfly of a length-n transform, stage by
    stage: v[i], v[k] := v[i] + v[k] * sins[t], v[i] - v[k] * sins[t]. A
    stage of size L pairs i with k = i + L/2 at twiddle stride n/L."""
    schedule = []
    size = 2
    while size <= n:
        half = size // 2
        stride = n // size
        for base in range(0, n, size):
            schedule.extend((base + j, base + j + half, j * stride) for j in range(half))
        size *= 2
    return tuple(schedule)


def compute_sins(n: int) -> list:
    return [complex(math.cos(-2 * math.pi * k / n), math.sin(-2 * math.pi * k / n))
            for k in range(n // 2)]


# --- shared run state ---


# A local-only loop runs once per set of inputs only when its iterations
# run at least one statement per this many elements of its snapshot: a
# statement costs about 1.4 us, and snapshotting, recording and taking an
# element about 25 ns (CPython 3.11, 2 cores).
ELEMENTS_PER_STATEMENT = 32


class RunState:
    def __init__(self, nprocs, seed=0, workdir=None, layout_only=False, overrides=None):
        self.nprocs = nprocs
        self.trace = runtime.TraceLog(nprocs)
        self.scheduler = Scheduler(seed)
        self.barrier = Barrier(nprocs, self.scheduler)
        self.workdir = workdir or os.getcwd()
        self.layout_only = layout_only
        self.overrides = overrides or {}
        # (stmt id, instance) -> (array, type-argument values or None when
        # others may not take its plan), in declaration order
        self.allocations = {}
        # (checker.LocalOnly, arrival) -> [ranks past it, the inputs of the
        # first rank to snapshot them, the outputs it got]; see run_once
        self.loops = {}
        self.channels = {}
        self.program = []  # top-level (statement, closure) pairs, set by run

    def channel_slot(self, array):
        """The rendezvous slot of array's declared link."""
        slot = self.channels.get(array)
        if slot is None:
            _, src, dst, _ = array.descriptor.comm
            slot = self.channels[array] = ChannelSlot(self.scheduler, array.name, src, dst)
        return slot

    def path(self, name):
        return name if os.path.isabs(name) else os.path.join(self.workdir, name)


class RunResult:
    def __init__(self, state, contexts):
        self.trace = state.trace
        self.declared = [(array.name, array) for array, _ in state.allocations.values()]
        self.nprocs = state.nprocs
        self._arrays = {}
        self._locals = {}
        tops = [c.toplevel() for c in contexts]
        for name, info in contexts[0].checked.toplevel.items():
            if info.kind.distributed:
                self._arrays[name] = tops[0][name]
            else:
                self._locals[name] = [top[name].value for top in tops]

    def array(self, name) -> runtime.DistributedArray:
        return self._arrays[name]

    def logical(self, name):
        """Logical contents: scalar value, flat 1D list, or list of rows."""
        arr = self._arrays[name]
        shape = arr.descriptor.shape
        if len(shape) == 0:
            return arr.logical_get(())
        if len(shape) == 1:
            return [arr.logical_get((i,)) for i in range(shape[0])]
        return [[arr.logical_get((i, j)) for j in range(shape[1])]
                for i in range(shape[0])]

    def local(self, name):
        """Per-rank values of a process-local variable."""
        return self._locals[name]

    def names(self):
        return sorted(set(self._arrays) | set(self._locals))


# --- per-process interpreter ---


class ProcessContext:
    """One simulated process: its frames, and what its compiled
    statements share (compiler.py): the rules of access, one-sided and
    channel transfers, collectives and builtins. Reads return their value
    at once, a one-sided get included; a helper that waits (a put, a
    channel transfer, a collective) is a generator. `get` and `put` alone
    record one-sided events, from the block moved and its array.

    A frame is a list; the slot the checker gave a declaration holds its
    array, for a distributed name, or else its values.Local cell. `top`
    is the top level's frame and `frame` that of the code running. A
    scope keeps nothing here but the count of those open.
    """

    def __init__(self, rank, state, checked):
        self.rank = rank
        self.state = state
        self.checked = checked
        self.top = self.frame = [None] * checked.size if checked else []
        self.depth = 0  # scopes open above the top level
        self.stmt = None  # the statement started last: the innermost running
        self.proc_depth = 0
        self.arrivals = {}  # point -> times this process reached it (`arrival`)

    # scope handling

    def enter(self, node):
        """Open the scope of node, a loop, a `proc` body or a call. With
        MAX_DEPTH scopes open the node faults instead, whatever Python's
        stack holds."""
        if self.depth == MAX_DEPTH:
            raise self.fault(f"loops, proc bodies and calls nest more than {MAX_DEPTH} deep",
                             node)
        self.depth += 1

    def leave(self):
        self.depth -= 1

    def toplevel(self):
        """Each top-level name's array or Local, once the program has run."""
        return {name: self.top[info.slot] for name, info in self.checked.toplevel.items()}

    def arrival(self, point):
        """How many times this process reached point (an allocation's id()
        or a checker.LocalOnly) before now. Every process counts alike, so
        (point, arrival) names one allocation, or one run of a loop, for all."""
        k = self.arrivals.get(point, 0)
        self.arrivals[point] = k + 1
        return k

    def fault(self, message, node=None):
        return RuntimeFault(message, rank=self.rank,
                            line=getattr(node, "line", None),
                            column=getattr(node, "column", None))

    # --- program ---

    def run_program(self):
        """Generator: run the top-level statements. A fault that no rule
        located is located at the innermost statement running."""
        for stmt, fn in self.state.program:
            yield PAUSE
            try:
                result = self.exec_stmt(stmt, fn)
                if result.__class__ is GeneratorType:
                    yield from result
            except RuntimeFault:
                raise
            except MeshError as exc:
                raise self.fault(str(exc), self.stmt) from exc
            except RecursionError as exc:
                raise self.fault("calls nest too deeply", self.stmt) from exc

    def exec_stmt(self, stmt, fn):
        """Run stmt by its closure fn; a generator for the caller to drain
        with `yield from` when it must wait (any other result is ignored)."""
        self.stmt = stmt
        return fn(self)

    # --- declarations ---

    def allocate(self, stmt, chain_of, targets, values=None):
        """Generator: returns stmt's new array. Allocation is collective:
        the first process here plans and allocates, and none goes on until
        all have arrived. A later process whose type arguments evaluated
        to the same `values` takes that array; any other builds its chain
        with `chain_of()` and plans it, and faults if it gets another
        layout. An arraydist plan is never taken: each process snapshots
        its own map. `targets` holds the arrays the chain names, by role
        ("arraydist", "share")."""
        self.unguarded("allocation", stmt)
        key = (id(stmt), self.arrival(id(stmt)))
        allocation = self.state.allocations.get(key)
        if values is not None and allocation is not None and allocation[1] == values:
            array = allocation[0]
        else:
            plan = chains.plan_of(chain_of())
            array = self.allocate_plan(stmt, plan, allocation, targets)
            if allocation is None:
                reusable = values is not None and plan.distribution[0] != "arraydist"
                self.state.allocations[key] = (array, values if reusable else None)
        yield from self.state.barrier.wait(
            self.rank, Collective("allocate", f"var {stmt.name}", stmt))
        return array

    def allocate_plan(self, stmt, plan, allocation, targets):
        """The array of a plan: new when no process has made the
        `allocation` yet, else its array, whose layout the plan must give."""
        for end in plan.comm[1:3] if plan.comm is not None else ():
            if not 0 <= end < self.state.nprocs:
                raise self.fault(f"channel endpoint {end} outside [0, {self.state.nprocs})", stmt)
        dist_map = None
        if plan.distribution[0] == "arraydist":  # this process's copy of the map
            dist_map = list(targets["arraydist"].replicas[self.rank])
        descriptor = runtime.descriptor_from_plan(plan, self.state.nprocs, dist_map)
        if allocation is not None:
            array = allocation[0]
            for field in ("shape", "elem", "ordering", "partition", "distribution", "comm"):
                mine, allocated = getattr(descriptor, field), getattr(array.descriptor, field)
                if mine != allocated:
                    raise self.fault(f"SPMD divergence: {stmt.name!r} has {field} {mine} here, "
                                     f"but {allocated} where it was allocated", stmt)
            return array
        return runtime.allocate(stmt.name, descriptor, base=targets.get("share"))

    # --- local-only loops ---

    def run_once(self, loop, trips, run):
        """Run the local-only loop of checker.LocalOnly `loop`, of trips
        iterations, by calling run, or take its outputs from another
        process. Outside `proc`, every process reaches the loop's k-th
        arrival; the first whose inputs are snapshotted there (the scope
        depth, and the values and aliasing of the loop's outer locals and
        replicas) runs it and records its outputs (the locals and replicas
        it stores, and the statement it started last). A later process
        whose snapshot is the same bit for bit takes them, as running the
        loop would give them: its outputs depend on nothing else, and it
        never waits. Any other process runs it. A loop whose snapshot holds
        more than ELEMENTS_PER_STATEMENT elements per statement it runs is
        always run. The entry goes once every process has passed it."""
        key = (loop, self.arrival(loop))
        loops = self.state.loops
        entry = loops.get(key)
        if entry is None:
            entry = loops[key] = [0, None, None]
        frame, rank = self.frame, self.rank
        cells = [frame[slot] for slot in loop.locals]
        replicas = [frame[slot].replicas[rank] for slot in loop.replicas]
        if trips * loop.statements * ELEMENTS_PER_STATEMENT \
                < len(cells) + sum(map(len, replicas)):
            run()
        else:
            objects = cells + replicas
            aliases = None
            if len(set(map(id, objects))) < len(objects):  # a name bound to another's
                first = {}
                aliases = [first.setdefault(id(o), k) for k, o in enumerate(objects)]
            # marshal tells 1 from 1.0 and 0.0 from -0.0, where == does not;
            # version 2 writes no back-references, so equal values give equal
            # bytes whichever objects hold them
            inputs = marshal.dumps(
                (self.depth, aliases, [c.value for c in cells], replicas), 2)
            if inputs == entry[1]:
                values, contents, self.stmt = entry[2]
                for k, value in zip(loop.stores, values):
                    cells[k].value = value
                for k, content in zip(loop.fills, contents):
                    replicas[k][:] = content
            else:
                run()
                if entry[1] is None:
                    entry[1] = inputs
                    entry[2] = ([cells[k].value for k in loop.stores],
                                [list(replicas[k]) for k in loop.fills], self.stmt)
        entry[0] += 1
        if entry[0] == self.state.nprocs:
            del loops[key]

    # --- rules of assignment ---

    def performs(self, owner):
        """Whether this process accesses owner's single-copy data: outside
        proc guards only the owner does, inside a guard the one running it."""
        return self.proc_depth > 0 or self.rank == owner

    def unguarded(self, what, node):
        """Collectives need every process, so none may run inside proc."""
        if self.proc_depth > 0:
            raise self.fault(f"{what} is collective and cannot run inside proc", node)

    # --- one-sided access: each event takes its bytes and tag from the array ---

    def get(self, array, block, count=1, repeat=1):
        """Record `repeat` onesided-gets of count elements each of array from
        block, when another rank owns it. A get completes where it is made:
        it is not a switch point."""
        if block.owner != self.rank:
            self.state.trace.record("onesided-get", block.owner, self.rank,
                                    count * array.esize, array.name, repeat)

    def put(self, array, block, count=1):
        """Generator: one onesided-put of count elements of array into block,
        when another rank owns it; the caller then stores."""
        if block.owner != self.rank:
            yield PAUSE
            self.state.trace.record("onesided-put", src=self.rank, dst=block.owner,
                                    nbytes=count * array.esize, tag=array.name)

    def store(self, array, block, offset, value):
        """Generator: store one element, after a onesided-put when remote."""
        yield from self.put(array, block)
        block.buffer[offset] = value

    def read_element(self, array, i):
        """Element i of a non-replicated 1D array, or 0 of a single scalar,
        by a onesided-get when remote."""
        k, off = array.descriptor.element(i)
        block = array.blocks[k]
        self.get(array, block)
        return block.buffer[off]

    def read_line(self, line, index):
        """Element of a block line, by a onesided-get when remote."""
        value = line.get(index)
        self.get(line.array, line.block)
        return value

    def channel_assign(self, stmt, array, src):
        """Generator: point-to-point transfer into array from the scalar
        src, over array's declared link."""
        _, csrc, cdst, is_async = array.descriptor.comm
        nbytes, tag = array.esize, array.name
        slot = self.state.channel_slot(array)
        if self.rank == csrc:
            value = src.blocks[0].buffer[0]
            self.state.trace.record("channel-send", src=csrc, dst=cdst,
                                    nbytes=nbytes, tag=tag)
            if is_async:
                state = self.state

                def deliver(value=value):
                    array.blocks[0].buffer[0] = value
                    state.trace.record("channel-recv", src=csrc, dst=cdst,
                                       nbytes=nbytes, tag=tag)

                self.state.scheduler.post_async(PendingTransfer(tag, deliver))
                return
            yield from slot.send(value, stmt)
            return
        if self.rank == cdst and not is_async:
            value = yield from slot.recv(stmt)
            self.state.trace.record("channel-recv", src=csrc, dst=cdst,
                                    nbytes=nbytes, tag=tag)
            array.blocks[0].buffer[0] = value

    # --- collectives ---

    def assign_arrays(self, dst, src, stmt=None):
        """Generator: collective redistribution, planned and copied once.

        The last rank to reach the barrier plans the whole assignment,
        copies it and records one run of block-transfers per segment that
        changes ranks, stamped by the source owner in plan order: one event
        per contiguous run.
        """
        trace = self.state.trace

        def redistribute():
            plan = runtime.plan_redistribution(
                src.descriptor, dst.descriptor, same_storage=_share_storage(dst, src))
            runtime.copy_array(plan, src, dst)
            trace.record_plan(plan, dst.esize, dst.name)

        collective = Collective("assign", f"{dst.name} := {src.name}", stmt, (dst, src))
        yield from self.state.barrier.wait(self.rank, collective, redistribute)

    def sync(self, stmt):
        """Generator: collective; all outstanding async transfers in scope complete."""
        self.unguarded("sync", stmt)
        collective = Collective("sync", f"sync {stmt.var}" if stmt.var else "sync", stmt)
        drain = self.state.scheduler.drain_async
        yield from self.state.barrier.wait(self.rank, collective, lambda: drain(tag=stmt.var))

    # --- builtins: the checker passes each only the classes and kinds it takes ---

    def compute_sin(self, expr, array):
        m = array.descriptor.shape[0]
        n = 2 * m
        if m < 1 or n & (n - 1):
            raise BadLength(f"twiddle array length {m} is not half a power of two")
        array.replicas[self.rank][:] = compute_sins(n)

    def fft_line(self, expr, row, sins):
        if self.state.layout_only:
            return
        if row.block.owner != self.rank:
            raise self.fault("FFT must run on the process owning the block", expr)
        values = row.values()
        fft_inplace(values, sins.replicas[self.rank])
        row.store(values)

    def builtin_file(self, expr, array, path, write):
        """Generator: readfile or writefile of array at path. It never
        waits, but runs as a generator drained by its call statement, as
        a collective does, so that a traced run times it the same way."""
        yield from ()
        if not isinstance(path, str):
            raise self.fault("file path must be a string", expr)
        owner = array.blocks[0].owner
        if owner != self.rank:
            raise self.fault(
                f"rank {self.rank} does not own {array.name} (owner {owner})", expr)
        if self.state.layout_only:
            return
        full = self.state.path(path)
        d = array.descriptor
        buf = array.blocks[0].buffer
        # MSHD is row-major; a col array's buffer holds one column per line
        transposed = d.ndim == 2 and d.ordering == "col"
        if write:
            values = list(buf)
            if transposed:
                n0, n1 = d.shape
                for j in range(n1):
                    values[j::n1] = buf[j * n0 : (j + 1) * n0]
            mshd.write_mshd(full, d.elem, d.shape, values, array.name)
            return
        elem, shape, values = mshd.read_mshd(full)
        if elem != d.elem or tuple(shape) != d.shape:
            raise FormatError(
                f"{path}: holds {elem}{tuple(shape)}, array is {d.elem}{d.shape}")
        if transposed:
            n0, n1 = d.shape
            for j in range(n1):
                buf[j * n0 : (j + 1) * n0] = values[j::n1]
        else:
            buf[:] = values


def _share_storage(a, b):
    if a is b:
        return True
    if a.replicated or b.replicated:
        return False
    if len(a.blocks) != len(b.blocks):
        return False
    return any(x.buffer is y.buffer for x, y in zip(a.blocks, b.blocks))


def run(program, nprocs, seed=0, workdir=None, overrides=None, layout_only=False) -> RunResult:
    """Execute a program on nprocs simulated processes.

    Accepts a parsed Program (checked here) or a CheckedProgram. Returns
    the final logical state and the merged communication trace. The
    program is compiled once for this run, and every process shares it.
    """
    if nprocs < 1:
        raise RuntimeFault(f"process count {nprocs} must be at least 1")
    if isinstance(program, CheckedProgram):
        checked = program
    else:
        checked = check_program(program)
    state = RunState(nprocs, seed=seed, workdir=workdir,
                     layout_only=layout_only, overrides=overrides)
    state.program = compile_program(checked)
    contexts = [ProcessContext(r, state, checked) for r in range(nprocs)]
    state.scheduler.run([c.run_program() for c in contexts])
    return RunResult(state, contexts)

