"""SPMD interpretation: every simulated process runs the whole program.

Each process is a generator driven by the cooperative scheduler. A run
compiles the program once into closures (compiler.py), and every
statement runs as its closure: local work and one-sided gets run
straight through; puts, channel transfers and collectives yield. The
closures share the rules and the data movement of ProcessContext below.
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
from .values import Binding, BlockRef, LineSlice


# --- FFT kernel ---


def fft_inplace(values: list, sins: list) -> None:
    """Unnormalized forward DFT, iterative radix-2 with bit reversal.

    `sins` holds e^(-2*pi*i*k/n) for k < n/2; stage twiddles index into it
    with stride n/L. Butterflies run in a fixed order so repeated runs are
    bit-identical.
    """
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


@functools.lru_cache(maxsize=16)
def bit_reversal(n: int) -> tuple:
    """Index i's bits reversed over log2(n) bits, for every i < n."""
    bits = n.bit_length() - 1
    rev = [0] * n
    for i in range(1, n):
        rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (bits - 1))
    return tuple(rev)


def compute_sins(n: int) -> list:
    return [complex(math.cos(-2 * math.pi * k / n), math.sin(-2 * math.pi * k / n))
            for k in range(n // 2)]


# --- shared run state ---


class RunState:
    def __init__(self, nprocs, seed=0, workdir=None, layout_only=False, overrides=None):
        self.nprocs = nprocs
        self.trace = runtime.TraceLog(nprocs)
        self.scheduler = Scheduler(seed)
        self.barrier = Barrier(nprocs, self.scheduler)
        self.workdir = workdir or os.getcwd()
        self.layout_only = layout_only
        self.overrides = overrides or {}
        # (stmt id, instance) -> (array, plan, type-argument values or None
        # when others may not take the plan), in declaration order
        self.allocations = {}
        self.channels = {}
        self.program = []  # top-level (statement, closure) pairs, set by run

    def channel_slot(self, array, src, dst):
        key = (id(array), src, dst)
        if key not in self.channels:
            self.channels[key] = ChannelSlot(self.scheduler, array.name, src, dst)
        return self.channels[key]

    def path(self, name):
        return name if os.path.isabs(name) else os.path.join(self.workdir, name)


class RunResult:
    def __init__(self, state, contexts):
        self.trace = state.trace
        self.declared = [(array.name, array) for array, _, _ in state.allocations.values()]
        self.nprocs = state.nprocs
        self._arrays = {}
        self._locals = {}
        for name, binding in contexts[0].env.items():
            if binding.kind == "array":
                self._arrays[name] = binding.array
            else:
                self._locals[name] = [c.env[name].value for c in contexts]

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
    """One simulated process: its bindings, and what its compiled
    statements share (compiler.py): the rules of access, one-sided and
    channel transfers, collectives and builtins. Reads return their value
    at once, a one-sided get included; a helper that waits (a put, a
    channel transfer, a collective) is a generator.

    Bindings live in one flat dict, `env`, holding the innermost visible
    binding of every name; a name bound inside a scope pushes the binding
    it hides (or None) on `shadow`, and leaving the scope puts those back.
    Scoping is dynamic: a function body sees its caller's names.
    """

    def __init__(self, rank, state, checked):
        self.rank = rank
        self.state = state
        self.checked = checked
        self.env = {}
        self.shadow = []  # (name, hidden binding or None)
        self.depth = 0  # scopes open above the top level
        self.stmt = None  # the statement started last: the innermost running
        self.proc_depth = 0
        self.alloc_counts = {}

    # scope handling

    def bind(self, name, binding):
        if self.depth:
            self.shadow.append((name, self.env.get(name)))
        self.env[name] = binding

    def enter(self, node):
        """Open the scope of node, a loop, a `proc` body or a call; returns
        the mark `leave` restores to. With MAX_DEPTH scopes open the node
        faults instead, whatever Python's stack holds."""
        if self.depth == MAX_DEPTH:
            raise self.fault(f"loops, proc bodies and calls nest more than {MAX_DEPTH} deep",
                             node)
        self.depth += 1
        return len(self.shadow)

    def restore(self, mark):
        """Drop the bindings made since mark, putting back what they hid."""
        env, shadow = self.env, self.shadow
        while len(shadow) > mark:
            name, hidden = shadow.pop()
            if hidden is None:
                del env[name]
            else:
                env[name] = hidden

    def leave(self, mark):
        self.restore(mark)
        self.depth -= 1

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

    def allocate(self, stmt, chain_of, read_only, values=None):
        """Generator: bind stmt's name to its array. Allocation is
        collective: the first process here plans and allocates, and none
        goes on until all have arrived. A later process whose type
        arguments evaluated to the same `values` takes that plan; any
        other builds its chain with `chain_of()` and plans it, and faults
        if it gets another layout. An arraydist plan is never taken: each
        process snapshots its own map."""
        self.unguarded("allocation", stmt)
        instance = self.alloc_counts.get(id(stmt), 0)
        self.alloc_counts[id(stmt)] = instance + 1
        key = (id(stmt), instance)
        allocation = self.state.allocations.get(key)
        if values is not None and allocation is not None and allocation[2] == values:
            array, plan, _ = allocation
        else:
            plan = chains.plan_of(chain_of())
            array = self.allocate_plan(stmt, plan, allocation)
            if allocation is None:
                reusable = values is not None and plan.distribution[0] != "arraydist"
                self.state.allocations[key] = (array, plan, values if reusable else None)
        self.bind(stmt.name, Binding(stmt.name, "array", array=array,
                                     comm=plan.comm, read_only=read_only))
        yield from self.state.barrier.wait(
            self.rank, Collective("allocate", f"var {stmt.name}", stmt))

    def allocate_plan(self, stmt, plan, allocation):
        """The array of a plan: new when no process has made the
        `allocation` yet, else its array, whose layout the plan must give."""
        for end in plan.comm[1:3] if plan.comm is not None else ():
            if not 0 <= end < self.state.nprocs:
                raise self.fault(f"channel endpoint {end} outside [0, {self.state.nprocs})", stmt)
        dist_map = None
        if plan.distribution[0] == "arraydist":
            dist_map = self.snapshot_dist(plan.distribution[1], stmt)
        descriptor = runtime.descriptor_from_plan(plan, self.state.nprocs, dist_map)
        if allocation is not None:
            array, allocated_plan, _ = allocation
            fields = [(field, getattr(descriptor, field), getattr(array.descriptor, field))
                      for field in ("shape", "elem", "ordering", "partition", "distribution")]
            for field, mine, allocated in fields + [("comm", plan.comm, allocated_plan.comm)]:
                if mine != allocated:
                    raise self.fault(f"SPMD divergence: {stmt.name!r} has {field} {mine} here, "
                                     f"but {allocated} where it was allocated", stmt)
            return array
        base_array = None
        if plan.share_base is not None:
            base_binding = self.env.get(plan.share_base)
            if base_binding is None or base_binding.kind != "array":
                raise self.fault(f"share base {plan.share_base!r} is not allocated", stmt)
            base_array = base_binding.array
        return runtime.allocate(stmt.name, descriptor, base=base_array)

    def snapshot_dist(self, var, stmt):
        binding = self.env.get(var)
        if binding is None or binding.kind != "array" or not binding.array.replicated:
            raise self.fault(f"distribution array {var!r} must be a replicated integer array", stmt)
        return list(binding.array.storage_for(self.rank))

    # --- rules of assignment ---

    def storable(self, value, node):
        if isinstance(value, (runtime.DistributedArray, BlockRef, LineSlice)):
            raise self.fault("an array value cannot be stored into a scalar", node)
        return value

    def performs(self, owner):
        """Whether this process accesses owner's single-copy data: outside
        proc guards only the owner does, inside a guard the one running it."""
        return self.proc_depth > 0 or self.rank == owner

    def unguarded(self, what, node):
        """Collectives need every process, so none may run inside proc."""
        if self.proc_depth > 0:
            raise self.fault(f"{what} is collective and cannot run inside proc", node)

    # --- one-sided access ---

    def fetch(self, owner, array, tag, count=1):
        """Record one onesided-get from owner's memory. A get completes
        where it is made: it is not a switch point."""
        self.state.trace.record("onesided-get", owner, self.rank,
                                count * array.esize, tag)

    def put(self, owner, array, tag, count=1):
        """Generator: one onesided-put to owner; the caller then stores."""
        yield PAUSE
        self.state.trace.record("onesided-put", src=self.rank, dst=owner,
                                nbytes=count * array.esize, tag=tag)

    def store(self, binding, block, offset, value):
        """Generator: store one element, after a onesided-put when remote."""
        if block.owner != self.rank:
            yield from self.put(block.owner, binding.array, binding.name)
        block.buffer[offset] = value

    def read_remote_scalar(self, binding):
        """A single scalar's value, by a onesided-get when remote."""
        block = binding.array.blocks[0]
        if block.owner != self.rank:
            self.fetch(block.owner, binding.array, binding.name)
        return block.buffer[0]

    def read_element(self, array, i):
        """Element i of a non-replicated 1D array, by a onesided-get when remote."""
        k, off = array.descriptor.element(i)
        block = array.blocks[k]
        if block.owner != self.rank:
            self.state.trace.record("onesided-get", block.owner, self.rank,
                                    array.esize, array.name)
        return block.buffer[off]

    def read_line(self, line, index):
        """Element of a block line, by a onesided-get when remote."""
        value = line.get(index)
        if line.block.owner != self.rank:
            self.fetch(line.block.owner, line.array, line.array.name)
        return value

    def channel_assign(self, stmt, dst_binding, src_binding, comm):
        """Generator: point-to-point transfer over the declared link."""
        _, csrc, cdst, is_async = comm
        array = dst_binding.array
        nbytes = array.esize
        slot = self.state.channel_slot(array, csrc, cdst)
        if self.rank == csrc:
            value = src_binding.array.blocks[0].buffer[0]
            self.state.trace.record("channel-send", src=csrc, dst=cdst,
                                    nbytes=nbytes, tag=dst_binding.name)
            if is_async:
                state = self.state

                def deliver(value=value):
                    array.blocks[0].buffer[0] = value
                    state.trace.record("channel-recv", src=csrc, dst=cdst,
                                       nbytes=nbytes, tag=dst_binding.name)

                self.state.scheduler.post_async(
                    PendingTransfer(dst_binding.name, deliver))
                return
            yield from slot.send(value, stmt)
            return
        if self.rank == cdst and not is_async:
            value = yield from slot.recv(stmt)
            self.state.trace.record("channel-recv", src=csrc, dst=cdst,
                                    nbytes=nbytes, tag=dst_binding.name)
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
            runtime.copy_segments(plan, src, dst)
            trace.record_plan(plan, dst.esize, dst.name)

        collective = Collective("assign", f"{dst.name} := {src.name}", stmt, (dst, src))
        yield from self.state.barrier.wait(self.rank, collective, redistribute)

    def sync(self, stmt):
        """Generator: collective; all outstanding async transfers in scope complete."""
        self.unguarded("sync", stmt)
        collective = Collective("sync", f"sync {stmt.var}" if stmt.var else "sync", stmt)
        drain = self.state.scheduler.drain_async
        yield from self.state.barrier.wait(self.rank, collective, lambda: drain(tag=stmt.var))

    # --- builtins ---

    def compute_sin(self, expr, array):
        if not isinstance(array, runtime.DistributedArray) or not array.replicated \
                or array.descriptor.ndim != 1 or array.descriptor.elem != "complex":
            raise self.fault("computeSin needs a replicated 1D complex array", expr)
        m = array.descriptor.shape[0]
        n = 2 * m
        if m < 1 or n & (n - 1):
            raise BadLength(f"twiddle array length {m} is not half a power of two")
        array.storage_for(self.rank)[:] = compute_sins(n)

    def fft_line(self, expr, row, sins):
        if not isinstance(row, LineSlice):
            raise self.fault("FFT needs a line like A[blockid][i]", expr)
        if not isinstance(sins, runtime.DistributedArray) or not sins.replicated:
            raise self.fault("FFT needs the replicated twiddle array", expr)
        if row.array.descriptor.elem != "complex":
            raise self.fault("FFT transforms complex lines", expr)
        if self.state.layout_only:
            return
        if row.block.owner != self.rank:
            raise self.fault("FFT must run on the process owning the block", expr)
        values = row.values()
        fft_inplace(values, sins.storage_for(self.rank))
        row.store(values)

    def builtin_file(self, expr, array, path, write):
        """Generator: readfile or writefile of array at path. It never
        waits, but runs as a generator drained by its call statement, as
        a collective does, so that a traced run times it the same way."""
        yield from ()
        if not isinstance(array, runtime.DistributedArray) or array.replicated:
            raise self.fault("file transfer needs a singly-allocated array", expr)
        if array.descriptor.partition is not None:
            raise self.fault("file transfer needs an unpartitioned array", expr)
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
            mshd.write_mshd(full, d.elem, d.shape, values)
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

