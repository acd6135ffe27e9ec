"""SPMD interpretation: every simulated process runs the whole program.

Each process is a generator driven by the cooperative scheduler. Local
work runs straight through; communication and collectives yield. A run
compiles the program once into closures (compiler.py); what they do not
cover runs through the AST walk of ProcessContext, which is also the
reference they are tested against. The dispatch for an assignment
follows the resolved type attributes:

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

from . import ast, chains, mshd, runtime
from .checker import CheckedProgram, check_program
from .compiler import compile_program
from .errors import (
    BadLength,
    ChannelMisuse,
    FormatError,
    MeshError,
    NotPowerOfTwo,
    RuntimeFault,
)
from .sched import PAUSE, Barrier, ChannelSlot, Collective, PendingTransfer, Scheduler
from .values import Binding, BlockRef, LineSlice, arith, owned_blocks, row_of


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
        self.barrier = Barrier(nprocs)
        self.scheduler = Scheduler(seed)
        self.workdir = workdir or os.getcwd()
        self.layout_only = layout_only
        self.overrides = overrides or {}
        self.arrays = {}  # (stmt id, instance) -> DistributedArray
        self.declared = []  # (name, DistributedArray, plan) in declaration order
        self.channels = {}
        self.binding_snapshots = [[] for _ in range(nprocs)]

    def channel_slot(self, array, src, dst):
        key = (id(array), src, dst)
        if key not in self.channels:
            self.channels[key] = ChannelSlot()
        return self.channels[key]

    def validate_channel(self, plan, src, dst):
        comm = plan.comm if plan is not None else None
        if comm is None or (comm[1], comm[2]) != (src, dst):
            declared = f"{comm[1]}->{comm[2]}" if comm else "none"
            raise ChannelMisuse(
                f"channel transfer {src}->{dst} does not match the declared link ({declared})")

    def path(self, name):
        return name if os.path.isabs(name) else os.path.join(self.workdir, name)


class RunResult:
    def __init__(self, state, contexts):
        self.trace = state.trace
        self.declared = list(state.declared)
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
    """One simulated process: its bindings and the statements it runs.

    Bindings live in one flat dict, `env`, holding the innermost visible
    binding of every name; a name bound inside a scope pushes the binding
    it hides (or None) on `shadow`, and leaving the scope puts those back.
    Scoping is dynamic: a function body sees its caller's names.

    With `code` (compiler.compile_program) statements run as compiled
    closures; without it, as the AST walk below, the reference the
    compiled code is tested against and the path it falls back to for
    forms it does not compile.
    """

    def __init__(self, rank, state, checked, code=None):
        self.rank = rank
        self.state = state
        self.checked = checked
        self.code = code  # id(statement) -> closure, or None
        self.env = {}
        self.shadow = []  # (name, hidden binding or None)
        self.depth = 0  # scopes open above the top level
        self.top_binds = 0  # top-level binds so far
        self.proc_depth = 0
        self.alloc_counts = {}

    # scope handling

    def lookup(self, name):
        return self.env.get(name)

    def bind(self, name, binding):
        if self.depth:
            self.shadow.append((name, self.env.get(name)))
        else:
            self.top_binds += 1
        self.env[name] = binding

    def enter(self):
        """Open a scope; returns the mark `leave` restores to."""
        self.depth += 1
        return len(self.shadow)

    def leave(self, mark):
        env, shadow = self.env, self.shadow
        while len(shadow) > mark:
            name, hidden = shadow.pop()
            if hidden is None:
                del env[name]
            else:
                env[name] = hidden
        self.depth -= 1

    def fault(self, message, node=None):
        return RuntimeFault(message, rank=self.rank,
                            line=getattr(node, "line", None),
                            column=getattr(node, "column", None))

    # --- program walk ---

    def run_program(self):
        snapshots = self.state.binding_snapshots[self.rank]
        names, seen = None, -1
        for stmt in self.checked.program.statements:
            yield PAUSE
            try:
                yield from self.exec_stmt(stmt)
            except RuntimeFault:
                raise
            except MeshError as exc:
                raise RuntimeFault(str(exc), rank=self.rank,
                                   line=stmt.line, column=stmt.column) from exc
            if seen != self.top_binds:  # a new snapshot only when a name was bound
                names, seen = frozenset(self.env), self.top_binds
            snapshots.append(names)

    def exec_stmt(self, stmt):
        """Run one statement; the caller drains the result with `yield from`.

        Compiled, this is the statement's closure: a generator when the
        statement can communicate, else () once it has run.
        """
        if self.code is not None:
            return self.code[id(stmt)](self)
        return self.walk_stmt(stmt)

    def walk_stmt(self, stmt):
        if isinstance(stmt, ast.VarDecl):
            yield from self.exec_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            yield from self.exec_assign(stmt)
        elif isinstance(stmt, ast.For):
            yield from self.exec_for(stmt)
        elif isinstance(stmt, ast.ProcBlock):
            yield from self.exec_proc(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            yield from self.eval(stmt.expr)
        elif isinstance(stmt, ast.Sync):
            yield from self.exec_sync(stmt)
        elif isinstance(stmt, ast.FuncDef):
            pass  # registered by the checker
        else:
            raise self.fault(f"unhandled statement {type(stmt).__name__}", stmt)

    # --- declarations ---

    def exec_decl(self, stmt):
        if stmt.type_expr is None:
            if stmt.name in self.state.overrides and self.depth == 0:
                value = self.state.overrides[stmt.name]
            elif stmt.init is not None:
                value = yield from self.eval(stmt.init)
            else:
                value = 0
            self.bind(stmt.name, Binding(stmt.name, "local", value=value))
            return

        chain = chains.from_type_expr(stmt.type_expr, self.eval_extent)
        kind = chains.kind_of(chain)

        if not kind.distributed:
            if stmt.init is not None:
                value = yield from self.eval(stmt.init)
            else:
                value = runtime.ZEROES[kind.elem]
            self.bind(stmt.name,
                      Binding(stmt.name, "local", value=value, read_only=kind.read_only))
            return

        plan = chains.plan_of(chain)
        key = (id(stmt), self.alloc_counts.get(id(stmt), 0))
        self.alloc_counts[id(stmt)] = key[1] + 1
        if key not in self.state.arrays:
            dist_map = None
            if plan.distribution[0] == "arraydist":
                dist_map = self.snapshot_dist(plan.distribution[1], stmt)
            base_array = None
            if plan.share_base is not None:
                base_binding = self.lookup(plan.share_base)
                if base_binding is None or base_binding.kind != "array":
                    raise self.fault(f"share base {plan.share_base!r} is not allocated", stmt)
                base_array = base_binding.array
            descriptor = runtime.descriptor_from_plan(plan, self.state.nprocs, dist_map)
            array = runtime.allocate(stmt.name, descriptor, base=base_array)
            self.state.arrays[key] = array
            self.state.declared.append((stmt.name, array, plan))
        array = self.state.arrays[key]
        self.bind(stmt.name,
                  Binding(stmt.name, "array", array=array, plan=plan, read_only=kind.read_only))

    def snapshot_dist(self, var, stmt):
        binding = self.lookup(var)
        if binding is None or binding.kind != "array" or not binding.array.replicated:
            raise self.fault(f"distribution array {var!r} must be a replicated integer array", stmt)
        return list(binding.array.storage_for(self.rank))

    def eval_extent(self, expr):
        """Declaration-time evaluation of type-chain arguments.

        Only process-local integer state may appear: chain extents are
        fixed when the declaration executes.
        """
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.Name):
            binding = self.lookup(expr.name)
            if binding is None or binding.kind != "local" or not isinstance(binding.value, int):
                raise self.fault(f"type argument {expr.name!r} is not a local integer", expr)
            return binding.value
        if isinstance(expr, ast.BinOp):
            left = self.eval_extent(expr.left)
            right = self.eval_extent(expr.right)
            return arith(expr.op, left, right)
        if isinstance(expr, ast.Call) and expr.func == "processes" and not expr.args:
            return self.state.nprocs
        raise self.fault("type arguments must be integer expressions over local variables", expr)

    # --- assignment dispatch ---

    def exec_assign(self, stmt):
        target = stmt.target
        if isinstance(target, ast.Name):
            binding = self.lookup(target.name)
            if binding is None:
                raise self.fault(f"{target.name!r} is not declared", stmt)
            if binding.read_only:
                raise self.fault(f"{target.name!r} is read-only", stmt)
            if binding.kind == "local":
                value = yield from self.eval(stmt.value)
                binding.value = self.storable(value, stmt)
                return
            array = binding.array
            if array.descriptor.ndim == 0 and not array.replicated:
                yield from self.assign_scalar(stmt, binding)
                return
            if array.replicated and array.descriptor.ndim == 0:
                value = yield from self.eval(stmt.value)
                array.storage_for(self.rank)[0] = self.storable(value, stmt)
                return
            yield from self.assign_whole_array(stmt, binding)
            return
        if isinstance(target, ast.Index) and isinstance(target.base, ast.Name):
            yield from self.assign_element(stmt, target)
            return
        if (isinstance(target, ast.Index) and isinstance(target.base, ast.Index)
                and isinstance(target.base.base, ast.Name)):
            yield from self.assign_line(stmt, target)
            return
        raise self.fault("invalid assignment target", stmt)

    def assign_scalar(self, stmt, binding):
        """Single-copy scalar destination: channel, one-sided or local."""
        array = binding.array
        dst_owner = array.blocks[0].owner
        comm = binding.plan.comm if binding.plan else None

        src_binding = None
        if isinstance(stmt.value, ast.Name):
            cand = self.lookup(stmt.value.name)
            if cand is not None and cand.kind == "array" and \
                    cand.array.descriptor.ndim == 0 and not cand.array.replicated:
                src_binding = cand

        if src_binding is not None:
            src_owner = src_binding.array.blocks[0].owner
            if comm is not None and (comm[1], comm[2]) == (src_owner, dst_owner) \
                    and src_owner != dst_owner:
                yield from self.channel_assign(stmt, binding, src_binding, comm)
                return
            if self.proc_depth == 0:
                # destination owner pulls the value; everybody else skips
                if self.rank == dst_owner:
                    value = yield from self.read_remote_scalar(src_binding)
                    array.blocks[0].buffer[0] = value
                return
            value = yield from self.read_remote_scalar(src_binding)
            yield from self.write_scalar(binding, value)
            return

        if self.proc_depth == 0:
            if self.rank == dst_owner:
                value = yield from self.eval(stmt.value)
                array.blocks[0].buffer[0] = self.storable(value, stmt)
            return
        value = yield from self.eval(stmt.value)
        yield from self.write_scalar(binding, self.storable(value, stmt))

    def storable(self, value, node):
        if isinstance(value, (runtime.DistributedArray, BlockRef, LineSlice)):
            raise self.fault("an array value cannot be stored into a scalar", node)
        return value

    def read_remote_scalar(self, binding):
        array = binding.array
        owner = array.blocks[0].owner
        value = array.blocks[0].buffer[0]
        if owner != self.rank:
            yield PAUSE
            self.state.trace.record("onesided-get", src=owner, dst=self.rank,
                                    nbytes=array.element_bytes(), tag=binding.name)
        return value

    def write_scalar(self, binding, value):
        array = binding.array
        owner = array.blocks[0].owner
        if owner != self.rank:
            yield PAUSE
            self.state.trace.record("onesided-put", src=self.rank, dst=owner,
                                    nbytes=array.element_bytes(), tag=binding.name)
        array.blocks[0].buffer[0] = value

    def channel_assign(self, stmt, dst_binding, src_binding, comm):
        """Point-to-point transfer over the declared link."""
        _, csrc, cdst, is_async = comm
        array = dst_binding.array
        self.state.validate_channel(dst_binding.plan, csrc, cdst)
        nbytes = array.element_bytes()
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
            yield from slot.send(value)
            yield from slot.wait_consumed()
            return
        if self.rank == cdst and not is_async:
            value = yield from slot.recv()
            self.state.trace.record("channel-recv", src=csrc, dst=cdst,
                                    nbytes=nbytes, tag=dst_binding.name)
            array.blocks[0].buffer[0] = value

    def assign_element(self, stmt, target):
        binding = self.lookup(target.base.name)
        if binding is None:
            raise self.fault(f"{target.base.name!r} is not declared", stmt)
        if binding.read_only:
            raise self.fault(f"{binding.name!r} is read-only", stmt)
        if binding.kind == "local":
            raise self.fault(f"{binding.name!r} is not an array", stmt)
        array = binding.array
        index = yield from self.eval(target.index)
        if array.replicated:
            value = yield from self.eval(stmt.value)
            if array.descriptor.ndim != 1:
                raise self.fault("element assignment needs a one-dimensional array", stmt)
            if not 0 <= index < array.descriptor.shape[0]:
                raise self.fault(f"index {index} outside shape {array.descriptor.shape}", stmt)
            array.storage_for(self.rank)[index] = self.storable(value, stmt)
            return
        if array.descriptor.ndim != 1:
            raise self.fault("use A[block][line] to address rows of a 2D array", stmt)
        k, off = array.descriptor.locate((index,))
        owner = array.blocks[k].owner
        if self.proc_depth == 0:
            if self.rank == owner:
                value = yield from self.eval(stmt.value)
                array.blocks[k].buffer[off] = self.storable(value, stmt)
            return
        value = yield from self.eval(stmt.value)
        self.storable(value, stmt)
        if owner != self.rank:
            yield PAUSE
            self.state.trace.record("onesided-put", src=self.rank, dst=owner,
                                    nbytes=array.element_bytes(), tag=binding.name)
        array.blocks[k].buffer[off] = value

    def assign_line(self, stmt, target):
        """A[block][line] := other line: whole-line copy."""
        binding = self.lookup(target.base.base.name)
        if binding is None or binding.kind != "array":
            raise self.fault("line assignment needs a distributed array", stmt)
        if binding.read_only:
            raise self.fault(f"{binding.name!r} is read-only", stmt)
        dst = yield from self.eval(target)
        if not isinstance(dst, LineSlice):
            raise self.fault("line assignment needs a partitioned array", stmt)
        owner = dst.block.owner
        if self.proc_depth == 0 and self.rank != owner:
            return
        value = yield from self.eval(stmt.value)
        if not isinstance(value, LineSlice) or len(value) != len(dst):
            raise self.fault("line assignment needs an equal-length line", stmt)
        src_owner = value.block.owner
        if src_owner != self.rank:
            yield PAUSE
            self.state.trace.record(
                "onesided-get", src=src_owner, dst=self.rank,
                nbytes=len(value) * binding.array.element_bytes(), tag=binding.name)
        payload = value.values()
        if owner != self.rank:
            yield PAUSE
            self.state.trace.record(
                "onesided-put", src=self.rank, dst=owner,
                nbytes=len(payload) * binding.array.element_bytes(), tag=binding.name)
        dst.store(payload)

    def assign_whole_array(self, stmt, dst_binding):
        value = stmt.value
        if not isinstance(value, ast.Name):
            raise self.fault(f"{dst_binding.name!r} is an array; assign another array", stmt)
        src_binding = self.lookup(value.name)
        if src_binding is None or src_binding.kind != "array":
            raise self.fault(f"{value.name!r} is not an array", stmt)
        if self.proc_depth > 0:
            raise self.fault("array assignment is collective and cannot run inside proc", stmt)
        yield from self.assign_arrays(dst_binding.array, src_binding.array, stmt)

    def assign_arrays(self, dst, src, stmt=None):
        """Collective redistribution, planned and copied once.

        The last rank to reach the barrier plans the whole assignment,
        copies it and records one block-transfer per contiguous run that
        changes ranks, stamped by the source owner in plan order.
        """
        trace = self.state.trace

        def redistribute():
            plan = runtime.plan_redistribution(
                src.descriptor, dst.descriptor, same_storage=_share_storage(dst, src))
            runtime.copy_segments(plan, src, dst)
            esize = dst.element_bytes()
            for seg in plan:
                if seg.local:
                    continue
                for length in seg.run_lengths():
                    trace.record("block-transfer", src=seg.src_owner,
                                 dst=seg.dst_owner, nbytes=length * esize,
                                 tag=dst.name)

        collective = Collective("assign", f"{dst.name} := {src.name}", stmt, (dst, src))
        try:
            yield from self.state.barrier.wait(self.rank, collective, redistribute)
        except RuntimeFault:
            raise
        except MeshError as exc:
            raise self.fault(str(exc), stmt) from exc

    # --- control flow ---

    def exec_for(self, stmt):
        start = yield from self.eval(stmt.start)
        stop = yield from self.eval(stmt.stop)
        if not isinstance(start, int) or not isinstance(stop, int):
            raise self.fault("loop bounds must be integers", stmt)
        existing = self.lookup(stmt.var)
        if existing is not None and existing.read_only:
            raise self.fault(f"loop variable {stmt.var!r} is read-only", stmt)
        for v in range(start, stop + 1):
            mark = self.enter()
            if existing is not None and existing.kind == "local":
                existing.value = v
            else:
                self.bind(stmt.var, Binding(stmt.var, "local", value=v))
            for s in stmt.body:
                yield from self.exec_stmt(s)
            self.leave(mark)

    def exec_proc(self, stmt):
        rank = yield from self.eval(stmt.rank)
        if not isinstance(rank, int) or not 0 <= rank < self.state.nprocs:
            raise self.fault(f"proc rank {rank} outside [0, {self.state.nprocs})", stmt)
        if rank != self.rank:
            return
        mark = self.enter()
        self.proc_depth += 1
        for s in stmt.body:
            yield from self.exec_stmt(s)
        self.proc_depth -= 1
        self.leave(mark)

    def exec_sync(self, stmt):
        """Collective: all outstanding async transfers in scope complete."""
        collective = Collective("sync", f"sync {stmt.var}" if stmt.var else "sync", stmt)
        yield from self.state.barrier.wait(self.rank, collective)
        if self.rank == 0:
            self.state.scheduler.drain_async(tag=stmt.var)
        yield from self.state.barrier.wait(self.rank, collective)

    # --- expressions ---

    def eval(self, expr):
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.RealLit):
            return expr.value
        if isinstance(expr, ast.StrLit):
            return expr.value
        if isinstance(expr, ast.Name):
            binding = self.lookup(expr.name)
            if binding is None:
                raise self.fault(f"{expr.name!r} is not declared", expr)
            if binding.kind == "local":
                return binding.value
            array = binding.array
            if array.descriptor.ndim == 0:
                if array.replicated:
                    return array.storage_for(self.rank)[0]
                value = yield from self.read_remote_scalar(binding)
                return value
            return array
        if isinstance(expr, ast.BinOp):
            left = yield from self.eval(expr.left)
            right = yield from self.eval(expr.right)
            try:
                return arith(expr.op, left, right)
            except (TypeError, ZeroDivisionError) as exc:
                raise self.fault(str(exc), expr)
        if isinstance(expr, ast.Index):
            return (yield from self.eval_index(expr))
        if isinstance(expr, ast.Accessor):
            return (yield from self.eval_accessor(expr))
        if isinstance(expr, ast.Call):
            return (yield from self.eval_call(expr))
        raise self.fault(f"unhandled expression {type(expr).__name__}", expr)

    def eval_index(self, expr):
        base = yield from self.eval(expr.base)
        index = yield from self.eval(expr.index)
        if isinstance(base, runtime.DistributedArray):
            d = base.descriptor
            if not isinstance(index, int):
                raise self.fault("array index must be an integer", expr)
            if d.ndim == 1:
                if base.replicated:
                    if not 0 <= index < d.shape[0]:
                        raise self.fault(f"index {index} outside shape {d.shape}", expr)
                    return base.storage_for(self.rank)[index]
                return (yield from self.read_element(base, index))
            if d.ndim == 2:
                return row_of(base, index)
            raise self.fault("cannot index a scalar", expr)
        if isinstance(base, BlockRef):
            return LineSlice(base.array, base.block, index)
        if isinstance(base, LineSlice):
            return (yield from self.read_line(base, index))
        raise self.fault("value is not indexable", expr)

    def read_element(self, array, index):
        """Element of a non-replicated 1D array: a one-sided get when remote."""
        k, off = array.descriptor.locate((index,))
        block = array.blocks[k]
        value = block.buffer[off]
        if block.owner != self.rank:
            yield PAUSE
            self.state.trace.record("onesided-get", src=block.owner, dst=self.rank,
                                    nbytes=array.element_bytes(), tag=array.name)
        return value

    def read_line(self, line, index):
        """Element of a block line: a one-sided get when the block is remote."""
        value = line.get(index)
        owner = line.block.owner
        if owner != self.rank:
            yield PAUSE
            array = line.array
            self.state.trace.record("onesided-get", src=owner, dst=self.rank,
                                    nbytes=array.element_bytes(), tag=array.name)
        return value

    def eval_accessor(self, expr):
        if expr.which in ("low", "high"):
            ref = yield from self.eval(expr.base)
            if not isinstance(ref, BlockRef):
                raise self.fault(f".{expr.which} needs a block reference like A[blockid]", expr)
            return ref.block.low if expr.which == "low" else ref.block.high
        base = yield from self.eval(expr.base)
        if not isinstance(base, runtime.DistributedArray):
            raise self.fault(f".{expr.which} needs a distributed array", expr)
        owned = owned_blocks(base, self.rank)
        if expr.which == "localblocks":
            return len(owned)
        j = yield from self.eval(expr.arg)
        if not isinstance(j, int) or not 0 <= j < len(owned):
            raise self.fault(f"local block index {j} outside [0, {len(owned)})", expr)
        return owned[j]

    # --- calls ---

    def eval_call(self, expr):
        name = expr.func
        if name == "processes":
            return self.state.nprocs
        if name == "computeSin":
            yield from self.builtin_compute_sin(expr)
            return None
        if name == "FFT":
            yield from self.builtin_fft(expr)
            return None
        if name in ("readfile", "writefile"):
            yield from self.builtin_file(expr, write=name == "writefile")
            return None
        fn = self.checked.functions.get(name)
        if fn is None:
            raise self.fault(f"unknown function {name!r}", expr)
        bindings = []
        for arg in expr.args:
            if not isinstance(arg, ast.Name):
                raise self.fault("function arguments must be variables", expr)
            b = self.lookup(arg.name)
            if b is None:
                raise self.fault(f"{arg.name!r} is not declared", expr)
            bindings.append(b)
        mark = self.enter()
        for param, b in zip(fn.params, bindings):
            self.bind(param.name, b)
        for s in fn.body:
            yield from self.exec_stmt(s)
        self.leave(mark)
        return None

    def builtin_compute_sin(self, expr):
        array = yield from self.eval(expr.args[0])
        self.compute_sin(expr, array)

    def compute_sin(self, expr, array):
        if not isinstance(array, runtime.DistributedArray) or not array.replicated \
                or array.descriptor.ndim != 1 or array.descriptor.elem != "complex":
            raise self.fault("computeSin needs a replicated 1D complex array", expr)
        m = array.descriptor.shape[0]
        n = 2 * m
        if m < 1 or n & (n - 1):
            raise BadLength(f"twiddle array length {m} is not half a power of two")
        array.storage_for(self.rank)[:] = compute_sins(n)

    def builtin_fft(self, expr):
        row = yield from self.eval(expr.args[0])
        sins = yield from self.eval(expr.args[1])
        self.fft_line(expr, row, sins)

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

    def builtin_file(self, expr, write):
        array = yield from self.eval(expr.args[0])
        path = yield from self.eval(expr.args[1])
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
    code = compile_program(checked)
    contexts = [ProcessContext(r, state, checked, code) for r in range(nprocs)]
    state.scheduler.run([c.run_program() for c in contexts])
    _verify_spmd(state, checked)
    return RunResult(state, contexts)


def _verify_spmd(state, checked):
    """All processes bind the same names after every top-level statement."""
    snaps = state.binding_snapshots
    for i in range(len(checked.program.statements)):
        sets = {s[i] for s in snaps}
        if len(sets) > 1:
            raise RuntimeFault(
                f"SPMD violation: processes disagree on bindings after statement {i + 1}")
