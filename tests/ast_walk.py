"""The AST walk: the reference interpreter the compiled closures are tested against.

`WalkingContext` runs every statement by walking the AST with generators,
as meshlite did before every form was compiled. It is that walk, kept
here as a test oracle: `install` swaps it in for `interp.ProcessContext`,
so `interp.run` drives it exactly as it drives the compiled code. Only
what both share comes from `ProcessContext`: the nesting limit, faults,
allocation (which the walk has every rank plan for itself), channel
transfers, `sync` (with its refusal inside `proc`), array redistribution
and builtins. Name resolution, one-sided reads and writes, the ownership
rule, the read-only and storable checks and type-argument evaluation are
the walk's own, so a difference in them shows up as a difference in the
run. The walk finds each name by its string, in one flat environment per
process plus a stack of the bindings each scope hides; the compiled run
uses the slots the checker gave, and never the names.
"""

from meshlite import ast, chains, interp, runtime
from meshlite.sched import PAUSE
from meshlite.values import OPERATORS, BlockRef, LineSlice, owned_blocks, row_of


def install(patch):
    """Make `interp.run` walk the AST; `patch` is a pytest MonkeyPatch."""
    patch.setattr(interp, "ProcessContext", WalkingContext)


class Binding:
    """What a name finds in the walk's environment: a local's value, or
    an array, and whether a store into it faults."""
    __slots__ = ("name", "kind", "value", "array", "read_only")

    def __init__(self, name, kind, value=None, array=None, read_only=False):
        self.name = name
        self.kind = kind  # "local" | "array"
        self.value = value
        self.array = array
        self.read_only = read_only


class WalkingContext(interp.ProcessContext):
    def __init__(self, rank, state, checked):
        super().__init__(rank, state, checked)
        self.env = {}  # the innermost visible binding of every name
        self.globals = {}  # the bindings made at top level
        self.shadow = []  # (name, hidden binding or None)
        self.defined = {}  # function name -> the top-level bindings where it is defined

    def exec_stmt(self, stmt, fn=None):
        self.stmt = stmt
        return self.walk_stmt(stmt)

    # --- scopes, by name ---

    def lookup(self, name):
        return self.env.get(name)

    def bind(self, name, binding):
        if self.depth:
            self.shadow.append((name, self.env.get(name)))
        else:
            self.globals[name] = binding
        self.env[name] = binding

    def enter(self, node):
        """Open node's scope; returns the mark `leave` restores to."""
        super().enter(node)
        return len(self.shadow)

    def leave(self, mark):
        """Drop the bindings made since mark, putting back what they hid."""
        env, shadow = self.env, self.shadow
        while len(shadow) > mark:
            name, hidden = shadow.pop()
            if hidden is None:
                del env[name]
            else:
                env[name] = hidden
        super().leave()

    def toplevel(self):
        return {name: b.array if b.kind == "array" else b for name, b in self.globals.items()}

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
            yield from self.sync(stmt)
        elif isinstance(stmt, ast.FuncDef):
            self.defined[stmt.name] = dict(self.globals)
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
        kind = chains.layout_of(chain)

        if not kind.distributed:
            if stmt.init is not None:
                value = yield from self.eval(stmt.init)
            else:
                value = runtime.ZEROES[kind.elem]
            self.bind(stmt.name,
                      Binding(stmt.name, "local", value=value, read_only=kind.read_only))
            return
        targets = {role: self.lookup(var).array for role, var in kind.references}
        array = yield from self.allocate(stmt, lambda: chain, targets)
        self.bind(stmt.name,
                  Binding(stmt.name, "array", array=array, read_only=kind.read_only))

    def eval_extent(self, expr):
        """Declaration-time evaluation of type-chain arguments."""
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
            try:
                return OPERATORS[expr.op](left, right)
            except ZeroDivisionError as exc:
                raise self.fault(str(exc), expr)
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
                binding.value = self.check_storable(value, stmt)
                return
            array = binding.array
            if array.descriptor.ndim == 0 and not array.replicated:
                yield from self.assign_scalar(stmt, binding)
                return
            if array.replicated and array.descriptor.ndim == 0:
                value = yield from self.eval(stmt.value)
                array.replicas[self.rank][0] = self.check_storable(value, stmt)
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
        comm = array.descriptor.comm

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
                yield from self.channel_assign(stmt, array, src_binding.array)
                return
            if self.proc_depth == 0:
                # destination owner pulls the value; everybody else skips
                if self.rank == dst_owner:
                    array.blocks[0].buffer[0] = self.get_scalar(src_binding)
                return
            yield from self.put_scalar(binding, self.get_scalar(src_binding))
            return

        if self.proc_depth == 0:
            if self.rank == dst_owner:
                value = yield from self.eval(stmt.value)
                array.blocks[0].buffer[0] = self.check_storable(value, stmt)
            return
        value = yield from self.eval(stmt.value)
        yield from self.put_scalar(binding, self.check_storable(value, stmt))

    def check_storable(self, value, node):
        if isinstance(value, (runtime.DistributedArray, BlockRef, LineSlice)):
            raise self.fault("an array value cannot be stored into a scalar", node)
        return value

    def get_scalar(self, binding):
        """A single scalar's value: a one-sided get when remote, which is
        not a switch point."""
        array = binding.array
        owner = array.blocks[0].owner
        value = array.blocks[0].buffer[0]
        if owner != self.rank:
            self.state.trace.record("onesided-get", src=owner, dst=self.rank,
                                    nbytes=array.esize, tag=binding.name)
        return value

    def put_scalar(self, binding, value):
        array = binding.array
        owner = array.blocks[0].owner
        if owner != self.rank:
            yield PAUSE
            self.state.trace.record("onesided-put", src=self.rank, dst=owner,
                                    nbytes=array.esize, tag=binding.name)
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
            if not isinstance(index, int):
                raise self.fault("array index must be an integer", stmt)
            if not 0 <= index < array.descriptor.shape[0]:
                raise self.fault(f"index {index} outside shape {array.descriptor.shape}", stmt)
            array.replicas[self.rank][index] = self.check_storable(value, stmt)
            return
        if array.descriptor.ndim != 1:
            raise self.fault("use A[block][line] to address rows of a 2D array", stmt)
        if not isinstance(index, int):
            raise self.fault("array index must be an integer", stmt)
        k, off = array.descriptor.locate((index,))
        owner = array.blocks[k].owner
        if self.proc_depth == 0:
            if self.rank == owner:
                value = yield from self.eval(stmt.value)
                array.blocks[k].buffer[off] = self.check_storable(value, stmt)
            return
        value = yield from self.eval(stmt.value)
        self.check_storable(value, stmt)
        if owner != self.rank:
            yield PAUSE
            self.state.trace.record("onesided-put", src=self.rank, dst=owner,
                                    nbytes=array.esize, tag=binding.name)
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
            self.state.trace.record(
                "onesided-get", src=src_owner, dst=self.rank,
                nbytes=len(value) * value.array.esize, tag=value.array.name)
        payload = value.values()
        if owner != self.rank:
            yield PAUSE
            self.state.trace.record(
                "onesided-put", src=self.rank, dst=owner,
                nbytes=len(payload) * binding.array.esize, tag=binding.name)
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
            mark = self.enter(stmt)
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
        mark = self.enter(stmt)
        self.proc_depth += 1
        for s in stmt.body:
            yield from self.exec_stmt(s)
        self.proc_depth -= 1
        self.leave(mark)

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
                    return array.replicas[self.rank][0]
                return self.get_scalar(binding)
            return array
        if isinstance(expr, ast.BinOp):
            left = yield from self.eval(expr.left)
            right = yield from self.eval(expr.right)
            try:
                return OPERATORS[expr.op](left, right)
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
                    return base.replicas[self.rank][index]
                return self.get_element(base, index)
            if d.ndim == 2:
                return row_of(base, index)
            raise self.fault("cannot index a scalar", expr)
        if not isinstance(base, (BlockRef, LineSlice)):
            raise self.fault("value is not indexable", expr)
        if not isinstance(index, int):
            raise self.fault("array index must be an integer", expr)
        if isinstance(base, BlockRef):
            return LineSlice(base.array, base.block, index)
        return self.get_line_element(base, index)

    def get_element(self, array, index):
        """Element of a non-replicated 1D array: a one-sided get when remote."""
        k, off = array.descriptor.locate((index,))
        block = array.blocks[k]
        value = block.buffer[off]
        if block.owner != self.rank:
            self.state.trace.record("onesided-get", src=block.owner, dst=self.rank,
                                    nbytes=array.esize, tag=array.name)
        return value

    def get_line_element(self, line, index):
        """Element of a block line: a one-sided get when the block is remote."""
        value = line.get(index)
        owner = line.block.owner
        if owner != self.rank:
            array = line.array
            self.state.trace.record("onesided-get", src=owner, dst=self.rank,
                                    nbytes=array.esize, tag=array.name)
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
            array = yield from self.eval(expr.args[0])
            self.compute_sin(expr, array)
            return None
        if name == "FFT":
            row = yield from self.eval(expr.args[0])
            sins = yield from self.eval(expr.args[1])
            self.fft_line(expr, row, sins)
            return None
        if name in ("readfile", "writefile"):
            array = yield from self.eval(expr.args[0])
            path = yield from self.eval(expr.args[1])
            yield from self.builtin_file(expr, array, path, write=name == "writefile")
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
        mark = self.enter(expr)
        # the body sees the top-level names declared before it, none of its caller's
        caller, self.env = self.env, dict(self.defined[name])
        for param, b in zip(fn.params, bindings):
            self.bind(param.name, b)
        for s in fn.body:
            yield from self.exec_stmt(s)
        self.leave(mark)
        self.env = caller
        return None
