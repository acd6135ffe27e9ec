"""Compiled closures against the AST walk and against Python itself.

`run` runs the program as compiled closures; `run_walked` runs it
through the generator AST walk of `ast_walk.py`, the reference. Random
local-only programs must give both the same final locals, replicas and
faults (message, rank, line and column) as a direct Python evaluation of
the same statements.
"""

import random
import re
import sys
from types import GeneratorType

import pytest

import ast_walk
from conftest import (
    TeeTraceLog,
    assert_trace_matches_reference,
    checked_corpus,
    events,
    initiator,
    under_frames,
)
from meshlite import check_program, compiler, parse, run, runtime
from meshlite.checker import CheckedProgram
from meshlite.errors import CheckError, RuntimeFault
from meshlite.fixtures import generate_image
from meshlite.ast import MAX_DEPTH
from meshlite.interp import ProcessContext

N = 4  # replicated array length
TOO_DEEP = f"loops, proc bodies and calls nest more than {MAX_DEPTH} deep"
OPS = ("+", "-", "*", "/") * 3 + ("==", "!=", "<", "<=", ">", ">=")


def run_walked(checked, nprocs, **kwargs):
    """`run` with the AST walk running every statement."""
    with pytest.MonkeyPatch.context() as patch:
        ast_walk.install(patch)
        return run(checked, nprocs, **kwargs)


RUNS = (run, run_walked)


class Fault(Exception):
    """A fault of the Python model: message, line, column."""


def _div(a, b, line, col):
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise Fault("division by zero", line, col)
        return a // b
    try:
        return a / b
    except ZeroDivisionError as exc:
        raise Fault(str(exc), line, col) from None


class ProgramGen:
    """A random local-only program, as meshlite source and as Python.

    Statements are tuples; expressions are ("int", v), ("real", v),
    ("var", name), ("elem", array, index) and ("bin", op, left, right).
    No call site shadows a name the function body uses, so Python
    evaluates a call as the body with the arguments in place of the
    parameters.
    """

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.nprocs = self.rng.randint(1, 3)
        self.counter = 0
        self.locals = [f"v{k}" for k in range(self.rng.randint(2, 4))]
        self.arrays = ["a", "b"]
        self.function = None

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    # --- random IR ---

    def expr(self, scope, depth=0):
        rng = self.rng
        if depth >= 3 or rng.random() < 0.3:
            roll = rng.random()
            if roll < 0.25:
                return ("int", rng.randint(0, 9))
            if roll < 0.35:
                return ("real", rng.choice((0.5, 1.5, 2.25, 0.0)))
            if roll < 0.75:
                return ("var", rng.choice(scope["names"]))
            return ("elem", rng.choice(scope["arrays"]), self.index(scope))
        op = rng.choice(OPS)
        left = self.expr(scope, depth + 1)
        if op == "*":  # keep magnitudes small: multiply by a small literal
            right = ("int", rng.randint(0, 3))
        elif op == "/" and rng.random() < 0.6:
            right = ("int", rng.randint(1, 5))
        else:
            right = self.expr(scope, depth + 1)
        return ("bin", op, left, right)

    def index(self, scope):
        if scope["loops"] and self.rng.random() < 0.6:
            return ("var", self.rng.choice(scope["loops"]))
        return ("int", self.rng.randrange(N))

    def body(self, scope, count, depth):
        return [self.stmt(scope, depth) for _ in range(count)]

    def stmt(self, scope, depth):
        rng = self.rng
        roll = rng.random()
        inner = dict(scope, names=list(scope["names"]), loops=list(scope["loops"]))
        if roll < 0.35:
            return ("assign", rng.choice(scope["targets"]), self.expr(scope))
        if roll < 0.55:
            return ("store", rng.choice(scope["arrays"]), self.index(scope), self.expr(scope))
        if roll < 0.65 and depth > 0:
            name = self.fresh("t")
            stmt = ("decl", name, self.expr(scope))
            scope["names"].append(name)
            return stmt
        if roll < 0.8 and depth < 2:
            var = rng.choice(["i", self.fresh("k")])
            lo, hi = rng.randrange(N), rng.randrange(N)
            inner["names"].append(var)
            inner["loops"].append(var)
            return ("for", var, lo, hi, self.body(inner, rng.randint(1, 3), depth + 1))
        if roll < 0.9 and depth < 2:
            return ("proc", rng.randrange(self.nprocs),
                    self.body(inner, rng.randint(1, 2), depth + 1))
        if self.function is not None:
            return ("call", "w", rng.choice(self.arrays))
        return ("assign", rng.choice(scope["targets"]), self.expr(scope))

    def program(self):
        rng = self.rng
        top = {"names": self.locals + ["w", "c", "i"], "targets": self.locals + ["w"],
               "arrays": self.arrays, "loops": []}
        if rng.random() < 0.7:
            # x and y are the parameters; the body also reads the caller's names
            fscope = {"names": ["x"] + self.locals, "targets": ["x"], "arrays": ["y"],
                      "loops": []}
            self.function = [("assign", "x", self.expr(fscope)),
                             ("store", "y", self.index(fscope), self.expr(fscope))]
        return self.body(top, rng.randint(4, 10), 0)

    # --- rendering ---

    def render(self):
        """(meshlite source, Python source defining model(rank))."""
        stmts = self.program()
        rng = self.rng
        mesh, py = [], ["def model(rank):"]
        for name in self.locals:
            value = rng.choice((rng.randint(0, 9), 1.5))
            mesh.append(f"var {name} := {value};")
            py.append(f"    {name} = {value!r}")
        mesh += [f"var {a} : array[Int,{N}];" for a in self.arrays]
        mesh += ["var w : Int := 3;", "var c : Int :: const := 2;", "var i;"]
        py += [f"    {a} = [0] * {N}" for a in self.arrays]
        py += ["    w = 3", "    c = 2", "    i = 0"]
        if self.function is not None:
            self.function_line = len(mesh) + 1
            line = f"function f(x : Int, y : array[Int,{N}]) {{ "
            self.function_offsets = []
            for stmt in self.function:
                self.function_offsets.append(len(line))
                line = self.mesh_stmt(stmt, line, self.function_line) + "; "
            mesh.append(line + "};")
        for stmt in stmts:
            self.emit(stmt, mesh, py, 1)
        names = self.locals + ["w", "c", "i"]
        py.append(f"    return {{{', '.join(f'{n!r}: {n}' for n in names)}}}, "
                  f"{{{', '.join(f'{a!r}: {a}' for a in self.arrays)}}}")
        return "\n".join(mesh) + "\n", "\n".join(py) + "\n"

    def emit(self, stmt, mesh, py, indent):
        """Append stmt as one or more source lines and its Python lines."""
        pad = "    " * indent
        kind = stmt[0]
        lineno = len(mesh) + 1
        if kind in ("for", "proc"):
            if kind == "for":
                _, var, lo, hi, body = stmt
                mesh.append(f"for {var} from {lo} to {hi} {{")
                py.append(f"{pad}for {var} in range({lo}, {hi + 1}):")
            else:
                _, r, body = stmt
                mesh.append(f"proc {r} {{")
                py.append(f"{pad}if rank == {r}:")
            py.append(f"{pad}    pass")
            for s in body:
                self.emit(s, mesh, py, indent + 1)
            mesh.append("};")
            return
        if kind == "call":
            # f(w, A): x is w and y is A, by reference
            mesh.append(f"f(w, {stmt[2]});")
            for s, offset in zip(self.function, self.function_offsets):
                self.call_stmt(s, offset, py, pad, {"x": "w", "y": stmt[2]})
            return
        mesh.append(self.mesh_stmt(stmt, "", lineno, py, pad) + ";")

    def mesh_stmt(self, stmt, line, lineno, py=None, pad=""):
        """stmt appended to the source line; its Python goes to py if given."""
        kind = stmt[0]
        if kind == "assign":
            head = f"{stmt[1]} := "
        elif kind == "decl":
            head = f"var {stmt[1]} := "
        else:
            head = None
        if head is not None:
            text, value = self.render_expr(stmt[2], lineno, len(line) + len(head) + 1, {})
            if py is not None:
                py.append(f"{pad}{stmt[1]} = {value}")
            return line + head + text
        _, array, index, expr = stmt
        itext, ivalue = self.render_expr(index, lineno, len(line) + len(array) + 2, {})
        head = f"{array}[{itext}] := "
        text, value = self.render_expr(expr, lineno, len(line) + len(head) + 1, {})
        if py is not None:
            py.append(f"{pad}{array}[{ivalue}] = {value}")
        return line + head + text

    def call_stmt(self, stmt, offset, py, pad, rename):
        """Python of one function-body statement with the arguments in place
        of the parameters; offset is where it starts on the function's line."""
        line = self.function_line
        if stmt[0] == "assign":
            head = f"{stmt[1]} := "
            _, value = self.render_expr(stmt[2], line, offset + len(head) + 1, rename)
            py.append(f"{pad}{rename[stmt[1]]} = {value}")
            return
        _, array, index, expr = stmt
        itext, ivalue = self.render_expr(index, line, offset + len(array) + 2, rename)
        head = f"{array}[{itext}] := "
        _, value = self.render_expr(expr, line, offset + len(head) + 1, rename)
        py.append(f"{pad}{rename[array]}[{ivalue}] = {value}")

    def render_expr(self, e, lineno, col, rename):
        """(meshlite text, Python text) of e, its text starting at column col."""
        kind = e[0]
        if kind in ("int", "real"):
            return repr(e[1]), repr(e[1])
        if kind == "var":
            return e[1], rename.get(e[1], e[1])
        if kind == "elem":
            itext, ivalue = self.render_expr(e[2], lineno, col + len(e[1]) + 1, rename)
            return f"{e[1]}[{itext}]", f"{rename.get(e[1], e[1])}[{ivalue}]"
        _, op, left, right = e
        ltext, lvalue = self.render_expr(left, lineno, col + 1, rename)
        opcol = col + 1 + len(ltext) + 1
        rtext, rvalue = self.render_expr(right, lineno, opcol + len(op) + 1, rename)
        text = f"({ltext} {op} {rtext})"
        if op == "/":
            return text, f"_div({lvalue}, {rvalue}, {lineno}, {opcol})"
        if op in ("+", "-", "*"):
            return text, f"({lvalue} {op} {rvalue})"
        return text, f"int({lvalue} {op} {rvalue})"


def generate(seed):
    """(process count, meshlite source, Python model) of one random program."""
    gen = ProgramGen(seed)
    mesh, py = gen.render()
    namespace = {"_div": _div}
    exec(py, namespace)  # noqa: S102 - the generator's own Python text
    return gen.nprocs, mesh, namespace["model"]


def outcome(checked, nprocs, run_path, seed=0):
    """Final locals and replicas per rank, or the fault."""
    try:
        result = run_path(checked, nprocs, seed=seed)
    except RuntimeFault as fault:
        return ("fault", fault.reason, fault.rank, fault.line, fault.column)
    names = [n for n in result.names() if n not in ("a", "b")]
    return ("done",
            [{n: result.local(n)[r] for n in names} for r in range(nprocs)],
            [{a: list(result.array(a).replicas[r]) for a in ("a", "b")}
             for r in range(nprocs)])


def python_outcome(model, nprocs):
    per_rank = []
    for rank in range(nprocs):
        try:
            per_rank.append(model(rank))
        except Fault as fault:
            per_rank.append(("fault",) + fault.args)
    return per_rank


@pytest.mark.parametrize("seed", range(150))
def test_compiled_matches_the_ast_walk_and_python(seed):
    nprocs, source, model = generate(seed)
    checked = check_program(parse(source))
    for sched_seed in (0, 7919):
        compiled = outcome(checked, nprocs, run, sched_seed)
        assert compiled == outcome(checked, nprocs, run_walked, sched_seed), source
    expected = python_outcome(model, nprocs)
    if compiled[0] == "fault":
        _, message, rank, line, column = compiled
        assert expected[rank] == ("fault", message, line, column), source
        return
    assert all(e[0] != "fault" for e in expected), source
    _, local, arrays = compiled
    for rank, (want_local, want_arrays) in enumerate(expected):
        assert local[rank] == want_local, source
        assert arrays[rank] == want_arrays, source


def test_generated_programs_cover_faults_and_every_construct():
    kinds = {"fault": 0, "done": 0}
    text = ""
    for seed in range(150):
        nprocs, source, _ = generate(seed)
        kinds[outcome(check_program(parse(source)), nprocs, run)[0]] += 1
        text += source
    assert kinds["fault"] >= 10 and kinds["done"] >= 50
    for construct in ("function f(", "f(w, ", "proc ", "for i ", "for k", "var t",
                      " / ", " < ", " >= ", " != ", "a[", "1.5"):
        assert construct in text, construct


# --- faults keep their own node's position ---


def test_equal_faulting_expressions_report_their_own_line():
    source = """var z := 0;
var y := 1;
proc 0 { y := 1 / z };
proc 1 { y := 1 / z };
"""
    checked = check_program(parse(source))
    seen = set()
    for seed in range(12):
        for run_path in RUNS:
            with pytest.raises(RuntimeFault) as info:
                run_path(checked, 2, seed=seed)
            fault = info.value
            assert fault.reason == "division by zero"
            assert (fault.line, fault.column) == ((3, 17) if fault.rank == 0 else (4, 17))
            seen.add(fault.rank)
    assert seen == {0, 1}


def test_faults_inside_loops_keep_position_and_rank():
    source = """var z := 2;
var s := 0;
for i from 0 to 3 {
    s := s + 6 / (z - i)
};
"""
    for run_path in RUNS:
        with pytest.raises(RuntimeFault) as info:
            run_path(check_program(parse(source)), 1)
        assert str(info.value) == "rank 0: division by zero at 4:16"


@pytest.mark.parametrize("body, message", [
    ("y := a[4];", "index 4 outside shape (4,) at 4:7"),
    ("a[9] := 1;", "index 9 outside shape (4,) at 4:1"),
    ("y := a[1.5];", "array index must be an integer at 4:7"),
    ("y := A[1.5];", "array index must be an integer at 4:7"),
    ("y := y[0];", "value is not indexable at 4:7"),
    ("for k from 0 to 1.5 { };", "loop bounds must be integers at 4:1"),
    ("proc 7 { };", "proc rank 7 outside [0, 2) at 4:1"),
    ("y := A.localblockid[3];", "local block index 3 outside [0, 1) at 4:7"),
    ("for k from 0 to 0 { var z := a; y := z };", "an array value cannot be stored into a scalar at 4:33"),
    ("y := 1 + A;", "unsupported operand type(s) for +: 'int' and 'DistributedArray' at 4:8"),
    # names a function body takes from its caller
    ("function g() { sync }; proc 0 { g() };",
     "sync is collective and cannot run inside proc at 4:16"),
    ("function g() { A := a }; proc 1 { g() };",
     "array assignment is collective and cannot run inside proc at 4:16"),
    ("function g() { var B : array[Int,4] :: allocated[multiple[]] }; proc 1 { g() };",
     "allocation is collective and cannot run inside proc at 4:20"),
    ("function g() { a[7] := 1 }; g();", "index 7 outside shape (4,) at 4:16"),
    ("function g() { y := y[0] }; g();", "value is not indexable at 4:22"),
    ("function g(z : array[Int,4]) { z[9] := z[1] }; g(a);", "index 9 outside shape (4,) at 4:32"),
    ("function g() { y := A.localblockid[3] }; g();", "local block index 3 outside [0, 1) at 4:22"),
    ("function g() { for k from 0 to 1.5 { } }; g();", "loop bounds must be integers at 4:16"),
    ("function g() { A[1] := A }; g();", "an array value cannot be stored into a scalar at 4:16"),
    # a fault no rule locates names the innermost statement running
    ("function g() { y := A[5] }; proc 1 { g() };", "index (5,) outside shape (4,) at 4:16"),
    ("for k from 0 to 1 { y := 1; y := A[5] };", "index (5,) outside shape (4,) at 4:29"),
    ("proc 0 { y := 1; y := A[5] };", "index (5,) outside shape (4,) at 4:18"),
    ("function f() { f() }; f();", f"{TOO_DEEP} at 4:16"),
    ("for k from 0 to 0 { var z := 1; function g() { y := z }; }; g();",
     "'z' is not declared at 4:53"),
])
def test_faults_match_the_ast_walk(body, message):
    source = ("var a : array[Int,4];\n"
              "var A : array[Int,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
              f"var y;\n{body}\n")
    checked = check_program(parse(source))
    for run_path in RUNS:
        with pytest.raises(RuntimeFault) as info:
            run_path(checked, 2)
        assert str(info.value).split(": ", 1)[1] == message


@pytest.mark.parametrize("body, fault", [
    # builtins given what the checker cannot see is wrong
    ("computeSin(x);", "rank 1: computeSin needs a replicated 1D complex array at 6:1"),
    ("FFT(x, s);", "rank 1: FFT needs a line like A[blockid][i] at 6:1"),
    ("FFT(A[0][0], B);", "rank 1: FFT needs the replicated twiddle array at 6:1"),
    ("FFT(I[0][0], s);", "rank 1: FFT transforms complex lines at 6:1"),
    ("proc 0 { FFT(A[1][0], s) };", "rank 0: FFT must run on the process owning the block at 6:10"),
    ('writefile(s, "out.dat");', "rank 1: file transfer needs a singly-allocated array at 6:1"),
    ('writefile(A, "out.dat");', "rank 1: file transfer needs an unpartitioned array at 6:1"),
    ("writefile(B, x);", "rank 1: file path must be a string at 6:1"),
    ('proc 0 { writefile(B, "out.dat") };', "rank 0: rank 0 does not own B (owner 1) at 6:10"),
    ("var d : array[Int,2] :: allocated[single[on[0]]];\n"
     "var D : array[Int,4] :: allocated[row[] :: horizontal[2] :: single[arraydist[d]]];",
     "rank 0: distribution array 'd' must be a replicated integer array at 7:5"),
    # names a function body takes from a caller that shadows them
    ("function f() { x := 1 };\nfor i from 0 to 0 { var x : Int :: const := 2; f() };",
     "rank 0: 'x' is read-only at 6:16"),
    ("function f() { x[0] := 1 };\nfor i from 0 to 0 { var x : array[Int,4] :: const; f() };",
     "rank 1: 'x' is read-only at 6:16"),
    ("function f() { B[0] := 1 };\nfor i from 0 to 0 { var B := 2; f() };",
     "rank 0: 'B' is not an array at 6:16"),
    ("function f() { x := 1 };\nfor i from 0 to 0 { var x : array[Int,4]; f() };",
     "rank 1: 'x' is an array; assign another array at 6:16"),
    ("var C : array[Int,4] :: allocated[single[on[0]]];\n"
     "function f() { B := C };\nfor i from 0 to 0 { var C := 2; f() };",
     "rank 0: 'C' is not an array at 7:16"),
    ("function f() { A[0][1] := A[1][0] };\nfor i from 0 to 0 { var A := 2; f() };",
     "rank 0: line assignment needs a distributed array at 6:16"),
    ("function f() { var D : array[Int,x] :: allocated[multiple[]] };\n"
     "for i from 0 to 0 { var x : array[Int,4]; f() };",
     "rank 1: type argument 'x' is not a local integer at 6:34"),
    # names gone with the loop that declared them
    ("for i from 0 to 0 { var z := 1; function g() { z := 2 } };\ng();",
     "rank 0: 'z' is not declared at 6:48"),
    ("for i from 0 to 0 { var z : array[Int,4]; function g() { z[0] := 2 } };\ng();",
     "rank 0: 'z' is not declared at 6:58"),
    ("for i from 0 to 0 { var z : array[Int,4,8]; function g() { z[0][1] := z[1][0] } };\ng();",
     "rank 0: line assignment needs a distributed array at 6:60"),
    ("function h(p : Int) { };\nfor i from 0 to 0 { var z : Int := 1; function g() { h(z) } };\ng();",
     "rank 1: 'z' is not declared at 7:54"),
    # a parameter bound to a scalar, then indexed: the fault names the caller's variable
    ("function f(p : Int) { p[0] := 1 };\nvar w : Int := 0;\nf(w);",
     "rank 1: 'w' is not an array at 6:23"),
    ("function f(p : Int) { x := p[0] };\nvar w : Int := 0;\nf(w);",
     "rank 1: value is not indexable at 6:29"),
    # element stores into arrays not one-dimensional: what the store reads
    # before its fault faults first
    ("A[0] := 1;", "rank 1: use A[block][line] to address rows of a 2D array at 6:1"),
    ("A[1 / 0] := 1;", "rank 1: division by zero at 6:5"),
    ("function f() { A[0] := 1 };\nf();",
     "rank 0: use A[block][line] to address rows of a 2D array at 6:16"),
    ("var q : Int :: allocated[single[on[0]]];\nq[0] := 1;",
     "rank 0: use A[block][line] to address rows of a 2D array at 7:1"),
    ("var R : array[Int,4,8] :: allocated[multiple[]];\nR[0] := 1;",
     "rank 0: element assignment needs a one-dimensional array at 7:1"),
    ("var R : array[Int,4,8] :: allocated[multiple[]];\nR[0] := 1 / 0;",
     "rank 0: division by zero at 7:11"),
    ("x := I[9];", "rank 1: I has no block 9 (blocks: 2) at 6:1"),
    # the one call with a value, as a statement: it runs and does nothing
    ("processes();", None),
])
def test_faults_only_the_run_finds_match_the_ast_walk(tmp_path, body, fault):
    """Builtin misuse and names whose kind at the call differs from where
    the function was defined: the same fault (message, rank, line:col) on
    both run paths, or none. The rank is the first one the seed-0 schedule
    brings to the fault."""
    source = ("var x := 0;\n"
              "var s : array[complex,4] :: allocated[multiple[]];\n"
              "var A : array[complex,4,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
              "var I : array[Int,4,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
              f"var B : array[Int,4] :: allocated[single[on[1]]];\n{body}\n")
    checked = check_program(parse(source))
    for run_path in RUNS:
        try:
            run_path(checked, 2, workdir=str(tmp_path))
            seen = None
        except RuntimeFault as exc:
            seen = str(exc)
        assert seen == fault, run_path
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("line, message", [
    # a known local on the left and a literal on the right
    ("y := s + 1;", 'can only concatenate str (not "int") to str at 7:8'),
    ("y := z / 0;", "division by zero at 7:8"),
    # a known local on the left
    ("y := s - (z + 1);", "unsupported operand type(s) for -: 'str' and 'int' at 7:8"),
    ("for i from 0 to 3 { y := y + 6 / (i - 2) };", "division by zero at 7:32"),
    # a literal on the right
    ("y := (z + 1) / 0;", "division by zero at 7:14"),
    ('y := X[1] + "a";', "unsupported operand type(s) for +: 'int' and 'str' at 7:11"),
    # an element whose index is a known local
    ("y := X[z] / 0;", "division by zero at 7:11"),
    ("y := a[z] - s;", "unsupported operand type(s) for -: 'int' and 'str' at 7:11"),
    ("y := X[r];", "array index must be an integer at 7:7"),
    ("y := a[s];", "array index must be an integer at 7:7"),
    ("X[r] := 1;", "array index must be an integer at 7:1"),
    ("for i from 0 to 4 { y := a[i] };", "index 4 outside shape (4,) at 7:27"),
    ("for i from 0 to 4 { y := X[i] };", "index (4,) outside shape (4,) at 7:21"),
])
def test_inline_operands_fault_as_the_ast_walk(line, message):
    """Operands a binary operator or an element read takes without a
    closure call fault with the walk's message, rank and position."""
    source = ("var a : array[Int,4];\n"
              "var X : array[Int,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
              'var s := "x";\nvar z := 0;\nvar r := 1.5;\nvar y := 0;\n' + line + "\n")
    checked = check_program(parse(source))
    for seed in (0, 3):
        seen = []
        for run_path in RUNS:
            with pytest.raises(RuntimeFault) as info:
                run_path(checked, 2, seed=seed)
            seen.append(str(info.value))
        assert seen[0] == seen[1]
        assert seen[0].split(": ", 1)[1] == message


ROWS = "var A : array[Int,4,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"


@pytest.mark.parametrize("source,message", [
    ("var d : array[Int,4] :: allocated[multiple[]];\nd[1.5] := 2;",
     "array index must be an integer at 2:1"),
    ("var d : array[Int,4] :: allocated[single[on[0]]];\nd[1.5] := 2;",
     "array index must be an integer at 2:1"),
    ("var d : array[Int,4] :: allocated[single[on[1]]];\nvar x := d[0.5];",
     "array index must be an integer at 2:11"),
    (ROWS + "var x := A[0][1.5];", "array index must be an integer at 2:14"),
    (ROWS + "var x := A[0][1][2.5];", "array index must be an integer at 2:17"),
    (ROWS + "A[0][0.5] := A[1][0];", "array index must be an integer at 2:5"),
    ("var S : array[Int,4,4] :: allocated[row[] :: single[0]];\nvar x := S[0][2.5];",
     "array index must be an integer at 2:14"),
    ("var z := 0;\nvar d : array[Int,4/z] :: allocated[multiple[]];", "division by zero at 2:20"),
    ("var k := 0;\nvar d : array[Int,4,8/k] :: allocated[multiple[]];",
     "division by zero at 2:22"),
])
def test_bad_indices_fault_at_their_source(source, message):
    """A non-integer index or a zero divisor in a type argument is a fault
    located on its rank, the same through the compiled code and the AST walk."""
    checked = check_program(parse(source + "\n"))
    faults = []
    for run_path in RUNS:
        with pytest.raises(RuntimeFault) as info:
            run_path(checked, 2)
        faults.append(str(info.value))
    assert faults[0] == faults[1]
    assert faults[0].split(": ", 1)[1] == message


# Every form a type argument takes: its source; its `typecheck` diagnostics,
# or None when it passes; and, when it passes, its fault at P=2 or the shape
# of its last declared array, the same compiled and walked. Only values the
# run alone knows (a local's value, the process count) fault at run time.
TYPE_ARGUMENTS = [
    ("var d : array[Int,4/0] :: allocated[multiple[]];",
     "1:20: TypeArgument: division by zero", None),
    ("var B : array[Int,4];\nvar A : array[Int,B] :: allocated[multiple[]];",
     "2:19: TypeArgument: type argument 'B' is not a local integer", None),
    ("var n : Real;\nvar A : array[Int,n] :: allocated[multiple[]];",
     "2:19: TypeArgument: type argument 'n' is not a local integer", None),
    ("var A : array[Int,2.5] :: allocated[multiple[]];",
     "1:19: TypeArgument: type arguments must be integer expressions over local variables", None),
    ('var A : array[Int,"x"] :: allocated[multiple[]];',
     "1:19: TypeArgument: type arguments must be integer expressions over local variables", None),
    ("var A : array[Int,computeSin(1)] :: allocated[multiple[]];",
     "1:19: TypeArgument: type arguments must be integer expressions over local variables", None),
    ("var A : array[Int,4] :: allocated[multiple[]];\n"
     "var C : array[Int,A[0]] :: allocated[multiple[]];",
     "2:19: TypeArgument: type arguments must be integer expressions over local variables", None),
    ("function f(X : array[Int,q] :: allocated[multiple[]]) { };",
     "1:26: UnknownVariable: 'q' is not declared", None),
    ("function f(X : array[Int,0-4] :: allocated[multiple[]]) { };",
     "1:12: IncompletePlan: array extents must be positive", None),
    ("function f(X : array[Int,4] :: allocated[single[arraydist[zz]]]) { };",
     "1:12: IncompletePlan: arraydist distribution requires a partitioned array\n"
     "1:12: ArrayDistTarget: distribution array 'zz' is not declared", None),
    ("var a : Int :: allocated[single[on[0-1]]];",
     "1:5: IncompletePlan: placement rank -1 is negative", None),
    ("var c : Int :: allocated[single[on[1]]] :: channel[0-1,1];",
     "1:5: IncompletePlan: channel endpoint -1 is negative", None),
    ("var c : Int :: allocated[single[on[1]]] :: channel[0,5];",
     None, "channel endpoint 5 outside [0, 2) at 1:5"),
    ("var a : Int :: allocated[single[on[processes()]]];",
     None, "placement rank 2 outside [0, 2) at 1:5"),
    ("var d : array[Int,4/(processes() - 2)] :: allocated[multiple[]];",
     None, "division by zero at 1:20"),
    ("var n := 2.5;\nvar A : array[Int,n] :: allocated[multiple[]];",
     None, "type argument 'n' is not a local integer at 2:19"),
    ("var A : array[Int,processes()] :: allocated[multiple[]];", None, (2,)),
    ("var n := 8;\nvar A : array[Int,n] :: allocated[multiple[]];", None, (8,)),
    ("var n := 8;\nvar A : array[Int,4,n/2] :: allocated[multiple[]];", None, (4, 4)),
    ("var A : array[Int,4] :: allocated[multiple[]];\n"
     "function f(X : array[Int,2+2] :: allocated[multiple[]]) { };\nf(A);", None, (4,)),
]


@pytest.mark.parametrize("source,diagnostics,outcome", TYPE_ARGUMENTS)
def test_type_arguments_fail_at_check_time_unless_only_the_run_knows(
        source, diagnostics, outcome):
    program = parse(source + "\n")
    if diagnostics is not None:
        with pytest.raises(CheckError) as info:
            check_program(program, "t.mesh")
        assert str(info.value) == "\n".join(f"t.mesh:{d}" for d in diagnostics.split("\n"))
        return
    checked = check_program(program, "t.mesh")
    for run_path in RUNS:
        if isinstance(outcome, str):
            with pytest.raises(RuntimeFault) as info:
                run_path(checked, 2)
            assert str(info.value).split(": ", 1)[1] == outcome
        else:
            assert run_path(checked, 2).declared[-1][1].descriptor.shape == outcome


# --- scoping of the flat environment ---


def both(source, nprocs=1):
    checked = check_program(parse(source))
    results = [run_path(checked, nprocs) for run_path in RUNS]
    for name in results[1].names():
        if name not in results[1]._arrays:
            assert results[0].local(name) == results[1].local(name), name
    assert results[0].names() == results[1].names()
    return results[0]


def test_loop_body_declarations_vanish_after_the_loop():
    result = both("""
var t := 7;
var s := 0;
for k from 0 to 2 { var t := k * 10; var u := t; s := s + u };
var u := 1;
""")
    assert result.local("t") == [7]
    assert result.local("s") == [30]
    assert result.local("u") == [1]
    assert "k" not in result.names()


def test_overrides_reach_only_top_level_declarations():
    checked = check_program(parse(
        "var n := 1;\nvar m := 0;\nfor k from 0 to 0 { var n := 2; m := n };\n"))
    for run_path in RUNS:
        result = run_path(checked, 1, overrides={"n": 5})
        assert (result.local("n"), result.local("m")) == ([5], [2])


def test_existing_local_loop_variable_keeps_its_last_value():
    result = both("""
var i := 99;
var j := 5;
var n := 0;
for i from 0 to 3 { n := n + i };
for j from 4 to 3 { n := n + 100 };
""")
    assert result.local("i") == [3]
    assert result.local("j") == [5]  # empty range: untouched
    assert result.local("n") == [6]


def test_shadowing_inside_proc_and_function_frames():
    result = both("""
var x := 1;
var y := 0;
var w : Int := 5;
function f(x : Int) { x := x + 1; y := y + 10 };
proc 0 { var x := 2; y := x };
proc 1 { y := x };
f(w);
""", nprocs=2)
    assert result.local("x") == [1, 1]
    assert result.local("y") == [12, 11]
    assert result.local("w") == [6, 6]  # the parameter was w's binding


def test_function_bodies_see_the_callers_names():
    result = both("""
var k := 1;
var out := 0;
function g() { out := out + k };
g();
for i from 0 to 1 { var k := 10; g() };
proc 0 { var k := 100; g() };
""")
    assert result.local("out") == [121]


def test_read_only_loop_variable_faults():
    # the checker rejects this program, so run it unchecked
    program = parse("var c : Int :: const := 1;\nfor c from 0 to 2 { };\n")
    for run_path in RUNS:
        with pytest.raises(RuntimeFault) as info:
            run_path(CheckedProgram(program, {}, "<test>"), 1)
        assert str(info.value) == "rank 0: loop variable 'c' is read-only at 2:1"


def test_bounded_recursion_runs():
    result = both("var n := 5;\n"
                  "function f() { for i from 1 to n { n := n - 1; f() } };\n"
                  "f();\n")
    n = 5

    def f():
        nonlocal n
        for _ in range(1, n + 1):
            n -= 1
            f()

    f()
    assert result.local("n") == [n]


@pytest.mark.parametrize("source, faults", [
    ("function f() { f() };\nf();\n",
     {0: f"rank 1: {TOO_DEEP} at 1:16", 3: f"rank 0: {TOO_DEEP} at 1:16"}),
    ("var k := 0;\nfunction f() { k := k + 1; proc 0 { f() } };\nf();\n",
     {0: f"rank 0: {TOO_DEEP} at 2:37", 3: f"rank 0: {TOO_DEEP} at 2:37"}),
    ("function f() { sync; f() };\nf();\n",
     {0: f"rank 1: {TOO_DEEP} at 1:22", 3: f"rank 0: {TOO_DEEP} at 1:22"}),
])
def test_unbounded_recursion_faults_alike_on_both_run_paths(source, faults):
    """The nesting limit, not Python's stack, decides where recursion
    stops: the same call on the same rank on both run paths."""
    checked = check_program(parse(source))
    for seed, fault in faults.items():
        for depth in (0, 7, 23, 40):
            for run_path in RUNS:
                with pytest.raises(RuntimeFault) as info:
                    under_frames(depth, lambda: run_path(checked, 2, seed=seed))
                assert str(info.value) == fault, (seed, depth, run_path)


def test_calls_with_one_loop_each_nest_half_the_limit_deep():
    body = "function f() { for i from 1 to n { n := n - 1; f() } };\nf();\n"
    calls = MAX_DEPTH // 2  # each call opens its own scope and its loop's
    deepest = f"var n := {calls - 1};\n" + body  # the top call and n nested ones
    for run_path in RUNS:
        run_path(check_program(parse(deepest)), 2)
        with pytest.raises(RuntimeFault) as info:
            run_path(check_program(parse(f"var n := {calls};\n" + body)), 2)
        assert str(info.value) == f"rank 1: {TOO_DEEP} at 2:48"


@pytest.mark.parametrize("source, where", [
    ("function f() { for i from 0 to 0 { for j from 0 to 0 { for k from 0 to 0 "
     "{ proc 0 { f() } } } } };\nf();\n", "1:56"),
    ("function f() { " + "".join(f"for i{k} from 0 to 0 {{ " for k in range(10))
     + "proc 0 { f() } " + "} " * 10 + "};\nf();\n", "1:163"),
], ids=["three loops", "ten loops"])
def test_recursion_inside_nested_loops_stops_at_the_limit_on_both_run_paths(source, where):
    """However deep a recursive body nests loops and `proc`, the nesting
    limit stops it, at the scope that passes it (here a loop), before
    Python's stack runs out."""
    checked = check_program(parse(source))
    for seed in (0, 3):
        for depth in (0, 300):
            for run_path in RUNS:
                with pytest.raises(RuntimeFault) as info:
                    under_frames(depth, lambda: run_path(checked, 2, seed=seed))
                assert str(info.value) == f"rank 0: {TOO_DEEP} at {where}"


@pytest.mark.parametrize("source, where", [
    ("function f() { f() };\nf();\n", "1:16"),
    ("function f() { for i from 0 to 0 { for j from 0 to 0 { for k from 0 to 0 "
     "{ proc 0 { f() } } } } };\nf();\n", "1:56"),
], ids=["calls", "three loops"])
def test_a_run_called_deep_in_the_stack_still_stops_at_the_limit(source, where):
    """The compiled path spends about one Python frame per nesting level,
    so a run started 500 frames deep still reaches the nesting limit
    before Python's own."""
    checked = check_program(parse(source))
    for seed in (0, 3):
        with pytest.raises(RuntimeFault) as info:
            under_frames(500, lambda: run(checked, 2, seed=seed))
        assert re.fullmatch(rf"rank [01]: {TOO_DEEP} at {where}", str(info.value)), seed


def _chain(n, body):
    """Functions f1 to fn, each fk calling fk+1, fn running body; each
    defined before its caller."""
    return (f"function f{n}() {{ {body} }};\n"
            + "".join(f"function f{k}() {{ f{k + 1}() }};\n" for k in range(n - 1, 0, -1)))


def test_a_long_chain_of_calls_compiles_without_recursion():
    """Compiling a body at each call recurses through no chain of calls:
    a 200-function chain, as deep as no run may go, still compiles."""
    checked = check_program(parse("var x := 0;\n" + _chain(200, "x := 1")
                                  + "for i from 1 to 0 { f1() };\n"))
    for run_path in RUNS:
        assert under_frames(500, lambda: run_path(checked, 2)).local("x") == [0, 0]


def test_a_chain_of_calls_runs_deep_in_the_stack():
    checked = check_program(parse("var x := 0;\n" + _chain(100, "x := x + 1") + "f1();\n"))
    for run_path in RUNS:
        assert under_frames(500, lambda: run_path(checked, 2)).local("x") == [1, 1]


def test_a_body_is_compiled_for_what_it_reads_of_the_callers_scope():
    """Each fk calls fk+1 before and after declaring a name only it reads,
    so every caller's scope differs; each body is still compiled once, as
    is one reading arrays of different element types, and a body reading
    a name declared between two calls twice."""
    n = 16
    source = (f"function f{n}() {{ }};\n"
              + "".join(f"function f{k}() {{ f{k + 1}(); var a{k} := {k}; f{k + 1}(); a{k} := 0 }};\n"
                        for k in range(n - 1, 0, -1))
              + "var y := 0;\nfunction g() { y := y + 1 };\n"
              "function h() { g(); var y : Int :: allocated[multiple[]]; g() };\n"
              "var w : array[Int,4];\nfunction e() { w[0] := 1 };\n"
              "for i from 1 to 0 { f1(); h(); e() };\n"
              "for i from 1 to 0 { var w : array[real,4]; e() };\n")
    checked = check_program(parse(source))
    compiled = compiler.Compiler(checked.functions, {})
    compiled.program(checked.program)
    assert sorted(name for name, _ in compiled.bodies) == sorted(
        [f"f{k}" for k in range(1, n + 1)] + ["e", "g", "g", "h"])


def _loops(n, body, decls=False):
    """n nested non-empty loops around body, each declaring a local when decls."""
    head = "".join(f"for i{k} from 0 to 0 {{ " + (f"var v{k} := {k}; " if decls else "")
                   for k in range(n))
    return head + body + " }" * n


def _procs(n, body):
    return "proc 0 { " * n + body + " }" * n


# Programs whose run would nest `levels` scopes (loops, `proc` bodies and
# calls) at its deepest: about half at the top level, the rest in a function
# body the innermost calls, as the parser refuses a block nested more than
# MAX_DEPTH deep. The empty-range loop at the deepest level opens no scope.
NESTS = {
    "loops": lambda levels: (
        f"function g() {{ {_loops(levels - 65, 'x := x + 1')} }};\n"
        + _loops(64, "g()") + ";\n"),
    "proc": lambda levels: (
        f"function g() {{ {_procs(levels - 65, 'x := x + 1')} }};\n"
        + _procs(64, "g()") + ";\n"),
    "loops with declarations": lambda levels: (
        f"function g() {{ {_loops(levels - 65, 'x := x + v0 + v1', decls=True)} }};\n"
        + _loops(64, "g()", decls=True) + ";\n"),
    "an empty-range loop past the limit": lambda levels: (
        f"function g() {{ {_loops(levels - 66, 'for e from 1 to 0 { g() }')} }};\n"
        + _loops(64, "g()") + ";\n"),
    "procs, loops and a call": lambda levels: (
        f"function g() {{ {_procs(levels - 65 - 30, _loops(30, 'x := x + 1'))} }};\n"
        + _loops(32, _procs(32, "g()")) + ";\n"),
    # each call opens its scope and its loop's, around a sync
    "recursion with sync": lambda levels: (
        f"var n := {(levels - 1) // 2};\n"
        "function f() { for i from 1 to n { n := n - 1; sync; f() } };\n"
        + ("for t from 0 to 0 { f() };\n" if levels % 2 == 0 else "f();\n")),
}


@pytest.mark.parametrize("levels", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1])
@pytest.mark.parametrize("shape", list(NESTS))
def test_nests_at_the_limit_run_alike_on_both_run_paths(shape, levels):
    """A run nesting MAX_DEPTH scopes finishes, one more faults, and both
    run paths agree on the fault or on the final state, whatever the
    schedule and however deep in Python's stack the run is called."""
    checked = check_program(parse("var x := 0;\n" + NESTS[shape](levels)))
    fails = levels > MAX_DEPTH and not shape.startswith("an empty-range")
    for seed in (0, 3):
        for depth in (0, 7, 23, 40):
            outcomes = []
            for run_path in RUNS:
                try:
                    result = under_frames(depth, lambda: run_path(checked, 2, seed=seed))
                    outcomes.append(("state", result.local("x"), result.local("n")
                                     if "n" in result.names() else None))
                except RuntimeFault as exc:
                    outcomes.append(("fault", str(exc)))
            walked, compiled = outcomes[1], outcomes[0]
            assert compiled == walked, (seed, depth)
            assert (compiled[0] == "fault") == fails, compiled
            if fails:
                assert TOO_DEEP in compiled[1]


@pytest.mark.parametrize("source", [
    "var x := 0;\n" + _loops(MAX_DEPTH, "x := 1") + ";\n",
    "var x := " + "(" * MAX_DEPTH + "1" + ")" * MAX_DEPTH + ";\n",
    "var x := 1" + "+1" * MAX_DEPTH + ";\n",
    "var a : array[Int,4];\na[1] := 1;\n"
    "var x := " + "a[" * (MAX_DEPTH - 1) + "1" + "]" * (MAX_DEPTH - 1) + ";\n",
], ids=["loops", "parentheses", "sum", "indexes"])
def test_the_deepest_trees_run_alike_on_both_run_paths(source):
    checked = check_program(parse(source))
    results = [under_frames(40, lambda: run_path(checked, 2)).local("x") for run_path in RUNS]
    assert results[0] == results[1] != [0, 0]


def test_a_body_declaration_is_gone_before_the_next_iteration():
    """A loop opens one scope, but what its body declares vanishes at the
    end of every iteration, as in the walk's scope per iteration."""
    source = ("var z := 1;\nvar s := 0;\nfunction g() { s := s * 10 + z };\n"
              "for i from 0 to 2 { g(); var z := 5; g() };\n")
    checked = check_program(parse(source))
    for run_path in RUNS:
        assert run_path(checked, 2).local("s") == [151515, 151515]


def test_a_run_never_sets_the_recursion_limit(monkeypatch):
    calls = []
    monkeypatch.setattr(sys, "setrecursionlimit", lambda n: calls.append(n))
    for source in ("function f() { f() };\nf();\n",
                   "var x := 0;\n" + NESTS["loops"](MAX_DEPTH)):
        checked = check_program(parse(source))
        for run_path in RUNS:
            try:
                run_path(checked, 2)
            except RuntimeFault:
                pass
    assert calls == []


# --- communicating code ---


@pytest.mark.parametrize("source, fault", [
    ("var x := 0;\nfunction f() { sync };\nproc 0 { x := 1 };\nfor i from 0 to x { f() };\n",
     "rank 0: all processes blocked: rank 0 waits at sync (2:16); "
     "rank 1 finished the program at 2:16"),
    ("var x := 0;\nproc 1 { x := 2 };\n"
     "for i from 1 to x { var A : array[Int,4] :: allocated[multiple[]] };\n",
     "rank 1: all processes blocked: rank 1 waits at var A (3:25); "
     "rank 0 finished the program at 3:25"),
])
def test_a_rank_left_waiting_by_one_that_finished_faults_at_its_collective(source, fault):
    """Whether the last rank finishes before or after the other arrives at
    the barrier, the waiting rank faults at its collective on both paths."""
    checked = check_program(parse(source))
    for seed in range(8):
        for run_path in RUNS:
            with pytest.raises(RuntimeFault) as info:
                run_path(checked, 2, seed=seed)
            assert str(info.value) == fault, (seed, run_path)


def test_remote_line_element_read_is_a_onesided_get():
    source = """
var A : array[Int,4,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
var x;
var y;
proc 1 { A[1][0] := A[1][1] };
proc 0 { x := A[1][0][2] };
proc 0 { y := A[0][1][3] };
"""
    for run_path in RUNS:
        result = run_path(check_program(parse(source)), 2)
        (event,) = events(result.trace)
        assert (event.kind, event.src, event.dst, event.bytes, event.tag) == (
            "onesided-get", 1, 0, 8, "A")
        assert initiator(event) == 0
        assert result.local("x") == [0, 0]


def test_racy_put_and_get_show_both_outcomes():
    """A get is not a switch point, yet an unsynchronised put by rank 1 and
    a get by rank 2 of one single scalar still race: across seeds the get
    sees either value, and both run paths replay the same one per seed."""
    checked = check_program(parse("var s : Int :: allocated[single[on[0]]];\nvar x;\n"
                                  "proc 1 { s := 5 };\nproc 2 { x := s };\n"))
    seen = [[run_path(checked, 3, seed=seed).local("x")[2] for seed in range(32)]
            for run_path in RUNS]
    assert seen[0] == seen[1]
    assert set(seen[0]) == {0, 5}


def test_no_expression_closure_returns_a_generator(tmp_path, monkeypatch):
    """Only statements wait: every compiled expression returns its value."""
    compile_expr = compiler.Compiler.expr

    def checked_expr(self, node):
        fn = compile_expr(self, node)

        def value(ctx):
            result = fn(ctx)
            assert result.__class__ is not GeneratorType, node
            return result
        return value

    monkeypatch.setattr(compiler.Compiler, "expr", checked_expr)
    generate_image(16, 1, tmp_path / "image.dat")
    for name in ("fft2d.mesh", "onesided.mesh", "channel.mesh"):
        run(checked_corpus(name), 4, workdir=str(tmp_path))
    for seed in range(10):
        run(check_program(parse(communicating_program(seed, 3))), 3, workdir=str(tmp_path))


def test_compound_statements_return_their_own_generator(monkeypatch):
    """Loops, a `proc` body on its own rank and calls return their own
    generator for the caller to drain, even doing local work; a `proc` on
    another rank and every simple local statement return None."""
    exec_stmt, kinds = ProcessContext.exec_stmt, set()

    def checked_stmt(self, stmt, fn):
        result = exec_stmt(self, stmt, fn)
        kind = type(stmt).__name__
        # every `proc` rank here is a literal, every expression statement a call
        compound = stmt.rank.value == self.rank if kind == "ProcBlock" \
            else kind in ("For", "ExprStmt")
        assert result.__class__ is GeneratorType if compound else result is None, stmt
        kinds.add((kind, compound))
        return result

    monkeypatch.setattr(ProcessContext, "exec_stmt", checked_stmt)
    checked = check_program(parse("""var s : Int := 0;
var t : Int := 1;
function g(x : Int) { for k from 0 to 2 { x := x + k } };
function h() { g(t); proc 0 { s := s + t } };
for i from 0 to 2 { for j from 0 to i { var u := j; s := s + u; h() }; proc 1 { g(s) } };
proc 2 { for i from 1 to 2 { h() } };
"""))
    result = run(checked, 3)
    assert kinds == {("VarDecl", False), ("FuncDef", False), ("Assign", False), ("For", True),
                     ("ProcBlock", True), ("ProcBlock", False), ("ExprStmt", True)}
    assert result.local("s") == run_walked(checked, 3).local("s")


@pytest.mark.parametrize("source", [
    "var t := 0;\nfor i from 1 to 3000 { sync; t := t + 1 };\n",
    """var t := 0;
var s : Int :: allocated[single[on[2]]];
function inner() { sync; t := t + 1; proc 0 { s := t } };
function outer() { inner(); t := t + 10 };
for i from 1 to 5 { outer() };
""",
])
def test_waiting_compound_statements_match_the_ast_walk(source):
    """A loop or call whose statements wait replays the AST walk's
    schedule, without a generator chain that grows with each wait."""
    checked = check_program(parse(source))
    for seed in (0, 7919):
        seen = [run_path(checked, 3, seed=seed) for run_path in RUNS]
        assert seen[0].trace.render() == seen[1].trace.render()
        assert seen[0].local("t") == seen[1].local("t")


@pytest.mark.parametrize("name", ["fft2d.mesh", "fft2d_arraydist.mesh", "onesided.mesh",
                                  "channel.mesh", "channel_async.mesh"])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_corpus_traces_match_the_ast_walk(tmp_path, name, nprocs):
    generate_image(16, 1, tmp_path / "image.dat")
    checked = checked_corpus(name)
    for seed in (0, 7919):
        texts = []
        for run_path in RUNS:
            try:
                result = run_path(checked, nprocs, seed=seed, workdir=str(tmp_path))
                out = tmp_path / "image.out.dat"
                texts.append((result.trace.render(),
                              out.read_bytes() if out.exists() else None))
                if out.exists():
                    out.unlink()
            except RuntimeFault as fault:
                texts.append(str(fault))
        assert texts[0] == texts[1]


def test_top_level_element_writes_store_on_the_owner():
    source = """
var X : array[Int,6] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
var v := 1;
proc 0 { v := v + 10 };
for i from 0 to 5 { X[i] := v };
"""
    for run_path in RUNS:
        for seed in (0, 1, 2):
            result = run_path(check_program(parse(source)), 2, seed=seed)
            assert result.logical("X") == [11, 11, 11, 1, 1, 1]
            assert events(result.trace) == []


def _element_outcome(checked, run_path):
    """Trace, X, s per rank and the final store, or the fault."""
    try:
        result = run_path(checked, 3)
    except RuntimeFault as fault:
        return str(fault)
    return result.trace.render(), result.logical("X"), result.local("s")


@pytest.mark.parametrize("m", range(1, 18))
def test_one_dimensional_elements_match_the_ast_walk(m):
    """Every index of every 1D geometry, read and written, in range or not:
    the compiled element path against the walk, which reads through locate."""
    tails = ["", f"var y := X[{m}];", "var y := X[0 - 1];", f"X[{m}] := 1;", "X[0 - 1] := 1;",
             "var y := X[1.5];", "X[0.5] := 1;", 'var y := X["a"];',
             f"function h() {{ s := X[{m}] }};\nh();", f"function h() {{ X[{m}] := 1 }};\nh();"]
    for blocks in range(1, min(m, 5) + 1):
        for place in ("evendist[]", "on[1]"):
            head = (f"var X : array[Int,{m}] :: allocated[row[] :: horizontal[{blocks}] :: "
                    f"single[{place}]];\n"
                    "var s := 0;\n"
                    f"function g() {{ s := s + X[{m - 1}] }};\n"
                    f"for i from 0 to {m - 1} {{ X[i] := i * 3 + 1 }};\n"
                    "sync;\n"
                    f"proc 0 {{ for i from 0 to {m - 1} {{ X[i] := X[i] + 100 }} }};\n"
                    "sync;\n"
                    f"for i from 0 to {m - 1} {{ s := s + X[i] }};\n"
                    "g();\n")
            for tail in tails:
                checked = check_program(parse(head + tail + "\n"))
                seen = [_element_outcome(checked, run_path) for run_path in RUNS]
                assert seen[0] == seen[1], (blocks, place, tail)
                if not tail:
                    x = [i * 3 + 101 for i in range(m)]
                    assert seen[0][1:] == (x, [sum(x) + x[-1]] * 3)
                elif "0 - 1" in tail or f"[{m}]" in tail:
                    index = -1 if "0 - 1" in tail else m
                    assert re.fullmatch(rf"rank \d: index \({index},\) outside shape \({m},\) "
                                        r"at (10|11):\d+", seen[0]), seen[0]
                else:
                    assert seen[0].endswith("array index must be an integer at 10:" +
                                            ("1" if tail.startswith("X") else "11")), seen[0]


def _number(v):
    """v as meshlite source, which has no unary minus."""
    return str(v) if v >= 0 else f"0 - {-v}"


def _owner_loop_programs(nprocs, m, blocks, place, forms):
    """Programs that fill a 1D single-copy X, then store into it with
    `for i from lo to hi { X[i] := e }` written in each of `forms`, over
    empty and out-of-range bounds, and values that read X, remote or not,
    or divide by zero. `i` is declared, so its value after the loop shows."""
    dist = ""
    if place == "arraydist[d]":
        dist = f"var d : array[Int,{blocks}];\n" + "".join(
            f"d[{b}] := {(3 * b + 1) % nprocs};\n" for b in range(blocks))
    head = (f"var m := {m};\nvar i := 50;\n{dist}"
            f"var X : array[Int,m] :: allocated[row[] :: horizontal[{blocks}] :: "
            f"single[{place}]];\n"
            "for i from 0 to m - 1 { X[i] := i * 5 + 2 };\nsync;\n")
    loops = {
        "top": "for i from {lo} to {hi} {{ X[i] := {e} }};",
        "fresh": "for j from {lo} to {hi} {{ X[j] := {ej} }};",
        "proc": f"proc {nprocs - 1} {{{{ for i from {{lo}} to {{hi}} {{{{ X[i] := {{e}} }}}} }}}};",
        "function": "function g() {{ for i from {lo} to {hi} {{ X[i] := {e} }} }};\ng();",
    }
    for lo, hi in [(0, m - 1), (1, m - 2), (2, 1), (m - 1, m - 1), (-3, -5), (m + 1, m),
                   (-1, m - 1), (0, m), (m, m + 1), (m + 2, m + 3), (-2, 0)]:
        for e in ("X[m - 1 - i] + i", f"60 / (i - {m // 2})"):
            for form in forms:
                loop = loops[form].format(lo=_number(lo), hi=_number(hi), e=e,
                                          ej=e.replace("i", "j"))
                yield head + loop + "\n"


def _owner_loop_outcome(checked, nprocs, run_path, seed):
    try:
        result = run_path(checked, nprocs, seed=seed)
    except RuntimeFault as fault:
        return str(fault)
    return result.trace.render(), result.logical("X"), result.local("i")


@pytest.mark.parametrize("m", [1, 2, 5, 7])
@pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
def test_owner_computes_loops_match_the_ast_walk(nprocs, m):
    """A loop whose body is `X[i] := e` runs only the owner's iterations
    outside `proc`: the same state, trace, i after the loop, and fault
    (message, rank, line:col) as the walk, which runs every iteration.
    In `proc` the general loop runs, and it must agree too, as must a loop
    in a function body over its caller's X. A fault-free run is the same under any
    schedule, so only a fault is run under a second one."""
    for blocks in range(1, min(m, 5) + 1):
        for place in ("evendist[]", f"on[{nprocs - 1}]", "arraydist[d]"):
            forms = ("top",)
            if blocks == 2 and place == "evendist[]":
                forms += ("fresh", "proc", "function")
            for source in _owner_loop_programs(nprocs, m, blocks, place, forms):
                checked = check_program(parse(source))
                for seed in (0, 3):
                    seen = [_owner_loop_outcome(checked, nprocs, run_path, seed)
                            for run_path in RUNS]
                    assert seen[0] == seen[1], source
                    if not isinstance(seen[0], str) or nprocs == 1:
                        break


def test_owner_computes_loops_run_only_the_owned_iterations(monkeypatch):
    """Outside `proc` each rank runs the stores it owns, in a function
    body too, where X is its caller's; in `proc` every iteration runs."""
    exec_stmt, stores = ProcessContext.exec_stmt, {}

    def counted(self, stmt, fn):
        if type(stmt).__name__ == "Assign" and stmt.line == 3:
            stores[self.rank] = stores.get(self.rank, 0) + 1
        return exec_stmt(self, stmt, fn)

    monkeypatch.setattr(ProcessContext, "exec_stmt", counted)
    head = ("var X : array[Int,10] :: allocated[row[] :: horizontal[5] :: single[evendist[]]];\n"
            "var i := 0;\n")
    for loop, want, last in [
        ("for i from 0 to 9 { X[i] := i };", {0: 4, 1: 4, 2: 2}, [9, 9, 9]),
        ("for i from 3 to 6 { X[i] := i };", {0: 1, 1: 1, 2: 2}, [6, 6, 6]),
        ("proc 1 { for i from 0 to 9 { X[i] := i } };", {1: 10}, [0, 9, 0]),
        ("function g() { for i from 0 to 9 { X[i] := i } };\ng();", {0: 4, 1: 4, 2: 2},
         [9, 9, 9]),
    ]:
        stores.clear()
        result = run(check_program(parse(head + loop + "\n")), 3)
        assert stores == want, loop
        assert result.logical("X")[3:7] == [3, 4, 5, 6]
        assert result.local("i") == last


ROW = "allocated[row[] :: horizontal[2] :: single[evendist[]]]"


def communicating_program(seed, nprocs):
    """Random one-sided reads and writes, channels, collectives and calls.

    Function bodies take single scalars, some linked by a blocking or an
    `async` channel, 1D and 2D arrays and locals from their caller, as free
    names or as parameters, and read, assign and redistribute them. A call
    that communicates through a channel or a collective runs at the top
    level; the others also run inside `proc`.
    """
    rng = random.Random(seed * 10 + nprocs)
    last = nprocs - 1
    lines = [
        f"var X : array[Int,6] :: {ROW};",
        "var Y : array[Int,6] :: allocated[row[] :: horizontal[3] :: single[evendist[]]];",
        f"var L : array[Int,4,3] :: {ROW};",
        "var M : array[Int,4,3] :: allocated[col[] :: horizontal[2] :: single[evendist[]]];",
        "var F : array[Int,4] :: allocated[single[on[0]]];",
        "var R : array[Int,3];",
        "var z : Int :: allocated[multiple[]];",
        f"var s : Int :: allocated[single[on[{last}]]];",
        "var q : Int :: allocated[single[on[0]]];",
        f"var c : Int :: allocated[single[on[{last}]]] :: channel[0,{last}];",
        f"var a : Int :: allocated[single[on[{last}]]] :: channel[0,{last}] :: async;",
        "var v := 1;",
        "var w : Int := 2;",
        "var i;",
    ]
    reads = ["X[{k}]", "s", "L[{b}][{k3}][{k2}]", "L[{b}][0][i - i]", "X[i]", "v", "v", "q", "c",
             "z", "R[{k2}]"]

    def read():
        return rng.choice(reads).format(k=rng.randrange(6), b=rng.randrange(2),
                                        k3=rng.randrange(2), k2=rng.randrange(3))

    calls = {  # call: (definition, may run inside proc)
        "fs()": (f"function fs() {{ s := {read()} + 1 }};", True),
        "fq()": (f"function fq() {{ proc {rng.randrange(nprocs)} {{ q := v + {read()} }} }};", True),
        "fe()": (f"function fe() {{ X[{rng.randrange(6)}] := {read()} }};", True),
        "fr()": (f"function fr() {{ for i from 0 to 2 {{ X[i] := X[i] + {read()} }} }};", True),
        "fl()": ("function fl() { L[1][0] := L[0][1] };", True),
        "fz()": (f"function fz() {{ z := z + {read()}; R[{rng.randrange(3)}] := z + {read()} }};",
                 True),
        "fw(w)": (f"function fw(z : Int) {{ z := z + {read()}; v := z }};", True),
        "fy()": ("function fy() { s := z; q := v; v := c };", True),
        "fp(X)": (f"function fp(A : array[Int,6] :: {ROW}) "
                  f"{{ A[{rng.randrange(6)}] := A[{rng.randrange(6)}] + v }};", True),
        "fc()": ("function fc() { c := q };", False),
        "fa()": ("function fa() { a := q };", False),
        "fx(Y)": ("function fx(B : array[Int,6] :: allocated[row[] :: horizontal[3] :: "
                  "single[evendist[]]]) { X := B; B := X };", False),
        "fm()": ("function fm() { M := L; L := M };", False),
    }
    lines += [definition for definition, _ in calls.values()]
    lines.append('function fio() { writefile(F, "io.dat"); F[1] := F[0] + v; readfile(F, "io.dat") };')
    for _ in range(rng.randint(6, 12)):
        roll = rng.random()
        r = rng.randrange(nprocs)
        if roll < 0.1:
            lines.append(f"for i from 0 to 5 {{ X[i] := X[i] + {read()} }};")
        elif roll < 0.2:
            lines.append(f"proc {r} {{ X[{rng.randrange(6)}] := {read()} + 1 }};")
        elif roll < 0.3:
            lines.append(f"proc {r} {{ s := v + {read()} }};")
        elif roll < 0.35:
            lines.append(f"proc {r} {{ L[{rng.randrange(2)}][1] := L[0][0] }};")
        elif roll < 0.4:
            lines.append(rng.choice(["sync;", "sync a;"]))
        elif roll < 0.45:
            lines.append(f"proc {r} {{ v := v + 10 }};")
        elif roll < 0.5:
            lines.append(f"for i from 0 to 2 {{ v := v + {read()} * 2 }};")
        elif roll < 0.55:
            lines.append(f"v := {read()} - v;")
        elif roll < 0.6:
            lines.append(f"F[{rng.randrange(4)}] := {read()};")
        elif roll < 0.65:
            lines.append("proc 0 { fio() };")
        else:
            call = rng.choice(list(calls))
            if calls[call][1] and rng.random() < 0.5:
                lines.append(f"proc {r} {{ {call} }};")
            else:
                lines.append(f"{call};")
    return "\n".join(lines) + "\n"


def communicating_outcome(checked, nprocs, run_path, sched_seed, workdir):
    """Trace, locals, arrays and scalars, and the file written, or the fault."""
    out = workdir / "io.dat"
    try:
        result = run_path(checked, nprocs, seed=sched_seed, workdir=str(workdir))
        return (result.trace.render(), result.local("v"), result.local("w"),
                [result.logical(n) for n in "XYLMFsqca"],
                [result.array(n).replicas for n in "Rz"],
                out.read_bytes() if out.exists() else None)
    except RuntimeFault as fault:
        return str(fault)
    finally:
        if out.exists():
            out.unlink()


@pytest.mark.parametrize("seed", range(60))
def test_communicating_programs_match_the_ast_walk(tmp_path, seed):
    """Same yields in the same places: equal traces and state under one schedule."""
    for nprocs in (1, 2, 3, 4):
        source = communicating_program(seed, nprocs)
        checked = check_program(parse(source))
        for sched_seed in (0, 7919):
            seen = [communicating_outcome(checked, nprocs, run_path, sched_seed, tmp_path)
                    for run_path in RUNS]
            assert seen[0] == seen[1], source
            assert not isinstance(seen[0], str), seen[0]


@pytest.mark.parametrize("seed", range(60))
def test_communicating_trace_matches_per_event_oracle(tmp_path, monkeypatch, seed):
    """One-sided and channel events and the run records of `X := B` and
    `M := L`, mixed on the same ranks, against one TraceEvent per event."""
    monkeypatch.setattr(runtime, "TraceLog", TeeTraceLog)
    for nprocs in (1, 2, 3, 4):
        result = run(check_program(parse(communicating_program(seed, nprocs))), nprocs,
                     workdir=str(tmp_path))
        assert_trace_matches_reference(result.trace, result.trace.reference,
                                       f"seed={seed} P={nprocs}")


def test_communicating_programs_cover_every_form(tmp_path):
    """The generated programs reach every kind of event from function bodies."""
    kinds, statements, mixed = set(), "", 0
    for seed in range(60):
        source = communicating_program(seed, 3)
        result = run(check_program(parse(source)), 3, workdir=str(tmp_path))
        kinds |= {line.split("\t")[0] for line in result.trace.render().splitlines()}
        mixed += sum(len({e.repeat > 1 for e in log}) == 2 for log in result.trace._by_rank)
        statements += source.split("function fio()")[1]
    assert kinds == {"onesided-get", "onesided-put", "channel-send", "channel-recv",
                     "block-transfer"}
    assert mixed, "no rank's log holds both single and run records"
    for call in ("fs()", "fq()", "fe()", "fr()", "fl()", "fz()", "fw(w)", "fy()", "fp(X)",
                 "fc()", "fa()", "fx(Y)", "fm()", "proc 0 { fio() }", "{ fs() }", "sync a;"):
        assert call in statements, call


def test_an_async_transfer_pending_when_the_run_ends_is_delivered():
    """The end of a program completes every pending transfer: the value
    lands and the receive is traced, the same under every seed."""
    checked = check_program(parse(
        "var a : Int :: allocated[single[on[0]]] :: channel[1,0] :: async;\n"
        "var b : Int :: allocated[single[on[1]]];\nproc 1 { b := 5 };\na := b;\n"))
    traces = set()
    for seed in range(8):
        for run_path in RUNS:
            result = run_path(checked, 2, seed=seed)
            assert result.logical("a") == 5, (seed, run_path)
            assert (result.trace.count("channel-send"), result.trace.count("channel-recv")) \
                == (1, 1), (seed, run_path)
            traces.add(result.trace.render())
    assert len(traces) == 1


LOOP_OVER_ARRAY_NAME = ("var i : array[Int,4] :: allocated[multiple[]];\nvar s := 0;\n"
                        "for i from 0 to 3 { ")


def test_a_loop_variable_shadowing_a_distributed_name_is_a_fresh_local():
    """The checker scopes the loop variable as the run binds it: a fresh
    local in place of the outer array, written and read as a local."""
    checked = check_program(parse(LOOP_OVER_ARRAY_NAME + "s := s + i; i := 5 };\n"))
    for run_path in RUNS:
        assert run_path(checked, 2).local("s") == [6, 6], run_path


def test_storing_a_loop_variable_into_an_array_is_refused_at_check_time():
    source = LOOP_OVER_ARRAY_NAME + ("var A : array[Int,4] :: allocated[single[on[0]]]; "
                                     "A := i };\n")
    with pytest.raises(CheckError) as info:
        check_program(parse(source), source_name="t.mesh")
    assert str(info.value) == \
        "t.mesh:3:71: ArrayAssignment: 'A' is an array; assign another array to it"
