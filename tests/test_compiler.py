"""Compiled closures against the AST walk and against Python itself.

`run` runs the program as compiled closures; `run_walked` runs it
through the generator AST walk of `ast_walk.py`, the reference. Random
local-only programs must give both the same final locals, replicas and
faults (message, rank, line and column) as a direct Python evaluation of
the same statements.
"""

import math
import random
import re
import sys
from types import GeneratorType, SimpleNamespace

import pytest

import ast_walk
from conftest import (
    TeeTraceLog,
    assert_trace_matches_reference,
    buffers_of,
    checked_corpus,
    events,
    initiator,
    under_frames,
)
from meshlite import ast, check_program, compiler, interp, parse, run, runtime
from meshlite.errors import CheckError, RuntimeFault
from meshlite.fixtures import generate_image
from meshlite.ast import MAX_DEPTH
from meshlite.interp import ProcessContext
from meshlite.sched import Scheduler
from meshlite.values import Local

N = 4  # replicated array length
TOO_DEEP = f"loops, proc bodies and calls nest more than {MAX_DEPTH} deep"
OPS = ("+", "-", "*", "/") * 3 + ("==", "!=", "<", "<=", ">", ">=")


def run_walked(checked, nprocs, **kwargs):
    """`run` with the AST walk running every statement."""
    with pytest.MonkeyPatch.context() as patch:
        ast_walk.install(patch)
        return run(checked, nprocs, **kwargs)


RUNS = (run, run_walked)


@pytest.fixture(params=[0, math.inf], ids=["generated", "closures"])
def hot(request, monkeypatch):
    """Hot loops run as generated Python from their first arrival, or never."""
    monkeypatch.setattr(compiler, "HOT_STATEMENTS", request.param)
    return request.param


def stepping(processes, steps):
    """The process generators, each step counted into steps[0]."""
    def each(process):
        for item in process:
            steps[0] += 1
            yield item
    return [each(p) for p in processes]


def stepped(run_path, *args, **kwargs):
    """(run_path's result or fault, the scheduler steps it took)."""
    steps, real = [0], Scheduler.run
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Scheduler, "run", lambda self, ps: real(self, stepping(ps, steps)))
        try:
            return run_path(*args, **kwargs), steps[0]
        except RuntimeFault as fault:
            return fault, steps[0]


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
            # x and y are the parameters; the body also reads top-level names
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
    ("for k from 0 to 1.5 { };", "loop bounds must be integers at 4:1"),
    ("proc 7 { };", "proc rank 7 outside [0, 2) at 4:1"),
    ("y := A.localblockid[3];", "local block index 3 outside [0, 1) at 4:7"),
    # in a function body, over top-level names
    ("function g() { sync }; proc 0 { g() };",
     "sync is collective and cannot run inside proc at 4:16"),
    ("function g() { A := a }; proc 1 { g() };",
     "array assignment is collective and cannot run inside proc at 4:16"),
    ("function g() { var B : array[Int,4] :: allocated[multiple[]] }; proc 1 { g() };",
     "allocation is collective and cannot run inside proc at 4:20"),
    ("function g() { a[7] := 1 }; g();", "index 7 outside shape (4,) at 4:16"),
    ("function g(z : array[Int,4]) { z[9] := z[1] }; g(a);", "index 9 outside shape (4,) at 4:32"),
    ("function g() { y := A.localblockid[3] }; g();", "local block index 3 outside [0, 1) at 4:22"),
    ("function g() { for k from 0 to 1.5 { } }; g();", "loop bounds must be integers at 4:16"),
    # a fault no rule locates names the innermost statement running
    ("function g() { y := A[5] }; proc 1 { g() };", "index (5,) outside shape (4,) at 4:16"),
    ("for k from 0 to 1 { y := 1; y := A[5] };", "index (5,) outside shape (4,) at 4:29"),
    ("proc 0 { y := 1; y := A[5] };", "index (5,) outside shape (4,) at 4:18"),
    ("function f() { f() }; f();", f"{TOO_DEEP} at 4:16"),
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


FAULTS_ONLY_THE_RUN_FINDS = (
    "var x := 0;\n"
    "var s : array[complex,4] :: allocated[multiple[]];\n"
    "var A : array[complex,4,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
    "var I : array[Int,4,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
    "var B : array[Int,4] :: allocated[single[on[1]]];\n")


@pytest.mark.parametrize("body, fault", [
    # builtins given values the checker cannot see are wrong
    ("proc 0 { FFT(A[1][0], s) };", "rank 0: FFT must run on the process owning the block at 6:10"),
    ("writefile(B, x);", "rank 1: file path must be a string at 6:1"),
    ('proc 0 { writefile(B, "out.dat") };', "rank 0: rank 0 does not own B (owner 1) at 6:10"),
    ("x := I[9].low;", "rank 1: I has no block 9 (blocks: 2) at 6:1"),
    # the one call with a value, as a statement: it runs and does nothing
    ("processes();", None),
])
def test_faults_only_the_run_finds_match_the_ast_walk(tmp_path, body, fault):
    """What only values show: the same fault (message, rank, line:col) on
    both run paths, or none. The rank is the first one the seed-0 schedule
    brings to the fault. Each misuse a declared type shows is a diagnostic
    (test_checker.py)."""
    checked = check_program(parse(FAULTS_ONLY_THE_RUN_FINDS + body + "\n"))
    for run_path in RUNS:
        try:
            run_path(checked, 2, workdir=str(tmp_path))
            seen = None
        except RuntimeFault as exc:
            seen = str(exc)
        assert seen == fault, run_path
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("body, fault", [
    ("function f() { x := 1 };\nfor i from 0 to 0 { var x : Int :: const := 2; f() };", None),
    ("function f() { B[0] := 1 };\nfor i from 0 to 0 { var B := 2; f() };", None),
    ("function f() { x := 1 };\nfor i from 0 to 0 { var x : array[Int,4]; f() };", None),
    ("var C : array[Int,4] :: allocated[single[on[0]]];\n"
     "function f() { B := C };\nfor i from 0 to 0 { var C := 2; f() };", None),
    ("function f() { A[0][1] := A[1][0] };\nfor i from 0 to 0 { var A := 2; f() };", None),
    ("function f() { var V : array[Int,4] :: allocated[single[on[1]]] :: share[B]; V[2] := 3 };\n"
     "for i from 0 to 0 { var B := 2; f() };", None),
    ("function g(p : array[Int,4] :: allocated[single[on[1]]]) { p[1] := 5 };\n"
     "function f() { g(B) };\nfor i from 0 to 0 { var B := 2; f() };", None),
    # a loop counting in the top-level local `x`, which the caller hides with an array
    ("function f() { for x from 1 to 3 { } };\n"
     "for i from 0 to 0 { var x : array[Int,4]; f() };", None),
    # an arraydist target, which the caller hides with a local
    ("var d : array[Int,2] :: allocated[multiple[]];\nd[1] := 1;\nvar y := 0;\n"
     "function f() { var V : array[Int,4] :: allocated[row[] :: horizontal[2] :: "
     "single[arraydist[d]]]; V[2] := 3; y := V[2] };\n"
     "for i from 0 to 0 { var d := 2; f() };", None),
    # what the top-level local `x` (0) cannot be: only the run sees an extent of 0
    ("function f() { var D : array[Int,x] :: allocated[multiple[]] };\n"
     "for i from 0 to 0 { var x : array[Int,4]; f() };",
     "rank 1: array extents must be positive at 6:20"),
])
def test_a_body_reads_the_names_where_it_is_defined(body, fault):
    """A caller that declares, in another kind, a name the body reads
    changes nothing: the body reads and stores the top-level names of the
    definition (the local `x`, 0, and the arrays `A`, `B` and `C`), a
    `share` or `arraydist` target, a call's argument and a reused loop
    variable among them, and both run paths give the same locals, arrays
    and trace, or the same fault."""
    checked = check_program(parse(FAULTS_ONLY_THE_RUN_FINDS + body + "\n"))
    seen = []
    for run_path in RUNS:
        try:
            result = run_path(checked, 2)
        except RuntimeFault as exc:
            seen.append(str(exc))
            continue
        seen.append(({n: result.local(n) for n in result.names() if n not in result._arrays},
                     {n: result.logical(n) for n in result._arrays}, result.trace.render()))
    assert seen[0] == seen[1]
    assert (seen[0] if isinstance(seen[0], str) else None) == fault


@pytest.mark.parametrize("source, where", [
    ("for i from 0 to 0 { var z := 1; function g() { z := 2 } };\ng();", "1:33"),
    ("for i from 0 to 0 { var z : array[Int,4]; function g() { z[0] := 2 } };\ng();", "1:43"),
    ("for i from 0 to 0 { var z : array[Int,4,8] :: allocated[row[] :: horizontal[2] :: "
     "single[evendist[]]]; function g() { z[0][1] := z[1][0] } };\ng();", "1:104"),
    ("function h(p : Int) { };\nfor i from 0 to 0 { var z : Int := 1; function g() { h(z) } };\n"
     "g();", "2:39"),
    ("var y;\nfor k from 0 to 0 { var z := 1; function g() { y := z }; }; g();", "2:33"),
])
def test_a_function_defined_below_top_level_is_refused(source, where):
    """A body could otherwise read names gone with the loop that declared them."""
    with pytest.raises(CheckError) as info:
        check_program(parse(source))
    assert [str(d) for d in info.value.diagnostics] == [
        f"<source>:{where}: NestedFunction: function 'g' must be defined at top level"]


def test_a_callers_declarations_move_no_data():
    """The body reads the top-level local `x`, not the caller's single-copy
    `x` on rank 1, so no rank gets it; the store `x := 5` in a caller
    hiding `x` behind a const stores the top-level `x`."""
    reads = ("var x := 1; var out := 0; function f() { out := x };\n"
             "for i from 0 to 0 { var x : Int :: allocated[single[on[1]]]; x := 7; f() };\n")
    stores = ("var x := 1; var out := 0; function f() { x := 5 };\n"
              "for i from 0 to 0 { var x : Int :: const; f() };\n")
    for run_path in RUNS:
        result = run_path(check_program(parse(reads)), 2)
        assert (result.local("x"), result.local("out")) == ([1, 1], [1, 1])
        assert "onesided-get" not in result.trace.render()
        result = run_path(check_program(parse(stores)), 2)
        assert (result.local("x"), result.local("out")) == ([5, 5], [0, 0])


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
    (ROWS + "A[0][1] := A[1][2.5];", "array index must be an integer at 2:16"),
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
    assert result.local("w") == [6, 6]  # the parameter was w's cell


def test_function_bodies_see_the_names_where_they_are_defined():
    result = both("""
var k := 1;
var out := 0;
function g() { out := out + k };
g();
for i from 0 to 1 { var k := 10; g() };
proc 0 { var k := 100; g() };
""")
    assert result.local("out") == [4]


def test_a_parameter_hides_no_name_from_the_functions_it_calls():
    """f's parameter `k` names the caller's `w`; g, called from f as it
    recurses, still reads the top-level `k`."""
    result = both("""
var n := 2;
var k := 100;
var out := 0;
var w : Int := 1;
function g() { out := out + k };
function f(k : Int) { k := k + 1; g(); for i from 1 to n { n := n - 1; f(k) } };
f(w);
""", nprocs=2)
    assert result.local("w") == [5, 5]  # four calls
    assert result.local("out") == [400, 400]


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


def compiles(monkeypatch, source):
    """How many times compiling source compiles each function's body, told
    apart by identity; so at most one block of source may be empty, as
    every empty block is the one object `()`."""
    checked = check_program(parse(source))
    names = {id(f.body): name for name, f in checked.functions.items()}
    counts = dict.fromkeys(checked.functions, 0)
    block = compiler.Compiler.block

    def counted(self, stmts):
        if id(stmts) in names:
            counts[names[id(stmts)]] += 1
        return block(self, stmts)
    monkeypatch.setattr(compiler.Compiler, "block", counted)
    compiler.compile_program(checked)
    return counts


def test_each_body_is_compiled_once(monkeypatch):
    """Whatever its callers declare between and around their calls: each
    fk calls fk+1 before and after declaring a name only it reads, h
    declares one its callee reads, and e is called where its array has
    another element type."""
    n = 16
    source = (f"function f{n}() {{ }};\n"
              + "".join(f"function f{k}() {{ f{k + 1}(); var a{k} := {k}; f{k + 1}(); a{k} := 0 }};\n"
                        for k in range(n - 1, 0, -1))
              + "var y := 0;\nfunction g() { y := y + 1 };\n"
              "function h() { g(); var y : Int :: allocated[multiple[]]; g() };\n"
              "var w : array[Int,4];\nfunction e() { w[0] := 1 };\n"
              "for i from 1 to 0 { f1(); h(); e() };\n"
              "for i from 1 to 0 { var w : array[real,4]; e() };\n")
    counts = compiles(monkeypatch, source)
    assert sorted(counts) == sorted([f"f{k}" for k in range(1, n + 1)] + ["e", "g", "h"])
    assert set(counts.values()) == {1}


def test_callers_declaring_what_their_callees_read_compile_each_body_once(monkeypatch):
    """Each fk declares, between two calls of fk+1, a local hiding the
    top-level array ak that f14 reads: under a per-caller compile its 2^13
    combinations of kinds took seconds."""
    n = 14
    source = ("var x := 0;\n"
              + "".join(f"var a{k} : Int :: allocated[multiple[]];\n" for k in range(1, n))
              + f"function f{n}() {{ x := {' + '.join(f'a{k}' for k in range(1, n))} }};\n"
              + "".join(f"function f{k}() {{ f{k + 1}(); var a{k} := 0; f{k + 1}() }};\n"
                        for k in range(n - 1, 0, -1))
              + "for i from 1 to 0 { f1() };\n")
    assert compiles(monkeypatch, source) == {f"f{k}": 1 for k in range(1, n + 1)}


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
    end of every iteration, as in the walk's scope per iteration. A function
    body called on either side of the declaration reads the top-level `z`."""
    called = ("var z := 1;\nvar s := 0;\nfunction g() { s := s * 10 + z };\n"
              "for i from 0 to 2 { g(); var z := 5; g() };\n")
    inline = ("var z := 1;\nvar s := 0;\n"
              "for i from 0 to 2 { s := s * 10 + z; var z := 5; s := s * 10 + z };\n")
    for source, s in ((called, 111111), (inline, 151515)):
        checked = check_program(parse(source))
        for run_path in RUNS:
            assert run_path(checked, 2).local("s") == [s, s]


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


LINE_COPY = """var A : array[complex,4,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
var B : array[real,4,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
proc {rank} {{ A[0][0] := B[1][1] }};
"""


@pytest.mark.parametrize("nprocs", [2, 3])
@pytest.mark.parametrize("rank, row", [(0, "onesided-get\t1\t0\t32\t0\tB"),
                                       (1, "onesided-put\t1\t0\t64\t0\tA")],
                         ids=["get", "put"])
def test_a_line_copy_between_arrays_traces_each_side_as_its_own_array(nprocs, rank, row):
    """A line copied from a real array into a complex one: the get takes
    its bytes and tag from the array read, the put from the array written."""
    checked = check_program(parse(LINE_COPY.format(rank=rank)))
    for seed in (0, 7919):
        for run_path in RUNS:
            assert run_path(checked, nprocs, seed=seed).trace.render().splitlines() == [row]


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


PARAMETER_TRANSFERS = """var X : array[Int,4] :: allocated[single[on[0]]];
var Y : array[Int,4] :: allocated[single[on[0]]];
var k : Int :: allocated[single[on[1]]] :: channel[0,1];
var q : Int :: allocated[single[on[0]]];
function poke(A : array[Int,4] :: allocated[single[on[0]]]) { proc 1 { A[1] := A[0] + 5 } };
function pass(c : Int :: allocated[single[on[1]]] :: channel[0,1]) { c := q };
proc 0 { X[0] := 10; Y[0] := 20; q := 7 };
sync;
poke(X);
poke(Y);
pass(k);
sync;
"""


@pytest.mark.parametrize("nprocs", [2, 3])
def test_transfers_through_a_parameter_take_the_arguments_tag_and_link(nprocs):
    """A get and a put through an array parameter are tagged with each
    argument's own array, and a store into a channel parameter goes over
    its argument's link, as on the AST walk."""
    checked = check_program(parse(PARAMETER_TRANSFERS))
    for seed in (0, 7919):
        seen = [run_path(checked, nprocs, seed=seed) for run_path in RUNS]
        rows = [line.split("\t") for line in seen[0].trace.render().splitlines()]
        assert sorted((kind, src, dst, tag) for kind, src, dst, _, _, tag in rows) == [
            ("channel-recv", "0", "1", "k"), ("channel-send", "0", "1", "k"),
            ("onesided-get", "0", "1", "X"), ("onesided-get", "0", "1", "Y"),
            ("onesided-put", "1", "0", "X"), ("onesided-put", "1", "0", "Y")]
        assert seen[0].trace.render() == seen[1].trace.render()
        for result in seen:
            assert [result.logical(n) for n in "XYk"] == [[10, 15, 0, 0], [20, 25, 0, 0], 7]


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


def _x_loop_programs(nprocs, m, blocks, place, decls, loops, values, first=False):
    """Programs that declare m, `i := 50` and decls, fill a 1D single-copy
    X of m elements in `blocks` blocks placed by `place`, then run each of
    `loops` over empty, negative, past-the-end and block-crossing bounds,
    with e each of `values`. A loop is a template over lo, hi, e and ej
    (e with j for i). `i` is declared, so its value after the loop shows.
    With `first`, X is declared before all else, so its slot is 0."""
    dist = ""
    if place == "arraydist[d]":
        dist = f"var d : array[Int,{blocks}];\n" + "".join(
            f"d[{b}] := {(3 * b + 1) % nprocs};\n" for b in range(blocks))
    x = (f"var X : array[Int,{m if first else 'm'}] :: allocated[row[] :: horizontal[{blocks}] :: "
         f"single[{place}]];\n")
    head = ((x if first else "") + f"var m := {m};\nvar i := 50;\n{decls}{dist}"
            + ("" if first else x) + "for i from 0 to m - 1 { X[i] := i * 5 + 2 };\nsync;\n")
    for lo, hi in [(0, m - 1), (1, m - 2), (2, 1), (m - 1, m - 1), (-3, -5), (m + 1, m),
                   (-1, m - 1), (0, m), (m, m + 1), (m + 2, m + 3), (-2, 0)]:
        for e in values:
            for loop in loops:
                loop = loop.format(lo=_number(lo), hi=_number(hi), e=e, ej=e.replace("i", "j"))
                yield head + loop + "\n"


def _owner_loop_programs(nprocs, m, blocks, place, forms, first=False):
    """Programs that store into X with `for i from lo to hi { X[i] := e }`
    written in each of `forms`, values e that read X, remote or not, or
    divide by zero (`_x_loop_programs`)."""
    loops = {
        "top": "for i from {lo} to {hi} {{ X[i] := {e} }};",
        "fresh": "for j from {lo} to {hi} {{ X[j] := {ej} }};",
        "proc": f"proc {nprocs - 1} {{{{ for i from {{lo}} to {{hi}} {{{{ X[i] := {{e}} }}}} }}}};",
        "function": "function g() {{ for i from {lo} to {hi} {{ X[i] := {e} }} }};\ng();",
    }
    return _x_loop_programs(nprocs, m, blocks, place, "", [loops[f] for f in forms],
                            ("X[m - 1 - i] + i", f"60 / (i - {m // 2})"), first)


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
    in a function body over the top-level X, and one over an X in slot 0.
    A fault-free run is the same under any schedule, so only a fault is
    run under a second one."""
    for blocks in range(1, min(m, 5) + 1):
        for place in ("evendist[]", f"on[{nprocs - 1}]", "arraydist[d]"):
            forms = ("top",)
            if blocks == 2 and place == "evendist[]":
                forms += ("fresh", "proc", "function")
            sources = list(_owner_loop_programs(nprocs, m, blocks, place, forms))
            if blocks == 2 and place == "evendist[]":
                sources += _owner_loop_programs(nprocs, m, blocks, place, ("top",), first=True)
            for source in sources:
                checked = check_program(parse(source))
                for seed in (0, 3):
                    seen = [_owner_loop_outcome(checked, nprocs, run_path, seed)
                            for run_path in RUNS]
                    assert seen[0] == seen[1], source
                    if not isinstance(seen[0], str) or nprocs == 1:
                        break


def test_owner_computes_loops_run_only_the_owned_iterations(monkeypatch):
    """Outside `proc` each rank runs the stores it owns, in a function
    body over the top-level X too; in `proc` every iteration runs."""
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


def _gather_loop_programs(nprocs, m, blocks, place, forms, first=False):
    """Programs whose loop, written in each of `forms`, reads X[i] (or
    X[j] for a fresh j) and stores only locals and a replica, with a term
    that divides by zero partway through, a nested loop that runs zero
    times for i <= 0 and i times after, and nested loops that would be
    local-only on their own, one of 4 trips and one of 8i + 1, whose body
    holds the term (`_x_loop_programs`)."""
    loops = {
        "top": "for i from {lo} to {hi} {{ s := s + X[i] * {e}; t := t + i }};",
        "nested": "for i from {lo} to {hi} {{ t := t + i; "
                  "for j from 0 to i - 1 {{ s := s + X[i] * {e} + j }} }};",
        "local-only": "for i from {lo} to {hi} {{ s := s + X[i] * {e}; "
                      "for j from 0 to 3 {{ t := t + j }} }};",
        "long-inner": "for i from {lo} to {hi} {{ s := s + X[i]; "
                      "for j from 0 to i * 8 {{ t := t + j * {e} }} }};",
        "replica": "for i from {lo} to {hi} {{ R[1] := X[i] * {e}; R[0] := R[0] + R[1] + X[i] }};",
        "fresh": "for j from {lo} to {hi} {{ s := s * 2 + X[j] * {ej} }};",
        "proc": f"proc {nprocs - 1} {{{{ for i from {{lo}} to {{hi}} {{{{ s := s + X[i] * {{e}} }}}} }}}};",
        "function": "function g() {{ for i from {lo} to {hi} {{ s := s + X[i] * {e} }} }};\ng();",
    }
    return _x_loop_programs(nprocs, m, blocks, place,
                            "var s := 0;\nvar t := 0;\nvar R : array[Int,2];\n",
                            [loops[f] for f in forms], ("(i + 1)", f"(60 / (i - {m // 2}))"),
                            first)


def _gather_loop_outcome(checked, nprocs, context, seed):
    """What interp.run gives, driven by hand so that a fault leaves the
    trace up to it: the fault and that trace, or the trace, X, the replica
    R and i, s and t on each rank; and the scheduler steps either took."""
    state = interp.RunState(nprocs, seed=seed)
    state.program = compiler.compile_program(checked)
    contexts = [context(r, state, checked) for r in range(nprocs)]
    steps = [0]
    try:
        state.scheduler.run(stepping([c.run_program() for c in contexts], steps))
    except RuntimeFault as fault:
        return "fault", str(fault), state.trace.render(), steps[0]
    result = interp.RunResult(state, contexts)
    return (result.trace.render(), result.logical("X"), buffers_of(result.array("R")),
            [result.local(name) for name in "ist"], steps[0])


@pytest.mark.parametrize("m", [1, 2, 5, 7])
@pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
def test_gathered_loops_match_the_ast_walk(nprocs, m, hot):
    """A loop that reads X[i] gives the same trace, state, i after the
    loop, fault (message, rank, line:col) and scheduler steps as the walk,
    whether it runs as its closures, which read element by element, or as
    the Python generated for it (`hot`), which reads one block's buffer at
    a time and records each remote run's gets at once. A fault partway
    through a run leaves the same trace too, a nested loop runs with the
    loop around it, or on its own for a local-only one's arrivals of 32
    statements or more (from i = 4), and an X in slot 0 gathers as any
    other. Only a fault is run under a second schedule."""
    for blocks in range(1, min(m, 5) + 1):
        for place in ("evendist[]", f"on[{nprocs - 1}]", "arraydist[d]"):
            forms = ("top", "nested", "local-only", "long-inner")
            if blocks == 2 and place == "evendist[]":
                forms += ("replica", "fresh", "proc", "function")
            sources = list(_gather_loop_programs(nprocs, m, blocks, place, forms))
            if blocks == 2 and place == "evendist[]":
                sources += _gather_loop_programs(nprocs, m, blocks, place, ("top",), first=True)
            for source in sources:
                checked = check_program(parse(source))
                for seed in (0, 3):
                    seen = [_gather_loop_outcome(checked, nprocs, context, seed)
                            for context in (ProcessContext, ast_walk.WalkingContext)]
                    assert seen[0] == seen[1], source
                    if seen[0][0] != "fault" or nprocs == 1:
                        break


def test_gathered_loops_read_blocks_not_elements(monkeypatch):
    """Generated, a loop whose body reads X[i] and stores only locals reads
    no element through `read_element` and makes one get record per remote
    block it reads; a body that stores i, reads X at another index, reads
    other single-copy data or waits reads every element as before. Its
    closures read element by element, and the trace is the same."""
    calls = {"read_element": 0, "record": 0}
    read_element, record = ProcessContext.read_element, runtime.TraceLog.record

    def counted_read(self, array, i):
        calls["read_element"] += 1
        return read_element(self, array, i)

    def counted_record(self, kind, *args, **kwargs):
        calls["record"] += kind == "onesided-get"
        return record(self, kind, *args, **kwargs)

    monkeypatch.setattr(ProcessContext, "read_element", counted_read)
    monkeypatch.setattr(runtime.TraceLog, "record", counted_record)
    # at P=3 blocks 0-4 lie on ranks 0, 1, 2, 0, 1: the ranks read 3, 3
    # and 4 blocks they do not own, and 6, 6 and 8 elements
    head = ("var X : array[Int,10] :: allocated[row[] :: horizontal[5] :: single[evendist[]]];\n"
            "var Y : array[Int,10] :: allocated[row[] :: horizontal[5] :: single[evendist[]]];\n"
            "var i := 0;\nvar s := 0;\nfor i from 0 to 9 { X[i] := i };\nsync;\n")
    for loop, reads, records, gets in [
        ("for i from 0 to 9 { s := s + X[i] };", 0, 10, 20),
        ("for i from 0 to 9 { for j from 0 to 1 { s := s + X[i] } };", 0, 10, 40),
        ("function g() { for i from 0 to 9 { s := s + X[i] } };\ng();", 0, 10, 20),
        ("proc 2 { for i from 0 to 9 { s := s + X[i] } };", 0, 4, 8),
        # the outer loop's i moves, so only the inner loop, over X[0], gathers
        ("for i from 0 to 9 { for i from 0 to 0 { s := s + X[i] } };", 0, 20, 20),
        ("for i from 0 to 9 { s := s + X[i]; i := i };", 30, 20, 20),
        ("for i from 0 to 9 { s := s + X[i + 0] };", 30, 20, 20),
        ("for i from 0 to 9 { s := s + X[i] + Y[i] };", 60, 40, 40),
        ("for i from 0 to 9 { s := s + X[i]; sync };", 30, 20, 20),
    ]:
        checked = check_program(parse(head + loop + "\n"))
        for threshold in (0, math.inf):
            monkeypatch.setattr(compiler, "HOT_STATEMENTS", threshold)
            calls.update(read_element=0, record=0)
            result = run(checked, 3)
            if threshold == 0:
                assert (calls["read_element"], calls["record"]) == (reads, records), loop
            assert result.trace.count("onesided-get") == gets, loop


class _Entries(dict):
    """A RunState's `loops`, keeping every key ever set."""

    def __init__(self):
        super().__init__()
        self.set = []

    def __setitem__(self, key, value):
        self.set.append(key)
        super().__setitem__(key, value)


def test_a_gathered_loop_runs_its_nested_loops_itself(monkeypatch):
    """A loop nested in a gathered loop's body that would be local-only on
    its own runs with the loop around it at an arrival of fewer than
    ELEMENTS_PER_STATEMENT statements: no process snapshots its inputs
    (`run_once`) or keeps an entry for it, what it runs counts toward the
    gathered loop's turning hot, and the gathered loop, once hot, is
    generated with it. A longer arrival runs on its own, from the closures
    or the generated function alike: the first process runs it and the
    others take its outputs. The outcome is the walk's."""
    head = ("var s := 0;\nvar t := 0;\n"
            "var X : array[Int,400] :: allocated[row[] :: horizontal[4] :: single[evendist[]]];\n"
            "for i from 0 to 399 { X[i] := i };\nsync;\n")
    short = "for i from 0 to 399 { s := s + X[i]; for j from 0 to 3 { t := t + j } };\n"
    # 4 x 3 statements an arrival, and 4 x 31 more run with it
    mid = "for i from 0 to 3 { s := s + X[i]; for j from 1 to 31 { t := t + j } };\n"
    long = "for i from 0 to 3 { s := s + X[i]; for j from 0 to 31 { t := t + j } };\n"
    dumps, made = [], []
    real, generate = interp.marshal.dumps, compiler.generate
    monkeypatch.setattr(interp.marshal, "dumps", lambda *args: dumps.append(1) or real(*args))

    def generated(*args):
        code = generate(*args)
        made.append((args[1].column, code is not None))
        return code
    monkeypatch.setattr(compiler, "generate", generated)
    for loop, nprocs, threshold, snapshots, entries, want in [
        (short, 2, compiler.HOT_STATEMENTS, 0, 0, [(1, True)]),
        (short, 2, 0, 0, 0, [(1, True)]),
        (short, 2, math.inf, 0, 0, []),
        # hot after rank 0's arrival, counting the nested loop's, which
        # turned hot on its own first
        (mid, 2, 100, 0, 0, [(36, True), (1, True)]),
        # each arrival is taken by the other ranks
        (long, 4, 0, 16, 4, [(1, True), (36, True)]),
        (long, 4, math.inf, 16, 4, []),
    ]:
        checked = check_program(parse(head + loop))
        walked = run_walked(checked, nprocs)
        monkeypatch.setattr(compiler, "HOT_STATEMENTS", threshold)
        dumps.clear()
        made.clear()
        state = interp.RunState(nprocs)
        state.loops = _Entries()
        state.program = compiler.compile_program(checked)
        contexts = [ProcessContext(r, state, checked) for r in range(nprocs)]
        state.scheduler.run([c.run_program() for c in contexts])
        result = interp.RunResult(state, contexts)
        assert (len(dumps), len(state.loops.set), made) == (snapshots, entries, want), \
            (loop, threshold)
        assert [result.local(x) for x in "st"] == [walked.local(x) for x in "st"]
        assert result.trace.render() == walked.trace.render()


@pytest.mark.parametrize("nprocs", [1, 2, 3])
@pytest.mark.parametrize("loop, want", [
    # the nested loop leaves i at 1, so each iteration reads X[1]: were the
    # loop gathered, the block would be indexed with the moved i (s = 108)
    ("for i from 4 to 7 { for i from 0 to 1 { t := t + 1 }; s := s + X[i] };",
     {"s": 28, "t": 8}),
    # gathered for the outer loop, from a nested loop's bound
    ("for i from 0 to 3 { for j from 0 to X[i] - 5 { s := s + j } };", {"s": 109}),
    # a reused loop variable, read in its own bound, gathered
    ("var k := 2; for k from k to 5 { s := s + X[k] * k };", {"s": 298, "k": 5}),
])
def test_loops_whose_variable_moves_or_is_read_in_a_bound_match_the_ast_walk(nprocs, loop, want):
    source = ("var m := 8; var s := 0; var t := 0; var X : array[Int,8] :: "
              "allocated[row[] :: horizontal[2] :: single[evendist[]]]; "
              "for i from 0 to m - 1 { X[i] := i * 5 + 2 }; sync; " + loop + "\n")
    checked = check_program(parse(source))
    compiled, walked = (run_path(checked, nprocs) for run_path in RUNS)
    for name, value in want.items():
        assert compiled.local(name) == walked.local(name) == [value] * nprocs, name
    assert compiled.trace.render() == walked.trace.render()


# --- hot loops: the generated Python against the closures and the walk ---


# X's 4 blocks hold indices 0-5, 6-11, 12-17 and 18-23, on ranks b % P; the
# replica a holds 0, 2.5, "x" and 0 on every rank
HOT_HEAD = (
    "var m := 24;\nvar s := 0;\nvar t := 0;\nvar i := 50;\nvar a : array[Int,4];\n"
    "var X : array[Int,m] :: allocated[row[] :: horizontal[4] :: single[evendist[]]];\n"
    "for i from 0 to m - 1 { X[i] := i * 5 + 2 };\na[1] := 2.5;\na[2] := \"x\";\nsync;\n")


def _deep(levels):
    """HOT_HEAD, then a gathered loop with a nested loop, in g, called
    under `levels` scopes: at 126 its nested loop opens scope 128, the
    limit; at 127 it would open one more."""
    return (HOT_HEAD + "function g() { for i from 0 to m - 1 { for j from 0 to 0 { "
            "s := s + X[i] } } };\n" + f"function h() {{ {_loops(levels - 66, 'g()')} }};\n"
            + _loops(64, "h()") + ";\n")


HOT_FAULTS = {
    # partway through block 1, after its read of X[9]
    "division": "for i from 0 to m - 1 { t := t + i; s := s + X[i] * (60 / (i - 9)) };",
    # a[a[1]] is a[2.5]
    "real index": "for i from 0 to m - 1 { t := t + X[i]; s := s + a[a[i / 9]] };",
    "int and string": "for i from 0 to m - 1 { t := t + X[i]; s := s + a[i / 9 * 2] * 1 };",
    "replica index": "for i from 0 to m - 1 { s := s + X[i] + a[i / 3] };",
    "replica store": "for i from 0 to m - 1 { a[i / 3] := X[i] };",
    "nested loop": "for i from 0 to m - 1 { t := t + X[i]; "
                   "for j from 0 to 1 { s := s + X[i] * (60 / (i + j - 9)) } };",
    # X[i] is read in the nested loop's bound before the fault in it
    "nested bound": "for i from 0 to m - 1 { for j from X[i] - 40 to 60 / (i - 9) { s := s + j } };",
    "local-only": "for k from 0 to 30 { t := t + k; var u := t * 2; a[k / 7] := u };",
    # the nested loop runs on its own (32 statements an arrival): t has
    # moved when it faults, at i = 9 and j = 15
    "nested local-only": "for i from 0 to m - 1 { s := s + X[i]; var u := i; "
                         "for j from 0 to 15 { t := t + 1; u := u + 60 / (i + j - 24) } };",
    "past MAX_DEPTH": None,
}


def _slot(cell):
    if isinstance(cell, Local):
        return repr(cell.value)
    return None if cell is None else repr(buffers_of(cell))


def _halted(checked, nprocs, seed, context=ProcessContext):
    """A run driven by hand to its fault: the fault, the trace up to it,
    and each process's scope depth, last statement, top-level frame and
    frame (every slot, by repr), and the processes."""
    state = interp.RunState(nprocs, seed=seed)
    state.program = compiler.compile_program(checked)
    contexts = [context(r, state, checked) for r in range(nprocs)]
    with pytest.raises(RuntimeFault) as fault:
        state.scheduler.run([c.run_program() for c in contexts])
    states = [(c.depth, c.stmt and (c.stmt.line, c.stmt.column),
               [_slot(x) for x in c.top], [_slot(x) for x in c.frame]) for c in contexts]
    return str(fault.value), state.trace.render(), states, contexts


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
@pytest.mark.parametrize("case", list(HOT_FAULTS))
def test_a_hot_loop_faults_as_its_closures_fault(monkeypatch, case, nprocs):
    """Generated from its first arrival, a hot loop that faults partway
    through a block leaves what its closures leave: the fault (message,
    rank, line:col), the gets recorded before it, every slot of every
    frame, the scope depth and the last statement started, on every
    process. The walk gives the same fault and trace."""
    source = _deep(127) if case == "past MAX_DEPTH" else HOT_HEAD + HOT_FAULTS[case] + "\n"
    checked = check_program(parse(source))
    for seed in (0, 3):
        seen = []
        for threshold in (0, math.inf):
            monkeypatch.setattr(compiler, "HOT_STATEMENTS", threshold)
            seen.append(_halted(checked, nprocs, seed)[:3])
        assert seen[0] == seen[1], (case, seed)
        walked = _halted(checked, nprocs, seed, ast_walk.WalkingContext)
        assert walked[:2] == seen[0][:2]
        fault, trace, _ = seen[0]
        assert (TOO_DEEP if case == "past MAX_DEPTH" else "rank ") in fault
        if nprocs > 1 and case not in ("local-only", "past MAX_DEPTH"):
            assert "onesided-get" in trace


def test_a_hot_loop_at_the_nesting_limit_runs_generated(monkeypatch):
    """A hot loop whose nested loop opens the last scope allowed runs as
    generated Python: of g's statements only the loop itself starts
    through exec_stmt. One scope deeper it runs as its closures, which
    fault (above)."""
    monkeypatch.setattr(compiler, "HOT_STATEMENTS", 0)
    starts = []
    exec_stmt = ProcessContext.exec_stmt
    monkeypatch.setattr(ProcessContext, "exec_stmt",
                        lambda self, stmt, fn: starts.append(stmt) or exec_stmt(self, stmt, fn))
    line = HOT_HEAD.count("\n") + 1  # g's
    for levels, loops in ((126, 1), (127, 2)):
        starts.clear()
        checked = check_program(parse(_deep(levels)))
        outcome = stepped(run, checked, 2)[0]
        # at the limit g's outer loop alone starts through exec_stmt; past
        # it the nested loop starts too, and faults
        assert len({s.column for s in starts if s.line == line and type(s) is ast.For}) == loops
        if levels == 126:
            assert outcome.local("s") == run_walked(checked, 2).local("s")
        else:
            assert TOO_DEEP in str(outcome)


@pytest.mark.parametrize("nprocs", [2, 3, 4])
@pytest.mark.parametrize("loop, last", [
    # the nested loop's last run is empty: the closures start it last
    ("for i from 0 to m - 1 { s := s + X[i]; for j from 0 to 20 - i { t := t + j } };", "for j"),
    ("for i from 0 to m - 1 { for j from 0 to i { t := t + X[i] * j } };", "t := t + X"),
    ("for k from 0 to 30 { for j from 0 to k - 30 { t := t + j }; s := s + k };", "s := s + k"),
    ("for k from 0 to 30 { s := s + k; for j from 0 to 1 { for q from j to 0 { t := t + q } } };",
     "for q"),
])
def test_a_hot_loop_ends_where_its_closures_end(loop, last, nprocs, hot):
    """Rank 0 runs a hot loop last while the others wait at `sync`: the
    deadlock fault is the walk's, and rank 0's last statement started is
    the one the closures start last."""
    source = HOT_HEAD + "var me := X.localblockid[0];\nfor r from 1 to me { sync };\n" + loop + "\n"
    checked = check_program(parse(source))
    for seed in (0, 3):
        fault, trace, _, contexts = _halted(checked, nprocs, seed)
        walked = _halted(checked, nprocs, seed, ast_walk.WalkingContext)
        assert (fault, trace) == walked[:2]
        assert "rank 0 finished the program" in fault
        stmt = contexts[0].stmt
        assert (stmt.line, stmt.column) == (source.count("\n"), loop.index(last) + 1)
        assert contexts[0].depth == walked[3][0].depth == 0


def test_a_hot_loop_is_generated_once_per_run_whatever_the_ranks(monkeypatch):
    """Each loop node is generated at most once per run, at the arrival
    whose statements, over all ranks, reach HOT_STATEMENTS, and every rank
    then runs that one function: a run-once loop in a function body called
    twice (rank 0 runs it, the others take its outputs), and a gathered
    loop under an outer loop that syncs, but not a loop `proc` runs once."""
    made = []
    generate = compiler.generate
    monkeypatch.setattr(compiler, "generate", lambda *args: made.append(args[1]) or generate(*args))
    n = compiler.HOT_STATEMENTS // 2  # each loop below holds one statement
    source = (f"var n := {n};\nvar s := 0;\nvar t := 0;\nvar u := 0;\n"
              "var X : array[Int,n] :: allocated[row[] :: horizontal[4] :: single[evendist[]]];\n"
              "for i from 0 to n - 1 { X[i] := i };\nsync;\n"
              "function f() { for k from 1 to n { s := s + k } };\nf();\nf();\n"
              "for r from 0 to 1 { sync; for k from 0 to n - 1 { t := t + X[k] } };\n"
              "proc 0 { for k from 0 to n - 1 { u := u + X[k] } };\n")
    checked = check_program(parse(source))
    for nprocs in (1, 2, 3, 4, 16):
        made.clear()
        result = run(checked, nprocs)
        assert sorted(loop.line for loop in made) == [8, 11], nprocs
        walked = run_walked(checked, nprocs)
        assert [result.local(x) for x in "stu"] == [walked.local(x) for x in "stu"]
    monkeypatch.setattr(compiler, "HOT_STATEMENTS", 0)
    for nprocs in (1, 2, 16):
        made.clear()
        run(checked, nprocs)
        assert sorted(loop.line for loop in made) == [8, 11, 12], nprocs


ROW ="allocated[row[] :: horizontal[2] :: single[evendist[]]]"


def communicating_program(seed, nprocs):
    """Random one-sided reads and writes, channels, collectives and calls,
    and line copies from a `Char` array into an `Int` one.

    Function bodies take single scalars, some linked by a blocking or an
    `async` channel, 1D and 2D arrays and locals from the top level, as
    free names or as parameters, and read, assign and redistribute them. A call
    that communicates through a channel or a collective runs at the top
    level; the others also run inside `proc`.
    """
    rng = random.Random(seed * 10 + nprocs)
    last = nprocs - 1
    lines = [
        f"var X : array[Int,6] :: {ROW};",
        "var Y : array[Int,6] :: allocated[row[] :: horizontal[3] :: single[evendist[]]];",
        f"var L : array[Int,4,3] :: {ROW};",
        f"var C : array[Char,4,3] :: {ROW};",
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
        elif roll < 0.7:
            lines.append(f"proc {r} {{ L[{rng.randrange(2)}][{rng.randrange(2)}] := "
                         f"C[{rng.randrange(2)}][{rng.randrange(2)}] }};")
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
                 "fc()", "fa()", "fx(Y)", "fm()", "proc 0 { fio() }", "{ fs() }", "sync a;",
                 ":= C["):
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


# --- local-only loops run once per set of inputs ---


MIXED_HEAD = """var p := processes();
var D : array[Int,16] :: allocated[row[] :: horizontal[p] :: single[evendist[]]];
var me := D.localblockid[0];
var S : Int :: allocated[single[on[0]]];
var R : array[Real,16] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
var a : array[Int,4];
var r : Int :: allocated[multiple[]];
var z := 0.0 * (0 - 1);
"""
MIXED_ARRAYS = ("D", "S", "R", "a", "r")


class MixedGen:
    """A random program of local-only loops over inputs that may differ by
    rank: `proc` stores, `.localblockid` (`me` is the rank), single-copy
    reads, an int against a float, 0.0 against -0.0 (`z`), and loops that
    divide by zero or index past the end of `a` on some ranks only."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.locals = [f"v{k}" for k in range(4)]
        self.counter = 0

    def fresh(self, prefix):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def leaf(self, names):
        rng = self.rng
        roll = rng.random()
        if roll < 0.2:
            return rng.choice(("0", "1", "2", "3", "0.5", "0.0", "2.0", "z"))
        if roll < 0.75:
            return rng.choice(names)
        if roll < 0.85:
            return "r"
        if roll < 0.95:
            return f"a[{self.index(names)}]"
        return "processes()"

    def expr(self, names, depth=0):
        rng = self.rng
        if depth >= 2 or rng.random() < 0.35:
            return self.leaf(names)
        op = rng.choice(("+", "-", "*", "/", "+", "-", "<", "==", "!="))
        left = self.expr(names, depth + 1)
        if op == "*":  # keep magnitudes small
            right = rng.choice(("0", "1", "2", "z", "0.5"))
        elif op == "/" and rng.random() < 0.9:
            right = rng.choice(("2", "3", "0.5"))
        else:
            right = self.expr(names, depth + 1)  # may be zero
        return f"({left} {op} {right})"

    def index(self, names):
        loops = [n for n in names if n.startswith("i")]
        roll = self.rng.random()
        if loops and roll < 0.6:
            return self.rng.choice(loops)
        if roll < 0.96:
            return str(self.rng.randrange(4))
        return self.rng.choice(("4", "me", "me / 4"))  # past the end on some ranks

    def bound(self):
        return self.rng.choice(("1", "2", "3", "3", "p - 1") * 2 + ("v0", "me", "me / 4", "z"))

    def loop(self, names, depth):
        """A local-only loop, nested at most two deep."""
        rng = self.rng
        var = rng.choice((self.fresh("i"), "i0"))  # i0 is a top-level local
        inner = names + [var]
        body = []
        for _ in range(rng.randint(1, 3)):
            roll = rng.random()
            if roll < 0.4:
                body.append(f"{rng.choice(self.locals)} := {self.expr(inner)}")
            elif roll < 0.6:
                body.append(f"a[{self.index(inner)}] := {self.expr(inner)}")
            elif roll < 0.7:
                body.append(f"r := {self.expr(inner)}")
            elif roll < 0.85 and depth < 1:
                body.append(self.loop(inner, depth + 1))
            else:
                name = self.fresh("t")
                body.append(f"var {name} := {self.expr(inner)}")
                inner = inner + [name]
        lo = rng.choice(("0", "0", "0", "1", "1", "me / 8"))
        return f"for {var} from {lo} to {self.bound()} {{ {'; '.join(body)} }}"

    def stmt(self):
        rng = self.rng
        names = self.locals + ["i0"]
        v = rng.choice(self.locals)
        roll = rng.random()
        if roll < 0.48:
            return self.loop(names, 0)
        if roll < 0.68:
            rank = rng.choice(("0", "p - 1", "p / 2"))
            # the same value as on the other ranks, of another type or sign, or another value
            value = rng.choice((f"{v} * 1.0", f"{v} * z", "z", "0.0", "1.0", "me + 1"))
            stmt = f"proc {rank} {{ {v} := {value} }}"
            if rng.random() < 0.7:  # then a loop whose outputs show the difference
                w, i = rng.choice(self.locals), self.fresh("i")
                stmt += f"; for {i} from 0 to 2 {{ {w} := {w} + {v} / 2; a[{i}] := {v} * {i} }}"
            return stmt
        if roll < 0.72:
            return f"{v} := {rng.choice(('me', 'me / 2', 'me * 0.5', '0.0 * (me - 1)', 'S'))}"
        if roll < 0.76:
            return f"S := {v}"
        if roll < 0.8:
            return f"a[{rng.randrange(4)}] := {rng.choice(('me', 'z', 'me + 0.5'))}"
        if roll < 0.85:
            return f"r := {rng.choice(('me', '1.0', 'z'))}"
        if roll < 0.93:  # no loop here is local-only; the loops inside them may be
            return f"for k from 0 to 1 {{ sync; {self.loop(names, 1)} }}"
        return f"for k from 0 to 2 {{ {v} := {v} + S; {self.loop(names, 1)} }}"

    def render(self):
        rng = self.rng
        lines = [MIXED_HEAD]
        lines += [f"var {v} := {rng.choice(('0', '1', '2', '3', '1.0', '0.5', 'z'))};"
                  for v in self.locals]
        lines.append("var i0 := 0;")
        lines += [self.stmt() + ";" for _ in range(rng.randint(3, 7))]
        # every rank puts a result into the single-copy R
        lines.append("for k from 0 to p - 1 { proc k { R[k] := v0 + v1 } };")
        return "\n".join(lines) + "\n"


def mixed_outcome(checked, nprocs, run_path, seed):
    """The fault's text, or the locals and replicas per rank by repr (so
    1 is not 1.0, nor 0.0 -0.0), R by repr and the rendered trace; and the
    scheduler steps either took."""
    result, steps = stepped(run_path, checked, nprocs, seed=seed)
    if isinstance(result, RuntimeFault):
        return ("fault", str(result), steps)
    names = [n for n in result.names() if n not in MIXED_ARRAYS]
    return ("done",
            {n: [repr(v) for v in result.local(n)] for n in names},
            {n: [repr(list(rep)) for rep in result.array(n).replicas] for n in ("a", "r")},
            repr(result.logical("R")),
            result.trace.render(), steps)


def counted_run_once(monkeypatch):
    """Counts, over what runs next, of the local-only loops a process took
    from another and of those it ran itself."""
    counts = {"taken": 0, "ran": 0}
    run_once = ProcessContext.run_once

    def counted(self, loop, trips, body):
        ran = []
        run_once(self, loop, trips, lambda: ran.append(body()))
        counts["ran" if ran else "taken"] += 1

    monkeypatch.setattr(ProcessContext, "run_once", counted)
    return counts


@pytest.mark.parametrize("seed", range(40))
def test_local_only_loops_run_once_match_the_ast_walk(seed, hot):
    """Whatever the ranks' inputs, a process that takes another's outputs
    ends as the AST walk, where every process runs every loop, ends, in
    the same scheduler steps, whether a loop that runs runs as its
    closures or as generated Python (`hot`); the closures, the oracle,
    also at P=16 and under a third schedule."""
    source = MixedGen(seed).render()
    checked = check_program(parse(source))
    closures = hot == math.inf
    for nprocs in (1, 2, 3, 4) + ((16,) if closures else ()):
        for sched_seed in (0, 3) + ((7919,) if closures else ()):
            compiled = mixed_outcome(checked, nprocs, run, sched_seed)
            assert compiled == mixed_outcome(checked, nprocs, run_walked, sched_seed), \
                (nprocs, sched_seed, source)


def test_mixed_programs_take_and_run_loops_and_fault(monkeypatch, hot):
    counts = counted_run_once(monkeypatch)
    kinds = {"fault": 0, "done": 0}
    for seed in range(40):
        checked = check_program(parse(MixedGen(seed).render()))
        kinds[mixed_outcome(checked, 4, run, 0)[0]] += 1
    assert kinds["fault"] >= 3 and kinds["done"] >= 8, kinds
    assert counts["taken"] >= 50 and counts["ran"] >= 50, counts


COUNTER_EXAMPLE = ("var x := 1; var y := 0; proc 1 { x := 1.0 }; "
                   "for i from 0 to 3 { y := y + x / 2 };\n")


@pytest.mark.parametrize("source, want", [
    (COUNTER_EXAMPLE, ["0", "2.0"]),
    ("var x := 0.0; var y := 1; proc 1 { x := 0.0 * (0 - 1) }; "
     "for i from 0 to 3 { y := x * i };\n", ["0.0", "-0.0"]),
    ("var x := 2; var y := 0; proc 0 { x := 2.0 }; "
     "for i from 0 to 3 { y := y + x / 4 };\n", ["2.0", "0"]),
])
def test_equal_inputs_of_other_types_or_signs_are_not_taken(source, want):
    """1 == 1.0 and 0.0 == -0.0 in Python: a loop's inputs must match bit
    for bit, not by ==, for one process to take another's outputs."""
    checked = check_program(parse(source))
    for run_path in RUNS:
        for seed in (0, 1, 7919):
            assert [repr(v) for v in run_path(checked, 2, seed=seed).local("y")] == want


def test_a_loop_a_rank_reaches_deeper_is_not_taken(hot):
    """The scope depth is one of a loop's inputs: with the same values,
    rank 0 runs f's 64 nested loops from one loop deep, and then rank 1,
    100 loops deep, passes the nesting limit in them rather than take rank
    0's outputs."""
    source = (
        "var D : array[Int,2] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
        "var me := D.localblockid[0];\nvar y := 0;\n"
        "function f() { " + "".join(f"for a{k} from 0 to 0 {{ " for k in range(64))
        + "y := y + 1" + " }" * 64 + " };\n"
        "for t from me to 0 { f() };\nsync;\n"
        + "".join(f"for t{k} from 1 to me {{ " for k in range(100)) + "f()" + " }" * 100 + ";\n")
    checked = check_program(parse(source))
    for run_path in RUNS:
        for seed in (0, 7919):
            with pytest.raises(RuntimeFault) as info:
                run_path(checked, 2, seed=seed)
            assert str(info.value) == f"rank 1: {TOO_DEEP} at 4:600"


def test_a_loop_over_a_large_replica_with_few_statements_is_never_snapshotted(monkeypatch):
    """Two statements against a snapshot of 100,000 elements: every rank
    runs the loop, and no snapshot is taken."""
    dumps = []
    monkeypatch.setattr(interp, "marshal", SimpleNamespace(dumps=lambda *a: dumps.append(a)))
    checked = check_program(parse(
        "var big : array[Int,100000];\nvar s := 0;\n"
        "for t from 1 to 3000 { sync; for k from 0 to 1 { big[k] := big[k] + t } };\n"))
    result = run(checked, 2)
    assert dumps == []
    assert [rep[:3] for rep in result.array("big").replicas] == [[4501500] * 2 + [0]] * 2


def test_a_loop_worth_its_snapshot_is_snapshotted(monkeypatch):
    dumps = []
    real = interp.marshal.dumps
    monkeypatch.setattr(interp, "marshal",
                        SimpleNamespace(dumps=lambda *a: dumps.append(a) or real(*a)))
    result = run(check_program(parse(
        "var small : array[Int,4];\n"
        "for t from 1 to 3 { sync; for k from 0 to 3 { small[k] := small[k] + t } };\n")), 3)
    assert len(dumps) == 9  # every rank at every arrival
    assert [list(rep) for rep in result.array("small").replicas] == [[6] * 4] * 3


def captured_states(monkeypatch):
    states = []

    class Captured(interp.RunState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(interp, "RunState", Captured)
    return states


@pytest.mark.parametrize("source, left", [
    ("var y := 0;\nfor t from 0 to 5 { sync; for k from 0 to 3 { y := y + k * t } };\n", 0),
    (COUNTER_EXAMPLE, 0),
    # rank r reaches the inner loop r + 1 times: only rank 3 passes arrival 3
    ("var D : array[Int,4] :: allocated[row[] :: horizontal[4] :: single[evendist[]]];\n"
     "var me := D.localblockid[0];\nvar y := 0;\n"
     "for t from 0 to me { for k from 0 to 3 { y := y + k } ; y := y + D[0] };\n", 3),
])
def test_an_entry_goes_once_every_process_has_passed_it(monkeypatch, source, left):
    states = captured_states(monkeypatch)
    run(check_program(parse(source)), 4)
    (state,) = states
    assert len(state.loops) == left
    assert all(passed < state.nprocs for passed, _, _ in state.loops.values())


@pytest.mark.parametrize("source, want", [
    # in a function body called outside `proc`, and inside it
    ("var y : Int := 0;\nvar w := 1;\nfunction f(x : Int) { for k from 0 to 3 { x := x + k * w } };\n"
     "proc 1 { w := 2 };\nf(y);\nproc 0 { f(y) };\n", ["12", "12"]),
    ("var y := 0;\nproc 1 { y := 1 };\nproc 0 { for k from 0 to 3 { y := y + k } };\n"
     "proc 1 { for k from 0 to 3 { y := y + k } };\nfor k from 0 to 3 { y := y + k };\n",
     ["12", "13"]),
    # at arrival 1 the parameter is bound to the top-level name the body
    # also stores on rank 0 only: the same values, other outputs
    ("var y : Int := 1;\nvar u : Int := 1;\n"
     "var D : array[Int,2] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
     "var me := D.localblockid[0];\n"
     "function f(x : Int) { for k from 0 to 3 { x := x + 1; y := y + 1 } };\n"
     "for t from 0 to me { f(u) };\nfor t from 0 to 1 - me { f(y) };\n", ["21", "17"]),
])
def test_loops_in_proc_and_function_bodies_run_as_the_ast_walk(monkeypatch, source, want, hot):
    """Also as generated Python (`hot`): the third program binds f's
    parameter to the top-level name its loop also stores, so that call
    runs its closures."""
    checked = check_program(parse(source))
    for seed in (0, 7919):
        seen = [[repr(v) for v in run_path(checked, 2, seed=seed).local("y")]
                for run_path in RUNS]
        assert seen == [want, want], seed


# --- scoping: the compiled run's frame slots against the walk's names ---


SCOPE_HEAD = """var p := processes();
var x := 1;
var y := 2;
var d := 0;
var u : Int := 3;
var a : array[Int,4];
var S : Int :: allocated[single[on[0]]];
function f(v : Int) { v := v + x; y := y + v * 2 };
function g() { y := y + x; var x := 10; y := y + x; S := y };
function rec(v : Int) { v := v + x; for i from 1 to d { d := d - 1; y := y + i; rec(v) } };
"""
# the top-level names the bodies of f, g and rec read
SCOPE_FREE = ("x", "y", "d")


class ScopeGen:
    """A random program of nested scopes, run by the compiled closures
    through the checker's frame slots and by the AST walk through its
    names. It holds four shapes, each noted in `shapes` when made:
    - "redeclare": a `for` or `proc` body that redeclares an outer name,
      typed or untyped (`typed` notes a typed one);
    - "around": a read of that name before and after the redeclaration in
      one loop body, so across iterations;
    - "hidden call": a call from a scope hiding a top-level name the body
      reads, passing the hiding name as its argument;
    - "recursion": a call of `rec`, which calls itself `d` levels deep.
    `d` is only ever set to a constant below 4, so recursion stays shallow;
    `a[...]` may index past the end, a fault both runs must report alike."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.shapes = set()

    def expr(self, names):
        rng = self.rng
        roll = rng.random()
        name = rng.choice(sorted(names))
        if roll < 0.5:
            return name
        if roll < 0.8:
            return f"{name} {rng.choice('+-')} {rng.choice(sorted(names) + ['1', '2', 'p'])}"
        if roll < 0.93:
            return "S"
        return f"a[{name}]"  # past the end unless name is 0 to 3

    def call(self, names, typed):
        """A call statement; names maps each visible name to whether this
        scope or one inside the top level declares it."""
        rng = self.rng
        roll = rng.random()
        if roll < 0.25:
            if any(names[n] for n in SCOPE_FREE):
                self.shapes.add("hidden call")
            return "g()"
        arg = rng.choice(sorted(typed))
        if names[arg] and arg in SCOPE_FREE:
            self.shapes.add("hidden call")
        if roll < 0.6:
            return f"f({arg})"
        self.shapes.add("recursion")
        stmt = f"rec({arg})"
        if not names["d"]:  # d names the top-level counter rec reads
            stmt = f"d := {rng.randrange(4)}; " + stmt
        return stmt

    def body(self, names, typed, depth, loop):
        """Statements in a new scope; names and typed are the enclosing ones'."""
        rng = self.rng
        names = {n: names[n] or False for n in names}
        stmts = []
        for _ in range(rng.randint(2, 5)):
            roll = rng.random()
            if roll < 0.25:
                target = rng.choice(sorted(n for n in names if n != "d"))
                stmts.append(f"{target} := {self.expr(names)}")
            elif roll < 0.45:
                name = rng.choice(("x", "y", "u", "d"))
                if names.get(name) is True:  # already declared in this scope
                    continue
                if loop and rng.random() < 0.5:  # the outer one, on every iteration
                    stmts.append(f"y := y - {name}")
                    self.shapes.add("around")
                value = self.expr(names)
                if rng.random() < 0.5:
                    stmts.append(f"var {name} : Int := {value}")
                    typed = typed | {name}
                    self.shapes.add("typed")
                else:
                    stmts.append(f"var {name} := {value}")
                    typed = typed - {name}
                self.shapes.add("redeclare")
                names[name] = True
                stmts.append(f"{rng.choice(('y', 'x'))} := {name} + 1")
            elif roll < 0.6 and depth < 2:
                stmts.append(self.block(names, typed, depth + 1))
            elif roll < 0.85 and typed:
                stmts.append(self.call(names, typed))
            else:
                stmts.append(f"S := {self.expr(names)}")
        return "; ".join(stmts)

    def block(self, names, typed, depth):
        rng = self.rng
        if rng.random() < 0.35:
            return f"proc {rng.choice(('0', 'p - 1'))} {{ {self.body(names, typed, depth, False)} }}"
        var = rng.choice(("i", "i", "x"))  # x: an existing local counts, unless hidden typed
        inner = dict(names)
        if var == "i":
            inner["i"] = True
        return f"for {var} from 0 to {rng.choice(('1', '2'))} {{ " \
               f"{self.body(inner, typed, depth, True)} }}"

    def render(self):
        names = {n: False for n in ("x", "y", "d", "u")}
        lines = [SCOPE_HEAD]
        lines += [self.block(names, {"u"}, 0) + ";" for _ in range(self.rng.randint(2, 4))]
        return "".join(lines[:1]) + "\n".join(lines[1:]) + "\n"


def scope_outcome(checked, nprocs, run_path, seed):
    """The fault's text, or the locals per rank, the arrays and the rendered trace."""
    try:
        result = run_path(checked, nprocs, seed=seed)
    except RuntimeFault as fault:
        return ("fault", str(fault))
    return ("done",
            {n: result.local(n) for n in result.names() if n not in result._arrays},
            {n: repr(result.logical(n)) for n in ("S",)},
            [list(rep) for rep in result.array("a").replicas],
            result.trace.render())


@pytest.mark.parametrize("seed", range(40))
def test_scopes_match_the_ast_walk(seed):
    """Names the compiled run finds by the checker's slots are those the
    walk finds by name, in one flat environment and a stack of what each
    scope hides."""
    source = ScopeGen(seed).render()
    checked = check_program(parse(source))
    for nprocs in (1, 2, 3):
        for sched_seed in (0, 7919):
            compiled = scope_outcome(checked, nprocs, run, sched_seed)
            assert compiled == scope_outcome(checked, nprocs, run_walked, sched_seed), \
                (nprocs, sched_seed, source)


def test_scope_programs_cover_every_shape():
    shapes, kinds = set(), {"fault": 0, "done": 0}
    for seed in range(40):
        gen = ScopeGen(seed)
        checked = check_program(parse(gen.render()))
        shapes |= gen.shapes
        kinds[scope_outcome(checked, 2, run, 0)[0]] += 1
    assert shapes == {"redeclare", "typed", "around", "hidden call", "recursion"}
    assert kinds["fault"] >= 2 and kinds["done"] >= 20, kinds
