import re
from pathlib import Path

import pytest

import ast_walk
from meshlite import ast, check_program, interp, parse, run
from meshlite.checker import CheckedProgram, Checker
from meshlite.errors import CheckError, RuntimeFault
from meshlite.fixtures import CORPUS, corpus_source, generate_image
from meshlite.runtime import DistributedArray
from meshlite.values import BlockRef, LineSlice
from conftest import reference_local_only, reference_owner_computes
from test_compiler import (
    RUNS,
    MixedGen,
    ScopeGen,
    _gather_loop_programs,
    _owner_loop_programs,
    communicating_program,
    generate,
    run_walked,
)


def diagnostics_of(src, name="<source>"):
    with pytest.raises(CheckError) as err:
        check_program(parse(src), source_name=name)
    return err.value.diagnostics


def rules_of(src):
    return [d.rule for d in diagnostics_of(src)]


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_type_checks(name):
    checked = check_program(parse(corpus_source(name)))
    assert checked.program is not None


def test_const_assignment_rejected():
    rules = rules_of("var x : Int :: const;\nx := 3;")
    assert "ConstViolation" in rules


def test_int_char_combination_rejected():
    rules = rules_of("var x : Int :: Char;")
    assert "InvalidCombination" in rules


def test_undeclared_variable_use():
    rules = rules_of("x := y;")
    assert rules.count("UnknownVariable") == 2


@pytest.mark.parametrize("src,column,name", [
    ("var A : array[Int,q] :: allocated[single[on[0]]];", 19, "q"),
    ("var x : Int :: allocated[single[on]];", 33, "on"),
    ("var A : array[Int,4,2*m] :: allocated[multiple[]];", 23, "m"),
    ("var p := 2;\nvar A : array[Int,4] :: allocated[row[] :: horizontal[p + r] "
     ":: single[evendist[]]];", 59, "r"),
])
def test_undeclared_names_in_type_arguments(src, column, name):
    (diag,) = diagnostics_of(src)
    assert (diag.rule, diag.column, diag.message) == (
        "UnknownVariable", column, f"{name!r} is not declared")


def test_undeclared_sync_target():
    rules = rules_of("sync q;")
    assert "UnknownVariable" in rules


def test_argument_chain_must_match_exactly():
    src = """
var n := 4;
var A : array[complex,n,n] :: allocated[col[] :: horizontal[2] :: single[evendist[]]];
function f(X : array[complex,n,n] :: allocated[row[] :: horizontal[2] :: single[evendist[]]]) {
    X := X;
};
f(A);
"""
    rules = rules_of(src)
    assert "ArgumentChainMismatch" in rules


def test_argument_chain_match_accepts_equal_chains():
    src = """
var n := 4;
var A : array[complex,n,n] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
function f(X : array[complex,n,n] :: allocated[row[] :: horizontal[2] :: single[evendist[]]]) {
    X := X;
};
f(A);
"""
    check_program(parse(src))


def test_argument_chain_constant_folding():
    """2*2 and 4 fold to the same chain."""
    src = """
var A : array[complex,4,4] :: allocated[row[] :: single[0]];
function f(X : array[complex,2 * 2,4] :: allocated[row[] :: single[0]]) {
    X := X;
};
f(A);
"""
    check_program(parse(src))


def test_call_arity_and_literal_arguments():
    src = """
var A : array[complex,4,4] :: allocated[row[] :: single[0]];
function f(X : array[complex,4,4] :: allocated[row[] :: single[0]]) {
    X := X;
};
f(A, A);
"""
    assert "CallArity" in rules_of(src)
    src2 = """
function f(X : Int) { };
f(3);
"""
    assert "ArgumentChainMismatch" in rules_of(src2)


def test_share_target_must_exist_and_be_array():
    rules = rules_of(
        "var C : array[complex,4,4] :: allocated[row[] :: vertical[2] :: single[evendist[]]] :: share[B];")
    assert "ShareTarget" in rules
    rules = rules_of(
        "var b : Int;\n"
        "var C : array[complex,4,4] :: allocated[row[] :: vertical[2] :: single[evendist[]]] :: share[b];")
    assert "ShareTarget" in rules


def test_arraydist_target_must_be_integer_array():
    rules = rules_of(
        "var A : array[complex,4,4] :: allocated[horizontal[2] :: single[arraydist[d]]];")
    assert "ArrayDistTarget" in rules
    rules = rules_of(
        "var d : array[complex,2];\n"
        "var A : array[complex,4,4] :: allocated[horizontal[2] :: single[arraydist[d]]];")
    assert "ArrayDistTarget" in rules
    # a single copy is no map each process reads its own copy of
    assert [str(d) for d in diagnostics_of(
        "var d : array[Int,2] :: allocated[single[on[0]]];\n"
        "var D : array[Int,4] :: allocated[row[] :: horizontal[2] :: single[arraydist[d]]];")] == [
        "<source>:2:5: ArrayDistTarget: 'd' is not a replicated integer array"]
    # an integer-array parameter is a valid target, and the program runs
    src = """
var d : array[Int,2];
d[0] := 1;
d[1] := 0;
function f(e : array[Int,2]) {
    var A : array[Int,4,4] :: allocated[horizontal[2] :: single[arraydist[e]]];
};
f(d);
"""
    result = run(check_program(parse(src)), 2)
    owners = {name: [b.owner for b in array.blocks] for name, array in result.declared}
    assert owners["A"] == [1, 0]


def test_incomplete_plan_reported():
    cases = [
        ("var A : array[complex,4,4] :: allocated[horizontal[2]];",
         "a partitioned array lacks a distribution"),
        ("var c : const;", "chain has no base element type"),
        ("var x : allocated[single[on[0]]];", "chain has no base element type"),
        ("var A : array[array[int,2],2];", "array element type must be a scalar base type"),
        ("var A : array[int,0];", "array extents must be positive"),
        ("var A : array[int,4] :: allocated[horizontal[0] :: single[evendist[]]];",
         "cannot split extent 4 into 0 blocks"),
        ("var A : array[int,4] :: allocated[horizontal[8] :: single[evendist[]]];",
         "cannot split extent 4 into 8 blocks"),
        ("var A : array[int,4,6] :: allocated[col[] :: vertical[5] :: single[evendist[]]];",
         "cannot split extent 4 into 5 blocks"),
        ("var A : array[int,n] :: allocated[horizontal[0] :: single[evendist[]]];",
         "cannot split an array into 0 blocks"),
        ("var a : Int :: single[on[1]];",
         "single[...] outside allocated[...] gives a scalar no global storage; "
         "write allocated[single[...]]"),
        ("var a : Int :: multiple[];",
         "multiple[] outside allocated[...] gives a scalar no global storage; "
         "write allocated[multiple[]]"),
    ]
    for decl, problem in cases:
        (diag,) = diagnostics_of(f"var n := 1;\n  {decl}")
        # a declaration is located at its name
        assert (diag.rule, diag.message, diag.line, diag.column) == (
            "IncompletePlan", problem, 2, 7), decl


def test_array_assignment_needs_array_source():
    src = """
var A : array[complex,4,4] :: allocated[row[] :: single[0]];
A := 5;
"""
    assert "ArrayAssignment" in rules_of(src)


def test_collective_assignment_inside_proc_rejected():
    src = """
var A : array[complex,4,4] :: allocated[row[] :: single[0]];
var S : array[complex,4,4] :: allocated[row[] :: single[0]];
proc 0 { A := S };
"""
    assert "GuardedCollective" in rules_of(src)


def test_distributed_declaration_inside_proc_rejected():
    src = "proc 0 { var A : array[complex,4,4] :: allocated[row[] :: single[0]]; };"
    assert "GuardedAllocation" in rules_of(src)


def test_accessor_needs_distributed_array():
    src = "var x := 1;\nvar y := x.localblocks;"
    assert "AccessorMisuse" in rules_of(src)


def test_unknown_function():
    assert "UnknownFunction" in rules_of("frobnicate(1);")


def test_builtin_arity():
    assert "BuiltinArity" in rules_of("var x := processes(3);")


@pytest.mark.parametrize("call", [
    "f(q)", 'writefile(F, "f.dat")', 'readfile(F, "f.dat") + 1', "computeSin(S)",
    "FFT(A[0][0], S)",
])
def test_user_function_has_no_value(call):
    """Only processes() gives a value; any other call is a statement."""
    src = f"""
function f(X : Int) {{ }};
var q : Int;
var F : array[Int,4] :: allocated[single[on[0]]];
var S : array[Complex,2] :: allocated[multiple[]];
var A : array[Complex,4,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
var y := {call};
"""
    diagnostics = diagnostics_of(src)
    assert [(d.rule, d.line, d.column) for d in diagnostics] == [("NoValue", 7, 10)]


@pytest.mark.parametrize("index, rule", [
    ("nosuch()", "UnknownFunction"), ('writefile(B, "p")', "NoValue"), ("k", "UnknownVariable"),
])
def test_accessor_base_indices_are_checked(index, rule):
    """A[e].low checks e like any other index."""
    src = f"""
var A : array[Int,4,4] :: allocated[horizontal[2] :: single[evendist[]]];
var B : array[Int,4] :: allocated[single[on[0]]];
var x := A[{index}].low;
"""
    assert [(d.rule, d.line, d.column) for d in diagnostics_of(src)] == [(rule, 4, 12)]


def test_redeclaration_in_same_scope():
    assert "Redeclaration" in rules_of("var x;\nvar x;")


def test_a_repeated_parameter_is_a_redeclaration():
    src = "var x : Int;\nvar y : Int;\nfunction f(a : Int, a : Int) { };\nf(x, y);"
    assert [str(d) for d in diagnostics_of(src)] == [
        "<source>:3:21: Redeclaration: 'a' is already declared in this scope"]


@pytest.mark.parametrize("src, column", [
    ("for i from 0 to 1 { function g() { } };", 21),
    ("proc 0 { function g() { } };", 10),
    ("function f() { function g() { } };", 16),
])
def test_functions_are_defined_at_top_level_only(src, column):
    assert [str(d) for d in diagnostics_of(src)] == [
        f"<source>:1:{column}: NestedFunction: function 'g' must be defined at top level"]


def test_a_body_sees_only_the_top_level_names_declared_before_it():
    src = ("var a := 1;\nfunction f(p : Int) { var b := a + p; c := b };\n"
           "var c := 0;\nfor i from 0 to 0 { var d := 2; function g() { d := i } };")
    assert [(d.rule, d.line, d.column) for d in diagnostics_of(src)] == [
        ("UnknownVariable", 2, 39), ("NestedFunction", 4, 33)]


def test_diagnostic_rendering_format():
    diags = diagnostics_of("x := y;", name="prog.mesh")
    line = str(diags[0])
    assert line.startswith("prog.mesh:1:")
    parts = line.split(": ", 2)
    assert len(parts) == 3
    assert parts[1] == "UnknownVariable"


def test_initializer_on_distributed_rejected():
    src = "var A : array[complex,4,4] :: allocated[row[] :: single[0]] := 3;"
    assert "InitializerUnsupported" in rules_of(src)


def test_sync_inside_proc_rejected():
    (diag,) = diagnostics_of("proc 0 { sync };")
    assert (diag.rule, diag.line, diag.column) == ("GuardedCollective", 1, 10)
    assert diag.message == "sync is collective and cannot run inside a proc block"
    src = "var a;\nproc 1 {\n  a := 2;\n  for i from 0 to 1 { sync a }\n};"
    assert [(d.rule, d.line, d.column) for d in diagnostics_of(src)] == [
        ("GuardedCollective", 4, 23)]
    # a call into a synchronising function stays a run-time matter
    check_program(parse("function f() { sync; };\nproc 0 { f() };\nsync;"))


# Every error from_type_expr can raise, with its first-error order:
# arity before argument kind, the constructor named as written.
TYPE_EXPR_ERRORS = [
    ("Int[3]", "Int takes no arguments"),
    ("Real[1]", "Real takes no arguments"),
    ("complex[1, 2]", "complex takes no arguments"),
    ("Int :: const[1]", "const takes no arguments"),
    ("Int :: allocated[multiple[2]]", "multiple takes no arguments"),
    ("array[Int,4] :: allocated[row[1] :: single[0]]", "row takes no arguments"),
    ("array[Int,4] :: allocated[Col[1] :: single[0]]", "Col takes no arguments"),
    ("array[Int,4] :: allocated[horizontal[2] :: single[evendist[1]]]",
     "evendist takes no arguments"),
    ("Int :: allocated[single[0]] :: async[1]", "async takes no arguments"),
    ("array[Int]", "array takes an element type and 1 or 2 extents"),
    ("array[Int,1,2,3]", "array takes an element type and 1 or 2 extents"),
    ("array[4,4]", "expected a type argument"),
    ("array[Int,4] :: allocated[3]", "expected a type argument"),
    ("Int :: allocated", "allocated takes 1 argument, got 0"),
    ("Int :: allocated[]", "allocated takes 1 argument, got 0"),
    ("Int :: allocated[3, 4]", "allocated takes 1 argument, got 2"),
    ("Int :: allocated[single[0, 1]]", "single takes 1 argument, got 2"),
    ("Int :: allocated[single[row[], 1]]", "single takes 1 argument, got 2"),
    ("Int :: allocated[single[on[0] :: evendist[]]]",
     "single takes a rank, on[...], evendist[] or arraydist[...]"),
    ("Int :: allocated[single[row[]]]",
     "single takes a rank, on[...], evendist[] or arraydist[...]"),
    ("Int :: allocated[single[on[]]]", "on takes 1 argument, got 0"),
    ("Int :: allocated[single[on[0,1]]]", "on takes 1 argument, got 2"),
    ("array[Int,4] :: allocated[horizontal :: single[0]]", "horizontal takes 1 argument, got 0"),
    ("array[Int,4] :: allocated[Vertical[1,2] :: single[0]]", "Vertical takes 1 argument, got 2"),
    ("Int :: allocated[single[0]] :: channel[1]", "channel takes 2 arguments, got 1"),
    ("Int :: allocated[single[0]] :: channel[0,1,2]", "channel takes 2 arguments, got 3"),
    ("array[Int,4] :: allocated[horizontal[2] :: single[arraydist[3]]]",
     "arraydist takes the name of an integer array"),
    ("array[Int,4] :: allocated[horizontal[2] :: single[arraydist[3, 4]]]",
     "arraydist takes 1 argument, got 2"),
    ("array[Int,4] :: allocated[single[0]] :: share", "share takes 1 argument, got 0"),
    ("array[Int,4] :: allocated[single[0]] :: share[1]", "share takes the name of a base array"),
    ("array[Int,4] :: allocated[single[0]] :: Share[d, d]", "Share takes 1 argument, got 2"),
    ("Int :: frob[]", "unknown type constructor 'frob'"),
    ("Frob", "unknown type constructor 'Frob'"),
    ("Int[1] :: frob", "Int takes no arguments"),
]


@pytest.mark.parametrize("decl, message", TYPE_EXPR_ERRORS)
def test_type_expression_errors_are_located_at_the_name(decl, message):
    src = f"var d : array[Int,2] :: allocated[multiple[]];\n  var x : {decl};"
    (diag,) = diagnostics_of(src, name="prog.mesh")
    assert str(diag) == f"prog.mesh:2:7: InvalidCombination: {message}"


def test_a_const_loop_variable_is_refused():
    assert [str(d) for d in diagnostics_of("var c : Int :: const := 1;\nfor c from 0 to 2 { };")] \
        == ["<source>:2:1: ConstViolation: loop variable 'c' is declared const"]


# --- classes: what each expression's value is, from the declared kinds ---

MISUSE_HEADER = (
    "var x := 0;\n"
    "var s : array[complex,4] :: allocated[multiple[]];\n"
    "var A : array[complex,4,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
    "var U : array[complex,4,8] :: allocated[row[] :: single[0]];\n"
    "var X : array[Int,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
    "var B : array[Int,4] :: allocated[single[on[0]]];\n")
MISUSE = [(MISUSE_HEADER + body, diagnostic) for body, diagnostic in [
    ("x[0] := 1;", "7:2: NotIndexable: 'x' is a scalar and cannot be indexed"),
    ("var y := x[0];", "7:11: NotIndexable: 'x' is a scalar and cannot be indexed"),
    ("x := A[0];", "7:1: ArrayAssignment: cannot store a block into 'x'"),
    ("x := A[0][1];", "7:1: ArrayAssignment: cannot store a line into 'x'"),
    ("X[0][1] := 2;", "7:5: NotIndexable: a scalar cannot be indexed"),
    ("U[0][1] := 2;", "7:1: LineAssignment: a line store needs A[block][line] of a partitioned "
                      "2D array; 'U' is not one"),
    ("A[0][1] := 2;", "7:1: LineAssignment: a line of 'A' takes a line, not a scalar"),
    ("A[0] := 1;", "7:1: ElementAssignment: element assignment needs a one-dimensional array; "
                   "'A' has two dimensions"),
    ("X[0] := A;", "7:1: ArrayAssignment: cannot store an array into an element of 'X'"),
    ("var q := X.low;", "7:11: AccessorMisuse: .low needs a block like A[blockid], not an array"),
    ("var q := A.low;", "7:11: AccessorMisuse: .low needs a block like A[blockid], not an array"),
    ("var q := A[0].localblocks;",
     "7:14: AccessorMisuse: .localblocks needs a distributed array, not a block"),
    ("computeSin(x);", "7:12: BuiltinArgument: computeSin needs a replicated 1D complex array"),
    ("FFT(x, s);", "7:5: BuiltinArgument: FFT needs a line like A[blockid][i] of a complex array"),
    ('writefile(s, "o.dat");',
     "7:11: BuiltinArgument: file transfer needs a singly-allocated, unpartitioned array"),
    ('writefile(A, "o.dat");',
     "7:11: BuiltinArgument: file transfer needs a singly-allocated, unpartitioned array"),
    ("var d : array[Int,2] :: allocated[single[on[0]]];\n"
     "var D : array[Int,4] :: allocated[row[] :: horizontal[2] :: single[arraydist[d]]];",
     "8:5: ArrayDistTarget: 'd' is not a replicated integer array"),
    # this one ran, its map the flattened rows of d: all zeros, as no store reaches them
    ("var d : array[Int,2,2] :: allocated[multiple[]];\n"
     "var D : array[Int,4] :: allocated[row[] :: horizontal[2] :: single[arraydist[d]]];",
     "8:5: ArrayDistTarget: distribution array 'd' has 2 dimensions; a block map has one"),
    ("function f(p : Int) { p[0] := 1 };",
     "7:24: NotIndexable: 'p' is a scalar and cannot be indexed"),
    ("var z := A;", "7:5: ArrayAssignment: 'z' is a local, which holds only a scalar: "
                    "it cannot be initialized with an array"),
    # z is refused, so its uses report nothing more
    ("var z := A[0]; var w := z[1];", "7:5: ArrayAssignment: 'z' is a local, which holds only "
                                      "a scalar: it cannot be initialized with a block"),
    ("var z := A[0][1];", "7:5: ArrayAssignment: 'z' is a local, which holds only a scalar: "
                          "it cannot be initialized with a line"),
    ("x := A;", "7:1: ArrayAssignment: cannot store an array into 'x'"),
    ("var q := 1 + A[0];", "7:15: NotAScalar: an operand must be a scalar, not a block"),
    ("for i from 0 to A { };", "7:17: NotAScalar: a loop bound must be a scalar, not an array"),
    ("proc A[0][1] { };", "7:10: NotAScalar: a proc rank must be a scalar, not a line"),
    ("var q := X[A];", "7:12: NotAScalar: an index must be a scalar, not an array"),
    ("var q := A.localblockid[s];",
     "7:25: NotAScalar: a local block index must be a scalar, not an array"),
]]

WALK_HEADER = ("var a : array[Int,4];\n"
               "var A : array[Int,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
               "var y;\n")
RUN_HEADER = (
    "var x := 0;\n"
    "var s : array[complex,4] :: allocated[multiple[]];\n"
    "var A : array[complex,4,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
    "var I : array[Int,4,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
    "var B : array[Int,4] :: allocated[single[on[1]]];\n")
ROWS = "var A : array[Int,4,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"


# Misuse that was a run-time fault before classes were checked.
MOVED_FROM_THE_RUN = [
    (WALK_HEADER + "y := y[0];", "4:7: NotIndexable: 'y' is a scalar and cannot be indexed"),
    (WALK_HEADER + "for k from 0 to 0 { var z := a; y := z };",
     "4:25: ArrayAssignment: 'z' is a local, which holds only a scalar: "
     "it cannot be initialized with an array"),
    (WALK_HEADER + "y := 1 + A;", "4:10: NotAScalar: an operand must be a scalar, not an array"),
    (WALK_HEADER + "function g() { y := y[0] }; g();",
     "4:22: NotIndexable: 'y' is a scalar and cannot be indexed"),
    (WALK_HEADER + "function g() { A[1] := A }; g();",
     "4:16: ArrayAssignment: cannot store an array into an element of 'A'"),
    (RUN_HEADER + "computeSin(x);",
     "6:12: BuiltinArgument: computeSin needs a replicated 1D complex array"),
    (RUN_HEADER + "FFT(x, s);",
     "6:5: BuiltinArgument: FFT needs a line like A[blockid][i] of a complex array"),
    (RUN_HEADER + "FFT(A[0][0], B);",
     "6:14: BuiltinArgument: FFT needs the replicated twiddle array"),
    (RUN_HEADER + "FFT(I[0][0], s);",
     "6:9: BuiltinArgument: FFT needs a line like A[blockid][i] of a complex array"),
    (RUN_HEADER + 'writefile(s, "out.dat");',
     "6:11: BuiltinArgument: file transfer needs a singly-allocated, unpartitioned array"),
    (RUN_HEADER + 'writefile(A, "out.dat");',
     "6:11: BuiltinArgument: file transfer needs a singly-allocated, unpartitioned array"),
    (RUN_HEADER + "var d : array[Int,2] :: allocated[single[on[0]]];\n"
     "var D : array[Int,4] :: allocated[row[] :: horizontal[2] :: single[arraydist[d]]];",
     "7:5: ArrayDistTarget: 'd' is not a replicated integer array"),
    (RUN_HEADER + "var C : array[complex,4] :: allocated[horizontal[2] :: single[evendist[]]] "
     ":: share[s];",
     "6:5: ShareTarget: share base 's' is replicated; a share view aliases a single-copy array"),
    (RUN_HEADER + "function f(p : Int) { p[0] := 1 };\nvar w : Int := 0;\nf(w);",
     "6:24: NotIndexable: 'p' is a scalar and cannot be indexed"),
    (RUN_HEADER + "function f(p : Int) { x := p[0] };\nvar w : Int := 0;\nf(w);",
     "6:29: NotIndexable: 'p' is a scalar and cannot be indexed"),
    (RUN_HEADER + "A[0] := 1;", "6:1: ElementAssignment: element assignment needs a "
                                "one-dimensional array; 'A' has two dimensions"),
    (RUN_HEADER + "A[1 / 0] := 1;", "6:1: ElementAssignment: element assignment needs a "
                                    "one-dimensional array; 'A' has two dimensions"),
    (RUN_HEADER + "function f() { A[0] := 1 };\nf();", "6:16: ElementAssignment: element "
     "assignment needs a one-dimensional array; 'A' has two dimensions"),
    (RUN_HEADER + "var q : Int :: allocated[single[on[0]]];\nq[0] := 1;",
     "7:2: NotIndexable: 'q' is a scalar and cannot be indexed"),
    (RUN_HEADER + "var R : array[Int,4,8] :: allocated[multiple[]];\nR[0] := 1;",
     "7:1: ElementAssignment: element assignment needs a one-dimensional array; "
     "'R' has two dimensions"),
    (RUN_HEADER + "var R : array[Int,4,8] :: allocated[multiple[]];\nR[0] := 1 / 0;",
     "7:1: ElementAssignment: element assignment needs a one-dimensional array; "
     "'R' has two dimensions"),
    (RUN_HEADER + "x := I[9];", "6:1: ArrayAssignment: cannot store a block into 'x'"),
    (RUN_HEADER + "function f() { x[0] := 1 };\n"
     "for i from 0 to 0 { var x : array[Int,4] :: const; f() };",
     "6:17: NotIndexable: 'x' is a scalar and cannot be indexed"),
    (ROWS + "var x := A[0][1.5];", "2:5: ArrayAssignment: 'x' is a local, which holds only a "
                                   "scalar: it cannot be initialized with a line"),
]


@pytest.mark.parametrize("source, diagnostic", MISUSE + MOVED_FROM_THE_RUN)
def test_each_misuse_a_type_decides_is_one_diagnostic_at_its_node(source, diagnostic):
    """Each of these but `x := A` passed `typecheck` before classes were
    checked, and faulted on a rank or ran, leaving a local that aliases an
    array, block or line."""
    assert [str(d) for d in diagnostics_of(source + "\n")] == [f"<source>:{diagnostic}"]


CLASSES = ("scalar", "array", "block", "line")
# A value of each class over CLASS_HEADER.
VALUES = {"scalar": "x", "array": "A", "block": "A[0]", "line": "A[0][1]"}
CLASS_HEADER = (
    "var x := 0;\nvar y := 0;\n"
    "var q : Int :: allocated[single[on[0]]];\n"
    "var s : array[complex,4] :: allocated[multiple[]];\n"
    "var A : array[complex,4,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n"
    "var U : array[complex,4,8] :: allocated[row[] :: single[0]];\n"
    "var X : array[Int,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n")
# Each use site: its statement around {v}, the classes it takes, and its own
# value of the class it takes, where that of VALUES has the wrong kind.
USE_SITES = [
    ("y := {v};", "scalar", None),
    ("var z := {v};", "scalar", None),
    ("q := {v};", "scalar", None),
    ("X[0] := {v};", "scalar", None),
    ("A[1][0] := {v};", "line", None),
    ("A := {v};", "array", None),
    ("{v}[0];", "array block line", None),
    ("y := X[{v}];", "scalar", None),
    ("y := {v}.low;", "block", None),
    ("y := {v}.localblocks;", "array", None),
    ("y := A.localblockid[{v}];", "scalar", None),
    ("y := 1 + {v};", "scalar", None),
    ("y := {v} < 1;", "scalar", None),
    ("y := {v} == 1;", "scalar", None),
    ("for k from 0 to {v} {{ }};", "scalar", None),
    ("proc {v} {{ }};", "scalar", None),
    ("computeSin({v});", "array", "s"),
    ("proc 0 {{ FFT({v}, s) }};", "line", None),
    ("proc 0 {{ FFT(A[0][1], {v}) }};", "array", "s"),
    ('proc 0 {{ writefile({v}, "o.dat") }};', "array", "U"),
    ("proc 0 {{ writefile(U, {v}) }};", "scalar", '"o.dat"'),
    ('proc 0 {{ writefile(U, "o.dat"); readfile({v}, "o.dat") }};', "array", "U"),
]
# Uses that ran before, and are now refused: a local holds only a scalar,
# and `==` compares scalars only (it compared an array by identity).
NEWLY_REFUSED = ("var z := {v};", "y := {v} == 1;")


def run_unchecked_walk(source, nprocs, workdir):
    """Run source through the AST walk alone, unchecked and uncompiled; the
    walk's class tests are those the run made before the checker's."""
    program = parse(source)
    with pytest.MonkeyPatch.context() as patch:
        ast_walk.install(patch)
        patch.setattr(interp, "compile_program",
                      lambda checked: [(s, None) for s in checked.program.statements])
        return run(CheckedProgram(program, {}, "<test>"), nprocs, workdir=str(workdir))


@pytest.mark.parametrize("cls", CLASSES)
@pytest.mark.parametrize("site, takes, own", USE_SITES)
def test_the_checker_refuses_exactly_the_uses_that_faulted_at_run_time(
        tmp_path, site, takes, own, cls):
    """Every use site crossed with every class. The checker refuses a use
    exactly when the run faulted on it, but for the stated changes of
    NEWLY_REFUSED, which ran. The AST walk keeps the run's old class tests,
    so it shows the fault; a builtin's tests are gone from the run, and
    each builtin faulted on every class but the one it takes."""
    value = own if own is not None and cls in takes.split() else VALUES[cls]
    source = CLASS_HEADER + site.format(v=value) + "\n"
    refused = cls not in takes.split()
    if not refused:
        checked = check_program(parse(source))
        for run_path in RUNS:
            run_path(checked, 2, workdir=str(tmp_path))
        return
    (diagnostic,) = diagnostics_of(source)
    assert diagnostic.line == 8, diagnostic
    if any(builtin in site for builtin in ("computeSin", "FFT", "file")):
        return
    if site in NEWLY_REFUSED:
        run_unchecked_walk(source, 2, tmp_path)
        return
    with pytest.raises(RuntimeFault):
        run_unchecked_walk(source, 2, tmp_path)


def value_class(value):
    return {DistributedArray: "array", BlockRef: "block", LineSlice: "line"}.get(
        type(value), "scalar")


def binding_kind(binding):
    """What a Layout says of a binding: (distributed, replicated, ndim)."""
    if binding.kind == "local":
        return (False, False, 0)
    return (True, binding.array.replicated, binding.array.descriptor.ndim)


def classes_agree(source, nprocs, workdir):
    """Check source, recording the class check_expr gives each expression,
    then run it through the AST walk, recording the class of each value
    and the binding each name read or stored finds; asserts that the two
    agree on every expression the walk evaluates, that the Layout the checker
    resolved each of those names to is its binding's, and that a loop
    counts in an existing local just where the checker says; returns the
    classes seen."""
    checker_classes, walked, bound, reused = {}, {}, {}, {}
    check_expr, walk_eval = Checker.check_expr, ast_walk.WalkingContext.eval
    walk_assign, walk_for = (ast_walk.WalkingContext.exec_assign,
                             ast_walk.WalkingContext.exec_for)

    def checking(self, expr, statement=False):
        checker_classes[id(expr)] = check_expr(self, expr, statement)
        return checker_classes[id(expr)]

    def bind(ctx, name):
        bound.setdefault(id(name), (name, set()))[1].add(binding_kind(ctx.lookup(name.name)))

    def walking(self, expr):
        if type(expr) is ast.Name:
            bind(self, expr)
        value = yield from walk_eval(self, expr)
        walked.setdefault(id(expr), (expr, set()))[1].add(value_class(value))
        return value

    def assigning(self, stmt):
        root = stmt.target
        while type(root) is ast.Index:
            root = root.base
        bind(self, root)
        return walk_assign(self, stmt)

    def looping(self, stmt):
        existing = self.lookup(stmt.var)
        reused.setdefault(id(stmt), (stmt, set()))[1].add(
            existing is not None and existing.kind == "local")
        return walk_for(self, stmt)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Checker, "check_expr", checking)
        patch.setattr(ast_walk.WalkingContext, "eval", walking)
        patch.setattr(ast_walk.WalkingContext, "exec_assign", assigning)
        patch.setattr(ast_walk.WalkingContext, "exec_for", looping)
        checked = check_program(parse(source))
        try:
            run_walked(checked, nprocs, workdir=str(workdir))
        except RuntimeFault:
            pass  # the classes of what ran before the fault still count
    seen = set()
    for key, (expr, classes) in walked.items():
        if type(expr) is ast.Call and expr.func != "processes":
            continue  # a call statement has no value
        assert classes == {checker_classes[key]}, (expr, source)
        seen |= classes
    for key, (name, kinds) in bound.items():
        kind = checked.names[key].kind
        assert kinds == {(kind.distributed, kind.replicated, kind.ndim)}, (name, source)
    for key, (stmt, reuses) in reused.items():
        assert reuses == {checked.names[key].node is not stmt}, source
    return seen


def test_corpus_classes_match_the_values(tmp_path):
    generate_image(16, 1, tmp_path / "image.dat")
    seen = set()
    for name in CORPUS:
        seen |= classes_agree(corpus_source(name), 4, tmp_path)
    assert seen == set(CLASSES)


def test_generated_program_classes_match_the_values(tmp_path):
    seen = set()
    for seed in range(150):
        nprocs, source, _ = generate(seed)
        seen |= classes_agree(source, nprocs, tmp_path)
    for seed in range(60):
        seen |= classes_agree(communicating_program(seed, 3), 3, tmp_path)
    assert seen == set(CLASSES)


def diagnostics_table():
    """README.md's Diagnostics section: the prelude its examples assume, and
    each (rule, example) of its table. A row's examples are the code spans
    after the last text of its second cell that ends in ": "."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Diagnostics\n", 1)[1].split("\n## ", 1)[0]
    intro, table = section.split("\n| rule |", 1)
    prelude = re.findall(r"`([^`]*)`", re.split(r"The\s+examples\s+assume", intro)[1])
    examples = []
    for line in table.splitlines()[2:]:
        if not line.startswith("| `"):
            break
        rule, refuses = (cell.strip() for cell in line.split("|")[1:3])
        spans = refuses.split("`")  # text, code, text, code, ...
        last = max(k for k in range(0, len(spans), 2) if spans[k].endswith(": "))
        assert spans[last + 1::2], line
        examples += [(rule.strip("`"), example) for example in spans[last + 1::2]]
    return "\n".join(prelude), examples


PRELUDE, DIAGNOSTICS_TABLE = diagnostics_table()


@pytest.mark.parametrize("rule, example", DIAGNOSTICS_TABLE)
def test_each_readme_diagnostics_example_gives_its_rule(rule, example):
    assert {d.rule for d in diagnostics_of(f"{PRELUDE}\n{example}\n")} == {rule}


# --- loop classes: settled in the checker's one walk ---


def loops_of(stmts):
    """Every For in stmts, with those nested in loops, proc and function bodies."""
    for s in stmts:
        if type(s) is ast.For:
            yield s
        if type(s) in (ast.For, ast.ProcBlock, ast.FuncDef):
            yield from loops_of(s.body)


def loop_class(once, owner):
    """A local-only loop's facts, or None, and its owner-computes slot. The
    slots are sorted: their order is the order a walk meets them in, which
    only the byte order of `run_once`'s snapshot follows, on every rank alike."""
    if once is None:
        return None, owner
    return (sorted(once.locals), sorted(once.replicas),
            sorted(once.locals[k] for k in once.stores),
            sorted(once.replicas[k] for k in once.fills),
            once.statements, once.gathers), owner


def classes_match_the_reference(source):
    """Check source; assert each For's class is the reference walk's, and
    return the classes."""
    checked = check_program(parse(source))
    loops = list(loops_of(checked.program.statements))
    classes = []
    for node in loops:
        got = loop_class(checked.loops.get(id(node)), checked.owners.get(id(node)))
        want = loop_class(reference_local_only(checked, node),
                          reference_owner_computes(checked, node))
        assert got == want, (node.line, node.column, source)
        classes.append(got)
    assert set(checked.loops) | set(checked.owners) <= {id(node) for node in loops}
    return classes


LOOP_CLASS_EDGES = [
    # a gathered read in the loop's own bound; then in a nested loop's bound
    "var i := 2;\nfor i from 0 to X[i] { s := s + X[i] };\n",
    "for i from 0 to 3 { for j from 0 to X[i] - 5 { s := s + j } };\n",
    # a reused loop variable read in its own bound, gathered or not
    "var k := 2;\nfor k from k to 5 { s := s + k };\nfor k from k - 3 to 7 { s := s + X[k] };\n",
    # a nested loop counting in the loop's variable, or storing it
    "for i from 4 to 7 { for i from 0 to 1 { t := t + 1 }; s := s + X[i] };\n",
    "for i from 4 to 7 { s := s + X[i]; for j from 0 to 1 { i := i + 0 } };\n",
    # top-level names read from a function body, whose slots lie below `seen`
    "function f() { var b := 2; for i from 0 to 3 { R[i / 2] := s + b; t := X[i] } };\nf();\n",
    # loops inside proc; local-only loops nested in loops holding sync or proc
    "proc 1 { for i from 0 to 3 { s := s + X[i] } };\n",
    "for k from 0 to 1 { sync; for i from 0 to 2 { s := s + i } };\n",
    "for k from 0 to 1 { proc 0 { t := 1 }; for i from 0 to 2 { R[0] := R[1] + i } };\n",
    # owner computes: X[v] := e alone, X written by its owner
    "for i from 0 to 7 { X[i] := i };\nfor j from 0 to 1 { R[j] := j };\n",
]
LOOP_CLASS_HEAD = ("var s := 0;\nvar t := 0;\nvar R : array[Int,2];\n"
                   "var X : array[Int,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];\n")


def test_loop_classes_match_the_compile_time_walk():
    """The class the checker settles for each For, from its one walk, is
    the one the compiler's second walk over the loop found (the reference,
    in conftest): whether it is local-only, its locals and replicas, those
    it stores, its statements, the array it gathers, and the array it fills
    owner computes. Over the corpus, random programs of each generator,
    the gathered and owner-computes loop programs and the edge cases."""
    sources = [corpus_source(name) for name in CORPUS]
    sources += [LOOP_CLASS_HEAD + edge for edge in LOOP_CLASS_EDGES]
    for seed in range(100):
        sources += [generate(seed)[1], MixedGen(seed).render(), ScopeGen(seed).render()]
    for nprocs, m in ((2, 5), (3, 7)):
        for blocks in (1, 2):
            for place in ("evendist[]", "arraydist[d]"):
                forms = ("top", "fresh", "proc", "function")
                sources += _owner_loop_programs(nprocs, m, blocks, place, forms)
                sources += _gather_loop_programs(nprocs, m, blocks, place,
                                                 forms + ("nested", "replica"))
    classes = [c for source in sources for c in classes_match_the_reference(source)]
    local = [once for once, _ in classes if once is not None]
    gathered = sum(once[-1] is not None for once in local)
    owners = sum(owner is not None for _, owner in classes)
    assert len(classes) > 4000 and len(local) > 1000, (len(classes), len(local))
    assert gathered > 300 and owners > 300, (gathered, owners)


def classes_of(body):
    """body after LOOP_CLASS_HEAD: the checked program, and its loops in
    source order, each (node, its LocalOnly or None, its owner slot)."""
    checked = check_program(parse(LOOP_CLASS_HEAD + body))
    return checked, [(node, checked.loops.get(id(node)), checked.owners.get(id(node)))
                     for node in loops_of(checked.program.statements)]


def slot(checked, name):
    return checked.toplevel[name].slot


def test_a_gathered_read_in_a_loops_own_bound_refuses_it():
    _, [(_, once, _)] = classes_of(LOOP_CLASS_EDGES[0])
    assert once is None


def test_a_gathered_read_in_a_nested_loops_bound_gathers_for_the_outer_loop():
    checked, [(_, outer, _), (_, inner, _)] = classes_of(LOOP_CLASS_EDGES[1])
    assert outer.gathers == slot(checked, "X") and inner is None
    assert (outer.locals, outer.stores, outer.statements) == ([slot(checked, "s")], [0], 2)


def test_a_reused_loop_variable_read_in_its_own_bound_is_an_input_it_stores():
    checked, [(_, plain, _), (_, gathered, _)] = classes_of(LOOP_CLASS_EDGES[2])
    k, s = slot(checked, "k"), slot(checked, "s")
    for once in (plain, gathered):
        assert (sorted(once.locals), len(once.stores)) == (sorted([k, s]), 2)
    assert (plain.gathers, gathered.gathers) == (None, slot(checked, "X"))


def test_a_loop_whose_variable_moves_gathers_nothing():
    for edge in LOOP_CLASS_EDGES[3:5]:
        checked, [(_, outer, _), (_, inner, _)] = classes_of(edge)
        assert outer is None and inner is not None and inner.gathers is None, edge


def test_a_loop_in_a_function_body_takes_top_level_names_as_inputs():
    """The body's frame starts with the top-level slots it sees, below
    `seen`, so those names are declared outside the loop, as b is."""
    checked, [(node, once, _)] = classes_of(LOOP_CLASS_EDGES[5])
    b = checked.names[id(node.body[0].value.right)].slot
    assert slot(checked, "t") < checked.seen["f"] <= b
    assert sorted(once.locals) == sorted([slot(checked, n) for n in "st"] + [b])
    assert [once.locals[k] for k in once.stores] == [slot(checked, "t")]
    assert (once.replicas, once.fills, once.gathers) == ([slot(checked, "R")], [0],
                                                         slot(checked, "X"))


def test_loops_in_proc_and_around_sync_or_proc_are_classed_on_their_own():
    """A loop inside `proc` is local-only (the run never runs it once for
    all there); a loop holding `sync` or `proc` is not, but a loop inside
    it may be."""
    checked, [(_, once, _)] = classes_of(LOOP_CLASS_EDGES[6])
    assert once.gathers == slot(checked, "X")
    for edge in LOOP_CLASS_EDGES[7:9]:
        checked, [(_, outer, _), (_, inner, _)] = classes_of(edge)
        assert outer is None and inner is not None and inner.statements == 1, edge


def test_owner_computes_loops_store_into_a_single_copy_array():
    checked, [(_, filled, x), (_, replica, none)] = classes_of(LOOP_CLASS_EDGES[9])
    assert (x, none) == (slot(checked, "X"), None)
    assert filled is None and replica is not None
