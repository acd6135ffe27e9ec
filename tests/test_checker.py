import pytest

from meshlite import check_program, parse, run
from meshlite.errors import CheckError
from meshlite.fixtures import CORPUS, corpus_source


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
var A : array[Int,4] :: allocated[horizontal[2] :: single[evendist[]]];
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
