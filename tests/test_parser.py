import dataclasses
import re

import pytest

from conftest import format_program, reference_tokenize, under_frames
from meshlite import ast, check_program, compiler, parse, run
from meshlite.ast import MAX_DEPTH
from meshlite.errors import CheckError, LexError, ParseError, RuntimeFault
from meshlite.fixtures import CORPUS, corpus_source, generate_image
from meshlite.lexer import tokenize
from meshlite.parser import Parser
from test_compiler import MixedGen

ONESIDED = corpus_source("onesided.mesh")


def test_onesided_program_shape():
    program = parse(ONESIDED)
    assert len(program.statements) == 3
    decls = [s for s in program.statements if isinstance(s, ast.VarDecl)]
    assigns = [s for s in program.statements if isinstance(s, ast.Assign)]
    assert len(decls) == 2 and len(assigns) == 1
    assert decls[0].name == "a" and decls[1].name == "b"


def test_untyped_var_without_initializer():
    (decl,) = parse("var i;").statements
    assert isinstance(decl, ast.VarDecl)
    assert decl.type_expr is None and decl.init is None


def test_var_list_splits_into_declarations():
    program = parse("var i, j;")
    assert [s.name for s in program.statements] == ["i", "j"]
    assert all(isinstance(s, ast.VarDecl) for s in program.statements)


def test_for_loop_inclusive_bounds_shape():
    (loop,) = parse("for j from 0 to p - 1 { d[j] := j };").statements
    assert isinstance(loop, ast.For)
    assert loop.var == "j"
    assert isinstance(loop.start, ast.IntLit) and loop.start.value == 0
    assert isinstance(loop.stop, ast.BinOp) and loop.stop.op == "-"
    assert len(loop.body) == 1 and isinstance(loop.body[0], ast.Assign)


def test_for_loop_single_statement_body():
    (loop,) = parse("for i from a to b FFT(A[bid][i - a], sins);").statements
    assert isinstance(loop, ast.For)
    assert len(loop.body) == 1
    assert isinstance(loop.body[0], ast.ExprStmt)
    assert loop.body[0].expr.func == "FFT"


def test_proc_block_with_trailing_semicolon():
    (proc,) = parse('proc 0 { readfile(S, "image.dat") };').statements
    assert isinstance(proc, ast.ProcBlock)
    assert isinstance(proc.rank, ast.IntLit) and proc.rank.value == 0
    assert len(proc.body) == 1


def test_semicolon_optional_before_closing_brace():
    (proc,) = parse("proc 0 { x := 1 };").statements
    assert len(proc.body) == 1


def test_sync_forms():
    program = parse("sync;\nsync a;")
    syncs = list(program.statements)
    assert syncs[0].var is None
    assert syncs[1].var == "a"


def test_type_chain_structure():
    (decl,) = parse(
        "var A : array[complex,n,n] :: allocated[row[] :: horizontal[p] :: single[evendist[]]];"
    ).statements
    apps = decl.type_expr.apps
    assert [a.ctor for a in apps] == ["array", "allocated"]
    inner = apps[1].args[0]
    assert isinstance(inner, ast.TypeExpr)
    assert [a.ctor for a in inner.apps] == ["row", "horizontal", "single"]


def test_single_with_bare_rank():
    (decl,) = parse("var S : array[complex,n,n] :: allocated[row[] :: single[0]];").statements
    single = decl.type_expr.apps[1].args[0].apps[1]
    assert single.ctor == "single"
    assert isinstance(single.args[0], ast.IntLit)


def test_accessor_expressions():
    program = parse("x := A.localblocks; y := A.localblockid[j]; z := A[bid].low; w := A[bid].high;")
    exprs = [s.value for s in program.statements]
    assert [e.which for e in exprs] == ["localblocks", "localblockid", "low", "high"]
    assert isinstance(exprs[2].base, ast.Index)


def test_unknown_accessor_rejected():
    with pytest.raises(ParseError):
        parse("x := A.size;")


def test_function_definition_with_chain_parameters():
    src = "function f(A : array[complex,n,n] :: allocated[row[] :: single[0]]) { A := A; };"
    (fn,) = parse(src).statements
    assert isinstance(fn, ast.FuncDef)
    assert fn.params[0].name == "A"
    assert fn.params[0].type_expr.apps[0].ctor == "array"


def test_assignment_targets():
    program = parse("a := 1; d[i] := 2; A[bid][r] := x;")
    targets = [s.target for s in program.statements]
    assert isinstance(targets[0], ast.Name)
    assert isinstance(targets[1], ast.Index)
    assert isinstance(targets[2], ast.Index) and isinstance(targets[2].base, ast.Index)


def test_invalid_lvalue_rejected():
    with pytest.raises(ParseError, match="invalid assignment target"):
        parse("f(x) := 2;")
    with pytest.raises(ParseError) as err:
        parse("a[0][1][2] := 3;")
    assert "A[b][i][k] := v is not supported" in str(err.value)
    assert "A[b][i] := line" in str(err.value)


def test_parse_error_reports_position_and_expectation():
    with pytest.raises(ParseError) as err:
        parse("var := 3;")
    assert "expected" in str(err.value)
    assert err.value.line == 1


def test_unterminated_block():
    with pytest.raises(ParseError):
        parse("proc 0 { x := 1;")


def test_arithmetic_precedence():
    (stmt,) = parse("x := 1 + 2 * 3;").statements
    assert stmt.value.op == "+"
    assert stmt.value.right.op == "*"


def test_binary_operators_associate_left():
    (stmt,) = parse("x := a - b - c < d / e * f == g;").statements
    eq = stmt.value
    assert eq.op == "==" and eq.left.op == "<"
    assert eq.left.left.op == "-" and eq.left.left.left.op == "-"
    assert eq.left.right.op == "*" and eq.left.right.left.op == "/"


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_parses(name):
    program = parse(corpus_source(name))
    assert len(program.statements) > 0


@pytest.mark.parametrize("name", CORPUS)
def test_pretty_print_round_trip(name):
    program = parse(corpus_source(name))
    printed = format_program(program)
    reparsed = parse(printed)
    assert reparsed == program
    assert format_program(reparsed) == printed


def parsed(tokens_of, source):
    """The program, or the error's class, text and position."""
    try:
        return parse(tokens_of(source))
    except (LexError, ParseError) as err:
        return (type(err).__name__, str(err), err.line, err.column)


@pytest.mark.parametrize("name", CORPUS)
def test_every_truncated_corpus_prefix_fails_like_the_reference(name):
    """Cut the program after each token: the same program or the same error."""
    source = corpus_source(name)
    line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
    ends = [line_starts[t.line - 1] + t.column - 1 + len(t.lexeme) for t in tokenize(source)[:-1]]
    errors = 0
    for end in ends:
        prefix = source[:end]
        got = parsed(tokenize, prefix)
        assert got == parsed(reference_tokenize, prefix), prefix
        errors += isinstance(got, tuple)
    assert errors > len(ends) // 2


def test_peek_past_the_end_of_input_reads_the_end_marker():
    parser = Parser(tokenize("x"))
    parser.advance()
    assert parser.peek().kind == parser.peek(1).kind == "end"
    with pytest.raises(ParseError) as err:
        parse("var A : array[int, n")
    assert str(err.value) == "1:21: expected ], got 'end of input'"


# Sources nesting n levels deep, one line each, and a pattern whose k-th
# match opens level k: the parser refuses the level that passes MAX_DEPTH.
NESTED = {
    "parentheses": (lambda n: "var x := " + "(" * n + "1" + ")" * n + ";", r"\("),
    "blocks": (lambda n: "".join(f"for i{k} from 0 to 0 {{ " for k in range(n)) + "}" * n,
               r"\{"),
    "one-statement bodies": (
        lambda n: "var x; " + "".join(f"for i{k} from 0 to 0 " for k in range(n)) + "x := 1;",
        r"(?<=to 0 )\S"),
    "indexes": (lambda n: "var a : array[Int,4]; var x := " + "a[" * n + "0" + "]" * n + ";",
                r"(?<=a)\["),
    "chained indexes": (lambda n: "var a : array[Int,4]; var x := a" + "[0]" * n + ";",
                        r"\[0"),
    "sum": (lambda n: "var x := 1" + "+1" * n + ";", r"\+"),
    "product": (lambda n: "var x := 1" + "*1" * n + ";", r"\*"),
    "comparisons": (lambda n: "var x := 1" + "<1" * n + ";", r"<"),
    "call arguments": (lambda n: "processes(" * n + ")" * n + ";", r"\("),
    "type arguments": (lambda n: "var a : " + "t[" * n + "]" * n + ";", r"\["),
}


@pytest.mark.parametrize("kind", list(NESTED))
def test_a_tree_nests_at_most_max_depth_deep(kind):
    """The deepest tree parses under 40 more frames, also twice in a row;
    one level more is a ParseError at the token that opens it, not a
    RecursionError."""
    build, opener = NESTED[kind]
    deepest = build(MAX_DEPTH)
    under_frames(40, lambda: parse(deepest + "\n" + deepest))
    source = build(MAX_DEPTH + 1)
    with pytest.raises(ParseError) as err:
        under_frames(40, lambda: parse(source))
    column = list(re.finditer(opener, source))[MAX_DEPTH].start() + 1
    assert str(err.value) == f"1:{column}: source nests more than {MAX_DEPTH} deep"


@pytest.mark.parametrize("source, where", [
    ("var x := " + "(" * 300 + "1" + ")" * 300 + ";\n", "1:138"),
    ("".join(f"for i{k} from 0 to 0 {{ " for k in range(1000)) + "}" * 1000 + "\n", "1:2856"),
    ("var x := " + "+".join(["1"] * 900) + ";\n", "1:267"),
    ("var x := " + "+".join(["1"] * 3000) + ";\n", "1:267"),
], ids=["300 parentheses", "1000 loops", "900 terms", "3000 terms"])
def test_deep_source_fails_at_a_location(source, where):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == f"{where}: source nests more than {MAX_DEPTH} deep"


@pytest.mark.parametrize("kind", ["parentheses", "blocks", "one-statement bodies", "indexes",
                                  "chained indexes", "sum", "product", "comparisons"])
def test_the_deepest_tree_checks(kind):
    """Checking the deepest tree runs out of no stack. Past a 1D element,
    chained indexes index a scalar: one diagnostic, at the first of them."""
    build, _ = NESTED[kind]
    if kind != "chained indexes":
        under_frames(40, lambda: check_program(parse(build(MAX_DEPTH))))
        return
    with pytest.raises(CheckError) as info:
        under_frames(40, lambda: check_program(parse(build(MAX_DEPTH))))
    assert str(info.value) == "<source>:1:36: NotIndexable: a scalar cannot be indexed"


# --- nodes are slotted, so mutable: no pass after the parser changes them ---


def snapshot(node):
    """A deep structural repr of a tree, positions included."""
    if isinstance(node, ast.Node):
        fields = ", ".join(f"{f.name}={snapshot(getattr(node, f.name))}"
                           for f in dataclasses.fields(node))
        return f"{type(node).__name__}({fields})"
    if isinstance(node, tuple):
        return "(" + ", ".join(map(snapshot, node)) + ",)"
    return repr(node)


UNTOUCHED = ([(name, corpus_source(name)) for name in CORPUS]
             + [(f"MixedGen({seed})", MixedGen(seed).render()) for seed in range(3)])


@pytest.mark.parametrize("name, source", UNTOUCHED, ids=[name for name, _ in UNTOUCHED])
@pytest.mark.parametrize("threshold", [compiler.HOT_STATEMENTS, 0], ids=["cold", "hot"])
def test_checking_compiling_and_running_leave_the_tree_as_parsed(
        tmp_path, monkeypatch, name, source, threshold):
    """At the default threshold, and hot: every loop the generator takes
    runs as generated Python. The reference lexer's tokens build the same
    tree, positions included."""
    monkeypatch.setattr(compiler, "HOT_STATEMENTS", threshold)
    generate_image(16, 1, tmp_path / "image.dat")
    program = parse(source)
    before = snapshot(program)
    assert "line=0" not in before
    assert before == snapshot(parse(reference_tokenize(source)))
    checked = check_program(program)
    try:
        run(checked, 3, workdir=str(tmp_path))
    except RuntimeFault:
        assert name.startswith("MixedGen")  # its loops may divide by zero on some ranks
    assert snapshot(program) == before
    assert not hasattr(program.statements[0], "__dict__")
