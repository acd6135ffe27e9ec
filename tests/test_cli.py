import re

import pytest

import ast_walk
from meshlite.cli import main
from meshlite.fixtures import corpus_source, generate_image


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name in ("onesided.mesh", "channel.mesh", "fft2d.mesh", "fft2d_arraydist.mesh"):
        (tmp_path / name).write_text(corpus_source(name))
    generate_image(16, 1, tmp_path / "image.dat")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_typecheck_ok(workdir):
    assert main(["typecheck", "fft2d.mesh"]) == 0


def test_typecheck_reports_diagnostics(workdir, capsys):
    (workdir / "bad.mesh").write_text("var x : Int :: Char;\n")
    assert main(["typecheck", "bad.mesh"]) == 1
    err = capsys.readouterr().err
    assert re.match(r"bad\.mesh:1:\d+: InvalidCombination: ", err)


def test_typecheck_missing_file(workdir, capsys):
    assert main(["typecheck", "missing.mesh"]) == 2
    assert "error" in capsys.readouterr().err


def test_parse_error_exits_one(workdir):
    (workdir / "broken.mesh").write_text("var := ;")
    assert main(["typecheck", "broken.mesh"]) == 1


@pytest.mark.parametrize("source, expected", [
    ("var x := 1 @ 2;\n", "broken.mesh:1:12: LexError: unexpected character '@'\n"),
    ("var := ;", "broken.mesh:1:5: ParseError: expected variable name, got ':='\n"),
], ids=["lex", "parse"])
def test_typecheck_reports_a_front_end_error_at_one_location(workdir, capsys, source, expected):
    (workdir / "broken.mesh").write_text(source)
    assert main(["typecheck", "broken.mesh"]) == 1
    assert capsys.readouterr().err == expected


def test_a_lone_carriage_return_is_whitespace_through_the_cli(workdir, capsys):
    """The CLI lexes the file's characters as they are, as parse(text) does:
    a lone carriage return separates tokens and breaks no line."""
    (workdir / "cr.mesh").write_bytes(b"var x := 1;\r$;\n")
    assert main(["typecheck", "cr.mesh"]) == 1
    assert capsys.readouterr().err == "cr.mesh:1:13: LexError: unexpected character '$'\n"


@pytest.mark.parametrize("source,expected", [
    ("var d : array[Int,4] :: allocated[multiple[]];\nd[1.5] := 2;\n",
     "error: rank 1: array index must be an integer at 2:1\n"),
    ("var z := 0;\nvar d : array[Int,4/z] :: allocated[multiple[]];\n",
     "error: rank 1: division by zero at 2:20\n"),
    ("var A : array[Int,q] :: allocated[single[on[0]]];\n",
     "bad.mesh:1:19: UnknownVariable: 'q' is not declared\n"),
    ("var x : Int :: allocated[single[on]];\n",
     "bad.mesh:1:33: UnknownVariable: 'on' is not declared\n"),
])
def test_run_reports_bad_indices_and_type_arguments_at_their_source(
        workdir, capsys, source, expected):
    (workdir / "bad.mesh").write_text(source)
    assert main(["run", "bad.mesh", "--procs", "2"]) == 1
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("value, elem, expected", [
    ('"a"', "Int", "X[1] holds 'a', which MSHD cannot write as int"),
    ("c[1]", "Real", "X[1] holds (6.123233995736766e-17-1j), which MSHD cannot write as real"),
])
def test_writefile_of_an_element_its_file_cannot_hold_is_located(
        workdir, capsys, value, elem, expected):
    """Stores do not convert values, so writefile finds what the array's
    element type cannot hold: a fault naming the element, and no file."""
    (workdir / "bad.mesh").write_text(
        "var c : array[complex,2] :: allocated[multiple[]];\ncomputeSin(c);\n"
        f"var X : array[{elem},2] :: allocated[single[on[0]]];\n"
        f"proc 0 {{ X[1] := {value} }};\nproc 0 {{ writefile(X, \"o.dat\") }};\n")
    assert main(["run", "bad.mesh", "--procs", "2"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: rank 0: {expected} at 5:10\n"
    assert "Traceback" not in err
    assert not (workdir / "o.dat").exists()


@pytest.mark.parametrize("elem, first, second, expected", [
    ("Int", '"5"', "2.75", "X[0] holds '5', which MSHD cannot write as int"),
    ("Int", "5", "2.75", "X[1] holds 2.75, which MSHD cannot write as int"),
    ("Char", "65", "66.0", "X[1] holds 66.0, which MSHD cannot write as char"),
    ("Real", "1.5", '"2"', "X[1] holds '2', which MSHD cannot write as real"),
    ("Int", "4611686018427387904 * 2", "1",
     "X[0] holds 9223372036854775808, which MSHD cannot write as int"),
    ("Char", "65", "300", "X[1] holds 300, which MSHD cannot write as char"),
    ("Real", "9007199254740993", "1",
     "X[0] holds 9007199254740993, which MSHD cannot write as real"),
    ("Complex", "1", "0 - 9007199254740993",
     "X[1] holds -9007199254740993, which MSHD cannot write as complex"),
])
def test_writefile_converts_no_value_into_the_files_type(
        workdir, capsys, elem, first, second, expected):
    """A string or a float in an Int file, say, is not written as the int
    it converts to, nor an integer out of the kind's range wrapped into it,
    nor one a float cannot hold rounded into a Real or Complex file: the
    run faults at the writefile, and writes no file."""
    (workdir / "bad.mesh").write_text(
        f"var X : array[{elem},2] :: allocated[single[on[0]]];\n"
        f"proc 0 {{ X[0] := {first}; X[1] := {second} }};\n"
        "proc 0 { writefile(X, \"o.dat\") };\n")
    assert main(["run", "bad.mesh", "--procs", "2"]) == 1
    assert capsys.readouterr().err == f"error: rank 0: {expected} at 3:10\n"
    assert not (workdir / "o.dat").exists()


def test_run_writes_output_and_trace(workdir):
    assert main(["run", "fft2d.mesh", "--procs", "4", "--trace", "t.log"]) == 0
    assert (workdir / "image.out.dat").exists()
    lines = (workdir / "t.log").read_text().splitlines()
    assert lines
    for line in lines:
        kind, src, dst, nbytes, seq, tag = line.split("\t")
        assert kind in ("onesided-get", "onesided-put", "channel-send",
                        "channel-recv", "block-transfer")
        int(src), int(dst), int(nbytes), int(seq)


def test_run_reports_rank_bound_fault(workdir, capsys):
    assert main(["run", "onesided.mesh", "--procs", "2"]) == 1
    err = capsys.readouterr().err
    assert "rank" in err


@pytest.mark.parametrize("procs", ["1", "2"])
@pytest.mark.parametrize("trailing", ["", "sync;\n"])
def test_run_reports_sync_reached_inside_proc_at_the_sync(workdir, capsys, procs, trailing):
    (workdir / "guarded.mesh").write_text(f"function f() {{ sync; }};\nproc 0 {{ f() }};\n{trailing}")
    assert main(["run", "guarded.mesh", "--procs", procs]) == 1
    assert capsys.readouterr().err == (
        "error: rank 0: sync is collective and cannot run inside proc at 1:16\n")


@pytest.mark.parametrize("seed,rank", [("0", 1), ("3", 0)])
def test_run_reports_unbounded_recursion_without_a_traceback(workdir, capsys, seed, rank):
    (workdir / "recursive.mesh").write_text("function f() { f() };\nf();\n")
    args = ["run", "recursive.mesh", "--procs", "2", "--scheduler-seed", seed]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        f"error: rank {rank}: loops, proc bodies and calls nest more than 128 deep at 1:16\n")


# A receive no rank sends to: rank 1 waits on link 0->1 for good.
RECEIVER_LEFT_WAITING = ("var c : Int :: allocated[single[on[1]]] :: channel[0,1];\n"
                         "var q : Int :: allocated[single[on[0]]];\nproc 1 { c := q };\n")

MISUSE = {
    "300 parentheses": "var x := " + "(" * 300 + "1" + ")" * 300 + ";\n",
    "1000 loops": "for i from 0 to 0 { " * 1000 + "}" * 1000 + "\n",
    "900 terms": "var x := " + "+".join(["1"] * 900) + ";\n",
    "3000 terms": "var x := " + "+".join(["1"] * 3000) + ";\n",
    "a rank left at a barrier":
        "var x := 0;\nfunction f() { sync };\nproc 0 { x := 1 };\nfor i from 0 to x { f() };\n",
    "unbounded recursion": "function f() { f() }; f();\n",
    "a receiver left waiting": RECEIVER_LEFT_WAITING,
    "a receiver left waiting, the others at a barrier": RECEIVER_LEFT_WAITING + "sync;\n",
}
MISUSE_PROCS = {"a receiver left waiting, the others at a barrier": "3"}


@pytest.mark.parametrize("name", list(MISUSE))
@pytest.mark.parametrize("walk", [False, True], ids=["compiled", "walked"])
def test_misuse_fails_at_a_source_location(workdir, capsys, monkeypatch, name, walk):
    """Exit status 1 and one located line, never a traceback."""
    if walk:
        ast_walk.install(monkeypatch)
    (workdir / "misuse.mesh").write_text(MISUSE[name])
    assert main(["run", "misuse.mesh", "--procs", MISUSE_PROCS.get(name, "2")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"(error: rank \d: .* at \d+:\d+"
                        r"|misuse\.mesh:\d+:\d+: ParseError: (?!.*\d+:\d+).*)\n", err), err


def test_run_reports_rank_divergent_extents_at_the_declaration(workdir, capsys):
    """Ranks that evaluate one declaration's extent differently fault there,
    whichever rank allocates first, under every schedule."""
    (workdir / "divergent.mesh").write_text(
        "var n := 4;\nproc 1 { n := 8 };\nvar A : array[Int,n] :: allocated[multiple[]];\n"
        "proc 0 { A[7] := 1 };\n")
    for seed in range(8):
        args = ["run", "divergent.mesh", "--procs", "2", "--scheduler-seed", str(seed)]
        assert main(args) == 1, seed
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: rank ([01]): SPMD divergence: 'A' has shape \((4|8),\) "
                            r"here, but \((4|8),\) where it was allocated at 3:5\n", err), err


DIVERGENT_CHANNELS = {
    "async": "channel[a, 1] :: async",
    "blocking": "channel[a, 1 - a]",
}


@pytest.mark.parametrize("channel", list(DIVERGENT_CHANNELS))
@pytest.mark.parametrize("walk", [False, True], ids=["compiled", "walked"])
def test_run_reports_rank_divergent_channel_endpoints_at_the_declaration(
        workdir, capsys, monkeypatch, channel, walk):
    """Ranks that evaluate one channel's endpoints differently fault at its
    declaration, under every schedule, rather than move the value twice or
    block for ever."""
    if walk:
        ast_walk.install(monkeypatch)
    (workdir / "divergent.mesh").write_text(
        f"var a := 0;\nproc 1 {{ a := 1 }};\n"
        f"var c : Int :: allocated[single[on[1]]] :: {DIVERGENT_CHANNELS[channel]};\n"
        "var q : Int :: allocated[single[on[0]]];\nproc 0 { q := 5 };\nc := q;\nsync;\n")
    for seed in range(8):
        args = ["run", "divergent.mesh", "--procs", "2", "--scheduler-seed", str(seed)]
        assert main(args) == 1, seed
        err = capsys.readouterr().err
        comm = r"\('channel', [01], [01], (True|False)\)"
        assert re.fullmatch(rf"error: rank [01]: SPMD divergence: 'c' has comm {comm} "
                            rf"here, but {comm} where it was allocated at 3:5\n", err), err


def test_run_onesided_trace_has_exactly_one_event(workdir):
    assert main(["run", "onesided.mesh", "--procs", "3", "--trace", "one.log"]) == 0
    lines = (workdir / "one.log").read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("onesided-get\t2\t0\t8")


def test_run_define_overrides_size(workdir):
    generate_image(8, 1, workdir / "image.dat")
    assert main(["run", "fft2d.mesh", "--procs", "2", "--define", "n=8"]) == 0
    from meshlite.mshd import read_mshd
    _, shape, _ = read_mshd(workdir / "image.out.dat")
    assert shape == (8, 8)


def test_run_bad_define(workdir, capsys):
    assert main(["run", "fft2d.mesh", "--procs", "2", "--define", "n=lots"]) == 2


@pytest.mark.parametrize("command", ["run", "dump-dist"])
@pytest.mark.parametrize("name", ["n", "typo", "S", "m"])
def test_define_must_name_a_top_level_untyped_var(workdir, capsys, command, name):
    """Only `n` may be defined: S is typed and m is not top level."""
    (workdir / "defines.mesh").write_text(
        "var n := 2;\nvar S : Int :: allocated[single[on[0]]];\nproc 0 { var m := 1 };\n")
    status = main([command, "defines.mesh", "--procs", "2", "--define", f"{name}=3"])
    err = capsys.readouterr().err
    if name == "n":
        assert (status, err) == (0, "")
    else:
        assert (status, err) == (
            2, f"error: --define {name}: the program declares no top-level untyped var {name}\n")


def test_scheduler_seed_does_not_change_blocking_output(workdir):
    blobs = set()
    for seed in ("0", "3", "11"):
        assert main(["run", "fft2d.mesh", "--procs", "4", "--scheduler-seed", seed]) == 0
        blobs.add((workdir / "image.out.dat").read_bytes())
    assert len(blobs) == 1


def test_dump_dist_layout(workdir, capsys):
    assert main(["dump-dist", "fft2d.mesh", "--procs", "2"]) == 0
    out = capsys.readouterr().out
    blocks = {}
    current = None
    for line in out.splitlines():
        if not line.startswith(" "):
            current = line.split(":")[0]
            blocks[current] = {}
        else:
            m = re.match(r"\s+block (\d+): owner (\d+) low (\d+) high (\d+)", line)
            if m:
                k, owner, low, high = map(int, m.groups())
                blocks[current][k] = (owner, low, high)
    assert blocks["A"] == {0: (0, 0, 3), 1: (1, 4, 7), 2: (0, 8, 11), 3: (1, 12, 15)}
    assert blocks["S"] == {0: (0, 0, 15)}
    assert "sins" in blocks


def test_dump_dist_shows_arraydist_placement(workdir, capsys):
    assert main(["dump-dist", "fft2d_arraydist.mesh", "--procs", "4"]) == 0
    out = capsys.readouterr().out
    assert "arraydist[0, 1, 2, 3]" in out
    owners = [int(m.group(1)) for m in
              re.finditer(r"block \d+: owner (\d+)", out.split("B:")[0].split("A:")[1])]
    assert owners == [0, 1, 2, 3]


@pytest.mark.parametrize("name", ["fft2d.mesh", "fft2d_arraydist.mesh", "onesided.mesh",
                                  "channel.mesh"])
@pytest.mark.parametrize("procs", ["2", "4", "16"])
def test_dump_dist_is_what_planning_on_every_rank_gives(workdir, capsys, name, procs):
    """The layout when later ranks take the first one's plan is the layout
    when every rank plans its own, as the AST walk does."""
    seen = []
    for walk in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if walk:
                ast_walk.install(patch)
            code = main(["dump-dist", name, "--procs", procs])
        seen.append((code, capsys.readouterr()))
    assert seen[0] == seen[1]


def test_dump_dist_skips_computation(workdir):
    (workdir / "image.dat").unlink()  # layout pass must not need the input file
    assert main(["dump-dist", "fft2d.mesh", "--procs", "2"]) == 0


def test_make_fixtures_round_trip(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["make-fixtures", "--dir", "out", "--size", "8", "--seed", "2"]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert any(p.endswith("image.dat") for p in listed)
    assert (tmp_path / "out" / "fft2d.mesh").exists()
    assert (tmp_path / "out" / "fft2d.expected.dat").exists()
    monkeypatch.chdir(tmp_path / "out")
    assert main(["run", "fft2d.mesh", "--procs", "2", "--define", "n=8"]) == 0
    from meshlite.mshd import read_mshd
    _, _, got = read_mshd(tmp_path / "out" / "image.out.dat")
    _, _, expected = read_mshd(tmp_path / "out" / "fft2d.expected.dat")
    assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-8


def test_procs_must_be_positive(workdir, capsys):
    assert main(["run", "fft2d.mesh", "--procs", "0"]) == 2
