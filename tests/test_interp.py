import re

import pytest

from conftest import checked_corpus, events
from meshlite import chains, check_program, interp, parse, run
from meshlite.checker import chain_of
from meshlite.errors import DeadlockError, MeshError, RuntimeFault
from meshlite.fixtures import corpus_source


def run_src(src, nprocs, **kw):
    return run(check_program(parse(src)), nprocs, **kw)


# --- one-sided default communication ---


def test_onesided_assignment_copies_and_traces_once():
    result = run(checked_corpus("onesided.mesh"), 3)
    assert result.logical("a") == result.logical("b") == 0
    assert result.trace.count("onesided-get") == 1
    assert result.trace.count("channel-send") == 0
    (event,) = events(result.trace)
    assert (event.src, event.dst, event.bytes, event.tag) == (2, 0, 8, "b")


def test_onesided_transfers_a_real_value():
    """sync doubles as the barrier making the remote write visible."""
    src = """
var a : Int :: allocated[single[on[0]]];
var b : Int :: allocated[single[on[2]]];
proc 2 { b := 41 };
sync;
a := b;
"""
    for seed in (0, 1, 2, 9):
        result = run_src(src, 3, seed=seed)
        assert result.logical("a") == 41
        assert result.trace.count("onesided-get") == 1


def test_local_read_emits_no_event():
    src = """
var a : Int :: allocated[single[on[1]]];
var b : Int :: allocated[single[on[1]]];
a := b;
"""
    result = run_src(src, 2)
    assert events(result.trace) == []


def test_guarded_remote_write_is_a_put():
    src = """
var x : Int :: allocated[single[on[0]]];
proc 1 { x := 5 };
"""
    result = run_src(src, 2)
    assert result.logical("x") == 5
    (event,) = events(result.trace)
    assert event.kind == "onesided-put"
    assert (event.src, event.dst) == (1, 0)


def test_rank_bound_violation_faults():
    with pytest.raises(MeshError) as err:
        run(checked_corpus("onesided.mesh"), 2)
    assert "2" in str(err.value)


# --- channel communication ---


def test_channel_program_uses_only_the_link():
    result = run(checked_corpus("channel.mesh"), 3)
    assert result.trace.count("channel-send") == 1
    assert result.trace.count("channel-recv") == 1
    assert result.trace.count("onesided-get") == 0
    assert result.trace.count("onesided-put") == 0


def test_onesided_program_has_no_channel_events():
    result = run(checked_corpus("onesided.mesh"), 3)
    assert result.trace.count("channel-send") == 0
    assert result.trace.count("channel-recv") == 0
    assert result.trace.count("onesided-get") == 1


def test_channel_falls_back_when_pair_differs():
    """Assignments off the declared link use one-sided access."""
    src = """
var a : Int :: allocated[single[on[0]]] :: channel[2,0];
var c : Int :: allocated[single[on[1]]];
a := c;
"""
    result = run_src(src, 3)
    assert result.trace.count("channel-send") == 0
    assert result.trace.count("onesided-get") == 1


def test_async_value_arrives_by_sync():
    result = run(checked_corpus("channel_async.mesh"), 3)
    assert result.logical("a") == 7
    assert result.trace.count("channel-send") == 1
    assert result.trace.count("channel-recv") == 1


@pytest.mark.parametrize("seed", range(25))
def test_async_completes_under_many_schedules(seed):
    result = run(checked_corpus("channel_async.mesh"), 3, seed=seed)
    assert result.logical("a") == 7


def test_sync_all_completes_multiple_async_transfers():
    src = """
var a1 : Int :: allocated[single[on[0]]] :: channel[1,0] :: async;
var a2 : Int :: allocated[single[on[2]]] :: channel[1,2] :: async;
var b : Int :: allocated[single[on[1]]];
proc 1 { b := 9 };
a1 := b;
a2 := b;
sync;
"""
    for seed in (0, 1, 5):
        result = run_src(src, 3, seed=seed)
        assert result.logical("a1") == 9
        assert result.logical("a2") == 9
        assert result.trace.count("channel-send") == 2
        assert result.trace.count("channel-recv") == 2


def test_sync_without_outstanding_transfers_is_noop():
    src = """
var a : Int :: allocated[single[on[0]]];
sync;
sync a;
a := 3;
"""
    result = run_src(src, 2)
    assert result.logical("a") == 3


# --- replication ---


def test_proc_guard_updates_only_own_replica():
    src = """
var x : Int :: allocated[multiple[]];
proc 0 { x := 5 };
"""
    result = run_src(src, 3)
    arr = result.array("x")
    assert [r[0] for r in arr.replicas] == [5, 0, 0]


def test_replicated_array_element_assignment():
    src = """
var p := processes();
var d : array[Int,p];
var i;
for i from 0 to p - 1 {
    d[i] := i
};
"""
    result = run_src(src, 4)
    arr = result.array("d")
    assert all(list(r) == [0, 1, 2, 3] for r in arr.replicas)


# --- accessors ---


def test_local_block_accessors_under_cyclic_distribution():
    src = """
var n := 8;
var A : array[complex,n,n] :: allocated[row[] :: horizontal[4] :: single[evendist[]]];
var c := A.localblocks;
var b0 := A.localblockid[0];
var b1 := A.localblockid[1];
"""
    result = run_src(src, 2)
    assert result.local("c") == [2, 2]
    assert result.local("b0") == [0, 1]
    assert result.local("b1") == [2, 3]


def test_single_block_accessors():
    src = """
var n := 4;
var S : array[complex,n,n] :: allocated[row[] :: single[0]];
var c := S.localblocks;
"""
    result = run_src(src, 2)
    assert result.local("c") == [1, 0]


def test_block_bounds_accessors():
    src = """
var A : array[complex,10,4] :: allocated[row[] :: horizontal[4] :: single[evendist[]]];
var lo := A[1].low;
var hi := A[1].high;
"""
    result = run_src(src, 2)
    assert result.local("lo") == [3, 3]
    assert result.local("hi") == [5, 5]


def test_localblockid_out_of_range():
    src = """
var A : array[complex,8,8] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
var x := A.localblockid[5];
"""
    with pytest.raises(RuntimeFault):
        run_src(src, 2)


# --- SPMD shape of execution ---


def test_empty_program():
    result = run_src("", 4)
    assert events(result.trace) == []
    assert result.names() == []


def test_builtin_processes():
    for nprocs in (1, 4):
        result = run_src("var q := processes();", nprocs)
        assert result.local("q") == [nprocs] * nprocs


def test_for_loop_is_inclusive_and_supports_empty_ranges():
    src = """
var total := 0;
var i;
for i from 0 to 3 { total := total + i };
var none := 0;
for i from 0 to 0 - 1 { none := none + 1 };
"""
    result = run_src(src, 2)
    assert result.local("total") == [6, 6]
    assert result.local("none") == [0, 0]


def test_integer_division_is_floor():
    result = run_src("var x := 7 / 2; var y := 8 / 2;", 1)
    assert result.local("x") == [3]
    assert result.local("y") == [4]


def test_index_out_of_bounds_faults_with_rank():
    src = """
var d : array[Int,4];
d[9] := 1;
"""
    with pytest.raises(RuntimeFault) as err:
        run_src(src, 2)
    assert err.value.rank is not None


def test_proc_rank_out_of_range_faults():
    with pytest.raises(RuntimeFault):
        run_src("proc 7 { var x := 1; };", 2)


def test_deadlock_detected_for_half_guarded_channel():
    src = """
var a : Int :: allocated[single[on[0]]] :: channel[2,0];
var b : Int :: allocated[single[on[2]]];
proc 0 { a := b };
"""
    with pytest.raises(DeadlockError) as err:
        run_src(src, 3)
    assert str(err.value) == ("rank 0: all processes blocked: rank 0 receives 'a' over "
                              "channel 2->0 (4:10); ranks 1, 2 finished the program at 4:10")


def test_line_slice_assignment_between_blocks(fft_workdir):
    src = """
var n := 16;
var S : array[complex,n,n] :: allocated[row[] :: single[0]];
var A : array[complex,n,n] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
proc 0 { readfile(S, "image.dat") };
A := S;
A[0][0] := A[1][1];
"""
    result = run_src(src, 1, workdir=str(fft_workdir))
    a = result.logical("A")
    s = result.logical("S")
    assert a[0] == s[9]  # block 1 covers rows 8..15; its line 1 is row 9
    assert a[1:] == s[1:]


def test_readfile_shape_mismatch_is_a_format_error(tmp_path):
    from meshlite.mshd import write_mshd

    write_mshd(tmp_path / "image.dat", "complex", (4, 4), [0j] * 16)
    src = """
var S : array[complex,8,8] :: allocated[row[] :: single[0]];
proc 0 { readfile(S, "image.dat") };
"""
    with pytest.raises(RuntimeFault) as err:
        run_src(src, 1, workdir=str(tmp_path))
    assert "(4, 4)" in str(err.value)


def test_user_function_executes_on_arrays_by_reference():
    src = """
var n := 4;
var S : array[complex,n,n] :: allocated[row[] :: single[0]];
var A : array[complex,n,n] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
function scatter(X : array[complex,n,n] :: allocated[row[] :: horizontal[2] :: single[evendist[]]],
                 Y : array[complex,n,n] :: allocated[row[] :: single[0]]) {
    X := Y;
};
scatter(A, S);
"""
    result = run_src(src, 2)
    assert result.logical("A") == result.logical("S")


def test_blocking_results_equal_across_schedules():
    values = set()
    traces = set()
    for seed in (0, 1, 2, 3, 4):
        result = run(checked_corpus("channel.mesh"), 3, seed=seed)
        values.add(result.logical("a"))
        traces.add(result.trace.render())
    assert len(values) == 1
    assert len(traces) == 1


# --- collectives ---


def test_rank_divergent_collectives_fault_with_both_locations():
    src = """var j;
var A : array[complex,6,4] :: allocated[row[] :: horizontal[3] :: single[evendist[]]];
var B : array[complex,6,4] :: allocated[col[] :: horizontal[2] :: single[evendist[]]];
for j from 0 to A.localblocks - 1 { B := A; };
sync;
"""
    for seed in (0, 1, 7):
        with pytest.raises(RuntimeFault) as err:
            run_src(src, 2, seed=seed)
        message = str(err.value)
        assert "rank 0 reached B := A (4:37)" in message
        assert "rank 1 reached sync (5:1)" in message
        assert err.value.line is not None


@pytest.mark.parametrize("trailing", ["", "sync;\n"])
@pytest.mark.parametrize("nprocs", [1, 2])
@pytest.mark.parametrize("sync", ["sync", "sync a"])
def test_sync_reached_inside_proc_through_a_call_faults_at_the_sync(sync, nprocs, trailing):
    src = f"var a;\nfunction f() {{ {sync}; }};\nproc 0 {{ f() }};\n{trailing}"
    for seed in (0, 1, 7):
        with pytest.raises(RuntimeFault) as err:
            run_src(src, nprocs, seed=seed)
        assert str(err.value) == "rank 0: sync is collective and cannot run inside proc at 2:16"


@pytest.mark.parametrize("alloc", ["", " :: allocated[row[] :: single[on[0]]]"])
def test_array_shape_mismatch_is_located_with_destination_first(alloc):
    src = f"""var n := 4;
var m := 8;
var A : array[complex,n,n]{alloc};
var B : array[complex,m,m]{alloc};
B := A;
"""
    with pytest.raises(RuntimeFault) as err:
        run_src(src, 2)
    assert err.value.reason == "cannot assign complex(8, 8) from complex(4, 4)"
    assert (err.value.line, err.value.column) == (5, 1)


@pytest.mark.parametrize("decl,shape", [
    ("array[complex,3,5] :: allocated[row[] :: single[on[1]]]", (3, 5)),
    ("array[complex,3,5] :: allocated[col[] :: single[on[1]]]", (3, 5)),
    ("array[complex,7] :: allocated[single[on[1]]]", (7,)),
])
def test_readfile_writefile_round_trip(tmp_path, decl, shape):
    from meshlite.mshd import read_mshd, write_mshd

    count = 1
    for d in shape:
        count *= d
    values = [complex(k, -2 * k) for k in range(count)]
    write_mshd(tmp_path / "in.dat", "complex", shape, values)
    src = f"""
var X : {decl};
proc 1 {{ readfile(X, "in.dat") }};
proc 1 {{ writefile(X, "out.dat") }};
"""
    result = run_src(src, 2, workdir=str(tmp_path))
    if len(shape) == 2:
        rows = [values[i * shape[1] : (i + 1) * shape[1]] for i in range(shape[0])]
        assert result.logical("X") == rows
    else:
        assert result.logical("X") == values
    assert read_mshd(tmp_path / "out.dat") == ("complex", shape, values)


# Every allocation fault a checked program can reach, with its rank and
# location; when a map is both too long and maps a block off the ranks,
# the rank is reported.
ALLOCATION_FAULTS = [
    ("var d : array[Int,1] :: allocated[multiple[]];\n"
     "var A : array[Int,4] :: allocated[horizontal[2] :: single[arraydist[d]]];", 2,
     "rank 1: distribution array has no entry for block 1 at 2:5"),
    ("var d : array[Int,3] :: allocated[multiple[]];\n"
     "var A : array[Int,4] :: allocated[horizontal[2] :: single[arraydist[d]]];", 2,
     "rank 1: distribution array has 3 entries for 2 blocks at 2:5"),
    ("var d : array[Int,2] :: allocated[multiple[]];\nd[1] := 5;\n"
     "var A : array[Int,4] :: allocated[horizontal[2] :: single[arraydist[d]]];", 2,
     "rank 1: distribution array maps block 1 to rank 5, outside [0, 2) at 3:5"),
    ("var d : array[Int,3] :: allocated[multiple[]];\nd[1] := 5;\n"
     "var A : array[Int,4] :: allocated[horizontal[2] :: single[arraydist[d]]];", 2,
     "rank 1: distribution array maps block 1 to rank 5, outside [0, 2) at 3:5"),
    ("var r := 5;\nvar a : Int :: allocated[single[on[r]]];", 2,
     "rank 1: placement rank 5 outside [0, 2) at 2:5"),
    ("var a : array[Int,4] :: allocated[single[3]];", 3,
     "rank 1: placement rank 3 outside [0, 3) at 1:5"),
    ("var n := 0;\nvar A : array[Int,4,n] :: allocated[single[on[0]]];", 2,
     "rank 1: array extents must be positive at 2:5"),
    ("var p := 5;\nvar A : array[Int,4] :: allocated[horizontal[p] :: single[evendist[]]];", 2,
     "rank 1: cannot split extent 4 into 5 blocks at 2:5"),
    ("var d : array[Int,2] :: allocated[multiple[]];\nproc 1 { d[0] := 1 };\n"
     "var A : array[Int,4] :: allocated[horizontal[2] :: single[arraydist[d]]];", 2,
     "rank 0: SPMD divergence: 'A' has distribution ('arraydist', (0, 0)) here, "
     "but ('arraydist', (1, 0)) where it was allocated at 3:5"),
]


@pytest.mark.parametrize("src, nprocs, message", ALLOCATION_FAULTS)
def test_allocation_faults_keep_text_rank_and_location(src, nprocs, message):
    with pytest.raises(RuntimeFault) as err:
        run_src(src, nprocs)
    assert str(err.value) == message


def test_rank_divergent_arraydist_maps_fault_under_every_schedule():
    """Equal type arguments, different maps: an arraydist plan is never
    taken from another rank, so the map that differs is seen."""
    src = ("var d : array[Int,2] :: allocated[multiple[]];\nproc 2 { d[0] := 1 };\n"
           "var A : array[Int,4] :: allocated[horizontal[2] :: single[arraydist[d]]];")
    for seed in range(8):
        with pytest.raises(RuntimeFault) as err:
            run_src(src, 3, seed=seed)
        assert re.fullmatch(r"rank [012]: SPMD divergence: 'A' has distribution "
                            r"\('arraydist', \((0|1), 0\)\) here, but \('arraydist', "
                            r"\((0|1), 0\)\) where it was allocated at 3:5", str(err.value))


def test_a_loop_body_declaration_is_a_fresh_array_each_iteration():
    src = """
var s := 0;
for t from 1 to 3 {
  var A : array[Int,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
  s := s + A[3];
  sync;
  proc 0 { A[3] := t };
};
"""
    for seed in (0, 7919):
        result = run_src(src, 2, seed=seed)
        assert result.local("s") == [0, 0]
        arrays = [array for _, array in result.declared]
        assert [a.logical_get((3,)) for a in arrays] == [1, 2, 3]
        assert len({id(b.buffer) for a in arrays for b in a.blocks}) == 6


def test_type_arguments_read_from_a_remote_single_record_one_get_per_rank():
    """A type argument names only locals (the checker rejects a single
    there), so a remote value reaches it through one: one get per reading
    rank and declaration, as before any rank took another's plan."""
    src = """
var q : Int :: allocated[single[on[1]]];
proc 1 { q := 4 };
sync;
for t from 1 to 2 {
  var n := q;
  var A : array[Int,n] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
};
"""
    for seed in (0, 7919):
        result = run_src(src, 3, seed=seed)
        gets = [(e.src, e.dst, e.bytes, e.tag) for e in events(result.trace)]
        assert sorted(gets) == [(1, 0, 8, "q")] * 2 + [(1, 2, 8, "q")] * 2
        assert [a.descriptor.shape for _, a in result.declared[1:]] == [(4,), (4,)]


def test_each_allocation_is_planned_once_but_an_arraydist_one_by_every_rank(monkeypatch):
    planned = []
    original = chains.plan_of
    monkeypatch.setattr(chains, "plan_of", lambda chain: planned.append(1) or original(chain))
    src = ("var n := 8;\nvar d : array[Int,n] :: allocated[multiple[]];\n"
           "var A : array[Int,n] :: allocated[row[] :: horizontal[n] :: single[evendist[]]];\n"
           "var B : array[Int,n] :: allocated[row[] :: horizontal[n] :: single[arraydist[d]]];\n"
           "for t from 1 to 2 { var c : Int :: allocated[single[on[t]]] };\n")
    run_src(src, 8)
    assert len(planned) == 1 + 1 + 8 + 2


# Declarations whose type arguments are all literals, one of each layout a
# chain can give: ordering, partition, each distribution, channel, share.
LITERAL_LAYOUTS = """var d : array[Int,2] :: allocated[multiple[]];
d[0] := 1;
var S : array[complex,4,4] :: allocated[row[] :: single[0]];
var A : array[complex,4,4] :: allocated[row[] :: horizontal[2] :: single[evendist[]]];
var B : array[complex,4,4] :: allocated[col[] :: horizontal[2] :: single[arraydist[d]]];
var C : array[complex,4,4] :: allocated[row[] :: vertical[2] :: single[arraydist[d]]] :: share[B];
var s : array[complex,2] :: allocated[multiple[]] :: const;
var a : Int :: allocated[single[on[0]]] :: channel[2,0] :: async;
var b : Char :: allocated[single[on[2]]] :: channel[0,2];
var r : Real :: allocated[multiple[]];
"""


@pytest.mark.parametrize("src", [LITERAL_LAYOUTS, corpus_source("onesided.mesh"),
                                 corpus_source("channel_async.mesh")],
                         ids=["literal", "onesided", "channel_async"])
def test_the_checked_layout_is_the_plan_run_and_the_array_allocated(monkeypatch, src):
    """What the checker records of a declaration with literal type arguments
    is what the run plans from the chain it rebuilds, and the array it
    allocates has that layout; an arraydist one takes its map's values."""
    checked = check_program(parse(src))
    allocated = []
    allocate_plan = interp.ProcessContext.allocate_plan

    def recording(self, stmt, plan, allocation, targets):
        array = allocate_plan(self, stmt, plan, allocation, targets)
        allocated.append((stmt, plan, array.descriptor))
        return array
    monkeypatch.setattr(interp.ProcessContext, "allocate_plan", recording)
    run(checked, 3)
    assert {stmt.name for stmt, _, _ in allocated} == {
        info.name for info in checked.toplevel.values() if info.kind.distributed}
    for stmt, plan, descriptor in allocated:
        layout = checked.names[id(stmt)].kind
        readers, _ = checked.allocations[id(stmt)]
        assert layout == plan == chains.plan_of(chain_of(stmt.type_expr, readers)), stmt.name
        for field in ("shape", "elem", "ordering", "partition", "comm"):
            assert getattr(descriptor, field) == getattr(layout, field), (stmt.name, field)
        want = ("arraydist", (1, 0)) if layout.distribution[0] == "arraydist" \
            else layout.distribution
        assert descriptor.distribution == want, stmt.name


def test_fft2d_at_sixteen_ranks_cannot_split_its_blocks():
    """p = 2P blocks of an extent-16 array: the split fails where A is declared."""
    with pytest.raises(RuntimeFault) as err:
        run(checked_corpus("fft2d.mesh"), 16)
    assert str(err.value) == "rank 11: cannot split extent 16 into 32 blocks at 7:5"
