"""Redistribution planning and execution against a brute-force oracle."""

import random

import pytest

from conftest import (
    ReferenceTraceLog,
    assert_trace_matches_reference,
    brute_force_copy,
    brute_force_plan,
    buffers_of,
    checked_corpus,
    events,
    expand_runs,
    fill_sequential,
    iter_indices,
    make_descriptor,
    owner_changes_bytes,
    reference_copy,
    remote_bytes,
    run_collective,
    run_lengths,
)
from meshlite import ast, run, runtime
from meshlite.errors import MeshError, ShapeMismatch
from meshlite.fixtures import generate_image
from meshlite.interp import _share_storage
from meshlite.runtime import (
    Segment,
    TraceLog,
    allocate,
    copy_array,
    plan_redistribution,
)


def assign(dst, src, nprocs, seed=0):
    state = run_collective(nprocs, lambda c: c.assign_arrays(dst, src), seed=seed)
    return state


def oracle_result(src, dst_desc):
    fresh = allocate("oracle", dst_desc)
    brute_force_copy(fresh, src)
    return buffers_of(fresh)


# --- planning examples ---


def test_scatter_plan_is_one_segment_per_block():
    src = make_descriptor((4, 4), distribution=("on", 0), nprocs=4)
    dst = make_descriptor((4, 4), partition=("horizontal", 4),
                          distribution=("even",), nprocs=4)
    segments = plan_redistribution(src, dst)
    assert len(segments) == 4
    assert [s.dst_owner for s in segments] == [0, 1, 2, 3]
    assert all(s.src_owner == 0 for s in segments)
    assert [s.local for s in segments] == [True, False, False, False]


def test_gather_plan_collects_from_every_rank():
    src = make_descriptor((4, 4), partition=("horizontal", 4),
                          distribution=("even",), nprocs=4)
    dst = make_descriptor((4, 4), distribution=("on", 0), nprocs=4)
    segments = plan_redistribution(src, dst)
    assert len(segments) == 4
    assert sorted(s.src_owner for s in segments) == [0, 1, 2, 3]
    assert all(s.dst_owner == 0 for s in segments)


def test_identity_plan_is_all_local():
    desc = make_descriptor((4, 4), partition=("horizontal", 2),
                           distribution=("even",), nprocs=2)
    segments = plan_redistribution(desc, desc, same_storage=True)
    assert all(s.local and s.identity for s in segments)
    assert remote_bytes(segments) == 0


def test_shape_mismatch_rejected():
    a = make_descriptor((4, 4), distribution=("on", 0))
    b = make_descriptor((8, 8), distribution=("on", 0))
    with pytest.raises(ShapeMismatch):
        plan_redistribution(a, b)


def test_transpose_plan_bytes_match_owner_changes():
    src = make_descriptor((6, 6), ordering="row", partition=("horizontal", 3),
                          distribution=("even",), nprocs=3, elem="complex")
    dst = make_descriptor((6, 6), ordering="col", partition=("horizontal", 3),
                          distribution=("even",), nprocs=3, elem="complex")
    segments = plan_redistribution(src, dst)
    assert remote_bytes(segments) == owner_changes_bytes(src, dst, 16)


# --- execution vs oracle, full combination sweep ---


def layouts(n0, n1, p, nprocs, rng):
    out = []
    for ordering in ("row", "col"):
        for partition in (None, ("horizontal", p), ("vertical", p)):
            if partition is None:
                dists = [("on", rng.randrange(nprocs))]
            else:
                mapping = tuple(rng.randrange(nprocs) for _ in range(p))
                dists = [("even",), ("arraydist", mapping), ("on", rng.randrange(nprocs))]
            for dist in dists:
                out.append(make_descriptor((n0, n1), ordering=ordering,
                                           partition=partition,
                                           distribution=dist, nprocs=nprocs))
    return out


@pytest.mark.parametrize("n0,n1,p,nprocs", [
    (8, 8, 4, 4),
    (9, 7, 3, 2),
    (10, 6, 4, 4),   # uneven block sizes 3,3,2,2
    (16, 5, 4, 3),
])
def test_assign_matches_brute_force_copy(n0, n1, p, nprocs):
    rng = random.Random(n0 * 100 + n1 * 10 + p)
    descs = layouts(n0, n1, p, nprocs, rng)
    for src_desc in descs:
        src = fill_sequential(allocate("S", src_desc))
        for dst_desc in descs:
            dst = allocate("D", dst_desc)
            assign(dst, src, nprocs)
            assert buffers_of(dst) == oracle_result(src, dst_desc), (
                f"src={src_desc} dst={dst_desc}")


def test_more_blocks_than_processes_cyclic_wraparound():
    nprocs = 3
    src = make_descriptor((10, 4), partition=("horizontal", 8),
                          distribution=("even",), nprocs=nprocs)
    owners = [b.owner for b in allocate("t", src).blocks]
    assert owners == [0, 1, 2, 0, 1, 2, 0, 1]
    dst = make_descriptor((10, 4), ordering="col", partition=("vertical", 2),
                          distribution=("even",), nprocs=nprocs)
    src_arr = fill_sequential(allocate("S", src))
    dst_arr = allocate("D", dst)
    assign(dst_arr, src_arr, nprocs)
    assert buffers_of(dst_arr) == oracle_result(src_arr, dst)


def test_assign_traces_only_remote_segments():
    nprocs = 4
    src_desc = make_descriptor((8, 8), distribution=("on", 0), nprocs=nprocs)
    dst_desc = make_descriptor((8, 8), partition=("horizontal", 4),
                               distribution=("even",), nprocs=nprocs)
    src = fill_sequential(allocate("S", src_desc))
    dst = allocate("A", dst_desc)
    state = assign(dst, src, nprocs)
    transfers = [e for e in events(state.trace) if e.kind == "block-transfer"]
    assert len(transfers) == 3  # block 0 stays on rank 0
    assert sum(e.bytes for e in transfers) == owner_changes_bytes(src_desc, dst_desc, 16)
    assert all(e.src != e.dst for e in transfers)


def test_self_assignment_is_a_quiet_no_op():
    nprocs = 2
    desc = make_descriptor((6, 6), partition=("horizontal", 3),
                           distribution=("even",), nprocs=nprocs)
    arr = fill_sequential(allocate("X", desc))
    before = buffers_of(arr)
    state = assign(arr, arr, nprocs)
    assert buffers_of(arr) == before
    assert events(state.trace) == []


def test_replicated_destination_receives_everywhere():
    nprocs = 3
    src_desc = make_descriptor((4, 3), partition=("horizontal", 2),
                               distribution=("even",), nprocs=nprocs, elem="int")
    dst_desc = make_descriptor((4, 3), distribution=("multiple",), nprocs=nprocs,
                               elem="int")
    src = fill_sequential(allocate("S", src_desc))
    dst = allocate("M", dst_desc)
    assign(dst, src, nprocs)
    for rank in range(nprocs):
        assert dst.replicas[rank] == list(range(12))


def test_replicated_source_is_read_locally():
    nprocs = 3
    src_desc = make_descriptor((4, 3), distribution=("multiple",), nprocs=nprocs,
                               elem="int")
    dst_desc = make_descriptor((4, 3), partition=("horizontal", 2),
                               distribution=("even",), nprocs=nprocs, elem="int")
    src = fill_sequential(allocate("M", src_desc))
    dst = allocate("D", dst_desc)
    state = assign(dst, src, nprocs)
    assert buffers_of(dst) == oracle_result(src, dst_desc)
    assert events(state.trace) == []  # replicas satisfy every block locally


def test_gather_after_scatter_restores_exact_content():
    nprocs = 4
    home = make_descriptor((8, 8), distribution=("on", 0), nprocs=nprocs)
    spread = make_descriptor((8, 8), ordering="col", partition=("horizontal", 8),
                             distribution=("even",), nprocs=nprocs)
    original = fill_sequential(allocate("S", home))
    keep = buffers_of(original)
    mid = allocate("A", spread)
    assign(mid, original, nprocs)
    back = allocate("S2", home)
    assign(back, mid, nprocs)
    assert buffers_of(back) == keep


def test_execution_schedule_independent():
    nprocs = 4
    rng = random.Random(1)
    src_desc = make_descriptor((7, 5), ordering="row", partition=("horizontal", 3),
                               distribution=("arraydist", (2, 0, 1)), nprocs=nprocs)
    dst_desc = make_descriptor((7, 5), ordering="col", partition=("vertical", 4),
                               distribution=("even",), nprocs=nprocs)
    results = []
    for seed in (0, 1, 7):
        src = fill_sequential(allocate("S", src_desc))
        dst = allocate("D", dst_desc)
        assign(dst, src, nprocs, seed=seed)
        results.append(buffers_of(dst))
    assert results[0] == results[1] == results[2]


# --- block-pair planner against the element-at-a-time oracle ---


def random_layout(rng, shape, nprocs):
    ordering = rng.choice(("row", "col")) if len(shape) == 2 else "row"
    roll = rng.random()
    if roll < 0.15:
        return make_descriptor(shape, ordering=ordering, distribution=("multiple",),
                               nprocs=nprocs)
    if roll < 0.3:
        return make_descriptor(shape, ordering=ordering,
                               distribution=("on", rng.randrange(nprocs)), nprocs=nprocs)
    partition = ("horizontal" if len(shape) < 2 else rng.choice(("horizontal", "vertical")),)
    probe = make_descriptor(shape, ordering=ordering, partition=partition + (1,),
                            distribution=("even",), nprocs=nprocs)
    p = rng.randint(1, probe.part_extent)
    dist = rng.choice((
        ("even",),
        ("arraydist", tuple(rng.randrange(nprocs) for _ in range(p))),
        ("on", rng.randrange(nprocs)),
    ))
    return make_descriptor(shape, ordering=ordering, partition=partition + (p,),
                           distribution=dist, nprocs=nprocs)


def share_views(base):
    """Every layout that can alias base's storage, base's own included."""
    d = base.descriptor
    views = []
    for ordering in ("row", "col") if d.ndim == 2 else ("row",):
        for kind in ("horizontal", "vertical"):
            for p in range(1, max(d.shape) + 1):
                try:
                    desc = make_descriptor(d.shape, elem=d.elem, ordering=ordering,
                                           partition=(kind, p),
                                           distribution=d.distribution, nprocs=d.nprocs)
                    views.append(allocate("V", desc, base=base))
                except MeshError:
                    pass
    return views


def random_pairs(count, seed):
    """(src array, dst array) pairs, a third of them sharing storage."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        nprocs = rng.randint(1, 5)
        if rng.random() < 0.25:
            shape = (rng.randint(1, 12),)
        else:
            shape = (rng.choice((1, 2, 3, 5, 7, 8)), rng.choice((1, 2, 4, 6, 9)))
        src = fill_sequential(allocate("S", random_layout(rng, shape, nprocs)))
        if rng.random() < 0.33 and not src.replicated and src.descriptor.partition:
            view = rng.choice(share_views(src))
            pairs.append(rng.choice(((src, view), (view, src))))
        else:
            pairs.append((src, allocate("D", random_layout(rng, shape, nprocs))))
    return pairs


def destination_order(segment):
    return (segment.dst_replica or 0, segment.dst_block, segment.dst_offset)


def transfer_events(segments):
    """(src, dst, bytes) of each remote run, grouped by initiating rank."""
    events = {}
    for seg in segments:
        if not seg.local:
            for run in expand_runs(seg):
                events.setdefault(seg.src_owner, []).append(
                    (seg.src_owner, seg.dst_owner, run.nbytes))
    return events


def logical_values(array):
    return [array.logical_get(idx) for idx in iter_indices(array.descriptor.shape)]


@pytest.mark.parametrize("seed", range(4))
def test_planner_agrees_with_brute_force_oracle(seed):
    for src, dst in random_pairs(80, seed):
        same = _share_storage(dst, src)
        plan = plan_redistribution(src.descriptor, dst.descriptor, same_storage=same)
        oracle = brute_force_plan(src.descriptor, dst.descriptor, same_storage=same)
        context = f"src={src.descriptor} dst={dst.descriptor} same={same}"

        runs = [run for seg in plan for run in expand_runs(seg, same)]
        # the oracle walks destinations in storage order; the planner emits
        # block pairs, whose runs interleave line by line when the two
        # arrays partition different dimensions
        assert oracle == sorted(oracle, key=destination_order)
        assert sorted(runs, key=destination_order) == oracle, context
        assert transfer_events(plan) == transfer_events(oracle), context
        for seg in plan:
            assert_runs_expand_to_the_element_walk(seg, context)
            assert not seg.identity or all(r.identity for r in expand_runs(seg, same))
        assert remote_bytes(plan) == remote_bytes(oracle), context
        if not src.replicated and not dst.replicated:
            assert remote_bytes(plan) == owner_changes_bytes(
                src.descriptor, dst.descriptor, src.esize), context

        expected = logical_values(src)
        copy_array(plan, src, dst)
        assert logical_values(dst) == expected, context


def distinct_pairs(count, seed):
    """random_pairs with every buffer holding values of its own, so that
    each replica of a replicated array differs from the others and a
    destination that shares no storage with its source differs from it."""
    pairs = random_pairs(count, seed)
    for n, (src, dst) in enumerate(pairs):
        for role, array in enumerate((src,) if _share_storage(dst, src) else (src, dst)):
            for k, buf in enumerate(array.replicas or [b.buffer for b in array.blocks]):
                buf[:] = [complex(n * 10 + role, k * 1000 + i) for i in range(len(buf))]
    return pairs


@pytest.mark.parametrize("seed", range(4))
def test_copy_matches_the_per_segment_oracle(seed):
    """copy_array leaves every block buffer and every replica of both
    sides as the per-segment copy does, share views included."""
    ours, theirs = distinct_pairs(80, seed), distinct_pairs(80, seed)
    for (src, dst), (ref_src, ref_dst) in zip(ours, theirs):
        same = _share_storage(dst, src)
        plan = plan_redistribution(src.descriptor, dst.descriptor, same_storage=same)
        context = f"src={src.descriptor} dst={dst.descriptor} same={same}"
        copy_array(plan, src, dst)
        reference_copy(plan, ref_src, ref_dst)
        assert buffers_of(dst) == buffers_of(ref_dst), context
        assert buffers_of(src) == buffers_of(ref_src), context


@pytest.mark.parametrize("ordering", ["row", "col"])
@pytest.mark.parametrize("replicated_dst", [False, True])
def test_a_replicated_source_is_read_from_the_destination_owners_replica(
        ordering, replicated_dst):
    nprocs, shape = 3, (3, 4)
    src = allocate("S", make_descriptor(shape, distribution=("multiple",), nprocs=nprocs))
    for rank, replica in enumerate(src.replicas):
        replica[:] = [complex(rank, i) for i in range(len(replica))]
    if replicated_dst:
        desc = make_descriptor(shape, ordering=ordering, distribution=("multiple",),
                               nprocs=nprocs)
    else:
        desc = make_descriptor(shape, ordering=ordering, partition=("horizontal", nprocs),
                               distribution=("even",), nprocs=nprocs)
    dst = allocate("D", desc)
    copy_array(plan_redistribution(src.descriptor, desc), src, dst)
    for idx in iter_indices(shape):
        if replicated_dst:
            for rank in range(nprocs):
                assert dst.logical_get(idx, rank) == src.logical_get(idx, rank), idx
        else:
            owner = dst.blocks[desc.locate(idx)[0]].owner
            assert dst.logical_get(idx) == src.logical_get(idx, owner), idx


def test_shape_mismatch_names_destination_first():
    a = make_descriptor((4, 4), distribution=("on", 0))
    b = make_descriptor((8, 8), distribution=("on", 0))
    with pytest.raises(ShapeMismatch, match=r"cannot assign complex\(8, 8\) from complex\(4, 4\)"):
        plan_redistribution(a, b)


def test_mixed_partition_pair_is_one_strided_segment():
    src = make_descriptor((6, 4), ordering="row", partition=("horizontal", 3),
                          distribution=("even",), nprocs=3)
    dst = make_descriptor((6, 4), ordering="col", partition=("horizontal", 2),
                          distribution=("even",), nprocs=3)
    plan = plan_redistribution(src, dst)
    assert len(plan) == 3 * 2
    first = plan[0]  # columns 0-1 of rows 0-1
    assert (first.lines, first.count) == (2, 4)
    assert (first.src_stride, first.src_line_stride) == (4, 1)
    assert (first.dst_stride, first.dst_line_stride) == (1, 6)
    assert run_lengths(first) == [1, 1, 1, 1]


def test_run_lengths_merge_across_lines_and_single_columns():
    column = make_descriptor((5, 1), ordering="row", partition=("horizontal", 5),
                             distribution=("even",), nprocs=2)
    whole = make_descriptor((5, 1), ordering="col", distribution=("on", 1), nprocs=2)
    (seg,) = [s for s in plan_redistribution(whole, column) if s.dst_block == 0]
    assert run_lengths(seg) == [1]
    plan = plan_redistribution(column, whole)
    assert [run_lengths(s) for s in plan] == [[1]] * 5
    wide = make_descriptor((2, 5), ordering="col", partition=("horizontal", 5),
                           distribution=("even",), nprocs=2)
    rows = make_descriptor((2, 5), ordering="row", distribution=("on", 1), nprocs=2)
    # each block is one column: a single strided line, one run per element
    assert [(s.lines, s.dst_stride, run_lengths(s))
            for s in plan_redistribution(wide, rows)] == [(1, 5, [1, 1])] * 5
    line = make_descriptor((1, 6), ordering="col", partition=("horizontal", 3),
                           distribution=("even",), nprocs=2)
    flat = make_descriptor((1, 6), ordering="row", distribution=("on", 0), nprocs=2)
    assert [run_lengths(s) for s in plan_redistribution(line, flat)] == [[2]] * 3


def strided(lines, width, ss, sl, ds, dl):
    return Segment(src_owner=0, dst_owner=1, src_block=0, src_offset=0,
                   dst_block=0, dst_offset=0, count=lines * width,
                   nbytes=16 * lines * width, local=False, identity=False,
                   lines=lines, src_stride=ss, dst_stride=ds,
                   src_line_stride=sl, dst_line_stride=dl)


# Segments in the planner's canonical form: lines that would abut on both
# sides are one line, and a strided source steps by one between lines.
@pytest.mark.parametrize("seg", [
    strided(1, 12, 1, 0, 1, 0),   # one contiguous run
    strided(3, 4, 1, 5, 1, 4),    # a gap between source lines
    strided(1, 3, 4, 0, 1, 0),    # a single column: one strided line
    strided(3, 1, 1, 2, 1, 1),
    strided(2, 3, 7, 1, 1, 3),    # a transpose: every element its own run
    strided(4, 2, 3, 1, 1, 2),
    strided(2, 2, 2, 1, 1, 2),
])
def test_run_lengths_arithmetic_matches_element_walk(seg):
    assert_runs_expand_to_the_element_walk(seg)


@pytest.mark.parametrize("seed", range(4))
def test_every_planner_segment_is_one_run_pair(seed):
    """The premise of Segment.runs: no planner segment has lines that
    continue one another, so its runs are whole lines or single elements."""
    for src, dst in random_pairs(80, seed):
        same = _share_storage(dst, src)
        for seg in plan_redistribution(src.descriptor, dst.descriptor, same_storage=same):
            assert_runs_expand_to_the_element_walk(seg, seg)


def assert_runs_expand_to_the_element_walk(seg, context=""):
    """runs() is one (length, repeat) pair that covers the segment and
    expands to the runs the element walk finds."""
    length, repeat = seg.runs()
    assert length > 0 and repeat > 0 and length * repeat == seg.count, context
    assert run_lengths(seg) == [r.count for r in expand_runs(seg)], context


@pytest.mark.parametrize("seed", range(4))
def test_batched_trace_matches_per_event_oracle(seed):
    """Plans recorded as run records, one log after another, against one
    TraceEvent per run: seq keeps counting across the records of a rank."""
    log, reference = TraceLog(5), ReferenceTraceLog(5)
    for src, dst in random_pairs(80, seed):
        same = _share_storage(dst, src)
        plan = plan_redistribution(src.descriptor, dst.descriptor, same_storage=same)
        context = f"src={src.descriptor} dst={dst.descriptor} same={same}"
        log.record_plan(plan, src.esize, dst.name)
        reference.record_plan(plan, src.esize, dst.name)
        assert_trace_matches_reference(log, reference, context)


# --- traces of the corpus transforms against the oracle plans ---


def oracle_render(program, result):
    """block-transfer lines from oracle plans of every top-level array :=."""
    seq = {}
    lines = []
    for stmt in program.statements:
        if not (isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Name)
                and isinstance(stmt.value, ast.Name)):
            continue
        dst, src = result.array(stmt.target.name), result.array(stmt.value.name)
        for seg in brute_force_plan(src.descriptor, dst.descriptor,
                                    same_storage=_share_storage(dst, src)):
            if seg.local:
                continue
            n = seq.get(seg.src_owner, 0)
            seq[seg.src_owner] = n + 1
            lines.append((seg.src_owner, n, f"block-transfer\t{seg.src_owner}\t"
                          f"{seg.dst_owner}\t{seg.nbytes}\t{n}\t{dst.name}"))
    return "".join(text + "\n" for _, _, text in sorted(lines))


@pytest.mark.parametrize("name,blocks_per_rank", [
    ("fft2d.mesh", 2),
    ("fft2d_arraydist.mesh", 1),
])
@pytest.mark.parametrize("n", [8, 16, 64])
def test_corpus_trace_equals_oracle_render(tmp_path, name, blocks_per_rank, n):
    generate_image(n, 1, tmp_path / "image.dat")
    checked = checked_corpus(name)
    for nprocs in (1, 2, 3, 4, 16):
        if nprocs * blocks_per_rank > n:
            continue
        result = run(checked, nprocs, workdir=str(tmp_path), overrides={"n": n})
        assert result.trace.render() == oracle_render(checked.program, result), (
            f"{name} n={n} P={nprocs}")


@pytest.mark.parametrize("name,blocks_per_rank", [
    ("fft2d.mesh", 2),
    ("fft2d_arraydist.mesh", 1),
])
@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 16, 64])
def test_corpus_fft_copies_as_the_per_segment_oracle(tmp_path, monkeypatch, name,
                                                     blocks_per_rank, nprocs):
    """The corpus FFTs write the same bytes and trace with copy_array as with
    reference_copy; n is 64, or 128 where 64 lines are fewer than the blocks."""
    n = max(64, nprocs * blocks_per_rank)
    generate_image(n, 1, tmp_path / "image.dat")
    checked = checked_corpus(name)
    outputs = []
    for copy in (runtime.copy_array, reference_copy):
        monkeypatch.setattr(runtime, "copy_array", copy)
        result = run(checked, nprocs, workdir=str(tmp_path), overrides={"n": n})
        outputs.append((result.trace.render(), (tmp_path / "image.out.dat").read_bytes()))
    assert outputs[0] == outputs[1]
