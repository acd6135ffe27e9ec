import random

import pytest

from conftest import (
    TRACE_KINDS,
    TeeTraceLog,
    assert_trace_matches_reference,
    fill_sequential,
    initiator,
    iter_indices,
    logical_set,
    make_descriptor,
)
from conftest import events as all_events
from meshlite.chains import Layout, partitioned_dim
from meshlite.errors import (
    BadDistribution,
    IndexOutOfBounds,
    InvalidPartition,
    ShareFootprintMismatch,
)
from meshlite.runtime import (
    STAMPED_BY_DST,
    ArrayDescriptor,
    TraceLog,
    allocate,
    descriptor_from_plan,
    owner_of,
    partition_bounds,
    plan_redistribution,
)


# --- partition_bounds ---


def test_partition_bounds_uneven_split():
    assert partition_bounds(10, 4, 0) == (0, 2)
    assert partition_bounds(10, 4, 1) == (3, 5)
    assert partition_bounds(10, 4, 2) == (6, 7)
    assert partition_bounds(10, 4, 3) == (8, 9)


def test_partition_bounds_one_element_blocks():
    assert partition_bounds(4, 4, 3) == (3, 3)


def test_partition_bounds_single_block():
    assert partition_bounds(8, 1, 0) == (0, 7)


def test_partition_bounds_errors():
    with pytest.raises(InvalidPartition):
        partition_bounds(4, 5, 0)
    with pytest.raises(InvalidPartition):
        partition_bounds(4, 0, 0)
    with pytest.raises(InvalidPartition):
        partition_bounds(4, 2, 2)


def test_partition_coverage_and_balance_exhaustive():
    """Blocks tile [0, n-1]; sizes differ by at most one (n <= 64)."""
    for n in range(1, 65):
        for p in range(1, n + 1):
            bounds = [partition_bounds(n, p, k) for k in range(p)]
            assert bounds[0][0] == 0
            assert bounds[-1][1] == n - 1
            for (lo1, hi1), (lo2, _) in zip(bounds, bounds[1:]):
                assert lo2 == hi1 + 1
            sizes = [hi - lo + 1 for lo, hi in bounds]
            assert max(sizes) - min(sizes) <= 1
            assert sizes == sorted(sizes, reverse=True)


# --- owner_of ---


def test_owner_even_cyclic():
    assert owner_of(("even",), 5, 2) == 1
    assert owner_of(("even",), 0, 7) == 0


def test_owner_arraydist():
    assert owner_of(("arraydist", (0, 1, 2, 3)), 2, 4) == 2


def test_owner_single_on():
    assert owner_of(("on", 3), 0, 4) == 3


def test_owner_errors():
    with pytest.raises(BadDistribution):
        owner_of(("arraydist", (0, 9)), 1, 4)
    with pytest.raises(BadDistribution):
        owner_of(("on", 4), 0, 4)
    with pytest.raises(BadDistribution):
        owner_of(("multiple",), 0, 4)


# --- allocation ---


def test_allocate_scalar_on_rank():
    desc = make_descriptor((), elem="int", distribution=("on", 0), nprocs=4)
    arr = allocate("a", desc)
    assert len(arr.blocks) == 1
    assert arr.blocks[0].owner == 0
    assert arr.blocks[0].buffer == [0]


def test_allocate_partitioned_even():
    desc = make_descriptor((4, 4), partition=("horizontal", 2),
                           distribution=("even",), nprocs=2)
    arr = allocate("A", desc)
    assert [(b.block_id, b.owner, b.low, b.high) for b in arr.blocks] == [
        (0, 0, 0, 1), (1, 1, 2, 3)]
    assert all(len(b.buffer) == 8 for b in arr.blocks)
    assert all(v == 0j for b in arr.blocks for v in b.buffer)


def test_allocate_replicated():
    desc = make_descriptor((3,), elem="int", distribution=("multiple",), nprocs=3)
    arr = allocate("d", desc)
    assert len(arr.replicas) == 3
    assert all(r == [0, 0, 0] for r in arr.replicas)


def test_share_view_aliases_block_storage():
    base_desc = make_descriptor((4, 4), ordering="col",
                                partition=("horizontal", 2),
                                distribution=("even",), nprocs=2)
    base = allocate("B", base_desc)
    view_desc = make_descriptor((4, 4), ordering="row",
                                partition=("vertical", 2),
                                distribution=("even",), nprocs=2)
    view = allocate("C", view_desc, base=base)
    assert view.alias_of == "B"
    for vb, bb in zip(view.blocks, base.blocks):
        assert vb.buffer is bb.buffer
        assert vb.owner == bb.owner
    vb = view.blocks[0]
    vb.buffer[3] = 9 + 1j
    assert base.blocks[0].buffer[3] == 9 + 1j


def test_share_footprint_mismatch_rejected():
    base_desc = make_descriptor((4, 4), partition=("horizontal", 2),
                                distribution=("even",), nprocs=2)
    base = allocate("B", base_desc)
    bad = make_descriptor((4, 4), partition=("horizontal", 4),
                          distribution=("even",), nprocs=2)
    with pytest.raises(ShareFootprintMismatch):
        allocate("C", bad, base=base)


def test_share_owner_mismatch_rejected():
    base_desc = make_descriptor((4, 4), ordering="col", partition=("horizontal", 2),
                                distribution=("even",), nprocs=2)
    base = allocate("B", base_desc)
    shifted = make_descriptor((4, 4), ordering="row", partition=("vertical", 2),
                              distribution=("arraydist", (1, 0)), nprocs=2)
    with pytest.raises(ShareFootprintMismatch):
        allocate("C", shifted, base=base)


def test_allocate_validates_the_placement_rank():
    plan = Layout(elem="int", distribution=("on", 2), distributed=True)
    descriptor = descriptor_from_plan(plan, nprocs=2)
    with pytest.raises(BadDistribution, match=r"placement rank 2 outside \[0, 2\)"):
        allocate("a", descriptor)


def test_allocate_checks_the_split_then_every_owner_then_the_map_length():
    def arraydist(parts, ranks):
        return make_descriptor((4,), elem="int", partition=("horizontal", parts),
                               distribution=("arraydist", ranks), nprocs=2)

    with pytest.raises(InvalidPartition, match="cannot split 4 indices into 5 blocks"):
        allocate("A", arraydist(5, (7,)))
    with pytest.raises(BadDistribution, match="has no entry for block 1"):
        allocate("A", arraydist(2, (0,)))
    with pytest.raises(BadDistribution, match="maps block 1 to rank 5"):
        allocate("A", arraydist(2, (0, 5, 0)))
    with pytest.raises(BadDistribution, match="has 3 entries for 2 blocks"):
        allocate("A", arraydist(2, (0, 1, 0)))
    assert [b.owner for b in allocate("A", arraydist(2, (1, 0))).blocks] == [1, 0]


def test_logical_roundtrip_row_and_col():
    for ordering in ("row", "col"):
        for partition in (None, ("horizontal", 3), ("vertical", 2)):
            desc = make_descriptor((5, 4), elem="int", ordering=ordering,
                                   partition=partition,
                                   distribution=("even",) if partition else ("on", 0),
                                   nprocs=2)
            arr = fill_sequential(allocate("X", desc))
            expect = 0
            for i in range(5):
                for j in range(4):
                    assert arr.logical_get((i, j)) == expect
                    expect += 1


def test_locate_bounds_checking():
    desc = make_descriptor((4,), elem="int", distribution=("on", 0))
    arr = allocate("x", desc)
    with pytest.raises(IndexOutOfBounds):
        arr.logical_get((4,))
    with pytest.raises(IndexOutOfBounds):
        logical_set(arr, (-1,), 5)


# --- locate ---


def documented_part_dim(shape, ordering, partition):
    """Partitions cut the ordering's major dimension, or the minor one for
    vertical; a 1D array has only dimension 0."""
    if len(shape) <= 1:
        return 0
    major = 0 if ordering == "row" else 1
    return 1 - major if partition is not None and partition[0] == "vertical" else major


def brute_force_locate(desc):
    """{index: (block, offset)} for every index, block by block from
    partition_bounds and the documented storage model."""
    if not desc.shape:
        return {(): (0, 0)}
    ndim = len(desc.shape)
    part_dim = documented_part_dim(desc.shape, desc.ordering, desc.partition)
    line_len = 1 if ndim == 1 else desc.shape[1 - part_dim]
    p = desc.partition[1] if desc.partition is not None else 1
    table = {}
    for k in range(p):
        low, high = partition_bounds(desc.shape[part_dim], p, k)
        for along in range(low, high + 1):
            for free in range(line_len):
                if ndim == 1:
                    index = (along,)
                else:
                    index = (along, free) if part_dim == 0 else (free, along)
                table[index] = (k, (along - low) * line_len + free)
    return table


def random_descriptor(rng):
    """0D, 1D or 2D, row or col, partitioned either way or not at all, with
    extents of 1 and splits that are uneven or one block per index."""
    shape = tuple(rng.choice((1, 2, rng.randint(1, 13)))
                  for _ in range(rng.choice((0, 1, 1, 2, 2, 2))))
    ordering = rng.choice(("row", "col"))
    nprocs = rng.randint(1, 5)
    if not shape or rng.random() < 0.2:
        return make_descriptor(shape, elem="int", ordering=ordering,
                               distribution=("on", rng.randrange(nprocs)), nprocs=nprocs)
    direction = rng.choice(("horizontal", "vertical"))
    extent = shape[documented_part_dim(shape, ordering, (direction,))]
    parts = rng.choice((1, extent, rng.randint(1, extent)))
    return make_descriptor(shape, elem="int", ordering=ordering,
                           partition=(direction, parts), distribution=("even",),
                           nprocs=nprocs)


def test_locate_matches_partition_bounds_on_random_descriptors():
    rng = random.Random(4099)
    seen = set()
    for _ in range(400):
        desc = random_descriptor(rng)
        expected = brute_force_locate(desc)
        assert {idx: desc.locate(idx) for idx in iter_indices(desc.shape)} == expected, desc
        if desc.shape:
            part_dim = desc.part_dim
            for idx, (k, _) in expected.items():
                assert desc.element(idx[part_dim])[0] == k, desc
        p = desc.block_count
        seen.add((len(desc.shape), desc.ordering,
                  desc.partition[0] if desc.partition else None,
                  "uneven" if desc.shape and desc.part_extent % p else "even",
                  "one per index" if desc.shape and p == desc.part_extent else "",
                  "extent 1" if 1 in desc.shape else ""))
    kinds = {field for key in seen for field in key}
    assert {0, 1, 2, "row", "col", "horizontal", "vertical", None, "uneven",
            "one per index", "extent 1"} <= kinds


def test_one_dimensional_element_is_locate_without_the_tuple():
    """element(i) against locate((i,)) for every 1D geometry up to 17
    indices in 5 blocks, every index in range and several outside."""
    for m in range(1, 18):
        for parts in [None] + list(range(1, min(m, 5) + 1)):
            partition = None if parts is None else ("horizontal", parts)
            desc = make_descriptor((m,), elem="int", partition=partition,
                                   distribution=("on", 0) if parts is None else ("even",))
            for i in range(-3, m + 3):
                try:
                    expected = desc.locate((i,))
                except IndexOutOfBounds as err:
                    with pytest.raises(IndexOutOfBounds) as mine:
                        desc.element(i)
                    assert str(mine.value) == str(err) == f"index ({i},) outside shape ({m},)"
                else:
                    assert desc.element(i) == expected, (m, parts, i)


def test_locate_rejects_bad_indices_with_their_messages():
    rng = random.Random(613)
    for _ in range(100):
        desc = random_descriptor(rng)
        shape = desc.shape
        bad = []
        for dim, extent in enumerate(shape):
            for value in (-1, extent, extent + rng.randint(1, 5), -rng.randint(2, 9)):
                index = list(next(iter_indices(shape)))
                index[dim] = value
                bad.append(tuple(index))
        for index in bad:
            with pytest.raises(IndexOutOfBounds) as err:
                desc.locate(index)
            assert str(err.value) == f"index {index} outside shape {shape}"
        for arity in (len(shape) - 1, len(shape) + 1):
            if arity < 0:
                continue
            index = (0,) * arity
            with pytest.raises(IndexOutOfBounds) as err:
                desc.locate(index)
            assert str(err.value) == f"index {index} into shape {shape}"


def test_cached_geometry_keeps_equality_and_hash():
    fields = dict(shape=(9, 4), elem="int", ordering="col", partition=("vertical", 4),
                  distribution=("even",), nprocs=3)
    a, b = ArrayDescriptor(**fields), ArrayDescriptor(**fields)
    a.locate((8, 3))
    assert a == b and hash(a) == hash(b)
    b.locate((0, 0))
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    other = ArrayDescriptor(**dict(fields, partition=("vertical", 3)))
    other.locate((0, 0))
    assert other != a


# --- trace ---


def test_trace_sequences_per_initiating_process():
    log = TraceLog(3)
    log.record("onesided-get", src=2, dst=0, nbytes=8, tag="b")
    log.record("onesided-put", src=0, dst=1, nbytes=8, tag="a")
    log.record("channel-send", src=2, dst=0, nbytes=8, tag="a")
    events = all_events(log)
    assert initiator(events[0]) == 0 and events[0].seq == 0
    assert initiator(events[1]) == 0 and events[1].seq == 1
    assert initiator(events[2]) == 2 and events[2].seq == 0


def test_events_differing_only_in_seq_extend_one_record():
    log = TraceLog(2)
    for _ in range(3):
        log.record("onesided-get", src=1, dst=0, nbytes=8, tag="a")
    log.record("onesided-put", src=0, dst=1, nbytes=8, tag="a")
    last = log.record("onesided-get", src=1, dst=0, nbytes=8, tag="a", repeat=2)
    assert [(e.kind, e.seq, e.repeat) for e in log._by_rank[0]] == [
        ("onesided-get", 0, 3), ("onesided-put", 3, 1), ("onesided-get", 4, 2)]
    assert last is log._by_rank[0][-1] and last.bytes == 8
    assert [e.seq for e in all_events(log)] == [0, 1, 2, 3, 4, 5]
    assert log.count("onesided-get") == 5


def test_trace_render_is_tab_separated_and_sorted():
    log = TraceLog(3)
    log.record("channel-send", src=2, dst=0, nbytes=8, tag="a")
    log.record("onesided-get", src=1, dst=0, nbytes=16, tag="b")
    text = log.render()
    lines = text.splitlines()
    assert lines[0].split("\t") == ["onesided-get", "1", "0", "16", "0", "b"]
    assert lines[1].split("\t") == ["channel-send", "2", "0", "8", "0", "a"]


def sorted_render(records, nprocs):
    """The rendering of a log kept in one list in record order: each event
    numbered on its initiating rank, then all sorted by (initiator, seq)."""
    seqs = [0] * nprocs
    events = []
    for kind, src, dst, nbytes, tag in records:
        initiator = dst if kind in STAMPED_BY_DST else src
        events.append((initiator, seqs[initiator], kind, src, dst, nbytes, tag))
        seqs[initiator] += 1
    events.sort(key=lambda e: (e[0], e[1]))
    lines = [f"{kind}\t{src}\t{dst}\t{nbytes}\t{seq}\t{tag}"
             for _, seq, kind, src, dst, nbytes, tag in events]
    return "\n".join(lines) + ("\n" if lines else "")


@pytest.mark.parametrize("nprocs", [1, 3, 64])
def test_trace_render_matches_the_sorted_rendering(nprocs):
    kinds = ("onesided-get", "onesided-put", "channel-send", "channel-recv",
             "block-transfer")
    rng = random.Random(nprocs)
    for count in (0, 1, 7, 500):
        log = TraceLog(nprocs)
        records = [(rng.choice(kinds), rng.randrange(nprocs), rng.randrange(nprocs),
                    rng.choice((1, 8, 16 * rng.randint(1, 64))), rng.choice("ABxy"))
                   for _ in range(count)]
        for kind, src, dst, nbytes, tag in records:
            event = log.record(kind, src=src, dst=dst, nbytes=nbytes, tag=tag)
            assert (event.kind, event.src, event.dst, event.bytes, event.tag) == (
                kind, src, dst, nbytes, tag)
        expected = sorted_render(records, nprocs)
        assert log.render() == expected
        assert [f"{e.kind}\t{e.src}\t{e.dst}\t{e.bytes}\t{e.seq}\t{e.tag}"
                for e in all_events(log)] == expected.splitlines()
        for kind in kinds:
            assert log.count(kind) == sum(r[0] == kind for r in records)


def random_plan(rng, nprocs):
    """A redistribution plan between two random evendist 2D layouts."""
    shape = (rng.randint(1, 9), rng.randint(1, 9))
    sides = []
    for _ in range(2):
        ordering = rng.choice(("row", "col"))
        kind = rng.choice(("horizontal", "vertical"))
        extent = shape[partitioned_dim(2, ordering, (kind, 1))]
        sides.append(make_descriptor(shape, ordering=ordering,
                                     partition=(kind, rng.randint(1, extent)),
                                     distribution=("even",), nprocs=nprocs))
    return plan_redistribution(*sides)


@pytest.mark.parametrize("nprocs", [2, 3, 5])
def test_batches_interleave_with_single_events(nprocs):
    """Single events and collective run records on the same ranks, in any
    order, number and render as the per-event log does."""
    rng = random.Random(nprocs)
    log = TeeTraceLog(nprocs)
    singles = 0
    for step in range(300):
        if rng.random() < 0.1:
            log.record_plan(random_plan(rng, nprocs), rng.choice((1, 8, 16)),
                            rng.choice("ABxy"))
        else:
            kind = rng.choice(TRACE_KINDS)
            singles += kind == "block-transfer"
            log.record(kind, src=rng.randrange(nprocs), dst=rng.randrange(nprocs),
                       nbytes=rng.choice((1, 8, 16)), tag=rng.choice("ABxy"))
        if step % 50 == 0:
            assert_trace_matches_reference(log, log.reference, f"step {step}")
    assert_trace_matches_reference(log, log.reference)
    assert log.count("block-transfer") > singles  # some runs were not empty
