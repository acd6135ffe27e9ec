"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import random
import time

import pytest

from conftest import (
    brute_force_copy,
    buffers_of,
    chain_of,
    checked_corpus,
    fill_sequential,
    make_descriptor,
    oracle_dft1d,
    oracle_dft2d,
    resolve_attribute,
    run_collective,
)
from meshlite import check_program, parse, run
from meshlite.chains import combine, plan_of
from meshlite.chains import Char, Col, Const, Horizontal, Int, Multiple, On, Row, Single, Vertical, ArrayOf, Complex
from meshlite.errors import CheckError, InvalidCombination
from meshlite.fixtures import CORPUS, corpus_source, generate_image
from meshlite.interp import compute_sins, fft_inplace
from meshlite.values import LineSlice
from meshlite.mshd import read_mshd
from meshlite.runtime import allocate
from test_chains import legal_by_documented_rules, random_sequence


def ok(n, text):
    print(f"[criterion {n}] PASS: {text}")


def test_criterion_1_2d_fft_correctness(tmp_path):
    """Pipeline output matches the O(n^4) direct 2D DFT, under 10 s/case."""
    checked = checked_corpus("fft2d.mesh")
    worst = 0.0
    slowest = 0.0
    for n in (8, 16, 32):
        generate_image(n, 13, tmp_path / "image.dat")
        _, _, vals = read_mshd(tmp_path / "image.dat")
        matrix = [vals[i * n : (i + 1) * n] for i in range(n)]
        expected = oracle_dft2d(matrix)
        for nprocs in (1, 2, 4):
            start = time.monotonic()
            result = run(checked, nprocs, workdir=str(tmp_path), overrides={"n": n})
            elapsed = time.monotonic() - start
            assert result.array("A").descriptor.block_count == 2 * nprocs
            got = result.logical("S")
            err = max(abs(got[i][j] - expected[i][j])
                      for i in range(n) for j in range(n))
            assert err < 1e-8, f"n={n} P={nprocs}: error {err}"
            assert elapsed < 10.0, f"n={n} P={nprocs}: took {elapsed:.1f}s"
            worst = max(worst, err)
            slowest = max(slowest, elapsed)
    ok(1, f"n in {{8,16,32}} x P in {{1,2,4}}, max err {worst:.2e}, slowest {slowest:.2f}s")


def test_criterion_2_1d_kernel_oracle_and_parseval():
    sizes = [2, 4, 8, 16, 32, 64]
    rng = random.Random(2024)
    worst = 0.0
    worst_parseval = 0.0
    inputs = 0
    for n in sizes:
        sins = compute_sins(n)
        for _ in range(20):
            values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
            expected = oracle_dft1d(values)
            time_energy = sum(abs(v) ** 2 for v in values) * n
            fft_inplace(values, sins)
            err = max(abs(a - b) for a, b in zip(values, expected))
            assert err < 1e-9, f"n={n}: kernel error {err}"
            freq_energy = sum(abs(v) ** 2 for v in values)
            rel = abs(time_energy - freq_energy) / time_energy
            assert rel < 1e-10, f"n={n}: Parseval relative error {rel}"
            worst = max(worst, err)
            worst_parseval = max(worst_parseval, rel)
            inputs += 1
    assert inputs >= 100
    ok(2, f"{inputs} random inputs over n=2..64, max err {worst:.2e}, "
          f"Parseval {worst_parseval:.2e}")


def _layout_grid(shape, p, nprocs, rng):
    descs = []
    for ordering in ("row", "col"):
        for partition in (None, ("horizontal", p), ("vertical", p)):
            blocks = p if partition else 1
            for dist in (("even",),
                         ("arraydist", tuple(rng.randrange(nprocs) for _ in range(blocks))),
                         ("on", rng.randrange(nprocs))):
                descs.append(make_descriptor(shape, ordering=ordering,
                                             partition=partition,
                                             distribution=dist, nprocs=nprocs))
    return descs


def _sweep(shape, p, nprocs, seed):
    rng = random.Random(seed)
    descs = _layout_grid(shape, p, nprocs, rng)
    pairs = 0
    for src_desc in descs:
        src = fill_sequential(allocate("S", src_desc))
        for dst_desc in descs:
            dst = allocate("D", dst_desc)
            run_collective(nprocs, lambda c: c.assign_arrays(dst, src))
            oracle = allocate("O", dst_desc)
            brute_force_copy(oracle, src)
            assert buffers_of(dst) == buffers_of(oracle), (
                f"src={src_desc}\ndst={dst_desc}")
            pairs += 1
    return pairs


def test_criterion_3_redistribution_matches_brute_force():
    pairs = _sweep((16, 13), p=4, nprocs=4, seed=3)
    ok(3, f"{pairs} descriptor pairs at 16x13, p=4, P=4, exact equality")


def test_criterion_4_uneven_partitions_are_transparent():
    from meshlite.runtime import partition_bounds

    sizes = [hi - lo + 1 for lo, hi in (partition_bounds(10, 4, k) for k in range(4))]
    assert sizes == [3, 3, 2, 2]
    pairs = _sweep((10, 9), p=4, nprocs=4, seed=4)
    wrap = _sweep((10, 9), p=8, nprocs=3, seed=5)  # more blocks than ranks
    ok(4, f"block sizes 3,3,2,2 and p=8 over P=3: {pairs + wrap} pairs exact")


def test_criterion_5_communication_modes(tmp_path):
    onesided = run(checked_corpus("onesided.mesh"), 3)
    assert onesided.trace.count("onesided-get") + onesided.trace.count("onesided-put") == 1
    assert onesided.trace.count("channel-send") == 0
    assert onesided.trace.count("channel-recv") == 0

    channel = run(checked_corpus("channel.mesh"), 3)
    assert channel.trace.count("channel-send") == 1
    assert channel.trace.count("channel-recv") == 1
    assert channel.trace.count("onesided-get") + channel.trace.count("onesided-put") == 0

    checked = checked_corpus("channel_async.mesh")
    delivered = 0
    for seed in range(100):
        result = run(checked, 3, seed=seed)
        assert result.logical("a") == 7, f"seed {seed}: value missing after sync"
        delivered += 1
    assert delivered == 100
    ok(5, "1 one-sided / 1 channel pair / async delivered in 100/100 schedules")


def test_criterion_6_retuning_by_type_change_only(tmp_path):
    n = 16
    generate_image(n, 1, tmp_path / "image.dat")
    run(checked_corpus("fft2d.mesh"), 4, workdir=str(tmp_path))
    even_out = (tmp_path / "image.out.dat").read_bytes()
    result = run(checked_corpus("fft2d_arraydist.mesh"), 4, workdir=str(tmp_path))
    dist_out = (tmp_path / "image.out.dat").read_bytes()
    assert even_out == dist_out

    d = result.array("d")
    placement = list(d.replicas[0])
    for array_name in ("A", "B", "C"):
        owners = [b.owner for b in result.array(array_name).blocks]
        assert owners == placement, f"{array_name} placement does not follow d"

    base = corpus_source("fft2d.mesh").splitlines()
    dist = corpus_source("fft2d_arraydist.mesh").splitlines()
    anchor = "var sins : array[complex,n/2] :: allocated[multiple[]];"
    assert base[base.index(anchor):] == dist[dist.index(anchor):]
    ok(6, "identical outputs, placement follows d, compute section unchanged")


def test_criterion_7_share_view_aliasing():
    n = 8
    p = 4
    nprocs = 2
    base = allocate("B", make_descriptor((n, n), ordering="col",
                                         partition=("horizontal", p),
                                         distribution=("even",), nprocs=nprocs))
    rng = random.Random(7)
    for block in base.blocks:
        block.buffer[:] = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                           for _ in block.buffer]
    before = [[base.logical_get((i, j)) for j in range(n)] for i in range(n)]

    view = allocate("C", make_descriptor((n, n), ordering="row",
                                         partition=("vertical", p),
                                         distribution=("even",), nprocs=nprocs),
                    base=base)
    assert all(vb.buffer is bb.buffer for vb, bb in zip(view.blocks, base.blocks))

    # write through the view at (block k, offset t), read back through the base
    probe = complex(123.0, -9.0)
    for k in range(p):
        for t in (0, 3, len(view.blocks[k].buffer) - 1):
            old = view.blocks[k].buffer[t]
            view.blocks[k].buffer[t] = probe
            assert base.blocks[k].buffer[t] == probe
            view.blocks[k].buffer[t] = old

    # the second transform stage: FFT over every line of the view
    sins = compute_sins(n)
    for block in view.blocks:
        lines = block.high - block.low + 1
        for t in range(lines):
            line = LineSlice(view, block, t)
            values = line.values()
            fft_inplace(values, sins)
            line.store(values)

    cols = [oracle_dft1d([before[i][j] for i in range(n)]) for j in range(n)]
    expected = [[cols[j][i] for j in range(n)] for i in range(n)]
    err = max(abs(base.logical_get((i, j)) - expected[i][j])
              for i in range(n) for j in range(n))
    assert err < 1e-9
    ok(7, f"zero-copy alias, exact write-through, column FFT via view err {err:.2e}")


def test_criterion_8_type_system_laws():
    # right-to-left precedence on raw constructor tuples
    array_base = ArrayOf((Complex(),), (4, 4))
    assert resolve_attribute((array_base, Row(), Col()), "ordering") == "col"
    assert resolve_attribute((array_base, Col(), Row()), "ordering") == "row"
    assert resolve_attribute((Char(), Const()), "mutability") == "read-only"
    assert resolve_attribute(
        (array_base, Horizontal(2), Vertical(3)), "partition") == ("vertical", 3)

    # duplicate-attribute rejection
    with pytest.raises(InvalidCombination):
        chain_of(array_base, Row(), Row())
    with pytest.raises(InvalidCombination):
        chain_of(array_base, Horizontal(2), Vertical(2))
    with pytest.raises(InvalidCombination):
        chain_of(Int(), Single(On(0)), Multiple())

    # meaningless base coercion
    with pytest.raises(InvalidCombination):
        chain_of(Int(), Char())

    # const write rejection
    with pytest.raises(CheckError) as err:
        check_program(parse("var x : Int :: const;\nx := 1;"))
    assert any(d.rule == "ConstViolation" for d in err.value.diagnostics)

    # full-chain argument matching
    src = """
var A : array[complex,4,4] :: allocated[col[] :: single[0]];
function f(X : array[complex,4,4] :: allocated[row[] :: single[0]]) { X := X; };
f(A);
"""
    with pytest.raises(CheckError) as err:
        check_program(parse(src))
    assert any(d.rule == "ArgumentChainMismatch" for d in err.value.diagnostics)

    # random-chain property: never crashes, rejects exactly the documented set
    rng = random.Random(8888)
    agreement = 0
    for _ in range(1200):
        ctors = random_sequence(rng)
        expected = legal_by_documented_rules(ctors)
        chain = ()
        accepted = True
        try:
            for c in ctors:
                chain = combine(chain, c)
        except InvalidCombination:
            accepted = False
        assert accepted == expected, f"{ctors}"
        if accepted:
            try:
                plan_of(chain)
            except Exception as exc:
                from meshlite.errors import IncompletePlan
                assert isinstance(exc, IncompletePlan), f"plan_of crashed: {exc!r}"
        agreement += 1
    assert agreement >= 1000
    ok(8, f"laws hold; {agreement} random chains classified exactly")


def test_criterion_9_determinism_across_scheduler_seeds(tmp_path):
    generate_image(16, 1, tmp_path / "image.dat")
    summary = []
    for name in CORPUS:
        checked = checked_corpus(name)
        nprocs = 4 if name.startswith("fft2d") else 3
        blocking = name != "channel_async.mesh"
        states = set()
        outputs = set()
        traces = set()
        for seed in range(5):
            result = run(checked, nprocs, workdir=str(tmp_path), seed=seed)
            state = []
            for var in result.names():
                if var in result._arrays:
                    state.append((var, repr(result.logical(var))))
                else:
                    state.append((var, repr(result.local(var))))
            states.add(tuple(state))
            if blocking:
                traces.add(result.trace.render())
            out = tmp_path / "image.out.dat"
            if out.exists():
                outputs.add(out.read_bytes())
        assert len(states) == 1, f"{name}: final state varies with the seed"
        if blocking:
            assert len(traces) == 1, f"{name}: trace varies with the seed"
        assert len(outputs) <= 1
        summary.append(name)
    ok(9, f"5 seeds x {len(summary)} programs: states, traces and files identical")
