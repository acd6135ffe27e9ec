"""Transform kernel and pipeline checks against direct-evaluation oracles."""

import math
import random

import pytest

from conftest import (
    checked_corpus,
    make_descriptor,
    oracle_dft1d,
    oracle_dft2d,
    reference_fft,
)
from meshlite import check_program, parse, run
from meshlite.errors import BadLength, NotPowerOfTwo
from meshlite.fixtures import corpus_source, dft2d, generate_image
from meshlite.interp import bit_reversal, butterflies, compute_sins, fft_inplace
from meshlite.mshd import read_mshd
from meshlite.runtime import allocate


def max_err(xs, ys):
    return max(abs(x - y) for x, y in zip(xs, ys))


# --- twiddle table ---


def test_compute_sins_n4():
    sins = compute_sins(4)
    assert max_err(sins, [1, -1j]) < 1e-15


def test_compute_sins_n8_first_entry():
    sins = compute_sins(8)
    root = math.sqrt(2) / 2
    assert abs(sins[1] - complex(root, -root)) < 1e-15


def test_compute_sins_n2():
    assert compute_sins(2) == [1 + 0j]


def test_compute_sin_builtin_validates_length():
    src = """
var sins : array[complex,3] :: allocated[multiple[]];
computeSin(sins);
"""
    with pytest.raises((BadLength, Exception)):
        run(check_program(parse(src)), 1)


# --- kernel ---


def test_fft_constant_signal():
    values = [1 + 0j] * 4
    fft_inplace(values, compute_sins(4))
    assert max_err(values, [4, 0, 0, 0]) < 1e-12


def test_fft_unit_impulse():
    values = [1 + 0j, 0j, 0j, 0j]
    fft_inplace(values, compute_sins(4))
    assert max_err(values, [1, 1, 1, 1]) < 1e-12


def test_fft_matches_naive_dft_length8():
    rng = random.Random(8)
    values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(8)]
    expected = oracle_dft1d(values)
    fft_inplace(values, compute_sins(8))
    assert max_err(values, expected) < 1e-10


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
def test_fft_oracle_equivalence_all_sizes(n):
    rng = random.Random(n)
    sins = compute_sins(n)
    for _ in range(20):
        values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        expected = oracle_dft1d(values)
        fft_inplace(values, sins)
        assert max_err(values, expected) < 1e-9


@pytest.mark.parametrize("n", [2, 8, 64])
def test_fft_parseval(n):
    rng = random.Random(100 + n)
    values = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
    time_energy = sum(abs(v) ** 2 for v in values) * n
    fft_inplace(values, compute_sins(n))
    freq_energy = sum(abs(v) ** 2 for v in values)
    assert abs(time_energy - freq_energy) / time_energy < 1e-10


def test_fft_rejects_bad_lengths():
    with pytest.raises(NotPowerOfTwo):
        fft_inplace([1j] * 3, compute_sins(4))
    with pytest.raises(BadLength):
        fft_inplace([1j] * 8, compute_sins(4))


def test_cached_bit_reversal_matches_string_reversal():
    n = 1
    while n <= 4096:
        bits = n.bit_length() - 1
        expected = [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
                    for i in range(n)]
        assert list(bit_reversal(n)) == expected
        n *= 2


def test_fft_is_deterministic():
    rng = random.Random(9)
    base = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(16)]
    a, b = list(base), list(base)
    fft_inplace(a, compute_sins(16))
    fft_inplace(b, compute_sins(16))
    assert a == b


# --- the cached schedule against the stage loop it replaced ---


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.0]


def random_line(rng, n, parts=None):
    def part():
        return rng.choice(parts) if parts else rng.uniform(-1, 1)
    return [complex(part(), part()) for _ in range(n)]


def assert_same_as_reference(values, sins):
    got, want = list(values), list(values)
    fft_inplace(got, sins)
    reference_fft(want, sins)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("n", [2 ** e for e in range(1, 11)])
def test_fft_matches_the_stage_loop_on_random_lines(n):
    rng = random.Random(n)
    sins = compute_sins(n)
    for _ in range(4):
        assert_same_as_reference(random_line(rng, n), sins)


@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_fft_matches_the_stage_loop_on_signed_zeros_infinities_and_nans(n):
    rng = random.Random(200 + n)
    for sins in (compute_sins(n), random_line(rng, n // 2, SPECIAL)):
        for _ in range(8):
            assert_same_as_reference(random_line(rng, n, SPECIAL), sins)
        assert_same_as_reference([complex(-0.0, -0.0)] * n, sins)


@pytest.mark.parametrize("n", [2, 16, 256])
def test_fft_reads_arbitrary_twiddles_and_no_cached_ones(n):
    """Two unrelated tables back to back at one length: the schedule is
    cached per n, so it must hold positions in `sins`, not their values."""
    rng = random.Random(300 + n)
    line = random_line(rng, n)
    for sins in (random_line(rng, n // 2), [complex(3, -7)] * (n // 2), compute_sins(n)):
        assert_same_as_reference(line, [complex(w.real * 5, w.imag - 2) for w in sins])
        assert_same_as_reference(line, sins)


@pytest.mark.parametrize("n,sins", [(0, []), (3, [1j]), (6, [1j] * 3), (8, [1j] * 3)])
def test_fft_raises_what_the_stage_loop_raises_and_leaves_values_alone(n, sins):
    values = [complex(k, -k) for k in range(n)]
    raised = []
    for kernel in (fft_inplace, reference_fft):
        line = list(values)
        with pytest.raises((NotPowerOfTwo, BadLength)) as info:
            kernel(line, list(sins))
        assert line == values
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def test_butterflies_pair_every_index_once_per_stage():
    n = 1
    while n <= 4096:
        schedule = butterflies(n)
        stages = n.bit_length() - 1
        assert len(schedule) == n // 2 * stages
        for stage in range(stages):
            half = 1 << stage
            pairs = schedule[stage * n // 2:(stage + 1) * n // 2]
            assert all(k - i == half for i, k, _ in pairs)
            assert sorted(x for i, k, _ in pairs for x in (i, k)) == list(range(n))
        assert all(t < n // 2 for _, _, t in schedule)
        n *= 2


# --- 2D oracle self-checks ---


def test_oracle_2d_all_ones():
    out = oracle_dft2d([[1, 1], [1, 1]])
    assert abs(out[0][0] - 4) < 1e-12
    assert abs(out[0][1]) < 1e-12 and abs(out[1][0]) < 1e-12 and abs(out[1][1]) < 1e-12


def test_oracle_2d_impulse_is_flat():
    n = 4
    matrix = [[0j] * n for _ in range(n)]
    matrix[0][0] = 1
    out = oracle_dft2d(matrix)
    assert all(abs(out[i][j] - 1) < 1e-12 for i in range(n) for j in range(n))


def test_oracle_2d_separability():
    """Direct 2D sum equals row transforms + transpose + row transforms."""
    n = 8
    rng = random.Random(42)
    matrix = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
              for _ in range(n)]
    direct = oracle_dft2d(matrix)
    rows = [oracle_dft1d(row) for row in matrix]
    cols = [oracle_dft1d([rows[i][j] for i in range(n)]) for j in range(n)]
    composed = [[cols[j][i] for j in range(n)] for i in range(n)]
    assert max(abs(direct[i][j] - composed[i][j]) for i in range(n) for j in range(n)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_fixture_dft_matches_the_double_sum(n):
    """make-fixtures' separable direct DFT equals the O(n^4) double sum."""
    rng = random.Random(n)
    matrix = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
              for _ in range(n)]
    direct, separable = oracle_dft2d(matrix), dft2d(matrix)
    assert len(separable) == n and all(len(row) == n for row in separable)
    assert max(abs(direct[i][j] - separable[i][j]) for i in range(n) for j in range(n)) < 1e-9


# --- pipeline and share view ---


def run_fft2d(tmp_path, n, nprocs, corpus="fft2d.mesh", seed=0):
    generate_image(n, 5, tmp_path / "image.dat")
    _, _, vals = read_mshd(tmp_path / "image.dat")
    matrix = [vals[i * n : (i + 1) * n] for i in range(n)]
    result = run(checked_corpus(corpus), nprocs, workdir=str(tmp_path),
                 overrides={"n": n}, seed=seed)
    return matrix, result


def test_pipeline_matches_2d_oracle(tmp_path):
    n = 16
    matrix, result = run_fft2d(tmp_path, n, 2)
    expected = oracle_dft2d(matrix)
    got = result.logical("S")
    err = max(abs(got[i][j] - expected[i][j]) for i in range(n) for j in range(n))
    assert err < 1e-8


def test_share_view_write_reads_back_through_base():
    base = allocate("B", make_descriptor((8, 8), ordering="col",
                                         partition=("horizontal", 4),
                                         distribution=("even",), nprocs=2))
    view = allocate("C", make_descriptor((8, 8), ordering="row",
                                         partition=("vertical", 4),
                                         distribution=("even",), nprocs=2),
                    base=base)
    store = sum(len(b.buffer) for b in base.blocks)
    assert sum(1 for vb, bb in zip(view.blocks, base.blocks)
               if vb.buffer is not bb.buffer) == 0  # zero new element storage
    for k in range(4):
        view.blocks[k].buffer[k + 1] = complex(k, k)
        assert base.blocks[k].buffer[k + 1] == complex(k, k)
    assert sum(len(b.buffer) for b in base.blocks) == store


def test_row_fft_on_view_equals_column_fft_on_base(tmp_path):
    """Running only the second transform stage must column-transform B."""
    n = 8
    src = f"""
var n := {n};
var p := processes() * 2;
var i, j;
var S : array[complex,n,n] :: allocated[row[] :: single[0]];
var B : array[complex,n,n] :: allocated[col[] :: horizontal[p] :: single[evendist[]]];
var C : array[complex,n,n] :: allocated[row[] :: vertical[p] :: single[evendist[]]] :: share[B];
var sins : array[complex,n/2] :: allocated[multiple[]];
computeSin(sins);
proc 0 {{ readfile(S, "image.dat") }};
B := S;
for j from 0 to C.localblocks - 1 {{
    var bid := C.localblockid[j];
    for i from C[bid].low to C[bid].high FFT(C[bid][i - C[bid].low], sins);
}};
S := C;
proc 0 {{ writefile(S, "image.out.dat") }};
"""
    generate_image(n, 11, tmp_path / "image.dat")
    _, _, vals = read_mshd(tmp_path / "image.dat")
    matrix = [vals[i * n : (i + 1) * n] for i in range(n)]
    result = run(check_program(parse(src)), 2, workdir=str(tmp_path))
    got = result.logical("S")
    cols = [oracle_dft1d([matrix[i][j] for i in range(n)]) for j in range(n)]
    expected = [[cols[j][i] for j in range(n)] for i in range(n)]
    err = max(abs(got[i][j] - expected[i][j]) for i in range(n) for j in range(n))
    assert err < 1e-9


def test_distribution_choice_does_not_change_results(tmp_path):
    """Identity and reversed placements give bit-identical output."""
    n = 8
    text = corpus_source("fft2d_arraydist.mesh")
    sources = [
        check_program(parse(text)),
        check_program(parse(text.replace("d[i] := i", "d[i] := p - 1 - i"))),
    ]
    outputs = []
    for checked in sources:
        generate_image(n, 5, tmp_path / "image.dat")
        run(checked, 4, workdir=str(tmp_path), overrides={"n": n})
        outputs.append((tmp_path / "image.out.dat").read_bytes())
    assert outputs[0] == outputs[1]
