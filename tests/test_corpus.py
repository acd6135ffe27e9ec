"""The bundled programs parse, check and run at their supported scales."""

import pytest

from conftest import TeeTraceLog, assert_trace_matches_reference, checked_corpus, oracle_dft2d
from meshlite import check_program, parse, run, runtime
from meshlite.fixtures import CORPUS, corpus_source, generate_image
from meshlite.mshd import read_mshd

FFT_PROGRAMS = ["fft2d.mesh", "fft2d_arraydist.mesh"]
RANKED_PROGRAMS = ["onesided.mesh", "channel.mesh", "channel_async.mesh"]


@pytest.mark.parametrize("name", CORPUS)
def test_every_program_parses_and_checks(name):
    checked_corpus(name)


@pytest.mark.parametrize("name", RANKED_PROGRAMS)
@pytest.mark.parametrize("nprocs", [3, 4])
def test_rank_addressed_programs_run(name, nprocs):
    run(checked_corpus(name), nprocs)


@pytest.mark.parametrize("name", FFT_PROGRAMS)
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_fft_programs_run_at_all_scales(tmp_path, name, nprocs):
    generate_image(16, 1, tmp_path / "image.dat")
    result = run(checked_corpus(name), nprocs, workdir=str(tmp_path))
    assert (tmp_path / "image.out.dat").exists()
    assert result.array("S").descriptor.shape == (16, 16)


def test_fft_corpus_matches_oracle_at_desk_scale(tmp_path):
    """n=16, P=4 gives p=8 partitions; output equals the direct 2D DFT."""
    n = 16
    generate_image(n, 1, tmp_path / "image.dat")
    _, _, vals = read_mshd(tmp_path / "image.dat")
    matrix = [vals[i * n : (i + 1) * n] for i in range(n)]
    expected = oracle_dft2d(matrix)
    result = run(checked_corpus("fft2d.mesh"), 4, workdir=str(tmp_path))
    assert result.array("A").descriptor.block_count == 8
    _, shape, out = read_mshd(tmp_path / "image.out.dat")
    assert shape == (n, n)
    err = max(abs(out[i * n + j] - expected[i][j]) for i in range(n) for j in range(n))
    assert err < 1e-8


def test_arraydist_variant_output_identical(tmp_path):
    n = 16
    generate_image(n, 1, tmp_path / "image.dat")
    run(checked_corpus("fft2d.mesh"), 4, workdir=str(tmp_path))
    even_out = (tmp_path / "image.out.dat").read_bytes()
    result = run(checked_corpus("fft2d_arraydist.mesh"), 4, workdir=str(tmp_path))
    dist_out = (tmp_path / "image.out.dat").read_bytes()
    assert even_out == dist_out
    # placement follows the distribution array d: block k on rank d[k] = k
    arr = result.array("A")
    assert [b.owner for b in arr.blocks] == [0, 1, 2, 3]


def test_variants_differ_only_in_the_declaration_preamble():
    base = corpus_source("fft2d.mesh").splitlines()
    dist = corpus_source("fft2d_arraydist.mesh").splitlines()
    tail_base = base[base.index("var sins : array[complex,n/2] :: allocated[multiple[]];"):]
    tail_dist = dist[dist.index("var sins : array[complex,n/2] :: allocated[multiple[]];"):]
    assert tail_base == tail_dist
    head_dist = dist[: dist.index(tail_dist[0])]
    for line in head_dist:
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        assert (stripped.startswith("var ")
                or stripped.startswith("for i from 0 to p - 1")
                or stripped.startswith("d[i] := i")
                or stripped == "};"), line


def test_gather_after_pipeline_without_transforms_restores_input(tmp_path):
    """Scatter, redistribute, and gather with no arithmetic: bit-exact."""
    src = """
var n := 16;
var p := processes() * 2;
var S : array[complex,n,n] :: allocated[row[] :: single[0]];
var A : array[complex,n,n] :: allocated[row[] :: horizontal[p] :: single[evendist[]]];
var B : array[complex,n,n] :: allocated[col[] :: horizontal[p] :: single[evendist[]]];
var C : array[complex,n,n] :: allocated[row[] :: vertical[p] :: single[evendist[]]] :: share[B];
proc 0 { readfile(S, "image.dat") };
A := S;
B := A;
S := C;
proc 0 { writefile(S, "image.out.dat") };
"""
    generate_image(16, 9, tmp_path / "image.dat")
    run(check_program(parse(src)), 4, workdir=str(tmp_path))
    assert (tmp_path / "image.dat").read_bytes() == (tmp_path / "image.out.dat").read_bytes()


# every process count in {1, 2, 3, 4, 16} at which each program runs, n=16
LEGAL_PROCS = [(name, p) for name in RANKED_PROGRAMS for p in (3, 4, 16)] + [
    ("fft2d.mesh", p) for p in (1, 2, 3, 4)] + [
    ("fft2d_arraydist.mesh", p) for p in (1, 2, 3, 4, 16)]


@pytest.mark.parametrize("name,nprocs", LEGAL_PROCS)
def test_trace_matches_per_event_oracle(tmp_path, monkeypatch, name, nprocs):
    """Collectives' run records render, expand and count as one event per run."""
    monkeypatch.setattr(runtime, "TraceLog", TeeTraceLog)
    generate_image(16, 1, tmp_path / "image.dat")
    for seed in (0, 7919):
        result = run(checked_corpus(name), nprocs, seed=seed, workdir=str(tmp_path))
        assert_trace_matches_reference(result.trace, result.trace.reference,
                                       f"{name} P={nprocs} seed={seed}")
