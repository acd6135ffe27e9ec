"""Golden outputs: `meshlite run --trace` of the corpus, pinned by sha256.

Each corpus program runs through the command line on `make-fixtures` data
(16 x 16 image, seed 1) at every process count below, under scheduler
seeds 0 and 7919. The rendered trace, stdout and the MSHD file written
must hash to the values pinned here, which were taken from the per-event
trace log; a change to how the trace is stored must leave every byte alone.
The FFT programs' output is also pinned at full size, n = 256.
"""

import hashlib

import pytest

from meshlite.cli import main
from meshlite.fixtures import CORPUS, corpus_source, generate_image, write_fixtures

PROCS = (1, 2, 3, 4, 16)
SEEDS = (0, 7919)

EMPTY = hashlib.sha256(b"").hexdigest()
FFT_OUT = "294a3438c0a99dc7d8918c48f6e187ba9f5c46d0f6df68cc1b36cb0eec801198"
ONE_GET = "01f825e1f1b87499ed451e4bc99f8294bacc7625351316204fe60e6c02051c52"
SEND_RECV = "67c0c47306a81bc891b080480098e065a840e451b8c138f0d989a5f4308c1778"
# the 256 x 256 spectrum of generate_image(256, 1), whatever the distribution
FFT_OUT_256 = "bfa97a1b0b201947a9af7bf35121da10096c0a760abd8f52c199344ea635782f"

# (program, P) -> sha256 of (trace, MSHD output); a missing pair exits 1
GOLDEN = {
    ("onesided.mesh", 3): (ONE_GET, None),
    ("onesided.mesh", 4): (ONE_GET, None),
    ("onesided.mesh", 16): (ONE_GET, None),
    ("channel.mesh", 3): (SEND_RECV, None),
    ("channel.mesh", 4): (SEND_RECV, None),
    ("channel.mesh", 16): (SEND_RECV, None),
    ("channel_async.mesh", 3): (SEND_RECV, None),
    ("channel_async.mesh", 4): (SEND_RECV, None),
    ("channel_async.mesh", 16): (SEND_RECV, None),
    ("fft2d.mesh", 1): (EMPTY, FFT_OUT),
    ("fft2d.mesh", 2): (
        "8785b4ff3d7318159f8365861ad5a99cc6c144a409b325f3784cb5a20ed610a6", FFT_OUT),
    ("fft2d.mesh", 3): (
        "241619f87f5482e19562420e56d5327c9de511b10152bcefa536d633225c6b16", FFT_OUT),
    ("fft2d.mesh", 4): (
        "00a889b4c532fb32ec08919ebae0d6ab549b5e688b1c5079a3b68c31b0965054", FFT_OUT),
    ("fft2d_arraydist.mesh", 1): (EMPTY, FFT_OUT),
    ("fft2d_arraydist.mesh", 2): (
        "cde2e2219ac87d547a28eda85e773c05cb94f5a98e7e58af21cb367ff93ca955", FFT_OUT),
    ("fft2d_arraydist.mesh", 3): (
        "4c5e9a953cc27abb6548d97c19a4dcf74547124e8b0fd984f568c2505eda7a7e", FFT_OUT),
    ("fft2d_arraydist.mesh", 4): (
        "3d2ff2c8db88520b290cd22180c198d3ef08115db61af732b174d4534a0b6105", FFT_OUT),
    ("fft2d_arraydist.mesh", 16): (
        "260fc4a833519905fc8d2ddfa63f795169d813834f3d499ce5c5396cfda9b0c0", FFT_OUT),
}


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


@pytest.fixture(scope="module")
def fixtures_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_fixtures(path)
    return path


@pytest.mark.parametrize("name", CORPUS)
@pytest.mark.parametrize("nprocs", PROCS)
def test_corpus_run_matches_golden_hashes(fixtures_dir, monkeypatch, capsys, name, nprocs):
    monkeypatch.chdir(fixtures_dir)
    trace, out = fixtures_dir / "t.log", fixtures_dir / "image.out.dat"
    for seed in SEEDS:
        for path in (trace, out):
            path.unlink(missing_ok=True)
        code = main(["run", name, "--procs", str(nprocs), "--trace", str(trace),
                     "--scheduler-seed", str(seed)])
        stdout = capsys.readouterr().out
        context = f"{name} P={nprocs} seed={seed}"
        assert stdout == "", context
        if (name, nprocs) not in GOLDEN:
            assert code == 1, context
            assert (digest(trace), digest(out)) == (None, None), context
            continue
        assert code == 0, context
        assert (digest(trace), digest(out)) == GOLDEN[name, nprocs], context


@pytest.mark.parametrize("name,nprocs", [("fft2d.mesh", 4), ("fft2d_arraydist.mesh", 2)])
def test_full_size_fft_output_matches_its_pinned_hash(tmp_path, monkeypatch, name, nprocs):
    monkeypatch.chdir(tmp_path)
    generate_image(256, 1, tmp_path / "image.dat")
    (tmp_path / name).write_text(corpus_source(name))
    assert main(["run", name, "--procs", str(nprocs), "--define", "n=256"]) == 0
    assert digest(tmp_path / "image.out.dat") == FFT_OUT_256
