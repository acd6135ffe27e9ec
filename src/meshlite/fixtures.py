"""Bundled example programs, input generators and reference transforms."""

import cmath
import random
from importlib import resources
from pathlib import Path

from .errors import NotPowerOfTwo
from .mshd import read_mshd, write_mshd

CORPUS = [
    "onesided.mesh",
    "channel.mesh",
    "channel_async.mesh",
    "fft2d.mesh",
    "fft2d_arraydist.mesh",
]


def corpus_source(name: str) -> str:
    return resources.files("meshlite").joinpath("corpus", name).read_text()


def generate_image(n: int, seed: int, path) -> None:
    """Deterministic pseudo-random complex n-by-n MSHD file."""
    if n < 1 or n & (n - 1):
        raise NotPowerOfTwo(f"image size {n} is not a power of two")
    rng = random.Random(seed)
    values = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
              for _ in range(n * n)]
    write_mshd(path, "complex", (n, n), values)


def oracle_dft2d(matrix):
    """Direct O(n^4) 2D DFT: X[k,l] = sum over (a,b) of x[a,b] w^(ak+bl).

    Uses a precomputed root table; still a plain double sum so it stays
    independent of the fast transform it checks.
    """
    n = len(matrix)
    roots = [cmath.exp(-2j * cmath.pi * t / n) for t in range(n)]
    out = [[0j] * n for _ in range(n)]
    for k in range(n):
        for l in range(n):
            acc = 0j
            for a in range(n):
                row = matrix[a]
                ak = a * k
                for b in range(n):
                    acc += row[b] * roots[(ak + b * l) % n]
            out[k][l] = acc
    return out


def write_fixtures(dest_dir, n=16, seed=1):
    """Copy the program corpus and (re)generate its MSHD fixtures.

    Writes image.dat (the transform input) and fft2d.expected.dat (its 2D
    DFT per the direct oracle) alongside the .mesh files.
    """
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    written = []
    for name in CORPUS:
        target = dest / name
        target.write_text(corpus_source(name))
        written.append(target)
    image = dest / "image.dat"
    generate_image(n, seed, image)
    written.append(image)
    _, _, values = read_mshd(image)
    matrix = [values[i * n : (i + 1) * n] for i in range(n)]
    expected = oracle_dft2d(matrix)
    flat = [expected[i][j] for i in range(n) for j in range(n)]
    out = dest / "fft2d.expected.dat"
    write_mshd(out, "complex", (n, n), flat)
    written.append(out)
    return written
