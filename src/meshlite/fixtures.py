"""Bundled example programs, input generators and reference transforms."""

import cmath
import operator
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


def dft2d(matrix):
    """Direct 2D DFT of a list of n rows, by separability: each row's 1D
    DFT, then each column's, an O(n) sum per element, O(n^3) in all. It
    shares nothing with the fast transform it checks."""
    n = len(matrix)
    roots = [cmath.exp(-2j * cmath.pi * t / n) for t in range(n)]
    weights = [[roots[a * k % n] for a in range(n)] for k in range(n)]

    def dft(line):
        return [sum(map(operator.mul, line, w)) for w in weights]

    rows = [dft(row) for row in matrix]
    columns = [dft(column) for column in zip(*rows)]
    return [list(row) for row in zip(*columns)]


def write_fixtures(dest_dir, n=16, seed=1):
    """Copy the program corpus and (re)generate its MSHD fixtures.

    Writes image.dat (the transform input) and fft2d.expected.dat (its
    direct 2D DFT) alongside the .mesh files.
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
    out = dest / "fft2d.expected.dat"
    write_mshd(out, "complex", (n, n), [x for row in dft2d(matrix) for x in row])
    written.append(out)
    return written
