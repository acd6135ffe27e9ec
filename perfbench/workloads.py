"""The benchmark's workloads: seeded inputs and the correctness gate of each.

A workload is built from (seed, size). The program under test sees only what
`write_inputs` puts in the work directory, the program text and the
`overrides` passed as `--define` values. Expected values are computed here by
code that shares nothing with the interpreter: a direct DFT, a model of block
ownership written from the documented storage model, and a Python evaluation
of the generated programs.
"""

import cmath
import random
import struct
from collections import Counter

from meshlite.fixtures import corpus_source

NAMES = ("fft2d-p16", "fft2d-arraydist-n256-p2", "pgas-fine-p64", "interp-local-p4")

COMPLEX_BYTES = 16


def make(name, seed, size="full"):
    """The workload called name, with inputs drawn from seed."""
    tiny = size == "tiny"
    if name == "fft2d-p16":
        return FFT2D(name, seed, "fft2d.mesh", n=16 if tiny else 128,
                     nprocs=4 if tiny else 16, cyclic=True)
    if name == "fft2d-arraydist-n256-p2":
        return FFT2D(name, seed, "fft2d_arraydist.mesh", n=16 if tiny else 256,
                     nprocs=2, cyclic=False)
    if name == "pgas-fine-p64":
        if tiny:
            return PgasFine(name, seed, nprocs=8, m=32, puts=8, links=2, rounds=4)
        return PgasFine(name, seed, nprocs=64, m=1024, puts=64, links=4, rounds=32)
    if name == "interp-local-p4":
        if tiny:
            return InterpLocal(name, seed, nprocs=4, statements=60, n=4, loops=2, nvars=6)
        return InterpLocal(name, seed, nprocs=4, statements=1500, n=24, loops=12, nvars=40)
    raise ValueError(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")


def block_of(index, extent, blocks):
    """Block holding one index when extent indices split into blocks parts.

    The first extent mod blocks parts hold one index more than the rest.
    """
    q, r = divmod(extent, blocks)
    if index < r * (q + 1):
        return index // (q + 1)
    return r + (index - r * (q + 1)) // q


def trace_lines(trace_text):
    """Rendered trace as (kind, src, dst, bytes, seq, tag) tuples."""
    rows = []
    for line in trace_text.splitlines():
        kind, src, dst, nbytes, seq, tag = line.split("\t")
        rows.append((kind, int(src), int(dst), int(nbytes), int(seq), tag))
    return rows


class Workload:
    """Common shape: program text, rank count, overrides, inputs, gate."""

    name = ""
    nprocs = 1
    source = ""
    overrides = {}

    def write_inputs(self, workdir):
        (workdir / "program.mesh").write_text(self.source)

    def clear_outputs(self, workdir):
        """Delete what an earlier run wrote, so that check sees only this run's."""

    def check(self, result, trace_text, workdir):
        """Problems found in one run's outputs and trace; empty when correct."""
        raise NotImplementedError


# --- 2D FFT on the corpus programs ---


class FFT2D(Workload):
    """A corpus 2D FFT on a seeded n-by-n complex image.

    `cyclic` is the `fft2d.mesh` layout: 2P blocks placed by `evendist`.
    Otherwise it is `fft2d_arraydist.mesh`: P blocks, block k on rank k.
    """

    probes = 8

    def __init__(self, name, seed, corpus, n, nprocs, cyclic):
        self.name = name
        self.n = n
        self.nprocs = nprocs
        self.cyclic = cyclic
        self.source = corpus_source(corpus)
        self.overrides = {"n": n}
        self.seed = seed
        self._image = self._expected = None
        self._rng = None

    def image(self):
        """The input image, drawn on first use so a run can start without it."""
        if self._image is None:
            self._rng = random.Random(f"{self.name}:{self.seed}")
            self._image = [complex(self._rng.uniform(-1.0, 1.0), self._rng.uniform(-1.0, 1.0))
                           for _ in range(self.n * self.n)]
        return self._image

    def write_inputs(self, workdir):
        super().write_inputs(workdir)
        n = self.n
        floats = [x for v in self.image() for x in (v.real, v.imag)]
        data = (b"MSHD" + struct.pack("<BBQQ", 3, 2, n, n)
                + struct.pack(f"<{len(floats)}d", *floats))
        (workdir / "image.dat").write_bytes(data)

    def clear_outputs(self, workdir):
        (workdir / "image.out.dat").unlink(missing_ok=True)

    def expected(self):
        """Probe bins, spectrum energy and block-transfer bytes per tag."""
        if self._expected is None:
            n, image = self.n, self.image()
            bins = [(0, 0)] + [(self._rng.randrange(n), self._rng.randrange(n))
                               for _ in range(self.probes - 1)]
            roots = [cmath.exp(-2j * cmath.pi * t / n) for t in range(n)]
            values = {kl: self._dft_bin(image, roots, *kl) for kl in bins}
            energy = n * n * sum(abs(v) ** 2 for v in image)  # Parseval
            self._expected = (values, energy, self._transfer_bytes())
        return self._expected

    def _dft_bin(self, image, roots, k, l):
        """X[k,l] = sum over (a,b) of x[a,b] w^(ak+bl), summed directly."""
        n = self.n
        total = 0j
        for a in range(n):
            row = image[a * n:(a + 1) * n]
            total += roots[(a * k) % n] * sum(row[b] * roots[(b * l) % n] for b in range(n))
        return total

    def _transfer_bytes(self):
        """Bytes that change rank in each collective, element by element.

        S lives on rank 0. A is split by rows, B and its view C by columns,
        all with the same block-to-rank map, so A := S moves every row A does
        not keep on rank 0, B := A every element whose row and column owners
        differ, and S := C every column C does not keep on rank 0.
        """
        n, p = self.n, self.nprocs
        blocks = 2 * p if self.cyclic else p
        owner = [block_of(i, n, blocks) % p for i in range(n)]
        scatter = sum(COMPLEX_BYTES for i in range(n) for j in range(n) if owner[i] != 0)
        transpose = sum(COMPLEX_BYTES for i in range(n) for j in range(n)
                        if owner[i] != owner[j])
        gather = sum(COMPLEX_BYTES for i in range(n) for j in range(n) if owner[j] != 0)
        return {"A": scatter, "B": transpose, "S": gather}

    def check(self, result, trace_text, workdir):
        n = self.n
        values, energy, transfer = self.expected()
        problems = []
        path = workdir / "image.out.dat"
        if not path.is_file():
            return ["the program did not write image.out.dat"]
        data = path.read_bytes()
        header = b"MSHD" + struct.pack("<BBQQ", 3, 2, n, n)
        if data[:len(header)] != header or len(data) != len(header) + COMPLEX_BYTES * n * n:
            return [f"image.out.dat is not a complex {n}x{n} MSHD file"]
        flat = struct.unpack_from(f"<{2 * n * n}d", data, len(header))
        out = [complex(flat[2 * i], flat[2 * i + 1]) for i in range(n * n)]
        tol = 1e-9 * n * n
        for (k, l), want in values.items():
            got = out[k * n + l]
            if abs(got - want) > tol:
                problems.append(f"bin ({k},{l}) is {got}, direct DFT gives {want}")
        got_energy = sum(abs(v) ** 2 for v in out)
        if abs(got_energy - energy) > 1e-9 * energy:
            problems.append(f"spectrum energy {got_energy} differs from {energy} (Parseval)")
        moved = Counter()
        for kind, src, dst, nbytes, _, tag in trace_lines(trace_text):
            if kind != "block-transfer" or src == dst:
                problems.append(f"unexpected trace event {kind} {src}->{dst} {tag}")
            moved[tag] += nbytes
        if dict(moved) != {tag: b for tag, b in transfer.items() if b}:
            problems.append(f"block-transfer bytes per tag {dict(moved)}, owner changes give {transfer}")
        return problems


# --- fine-grained one-sided traffic and channels at high P ---


class PgasFine(Workload):
    """Puts, a sync, all-to-all element reads and a channel loop; no collectives.

    Two 1D evendist Int arrays of m elements. The owners fill X, a sync,
    seeded puts into X from proc guards, a sync, then every rank reads every
    element of X and weights the sum by its rank + 1. Each rank puts its sum
    into one seeded element of Y. Then `links` seeded channel links each carry
    `rounds` blocking transfers.
    """

    def __init__(self, name, seed, nprocs, m, puts, links, rounds):
        rng = random.Random(f"{name}:{seed}")
        self.name = name
        self.nprocs = nprocs
        self.m = m
        self.rounds = rounds
        self.mul, self.add = rng.randrange(1, 9), rng.randrange(100)
        self.puts = [(rng.randrange(nprocs), i, rng.randrange(1000))
                     for i in rng.sample(range(m), puts)]
        self.sum_puts = list(zip(range(nprocs), rng.sample(range(m), nprocs)))
        rng.shuffle(self.sum_puts)
        pairs = rng.sample([(s, d) for s in range(nprocs) for d in range(nprocs) if s != d],
                           links)
        self.links = [(s, d, rng.randrange(1, 10), rng.randrange(50)) for s, d in pairs]
        self.source = self._program()

    def _program(self):
        lines = [
            "// Generated: one-sided puts and gets, a sync, blocking channels.",
            f"var m := {self.m};",
            "var p := processes();",
            "var i, t, s, me;",
            "var X : array[Int,m] :: allocated[row[] :: horizontal[p] :: single[evendist[]]];",
            "var Y : array[Int,m] :: allocated[row[] :: horizontal[p] :: single[evendist[]]];",
            "me := X.localblockid[0];",
            f"for i from 0 to m - 1 {{ X[i] := i * {self.mul} + {self.add} }};",
            "sync;",  # every owner has filled its part before any put lands
        ]
        lines += [f"proc {r} {{ X[{i}] := {v} }};" for r, i, v in self.puts]
        lines += ["sync;", "for i from 0 to m - 1 { s := s + X[i] * (me + 1) };"]
        lines += [f"proc {r} {{ Y[{j}] := s }};" for r, j in self.sum_puts]
        body = []
        for l, (s, d, k, b) in enumerate(self.links):
            lines += [
                f"var c{l} : Int :: allocated[single[on[{d}]]] :: channel[{s},{d}];",
                f"var q{l} : Int :: allocated[single[on[{s}]]];",
                f"var acc{l};",
            ]
            body += [
                f"    proc {s} {{ q{l} := t * {k} + {b} }};",
                f"    c{l} := q{l};",
                f"    proc {d} {{ acc{l} := acc{l} + c{l} }};",
            ]
        lines += [f"for t from 1 to {self.rounds} {{", *body, "};"]
        return "\n".join(lines) + "\n"

    def owner(self, index):
        return block_of(index, self.m, self.nprocs)

    def expected(self):
        """Final X and Y, per-rank locals and event counts by kind."""
        P, m, T = self.nprocs, self.m, self.rounds
        x = [i * self.mul + self.add for i in range(m)]
        for _, i, v in self.puts:
            x[i] = v
        sums = [(r + 1) * sum(x) for r in range(P)]
        y = [0] * m
        for r, j in self.sum_puts:
            y[j] = sums[r]
        local = {"s": sums, "me": list(range(P))}
        for l, (_, d, k, b) in enumerate(self.links):
            local[f"acc{l}"] = [k * T * (T + 1) // 2 + b * T if r == d else 0 for r in range(P)]
        puts = (sum(1 for r, i, _ in self.puts if self.owner(i) != r)
                + sum(1 for r, j in self.sum_puts if self.owner(j) != r))
        events = {"onesided-get": m * (P - 1), "onesided-put": puts,
                  "channel-send": len(self.links) * T, "channel-recv": len(self.links) * T}
        return x, y, local, {k: v for k, v in events.items() if v}

    def check(self, result, trace_text, workdir):
        x, y, local, events = self.expected()
        problems = []
        if result.logical("X") != x:
            problems.append("final contents of X differ from the generator's")
        if result.logical("Y") != y:
            problems.append("final contents of Y differ from the generator's")
        for name, want in local.items():
            if result.local(name) != want:
                problems.append(f"{name} per rank is {result.local(name)}, expected {want}")
        counts = Counter(row[0] for row in trace_lines(trace_text))
        if dict(counts) != events:
            problems.append(f"trace events by kind {dict(counts)}, expected {events}")
        return problems


# --- local-only interpretation ---


class InterpLocal(Workload):
    """Generated straight-line arithmetic and nested loops, no communication.

    `nvars` local integers, two replicated Int arrays of n elements, and
    `statements` top-level statements, `loops` of which are n-by-n nested
    loops accumulating into acc. Divisions keep the values small.
    """

    def __init__(self, name, seed, nprocs, statements, n, loops, nvars):
        rng = random.Random(f"{name}:{seed}")
        self.name = name
        self.nprocs = nprocs
        self.n = n
        self.init = [rng.randrange(1000) for _ in range(nvars)]
        self.fill = [rng.randrange(1, 9) for _ in range(4)]
        every = statements // loops
        self.stmts = []
        var = lambda: rng.randrange(nvars)  # noqa: E731
        for idx in range(statements):
            if idx % every == every - 1:
                self.stmts.append(("loop", var()))
                continue
            kind = rng.choice(("lin", "cmp", "mix", "dot"))
            if kind == "lin":
                self.stmts.append(("lin", var(), var(), var(), rng.randrange(1, 4), rng.randrange(4, 10)))
            elif kind == "cmp":
                self.stmts.append(("cmp", var(), var(), var(), var(), rng.randrange(1, 10),
                                   rng.randrange(100)))
            elif kind == "mix":
                self.stmts.append(("mix", rng.randrange(n), var()))
            else:
                self.stmts.append(("dot", var(), rng.randrange(n), rng.randrange(n),
                                   rng.randrange(50, 200)))
        self.source = self._program()

    def _program(self):
        f = self.fill
        lines = [
            "// Generated: local arithmetic and nested loops over replicated arrays.",
            f"var n := {self.n};",
            "var i, j, acc;",
            "var a : array[Int,n];",
            "var b : array[Int,n];",
        ]
        lines += [f"var v{k} := {v};" for k, v in enumerate(self.init)]
        lines.append(f"for i from 0 to n - 1 {{ a[i] := i * {f[0]} + {f[1]}; "
                     f"b[i] := i * {f[2]} + {f[3]} }};")
        for st in self.stmts:
            kind = st[0]
            if kind == "lin":
                _, x, y, z, c, d = st
                lines.append(f"v{x} := (v{y} + v{z} * {c}) / {d};")
            elif kind == "cmp":
                _, x, y, z, w, c, lit = st
                lines.append(f"v{x} := v{y} - (v{z} < v{w}) * {c} + {lit};")
            elif kind == "mix":
                _, k, y = st
                lines.append(f"a[{k}] := (a[{k}] + v{y}) / 2;")
            elif kind == "dot":
                _, x, k, k2, d = st
                lines.append(f"v{x} := v{x} + a[{k}] * b[{k2}] / {d};")
            else:
                _, x = st
                lines.append("for i from 0 to n - 1 { for j from 0 to n - 1 { "
                             f"acc := acc + a[i] * b[j] - v{x} }} }};")
        return "\n".join(lines) + "\n"

    def expected(self):
        """Locals and array contents from evaluating the statements in Python."""
        n, f = self.n, self.fill
        v = list(self.init)
        a = [i * f[0] + f[1] for i in range(n)]
        b = [i * f[2] + f[3] for i in range(n)]
        acc = 0
        i, j = n - 1, 0  # the fill loop leaves i at its last value
        for st in self.stmts:
            kind = st[0]
            if kind == "lin":
                _, x, y, z, c, d = st
                v[x] = (v[y] + v[z] * c) // d
            elif kind == "cmp":
                _, x, y, z, w, c, lit = st
                v[x] = v[y] - int(v[z] < v[w]) * c + lit
            elif kind == "mix":
                _, k, y = st
                a[k] = (a[k] + v[y]) // 2
            elif kind == "dot":
                _, x, k, k2, d = st
                v[x] = v[x] + a[k] * b[k2] // d
            else:
                _, x = st
                for ii in range(n):
                    for jj in range(n):
                        acc = acc + a[ii] * b[jj] - v[x]
                i = j = n - 1
        local = {f"v{k}": val for k, val in enumerate(v)}
        local.update(acc=acc, i=i, j=j)
        return local, a, b

    def check(self, result, trace_text, workdir):
        local, a, b = self.expected()
        problems = []
        for name, want in local.items():
            if result.local(name) != [want] * self.nprocs:
                problems.append(f"{name} per rank is {result.local(name)}, Python gives {want}")
        for name, want in (("a", a), ("b", b)):
            if any(replica != want for replica in result.array(name).replicas):
                problems.append(f"a replica of {name} differs from the Python evaluation")
        if trace_text:
            problems.append("a local-only program emitted trace events")
        return problems
