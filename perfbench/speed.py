"""A speed probe: timed spans scaled to a reference speed of the host.

On a shared virtual machine the speed of one vCPU can change by 1.7 times
from one second to the next and stay changed for minutes; a fixed
pure-Python loop slows down with the program, in process CPU time as well as
in wall time. A probe measures that speed during each timed span. It times a
fixed loop of CHUNK_ITERATIONS steps (a chunk) right before the span, every
INTERVAL_S seconds inside it (from a SIGALRM handler) and right after it.
The span's wall time, less the chunks run inside it, is scaled by
REFERENCE_S over the harmonic mean of the chunk times: the chunks are evenly
spaced in time, so that mean is the span's mean speed. A scaled time is the
time the span would have taken with the host at the reference speed. The
loop uses nothing of meshlite, so a change to the program moves the span's
wall time and not the chunk times.
"""

import contextlib
import signal
import statistics
import time

CHUNK_ITERATIONS = 1000
INTERVAL_S = 0.02
# About the median chunk time over 30 s on the host the benchmark was defined
# on, a shared virtual machine with 2 vCPUs (Intel Xeon, 2.1 GHz), CPython
# 3.11.7. There the chunk took 105 to 195 microseconds (10th to 90th
# percentile), so a scaled time is about 0.9 to 1.6 times the wall time.
REFERENCE_S = 1.7e-4


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


_TABLE = {i: _Cell(i, i * 0.5) for i in range(256)}


def chunk_seconds():
    """Time one chunk: dict lookups, attribute reads and float arithmetic."""
    table, acc = _TABLE, 0.0
    start = time.perf_counter()
    for i in range(CHUNK_ITERATIONS):
        cell = table[i & 255]
        acc += cell.value * 1.5 - (cell.key % 7)
        if acc > 1e9:
            acc = 0.0
    return time.perf_counter() - start


class Span:
    """One timed span: wall seconds without the probe, and scaled seconds."""

    def __init__(self):
        self.chunks = []
        self.inside = 0.0
        self.wall = self.scaled = None

    def _on_alarm(self, signum, frame):
        seconds = chunk_seconds()
        self.chunks.append(seconds)
        self.inside += seconds


class Probe:
    """Makes Spans; with enabled False they only measure wall time."""

    def __init__(self, enabled=True):
        self.enabled = enabled

    @contextlib.contextmanager
    def span(self):
        span = Span()
        if not self.enabled:
            start = time.perf_counter()
            yield span
            span.wall = span.scaled = time.perf_counter() - start
            return
        span.chunks.append(chunk_seconds())
        previous = signal.signal(signal.SIGALRM, span._on_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            start = time.perf_counter()
            yield span
            end = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        span.chunks.append(chunk_seconds())
        span.wall = end - start - span.inside
        span.scaled = span.wall * REFERENCE_S / statistics.harmonic_mean(span.chunks)
