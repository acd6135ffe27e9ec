"""meshlite benchmark: end-to-end metrics, or per-layer metrics from a traced pass.

    python3 perfbench/run.py --workload fft2d-p16 --seed 1 --seconds 20 --trace 0

Run from the repository root or anywhere else; the package is imported from
the `src/` directory next to this one. `--workload all` runs every workload
in turn. Untraced times are scaled to a reference speed of the host
(perfbench/speed.py). See perfbench/README.md for the metrics and workloads.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit status is 0 when
every run was correct, 1 when a run failed, and 2 when the benchmark could
not start.
"""

import argparse
import contextlib
import gc
import hashlib
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

MIN_SAMPLES = 4  # timed runs per invocation, however long each takes
# Set-up is repeated before the timed runs and again after each of them, so
# that its median samples the same stretch of time as run_s.
SETUP_FIRST = (5, 0.5)  # fewest passes and seconds before the timed runs
SETUP_BETWEEN_S = 0.1  # seconds of passes (at least one) after each timed run
# Timed runs all use one scheduler seed, so they repeat the same work. The
# memory run uses another and doubles as the check that the trace does not
# depend on the schedule.
TIMED_SCHED_SEED = 0
MEMORY_SCHED_SEED = 7919
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' (see perfbench/README.md)")
    parser.add_argument("--seed", type=int, default=1, help="seed for the generated inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help=f"measure this long (at least {MIN_SAMPLES} timed runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced pass printing per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for a quick smoke run")
    parser.add_argument("--memory-child", type=int, metavar="SCHED_SEED",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- statistics ---


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values):
    """The highest percentile with TAIL_BEYOND samples above it, and its label.

    A run of slow programs makes fewer samples than that needs, so the number
    above is capped at a quarter of the samples: with 8 samples the tail is
    the third slowest. With fewer than 4 samples it is the maximum.
    """
    ordered = sorted(values)
    beyond = min(TAIL_BEYOND, len(ordered) // 4)
    index = len(ordered) - beyond - 1
    pct = 100.0 * (index + 1) / len(ordered)
    return ordered[index], f"p{pct:.0f} of {len(ordered)}, {beyond} samples above"


def peak_rss_kb():
    """Peak resident set of this process, in KiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# --- one workload ---


class Bench:
    """Set-up, timed runs and checks of one workload in one work directory."""

    def __init__(self, workload, seed, size, workdir=None, probe=True):
        from meshlite import checker, interp, lexer, parser
        from perfbench import speed

        self.probe = speed.Probe(probe)
        self.front = (lexer.tokenize, parser.parse, checker.check_program)
        self.interp = interp
        self.w = workload
        self.workdir = workdir or OUT / f"{workload.name}-{size}-seed{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures = []
        self.reference_sha = None

    def setup_once(self):
        """Source text to a CheckedProgram; returns it, per-layer times, tokens."""
        tokenize, parse, check_program = self.front
        t0 = time.perf_counter()
        tokens = tokenize(self.w.source)
        t1 = time.perf_counter()
        program = parse(tokens)
        t2 = time.perf_counter()
        checked = check_program(program)
        t3 = time.perf_counter()
        return checked, (t1 - t0, t2 - t1, t3 - t2), len(tokens)

    def setup(self, budget, times=None, fewest=1):
        """Repeat setup_once for budget seconds (at least fewest times).

        Appends (per-layer wall times, scaled total) pairs to times; returns
        the last CheckedProgram, the times and the token count.
        """
        times = [] if times is None else times
        start, done = time.perf_counter(), 0
        while done < fewest or time.perf_counter() - start < budget:
            gc.collect()
            with self.probe.span() as span:
                checked, parts, tokens = self.setup_once()
            times.append((parts, span.scaled))
            done += 1
        return checked, times, tokens

    def run_once(self, checked, tracer=None):
        """One run from a CheckedProgram to the trace written, then its checks.

        Returns its speed.Span, or None when the run raised.
        """
        from perfbench import tracing

        self.attempted += 1
        self.w.clear_outputs(self.workdir)
        gc.collect()
        try:
            with tracing.installed(tracer) if tracer else contextlib.nullcontext():
                with self.probe.span() as span:
                    with tracer.span("interp.run") if tracer else contextlib.nullcontext():
                        result = self.interp.run(checked, self.w.nprocs,
                                                 seed=TIMED_SCHED_SEED,
                                                 workdir=str(self.workdir),
                                                 overrides=self.w.overrides)
                    text = result.trace.render()
                    (self.workdir / "trace.tsv").write_text(text)
        except Exception:  # a failing run is counted and reported, not fatal
            self.fail(f"run raised\n{traceback.format_exc()}")
            return None
        try:
            problems = self.w.check(result, text, self.workdir)
        except Exception:  # a gate that cannot read the outputs fails the run
            problems = [f"check raised\n{traceback.format_exc()}"]
        problems += self.same_trace(text, f"scheduler seed {TIMED_SCHED_SEED}")
        if problems:
            self.fail("; ".join(problems[:5]))
        return span

    def same_trace(self, text, who):
        sha = hashlib.sha256(text.encode()).hexdigest()
        if self.reference_sha is None:
            self.reference_sha = sha
        if sha != self.reference_sha:
            return [f"{who}: rendered trace differs from the first run's"]
        return []

    def fail(self, message):
        self.failures.append(message)
        print(f"FAILED {self.w.name}: {message}", file=sys.stderr)

    def memory_run(self, seed, size):
        """Peak RSS in MiB of one setup plus run in a fresh child process."""
        self.attempted += 1
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", self.w.name,
               "--seed", str(seed), "--size", size, "--memory-child", str(MEMORY_SCHED_SEED)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(f"memory run took longer than {CHILD_TIMEOUT_S} s")
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            self.fail(f"memory run exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        problems = report["problems"]
        if report["trace_sha256"] != self.reference_sha:
            problems.append(f"scheduler seed {MEMORY_SCHED_SEED}: rendered trace differs "
                            "from the timed runs'")
        if problems:
            self.fail("memory run: " + "; ".join(problems[:5]))
        return report["peak_kb"] / 1024.0


def end_to_end(bench, seconds, seed, size):
    """Untraced runs: run_s, run_tail_s, setup_s, peak_mem_mb, failed_ratio."""
    fewest, budget = SETUP_FIRST
    checked, setups, _ = bench.setup(budget, fewest=fewest)
    samples, walls = [], []
    start = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
        span = bench.run_once(checked)
        if span is None:
            if not samples and bench.attempted >= MIN_SAMPLES:
                break  # every run raises: stop early
            continue
        samples.append(span.scaled)
        walls.append(span.wall)
        bench.setup(SETUP_BETWEEN_S, setups)
    peak_mb = bench.memory_run(seed, size)

    lines, metrics = [], {}
    if samples:
        q1, q3 = quartiles(samples)
        tail_value, tail_label = tail(samples)
        metrics["run_s"] = (statistics.median(samples), "s")
        lines.append(f"run_s        {metrics['run_s'][0]:.4f} s   median of {len(samples)}, "
                     f"q1 {q1:.4f}, q3 {q3:.4f}, scaled; wall time median "
                     f"{statistics.median(walls):.4f} s")
        metrics["run_tail_s"] = (tail_value, "s")
        lines.append(f"run_tail_s   {tail_value:.4f} s   {tail_label}")
    setup_totals = [scaled for _, scaled in setups]
    metrics["setup_s"] = (statistics.median(setup_totals), "s")
    q1, q3 = quartiles(setup_totals)
    lines.append(f"setup_s      {metrics['setup_s'][0]:.6f} s   median of {len(setup_totals)}, "
                 f"q1 {q1:.6f}, q3 {q3:.6f}, scaled, before and between the runs; "
                 f"wall time median {statistics.median(sum(p) for p, _ in setups):.6f} s")
    if peak_mb is not None:
        metrics["peak_mem_mb"] = (peak_mb, "MB")
        lines.append(f"peak_mem_mb  {peak_mb:.1f} MB  one setup plus run in a child process")
    failed = len(bench.failures)
    lines.append(f"failed_ratio {failed / bench.attempted:.3f}     "
                 f"{failed} of {bench.attempted} runs failed")
    return metrics, lines


def per_layer(bench, seconds):
    """Alternating untraced and traced runs: per-layer metrics and overhead."""
    from perfbench.tracing import Tracer

    fewest, budget = SETUP_FIRST
    checked, setups, tokens = bench.setup(budget, fewest=fewest)
    plain, traced, layer_runs, tracer = [], [], [], None
    start = time.perf_counter()
    while not (plain and traced) or time.perf_counter() - start < seconds:
        span = bench.run_once(checked)
        if span is None:
            break
        plain.append(span.wall)
        tracer = Tracer(bench.w.nprocs)
        span = bench.run_once(checked, tracer)
        if span is None:
            break
        traced.append(span.wall)
        layer_runs.append(tracer.metrics())
    if not layer_runs:
        return {}, []

    metrics = {
        "lexer.tokenize_s": (statistics.median(p[0] for p, _ in setups), "s"),
        "lexer.tokens": (tokens, "count"),
        "parser.parse_s": (statistics.median(p[1] for p, _ in setups), "s"),
        "checker.check_s": (statistics.median(p[2] for p, _ in setups), "s"),
    }
    # Counts come from the first traced run, whose scheduler seed is fixed;
    # times are medians over all traced runs.
    for name, (value, unit) in layer_runs[0].items():
        if unit in ("s", "us"):
            value = statistics.median(run[name][0] for run in layer_runs)
        metrics[name] = (value, unit)
    run_plain, run_traced = statistics.median(plain), statistics.median(traced)
    metrics["trace.overhead_ratio"] = (run_traced / run_plain, "ratio")
    tracer.write(bench.workdir / "spans.tsv")

    lines = []
    for name, (value, unit) in metrics.items():
        note = ""
        if unit == "s" and not name.startswith(("lexer.", "parser.", "checker.")):
            note = f"  {100 * value / run_traced:5.1f}% of traced run_s"
        elif name == "runtime.plan_useful_ratio":
            note = (f"  {metrics['runtime.plan_distinct'][0]} distinct of "
                    f"{metrics['runtime.plan_calls'][0]} calls")
        elif name == "trace.overhead_ratio":
            note = (f"  traced run_s {run_traced:.4f} s (median of {len(traced)}) over "
                    f"untraced {run_plain:.4f} s (median of {len(plain)})")
        shown = f"{value:<14d}" if isinstance(value, int) else f"{value:<14.6g}"
        lines.append(f"{name:28s} {shown} {unit:5s}{note}")
    lines.append(f"spans written to {bench.workdir / 'spans.tsv'}")
    return metrics, lines


def measure(name, seed, seconds, trace, size):
    from perfbench import workloads

    workload = workloads.make(name, seed, size)
    bench = Bench(workload, seed, size, probe=not trace)
    workload.write_inputs(bench.workdir)
    if trace:
        metrics, lines = per_layer(bench, seconds)
    else:
        metrics, lines = end_to_end(bench, seconds, seed, size)
    print(f"== {name} (seed {seed}, {size} size, {'traced' if trace else 'untraced'}) "
          f"in {bench.workdir}")
    for line in lines:
        print("   " + line)
    return metrics, bench.attempted, len(bench.failures)


def child_main(args):
    """The memory run: one setup plus run, measured from a fresh process."""
    from perfbench import workloads

    workload = workloads.make(args.workload, args.seed, args.size)
    bench = Bench(workload, args.seed, args.size)
    checked, _, _ = bench.setup_once()
    workload.clear_outputs(bench.workdir)
    result = bench.interp.run(checked, workload.nprocs, seed=args.memory_child,
                              workdir=str(bench.workdir), overrides=workload.overrides)
    text = result.trace.render()
    (bench.workdir / "trace.memory.tsv").write_text(text)
    peak = peak_rss_kb()
    report = {"peak_kb": peak, "trace_sha256": hashlib.sha256(text.encode()).hexdigest(),
              "problems": workload.check(result, text, bench.workdir)}
    print(json.dumps(report))
    return 0


def main(argv=None):
    args = parse_args(argv)
    package = ROOT / "src" / "meshlite"
    if not (package / "__init__.py").is_file():
        print(f"error: no meshlite package at {package}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(n not in workloads.NAMES for n in names):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)} or all", file=sys.stderr)
        return 2
    if args.memory_child is not None:
        return child_main(args)

    metrics, attempted, failed = {}, 0, 0
    for name in names:
        found, tried, bad = measure(name, args.seed, args.seconds, args.trace, args.size)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
        attempted += tried
        failed += bad
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
