"""Spans and counters for one traced meshlite run, recorded from outside.

`installed(tracer)` replaces the public names the interpreter calls with
wrappers that record a span (name, start, end, parent) or bump a counter,
and puts the originals back when the block ends. Generator functions get
one span per resume, so a span never covers time another process spent.
Each process generator is wrapped in a proxy that times every resume as an
`interp.step` span and counts `wait` instructions and predicate polls.

Counted only, without spans, because they run per element or per statement:
`ArrayDescriptor.locate`, `Barrier.wait` and `ProcessContext.exec_stmt`.
"""

import os
import time
from collections import Counter
from contextlib import contextmanager

from meshlite import interp, mshd, runtime, sched


class Tracer:
    """Spans kept in memory: [name, parent index or -1, start, end]."""

    def __init__(self, nprocs):
        self.nprocs = nprocs
        self.spans = []
        self.stack = [-1]
        self.counts = Counter()
        self.plans = {}  # (src, dst, same_storage) -> elements copied per rank
        self.rank = None  # rank whose process step is running

    def begin(self, name):
        index = len(self.spans)
        self.spans.append([name, self.stack[-1], time.perf_counter(), 0.0])
        self.stack.append(index)
        return index

    def end(self, index):
        self.spans[index][3] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def times(self):
        """Total and self time per span name; self time excludes child spans."""
        total, own, children = Counter(), Counter(), [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, _, start, end), inner in zip(self.spans, children):
            total[name] += end - start
            own[name] += end - start - inner
        return total, own

    def metrics(self):
        """Per-layer metrics of the run: name -> (value, unit)."""
        c = self.counts
        total, own = self.times()
        calls = c["runtime.plan_calls"]
        statements = c["interp.statements"]
        return {
            "runtime.plan_calls": (calls, "count"),
            "runtime.plan_distinct": (len(self.plans), "count"),
            "runtime.plan_useful_ratio": (len(self.plans) / calls if calls else 0.0, "ratio"),
            "runtime.plan_s": (total["runtime.plan"], "s"),
            "runtime.plan_segments": (c["runtime.plan_segments"], "count"),
            "runtime.locate_calls": (c["runtime.locate_calls"], "count"),
            "interp.collectives": (c["interp.assign_arrays"] // self.nprocs, "count"),
            "interp.collective_s": (own["interp.assign_arrays"], "s"),
            "interp.copied_elements": (c["interp.copied_elements"], "count"),
            "interp.fft_calls": (c["interp.fft_calls"], "count"),
            "interp.fft_s": (total["interp.fft"], "s"),
            "interp.fft_butterflies": (c["interp.fft_butterflies"], "count"),
            "runtime.trace_events": (c["runtime.trace_events"], "count"),
            "runtime.trace_remote_bytes": (c["runtime.trace_remote_bytes"], "bytes"),
            "runtime.trace_record_s": (total["runtime.record"], "s"),
            "runtime.trace_render_s": (total["runtime.render"], "s"),
            "mshd.read_s": (total["mshd.read"], "s"),
            "mshd.write_s": (total["mshd.write"], "s"),
            "mshd.bytes": (c["mshd.bytes"], "bytes"),
            "interp.file_s": (own["interp.file"], "s"),
            "sched.steps": (c["sched.steps"], "count"),
            "sched.waits": (c["sched.waits"], "count"),
            "sched.wait_polls": (c["sched.wait_polls"], "count"),
            "sched.barriers": (c["sched.barrier_arrivals"] // self.nprocs, "count"),
            "sched.self_s": (own["sched.run"], "s"),
            "interp.statements": (statements, "count"),
            "interp.step_s": (own["interp.step"], "s"),
            "interp.stmt_us": (own["interp.step"] / statements * 1e6 if statements else 0.0, "us"),
            "interp.run_overhead_s": (total["interp.run"] - total["sched.run"], "s"),
        }

    def write(self, path):
        """Spans as tab-separated id, parent, name, start, end (seconds)."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\n")


class _Process:
    """Iterator proxy for one process generator, as the scheduler drives it."""

    def __init__(self, tracer, rank, gen):
        self.tracer = tracer
        self.rank = rank
        self.gen = gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        tracer.rank = self.rank
        tracer.counts["sched.steps"] += 1
        index = tracer.begin("interp.step")
        try:
            instr = next(self.gen)
        finally:
            tracer.end(index)
        if instr is None or instr[0] != "wait":
            return instr
        counts = tracer.counts
        counts["sched.waits"] += 1
        predicate = instr[1]

        def polled():
            counts["sched.wait_polls"] += 1
            return predicate()

        return ("wait", polled)


def _resumes(tracer, name, gen):
    """Drive gen, recording each resume as one span."""
    sent = None
    while True:
        index = tracer.begin(name)
        try:
            instr = gen.send(sent)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.end(index)
        sent = yield instr


@contextmanager
def installed(tracer):
    """Record spans and counts into tracer for the duration of the block."""
    saved = []
    counts = tracer.counts

    def patch(owner, attr, wrap):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def plan(original):
        def plan_redistribution(src, dst, same_storage=False):
            index = tracer.begin("runtime.plan")
            try:
                segments = original(src, dst, same_storage=same_storage)
            finally:
                tracer.end(index)
            counts["runtime.plan_calls"] += 1
            counts["runtime.plan_segments"] += len(segments)
            key = (src, dst, same_storage)
            if key not in tracer.plans:
                # Elements each rank copies under this plan: assign_arrays
                # copies the segments it sources that are not identities.
                tracer.plans[key] = Counter()
                for s in segments:
                    if not s.identity:
                        tracer.plans[key][s.src_owner] += s.count
            counts["interp.copied_elements"] += tracer.plans[key][tracer.rank]
            return segments
        return plan_redistribution

    def fft(original):
        def fft_inplace(values, sins):
            index = tracer.begin("interp.fft")
            try:
                return original(values, sins)
            finally:
                tracer.end(index)
                n = len(values)
                counts["interp.fft_calls"] += 1
                counts["interp.fft_butterflies"] += n // 2 * (n.bit_length() - 1)
        return fft_inplace

    def file_io(name):
        def wrap(original):
            def call(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end(index)
                    path = args[0] if args else kwargs["path"]
                    if os.path.exists(path):
                        counts["mshd.bytes"] += os.path.getsize(path)
            return call
        return wrap

    def record(original):
        def traced_record(self, *args, **kwargs):
            index = tracer.begin("runtime.record")
            try:
                event = original(self, *args, **kwargs)
            finally:
                tracer.end(index)
            counts["runtime.trace_events"] += 1
            counts["runtime.trace_remote_bytes"] += event.bytes
            return event
        return traced_record

    def spanned(name):
        def wrap(original):
            def call(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer.end(index)
            return call
        return wrap

    def counted(key):
        def wrap(original):
            def call(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return call
        return wrap

    def resumed(name):
        def wrap(original):
            def call(*args, **kwargs):
                counts[name] += 1
                return _resumes(tracer, name, original(*args, **kwargs))
            return call
        return wrap

    def scheduler(original):
        def run(self, generators):
            procs = [_Process(tracer, r, g) for r, g in enumerate(generators)]
            index = tracer.begin("sched.run")
            try:
                return original(self, procs)
            finally:
                tracer.end(index)
        return run

    patch(runtime, "plan_redistribution", plan)
    patch(interp, "fft_inplace", fft)
    patch(mshd, "read_mshd", file_io("mshd.read"))
    patch(mshd, "write_mshd", file_io("mshd.write"))
    patch(runtime.TraceLog, "record", record)
    patch(runtime.TraceLog, "render", spanned("runtime.render"))
    patch(runtime.ArrayDescriptor, "locate", counted("runtime.locate_calls"))
    patch(sched.Barrier, "wait", counted("sched.barrier_arrivals"))
    patch(sched.Scheduler, "run", scheduler)
    patch(interp.ProcessContext, "exec_stmt", counted("interp.statements"))
    patch(interp.ProcessContext, "assign_arrays", resumed("interp.assign_arrays"))
    patch(interp.ProcessContext, "builtin_file", resumed("interp.file"))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
