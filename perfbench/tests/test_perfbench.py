"""Tests of the benchmark harness itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from meshlite import interp, mshd, runtime, sched  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench import speed, tracing, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def prepared(name, workdir, seed=3):
    workload = workloads.make(name, seed, "tiny")
    runner = bench.Bench(workload, seed, "tiny", workdir=workdir)
    workload.write_inputs(workdir)
    checked, _, _ = runner.setup_once()
    return workload, runner, checked


def run_program(workload, checked, workdir, sched_seed=0):
    result = interp.run(checked, workload.nprocs, seed=sched_seed, workdir=str(workdir),
                        overrides=workload.overrides)
    return result, result.trace.render()


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.NAMES)
def test_each_workload_runs_end_to_end(name):
    proc = subprocess.run(RUN + ["--workload", name, "--seed", "2", "--seconds", "0.2",
                                 "--trace", "0", "--size", "tiny"],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = last_json(proc.stdout)
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] >= bench.MIN_SAMPLES + 1  # timed runs plus the memory run
    assert set(report["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in report["metrics"].values())
    assert "failed_ratio" in proc.stdout


def test_traced_pass_reports_every_per_layer_metric():
    proc = subprocess.run(RUN + ["--workload", "all", "--seconds", "0.1", "--trace", "1",
                                 "--size", "tiny"],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    wanted = {m["name"] for m in SPEC["per_layer"]}
    for name in workloads.NAMES:
        found = {k[len(name) + 1:] for k in metrics if k.startswith(name + ".")}
        assert found == wanted, name
    assert metrics["fft2d-p16.runtime.plan_calls"]["value"] == 3 * 4
    assert metrics["fft2d-p16.runtime.plan_distinct"]["value"] == 3
    assert metrics["pgas-fine-p64.runtime.plan_calls"]["value"] == 0
    assert metrics["interp-local-p4.runtime.plan_calls"]["value"] == 0


@pytest.mark.parametrize("name", workloads.NAMES)
def test_gate_passes_a_correct_run(name, tmp_path):
    workload, _, checked = prepared(name, tmp_path)
    result, text = run_program(workload, checked, tmp_path)
    assert workload.check(result, text, tmp_path) == []


def corrupt_one_output(name, result, workdir):
    if name.startswith("fft2d"):
        path = workdir / "image.out.dat"
        data = bytearray(path.read_bytes())
        offset = len(data) - 8  # imaginary part of the last element
        (value,) = struct.unpack_from("<d", data, offset)
        struct.pack_into("<d", data, offset, value + 1.0)
        path.write_bytes(bytes(data))
    elif name == "pgas-fine-p64":
        result.array("X").blocks[-1].buffer[-1] += 1
    else:
        result.array("a").replicas[-1][0] += 1


@pytest.mark.parametrize("name", workloads.NAMES)
def test_gate_fails_on_one_wrong_output_element(name, tmp_path):
    workload, _, checked = prepared(name, tmp_path)
    result, text = run_program(workload, checked, tmp_path)
    corrupt_one_output(name, result, tmp_path)
    assert workload.check(result, text, tmp_path)


@pytest.mark.parametrize("name", workloads.NAMES[:3])
def test_gate_fails_on_one_dropped_trace_event(name, tmp_path):
    workload, _, checked = prepared(name, tmp_path)
    result, text = run_program(workload, checked, tmp_path)
    lines = text.splitlines(keepends=True)
    del lines[len(lines) // 2]
    assert workload.check(result, "".join(lines), tmp_path)


@pytest.mark.parametrize("name", workloads.NAMES[:2])
def test_gate_fails_on_a_missing_output_file(name, tmp_path):
    workload, _, checked = prepared(name, tmp_path)
    result, text = run_program(workload, checked, tmp_path)
    (tmp_path / "image.out.dat").unlink()
    assert workload.check(result, text, tmp_path) == ["the program did not write image.out.dat"]


def test_run_fails_when_the_program_stops_writing_its_output(tmp_path, monkeypatch):
    workload, runner, checked = prepared("fft2d-p16", tmp_path)
    assert runner.run_once(checked) is not None and runner.failures == []
    assert (tmp_path / "image.out.dat").is_file()  # a correct file from the first run
    monkeypatch.setattr(mshd, "write_mshd", lambda *args: None)
    runner.run_once(checked)
    assert runner.attempted == 2
    assert runner.failures == ["the program did not write image.out.dat"]


def test_gate_fails_on_an_event_in_a_local_program(tmp_path):
    workload, _, checked = prepared("interp-local-p4", tmp_path)
    result, text = run_program(workload, checked, tmp_path)
    assert text == ""
    assert workload.check(result, "onesided-get\t1\t0\t8\t0\ta\n", tmp_path)


def test_gate_fails_when_the_schedule_changes_the_trace(tmp_path):
    _, runner, _ = prepared("fft2d-p16", tmp_path)
    assert runner.same_trace("a\n", "first") == []
    assert runner.same_trace("b\n", "second")


def outputs(name, result, workdir):
    if name.startswith("fft2d"):
        return (workdir / "image.out.dat").read_bytes()
    found = {}
    for n in result.names():
        try:
            found[n] = result.local(n)
        except KeyError:
            found[n] = result.logical(n)
    return found


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_and_untraced_runs_agree(name, tmp_path):
    originals = (runtime.plan_redistribution, interp.fft_inplace, mshd.read_mshd,
                 runtime.TraceLog.record, sched.Scheduler.run,
                 interp.ProcessContext.exec_stmt, interp.ProcessContext.assign_arrays)
    workload, _, checked = prepared(name, tmp_path)
    plain, plain_text = run_program(workload, checked, tmp_path)
    plain_out = outputs(name, plain, tmp_path)
    tracer = tracing.Tracer(workload.nprocs)
    with tracing.installed(tracer), tracer.span("interp.run"):
        traced, traced_text = run_program(workload, checked, tmp_path)
    assert traced_text == plain_text
    assert outputs(name, traced, tmp_path) == plain_out
    assert workload.check(traced, traced_text, tmp_path) == []
    assert (runtime.plan_redistribution, interp.fft_inplace, mshd.read_mshd,
            runtime.TraceLog.record, sched.Scheduler.run,
            interp.ProcessContext.exec_stmt, interp.ProcessContext.assign_arrays) == originals
    metrics = tracer.metrics()
    rows = workloads.trace_lines(traced_text)
    assert metrics["runtime.trace_events"][0] == len(rows)
    assert metrics["runtime.trace_remote_bytes"][0] == sum(r[3] for r in rows)


def test_tracer_counts_the_fft_layers(tmp_path):
    workload, _, checked = prepared("fft2d-p16", tmp_path)
    tracer = tracing.Tracer(workload.nprocs)
    with tracing.installed(tracer), tracer.span("interp.run"):
        run_program(workload, checked, tmp_path)
    m = {k: v for k, (v, _) in tracer.metrics().items()}
    n, P = workload.n, workload.nprocs
    assert m["interp.collectives"] == 3
    assert m["runtime.plan_calls"] == 3 * P
    assert m["runtime.plan_distinct"] == 3
    assert m["runtime.plan_useful_ratio"] == 3 / (3 * P)
    assert m["interp.fft_calls"] == 2 * n
    assert m["interp.fft_butterflies"] == 2 * n * (n // 2) * (n.bit_length() - 1)
    assert m["interp.copied_elements"] == 3 * n * n
    assert m["mshd.bytes"] == 2 * (22 + 16 * n * n)
    assert m["sched.barriers"] == 3 * 3  # three barriers per collective
    spans = tracer.spans
    assert all(end >= start for _, _, start, end in spans)
    assert m["runtime.plan_s"] > 0 and m["interp.step_s"] > 0
    total, own = tracer.times()
    assert own["interp.run"] <= total["interp.run"]


def test_probe_scales_a_span_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Probe().span() as span:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(span.chunks) >= 3  # one before, some inside, one after
    assert 0.1 - span.inside - 0.01 < span.wall < 0.1
    assert span.scaled == pytest.approx(
        span.wall * speed.REFERENCE_S / statistics.harmonic_mean(span.chunks))
    with speed.Probe(enabled=False).span() as plain:
        pass
    assert plain.chunks == [] and plain.scaled == plain.wall


def test_tail_percentile():
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, "p100 of 3, 0 samples above")
    assert bench.tail([float(i) for i in range(8)]) == (5.0, "p75 of 8, 2 samples above")
    value, label = bench.tail([float(i) for i in range(60)])
    assert value == 49.0 and label == "p83 of 60, 10 samples above"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fft2d-p16",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
