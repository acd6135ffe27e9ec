"""Run the benchmark repeatedly and report how steady each end-to-end metric is.

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --workloads pgas-fine-p64 --runs 5

Each run is a fresh `perfbench/run.py` process with its own input seed
(1, 2, ...), one after another. For each workload, set A runs every seed,
then set B runs them all again, so the sets are minutes apart and any drift
of the machine that the scaled times do not remove shows up as a difference
between their medians. For every metric and set it prints the
median, the quartiles (`statistics.quantiles(values, n=4)`) and the spread,
which is (q3 - q1) / median, next to the bound in BENCHMARK.json, and the
ratio of the set B median to the set A median. The raw values go to
.perfbench_out/steadiness.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# ROADMAP Baseline row: fft2d n=128, P=16, one run of `meshlite run`.
BASELINE = ("fft2d-p16", "run_s", 6.1)


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {"A": {}, "B": {}}
    failed = 0
    for name in args.workloads:
        for s in raw:
            for seed in range(1, args.runs + 1):
                values = raw[s].setdefault(name, {})
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
                lines = proc.stdout.strip().splitlines()
                report = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
                if proc.returncode != 0 or not report["correct"]:
                    failed += 1
                    print(f"{name} seed {seed} set {s}: FAILED\n{proc.stderr[-2000:]}",
                          file=sys.stderr)
                for metric, entry in report["metrics"].items():
                    values.setdefault(metric, []).append(entry["value"])
                print(f"{name} seed {seed} set {s}: " + ", ".join(
                    f"{m} {e['value']:.4g}" for m, e in report["metrics"].items()), flush=True)

    print("\n| workload | metric | set | runs | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    medians = {}
    for name in args.workloads:
        for metric in raw["A"].get(name, {}):
            for s in raw:
                values = raw[s][name][metric]
                q1, _, q3 = statistics.quantiles(values, n=4)
                median = medians[s, name, metric] = statistics.median(values)
                print(f"| {name} | {metric} | {s} | {len(values)} | {median:.4g} | {q1:.4g} "
                      f"| {q3:.4g} | {(q3 - q1) / median:.3f} | {bounds.get(metric, '')} |")
    print("\n| workload | metric | median B / A | bound |")
    print("|---|---|---|---|")
    for (s, name, metric), median in medians.items():
        if s == "B":
            print(f"| {name} | {metric} | {median / medians['A', name, metric]:.3f} "
                  f"| {bounds.get(metric, '')} |")
    name, metric, reference = BASELINE
    if ("A", name, metric) in medians:
        median = medians["A", name, metric]
        print(f"\n{name} {metric} median {median:.3f} s (set A) against the ROADMAP baseline "
              f"{reference} s: ratio {median / reference:.3f}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(raw, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
