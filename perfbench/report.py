#!/usr/bin/env python3
"""Run every workload and print every metric with its unit and sample count.

    python3 perfbench/report.py --seeds 1 [--trace 1]
    python3 perfbench/report.py --seeds 1-10 --trace 0 \\
        --output perfbench/baseline.json

Runs ``run.py`` once per workload and seed, one run at a time, for the
``run_seconds`` of ``BENCHMARK.json``, and prints one row per workload and
metric: the median over the seeds' runs, the quartiles
(``statistics.quantiles`` with ``n=4``), the spread ``(q3 - q1) / median``,
the unit, and the samples one run takes (the median over the runs).  With
``--output`` it also records these, with the core count and the Python and
numpy versions, in a JSON file; the section for the chosen ``--trace``
(``end_to_end`` or ``per_layer``) replaces the old one and the rest is kept.
Exits 1 if any run fails a correctness gate.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
RUN_SECONDS = json.loads(
    (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list:
    """``1-10`` or ``1,4,9`` to a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: its verdict and {metric: (value, unit, samples)}."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    metrics = {}
    for line in lines[:-1]:
        _, name, value, unit, count = line.split()
        metrics[name] = (float(value), unit, int(count.removeprefix("n=")))
    # the JSON line carries every digit of the benchmark's own metrics
    for name, entry in result["metrics"].items():
        metrics[name] = (entry["value"],) + metrics[name][1:]
    return {"correct": result["correct"], "metrics": metrics}


def summarize(values: list) -> dict:
    median = statistics.median(values)
    q1, q3 = (values[0], values[0]) if len(values) == 1 else \
        statistics.quantiles(values, n=4)[::2]
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output")
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    section = {}
    print(f"{'workload':<9} {'metric':<30} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'unit':<6} samples/run")
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, RUN_SECONDS, args.trace)
                for seed in seeds]
        table = {}
        for name, (_, unit, _) in runs[0]["metrics"].items():
            samples = statistics.median(run["metrics"][name][2]
                                        for run in runs)
            row = table[name] = {"unit": unit, "samples_per_run": samples,
                                 **summarize([run["metrics"][name][0]
                                              for run in runs])}
            spread = "-" if row["spread"] is None else f"{row['spread']:.3f}"
            print(f"{workload:<9} {name:<30} {row['median']:>12.6g} "
                  f"{row['q1']:>12.6g} {row['q3']:>12.6g} {spread:>7} "
                  f"{unit:<6} {samples}", flush=True)
        section[workload] = {"all_correct": all(r["correct"] for r in runs),
                             "metrics": table}
    if args.output:
        import numpy
        path = Path(args.output)
        document = json.loads(path.read_text()) if path.exists() else {}
        key = "per_layer" if args.trace else "end_to_end"
        document.update({
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__},
            f"{key}_settings": {"seeds": seeds, "seconds": RUN_SECONDS},
            key: section,
        })
        path.write_text(json.dumps(document, indent=1) + "\n")
    return 0 if all(s["all_correct"] for s in section.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
