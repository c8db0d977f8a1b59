#!/usr/bin/env python3
"""mcmc-budget benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload plan-mix --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
process with one thread sends the workload's commands to
``mcmc_budget.cli.main`` in a closed loop for ``--seconds`` seconds, checks
every answer outside the timed region, and prints one ``metric`` line per
metric followed, as the last line, by a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fixed reference kernel
(``reference.py``) is timed before the first round and after each one, and
round times are reported in its units as well as in seconds.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs the
workload untraced for a third of the time (at most 8 rounds), then replays
exactly the same commands with span recording around the package's public
functions, and reports the per-layer metrics (per round of the workload) and
the tracing overhead.  The recorded spans are written to
``.bench_build/perfbench/spans-<workload>.npz``.
"""
import os

# One thread: pin the BLAS pools before numpy loads.  The parser reads
# MCMC_BUDGET_SEED when it is built, so a stray value must not reach it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MCMC_BUDGET_SEED", None)

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from reference import reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 9
# Rounds replayed under tracing; a plan-mix round records ~90k spans.
TRACED_ROUNDS = 8
PROBE_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mb": "MB"}


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Tally:
    """Commands attempted and failed, with what the gates reported."""

    attempted: int = 0
    failed: int = 0
    known_deviations: int = 0
    statistical_commands: int = 0
    statistical_misses: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, verdict) -> None:
        self.attempted += 1
        self.known_deviations += verdict.known_deviations
        self.statistical_commands += verdict.statistical_commands
        self.statistical_misses += verdict.statistical_misses
        if not verdict.ok:
            self.failed += 1
            self.problems.append(f"{what}: {'; '.join(verdict.problems)}")


@dataclass
class Round:
    """One round of commands as sent, with answers and timings."""

    ops: list
    answers: list = field(default_factory=list)   # (exit code, stdout)
    seconds: list = field(default_factory=list)
    work: float = 0.0
    reference: float = 0.0   # mean reference-kernel time around the round

    @property
    def wall(self) -> float:
        return sum(self.seconds)


class Bench:
    """Sends commands to the CLI in-process and gates every answer."""

    def __init__(self, workload, seed: int):
        from mcmc_budget import cli
        import gates
        self.cli = cli
        self.gates = gates
        self.workload = workload
        self.stream = workload.stream(seed)
        self.tally = Tally()

    def call(self, op):
        """Run one command; returns (exit code or None, stdout, seconds)."""
        out, err = io.StringIO(), io.StringIO()
        code = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                # looked up on the module each time, so tracing sees it
                code = self.cli.main(list(op.argv))
            except Exception:
                traceback.print_exc()
            seconds = perf_counter() - start
        return code, out.getvalue(), seconds

    def gate(self, op, code, text):
        if code is None:
            return self.gates.Verdict(problems=["raised an exception"])
        if op.kind == "validate":
            return self.gates.check_validate(op.inputs, code, text)
        if op.kind == "tables":
            return self.gates.check_tables(code, text)
        return self.gates.check_plan(op.kind, op.inputs, code, text)

    def send(self, op):
        code, text, seconds = self.call(op)
        verdict = self.gate(op, code, text)
        self.tally.record(" ".join(op.argv), verdict)
        return code, text, seconds, verdict

    def run_round(self, ops) -> Round:
        result = Round(ops=ops)
        for op in ops:
            code, text, seconds, verdict = self.send(op)
            result.answers.append((code, text))
            result.seconds.append(seconds)
            result.work += verdict.work
        return result

    def run_for(self, seconds: float, max_rounds: int = 0) -> list:
        """Whole rounds until ``seconds`` have passed (at least one), or
        until ``max_rounds`` rounds if that is set and comes first.  The
        reference kernel is timed before the first round and after each."""
        rounds = []
        deadline = perf_counter() + seconds
        before = reference_seconds()
        while not rounds or perf_counter() < deadline:
            result = self.run_round(next(self.stream))
            after = reference_seconds()
            result.reference = 0.5 * (before + after)
            before = after
            rounds.append(result)
            if len(rounds) == max_rounds:
                break
        return rounds

    def replay(self, rounds) -> list:
        """Send the same commands again; answers must match byte for byte."""
        replayed = []
        for original in rounds:
            again = Round(ops=original.ops)
            for op, first in zip(original.ops, original.answers):
                code, text, seconds = self.call(op)
                self.tally.record(" ".join(op.argv) + " (replay)",
                                  self.gates.check_same_output(
                                      first, (code, text), "replay"))
                again.answers.append((code, text))
                again.seconds.append(seconds)
            replayed.append(again)
        return replayed

    def rechunk_check(self, first_round: Round) -> None:
        """Criterion 9: a second --chunk-elements gives the same bytes."""
        from workloads import rechunked
        for op, answer in zip(first_round.ops, first_round.answers):
            code, text, _ = self.call(rechunked(op))
            self.tally.record(" ".join(rechunked(op).argv),
                              self.gates.check_same_output(
                                  answer, (code, text), "rechunked run"))


def measure_setup(workload, tally: Tally) -> list:
    """Seconds from start to exit of fresh set-up probes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES + 1):   # the first one fills file caches
        start = perf_counter()
        done = subprocess.run([sys.executable, str(HERE / "probe.py"),
                               *workload.chains],
                              env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        samples.append(perf_counter() - start)
        tally.attempted += 1
        if done.returncode != 0:
            tally.failed += 1
            tally.problems.append(f"set-up probe exited {done.returncode}: "
                                  f"{done.stderr.strip()[-300:]}")
    return samples[1:]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(bench: Bench, seconds: float, lines: list) -> dict:
    """Untraced run: set-up probes, per-run commands, then rounds.

    No warm-up round: the in-process set-up has built the models, and
    ``tables`` runs the planner before the plan-mix rounds start.
    """
    workload = bench.workload
    setup = measure_setup(workload, bench.tally)
    per_run = {op.kind: bench.send(op)[2] for op in workload.per_run}
    rounds = bench.run_for(seconds)
    if workload.rechunk_first_round:
        bench.rechunk_check(rounds[0])

    count = len(rounds)
    wall = statistics.median(r.wall for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_ref": (statistics.median(r.wall / r.reference for r in rounds),
                     count),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    extra = {
        "wall_s": (wall, count, "s"),
        "work_per_s": (statistics.median(r.work for r in rounds) / wall,
                       count, "1/s"),
        "ref_s": (statistics.median(r.reference for r in rounds), count,
                  "s"),
    }
    latencies = {}
    for r in rounds:
        for op, spent in zip(r.ops, r.seconds):
            latencies.setdefault(op.kind, []).append(1e3 * spent)
    if "plan" in latencies:
        plans, optimizes = latencies["plan"], latencies["optimize"]
        extra.update({
            "plan_p50_ms": (percentile(plans, 50), len(plans), "ms"),
            "plan_p99_ms": (percentile(plans, 99), len(plans), "ms"),
            "optimize_p50_ms": (percentile(optimizes, 50), len(optimizes),
                                "ms"),
            "optimize_p90_ms": (percentile(optimizes, 90), len(optimizes),
                                "ms"),
        })
    if "tables" in per_run:
        extra["tables_s"] = (per_run["tables"], 1, "s")
    for name, (value, count) in metrics.items():
        lines.append((name, value, END_TO_END[name], count))
    for name, (value, count, unit) in extra.items():
        lines.append((name, value, unit, count))
    return {name: value for name, (value, _) in metrics.items()}


PER_LAYER_UNITS = {"trace.overhead_frac": "ratio"}


def per_layer(bench: Bench, seconds: float, lines: list) -> dict:
    """Untraced rounds, then the same rounds again under span recording."""
    from tracing import NO_PARENT, Tracer, layer_metrics

    rounds = bench.run_for(seconds / 3.0, max_rounds=TRACED_ROUNDS)
    with Tracer() as tracer:
        traced = bench.replay(rounds)
    spans = tracer.spans()
    SPAN_DIR.mkdir(parents=True, exist_ok=True)
    spans.save(SPAN_DIR / f"spans-{bench.workload.name}.npz")

    count = len(rounds)
    planning = sum(op.kind in ("plan", "optimize")
                   for r in rounds for op in r.ops)
    totals = layer_metrics(spans, planning)
    metrics = {name: value if name.endswith("_per_plan") else value / count
               for name, value in totals.items()}
    untraced_wall = sum(r.wall for r in rounds)
    traced_wall = sum(r.wall for r in traced)
    top_level = spans.parents == NO_PARENT
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["trace.unattributed_s"] = (
        traced_wall - float(spans.durations()[top_level].sum())) / count
    for name, value in metrics.items():
        unit = PER_LAYER_UNITS.get(name, "s" if name.endswith("_s")
                                   else "count")
        lines.append((name, value, unit, count))
    if tracer.missing:
        lines.append(("trace.missing_targets", len(tracer.missing), "count",
                      1))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mcmc_budget" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    from mcmc_budget.validate import resolve_model
    bench = Bench(workload, args.seed)
    bench.cli.build_parser()
    for chain in workload.chains:
        resolve_model(chain)

    lines = []
    if args.trace:
        metrics = per_layer(bench, args.seconds, lines)
        units = {name: unit for name, _, unit, _ in lines}
    else:
        metrics = end_to_end(bench, args.seconds, lines)
        units = END_TO_END
    tally = bench.tally
    if tally.statistical_commands:
        tally.record("rate commands", bench.gates.check_statistical_misses(
            tally.statistical_commands, tally.statistical_misses))
    lines.append(("failed_frac", tally.failed / max(tally.attempted, 1),
                  "ratio", tally.attempted))
    lines.append(("known_deviations", tally.known_deviations, "count", 1))
    lines.append(("statistical_misses", tally.statistical_misses, "count",
                  tally.statistical_commands))
    for name, value, unit, count in lines:
        print(f"metric {name} {value:.6g} {unit} n={count}")
    for problem in tally.problems[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
