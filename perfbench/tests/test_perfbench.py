"""Self-tests of the benchmark: span arithmetic, names, seeds and gates.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gates  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import NO_PARENT, Spans, Target, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spans(rows):
    """Spans from (label, parent, start, end) rows, in recording order."""
    labels = sorted({label for label, *_ in rows})
    column = lambda k, dtype: np.array([row[k] for row in rows], dtype=dtype)
    return Spans(labels=labels,
                 name_ids=np.array([labels.index(r[0]) for r in rows],
                                   dtype=np.int32),
                 parents=column(1, np.int32), starts=column(2, np.float64),
                 ends=column(3, np.float64), work=np.zeros(len(rows)),
                 failures=np.zeros(len(rows)))


def test_self_time_subtracts_direct_children_only():
    spans = _spans([
        ("main", NO_PARENT, 0.0, 10.0),          # 0
        ("delta_star", 0, 1.0, 7.0),             # 1
        ("gap_error_bound", 1, 2.0, 3.0),        # 2
        ("budget_for_delta", 1, 3.5, 6.0),       # 3
        ("gap_error_bound", 3, 4.0, 5.5),        # 4
        ("main", NO_PARENT, 11.0, 12.0),         # 5
    ])
    assert spans.self_times().tolist() == [4.0, 2.5, 1.0, 1.0, 1.5, 1.0]
    below_planner = spans.has_ancestor(
        spans.label_ids("delta_star", "budget_for_delta"))
    assert below_planner.tolist() == [False, False, True, True, True, False]

    metrics = tracing.layer_metrics(spans, planning_requests=2)
    assert metrics["cli.self_s"] == 5.0
    assert metrics["planner.self_s"] == 3.5
    assert metrics["planner.delta_star_s"] == 6.0
    assert metrics["bounds.eval_s"] == 2.5
    assert metrics["bounds.eval_calls"] == 2
    assert metrics["planner.bound_evals_per_plan"] == 1.0
    assert metrics["chains.derive_calls"] == 0


def test_tracer_wraps_restores_and_tolerates_missing_names():
    from mcmc_budget import bounds, planner
    original = bounds.gap_error_bound
    targets = (Target("mcmc_budget.bounds", "gap_error_bound"),
               Target("mcmc_budget.planner", "no_such_function"),
               Target("mcmc_budget.chains", "batch_values", owner="Gone"))
    with Tracer(targets) as tracer:
        assert planner.gap_error_bound is bounds.gap_error_bound
        assert bounds.gap_error_bound is not original
        planner.budget_for_delta(0.2, planner.PlanRequest(
            epsilon=0.1, gap=0.01, dratio=1e3, regime="gap",
            f=bounds.FunctionClass(p=1.5, norm_p=1.0)))
    assert bounds.gap_error_bound is original
    assert planner.gap_error_bound is original
    assert tracer.missing == ["no_such_function", "Gone.batch_values"]
    spans = tracer.spans()
    assert len(spans.parents) > 10
    assert (spans.parents == NO_PARENT).all()
    assert tracing.layer_metrics(spans, 1)["chains.derive_calls"] == 0


def test_metric_names_follow_the_grammar_and_match_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["end_to_end"] + spec["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for entry in entries + spec["workloads"]:
        assert NAME.fullmatch(entry["name"]), entry["name"]
    for entry in entries:
        assert UNIT.fullmatch(entry["unit"]), entry["unit"]
        assert entry["better"] in ("higher", "lower")
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == \
        run.END_TO_END
    spans = _spans([("main", NO_PARENT, 0.0, 1.0)])
    traced = set(tracing.layer_metrics(spans, 1)) | {
        "trace.overhead_frac", "trace.unattributed_s"}
    assert {e["name"] for e in spec["per_layer"]} == traced
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_each_round_carries_the_reference_time_around_it(monkeypatch):
    kernel_times = iter([1.0, 3.0, 5.0])
    monkeypatch.setattr(run, "reference_seconds", lambda: next(kernel_times))
    bench = run.Bench(WORKLOADS["plan-mix"], 1)
    monkeypatch.setattr(bench, "run_round", lambda ops: run.Round(ops=ops))
    rounds = bench.run_for(60.0, max_rounds=2)
    assert [r.reference for r in rounds] == [2.0, 4.0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_workload(name):
    workload = WORKLOADS[name]
    first = list(islice(workload.stream(7), 3))
    assert first == list(islice(workload.stream(7), 3))
    assert first != list(islice(workload.stream(8), 3))
    assert first[0] != first[1]   # no round repeats a command


def _answer(op):
    from mcmc_budget import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(op.argv))
    return code, out.getvalue()


def test_plan_gate_flags_an_infeasible_budget():
    ops = next(WORKLOADS["plan-mix"].stream(3))
    for kind in ("plan", "optimize"):
        op = next(op for op in ops if op.kind == kind)
        code, text = _answer(op)
        assert gates.check_plan(kind, op.inputs, code, text).ok
        payload = json.loads(text)
        row = payload["rows"][0]
        row["n"] /= 2.0
        row["total"] = row["n"] + row["n0"]
        verdict = gates.check_plan(kind, op.inputs, 0, json.dumps(payload))
        assert not verdict.ok
        assert any("exceeds eps" in problem for problem in verdict.problems)


def _validate_ops(name):
    return [op for op in next(WORKLOADS[name].stream(4))
            if op.kind == "validate"]


def _small(op, replications, *flags):
    """``op`` at fewer replications, with ``flags`` replacing its values."""
    argv = list(op.argv)
    for flag, value in (("--replications", str(replications)),) + flags:
        argv[argv.index(flag) + 1] = value
    inputs = dict(op.inputs, replications=replications)
    return type(op)(kind=op.kind, argv=tuple(argv), inputs=inputs)


def test_validate_gate_counts_the_window_steps_asked_for():
    oracle, dominance = _validate_ops("mc-short")[0], \
        _validate_ops("mc-long")[0]
    windows = [(n, n0) for n0 in range(8) for n in range(1, 9 - n0)]
    assert gates.window_steps(oracle.inputs) == \
        20_000 * sum(n + n0 for n, n0 in windows)
    # two-state's uniform burn-in from its least likely state is 4 steps
    assert gates.window_steps(dominance.inputs) == \
        1_000 * sum(n + 4 for n in (10, 100, 1000, 10_000))
    for op, replications in ((oracle, 2000), (dominance, 10)):
        small = _small(op, replications)
        code, text = _answer(small)
        verdict = gates.check_validate(small.inputs, code, text)
        assert verdict.ok, verdict.problems
        assert verdict.work == gates.window_steps(small.inputs)


def test_validate_gate_flags_skipped_and_failing_rows():
    oracle = _small(_validate_ops("mc-short")[0], 2000)
    code, text = _answer(oracle)
    lines = text.splitlines(keepends=True)
    assert code == 0 and len(lines) == 1 + 36
    skipped = "".join(lines[:-1])
    assert not gates.check_validate(oracle.inputs, 0, skipped).ok
    fewer = text.replace(",2000,", ",1000,")
    assert not gates.check_validate(oracle.inputs, 0, fewer).ok
    failing = text.replace(",pass,", ",fail,", 1)
    assert not gates.check_validate(oracle.inputs, 1, failing).ok
    assert not gates.check_validate(oracle.inputs, 1, text).ok
    # the same rows answering a shorter grid of the dominance suite
    dominance = _small(_validate_ops("mc-long")[0], 10,
                       ("--n-grid", "10,100"))
    code, text = _answer(dominance)
    verdict = gates.check_validate(dominance.inputs, code, text)
    assert any("2 missing" in problem for problem in verdict.problems)


def test_statistical_misses_are_counted_and_can_fail_a_run():
    rate = next(op for op in _validate_ops("mc-long")
                if op.inputs["suite"] == "rate")
    header = ",".join(gates.CSV_COLUMNS)
    rows = [",".join(key) + ",1.0,0.1,,pass,5"
            for key in gates.expected_rows(rate.inputs)]
    rows[-1] = rows[-1].replace(",pass,", ",fail,")
    verdict = gates.check_validate(rate.inputs, 1,
                                   "\n".join([header, *rows]) + "\n")
    assert verdict.ok
    assert (verdict.statistical_commands, verdict.statistical_misses) == \
        (1, 1)
    limit = gates.statistical_miss_limit(10)
    assert 0 < limit < 10
    assert gates.check_statistical_misses(10, limit).ok
    assert not gates.check_statistical_misses(10, limit + 1).ok


@pytest.mark.parametrize("seed", [1, 2])
def test_stray_seed_variable_does_not_reach_the_program(seed):
    env = dict(os.environ, MCMC_BUDGET_SEED="abc")
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "plan-mix",
         "--seed", str(seed), "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
