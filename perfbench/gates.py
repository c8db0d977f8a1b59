"""Correctness gates, applied to every command outside its timed region.

Each gate returns a :class:`Verdict`: the problems found (an empty list
means the command passed) and the work the command did, in the unit the
workload counts.  Planning gates re-evaluate the bounds directly; they never
trust the budget's own report of feasibility.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from mcmc_budget.bounds import (
    ChainParams,
    FunctionClass,
    gap_burnin,
    gap_error_bound,
    uniform_burnin,
    uniform_error_bound,
)
from mcmc_budget.chains import InitialDistribution, finite_model, make_chain
from mcmc_budget.validate import CSV_COLUMNS

# Criterion 2's minimality rule: n shrunk by this share must be infeasible.
MINIMALITY_SHRINK = 1e-6
# Criterion 1's tolerance for recorded budgets and optimized slacks.
TABLE_TOLERANCE = 0.02
# The recorded p=1.1 optimized slack cannot be reproduced (see the note in
# criterion 1 of the acceptance tests); it is reported, not failed.
KNOWN_TABLE_DEVIATIONS = frozenset({(1.1, 0.1, "delta_star")})
# The rate suite's slope window and r-squared floor are statistical verdicts
# that miss on some seeds at any affordable replication count.  A rate
# command that misses one is a statistical miss, not a failed command; a run
# fails instead when it has more misses than a correct program would give.
STATISTICAL_CHECKS = frozenset({"slope-window", "r-squared"})
# Share of rate commands that miss on the program this benchmark was
# introduced with: 41 of 300 seeds (0.137) missed at the mc-long inputs, and
# 0.18 is the upper end of the 95 % interval around that share.
STATISTICAL_MISS_RATE = 0.18
# Chance that a run of a program with that miss rate exceeds its limit.
STATISTICAL_FALSE_ALARM = 1e-4
# The columns that identify a check row, and the ones of a row with a window.
ROW_KEY = ("suite", "chain", "check", "n", "n0", "replications")


@dataclass
class Verdict:
    """Outcome of one gate."""

    problems: list = field(default_factory=list)
    work: float = 0.0
    known_deviations: int = 0
    statistical_commands: int = 0   # commands with statistical rows
    statistical_misses: int = 0     # of those, the ones that missed

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# validate


@functools.lru_cache(maxsize=None)
def _uniform_burnin_steps(chain: str) -> int:
    """The bound-dominance suite's burn-in for a zoo chain: the uniform
    recipe, started from the least likely state."""
    model = make_chain(chain)
    state = int(np.argmin(np.asarray(model.chain.stationary)))
    rebound = finite_model(model.chain, InitialDistribution.point_mass(
        state, model.chain))
    return math.ceil(uniform_burnin(rebound.params))


def expected_rows(inputs: dict) -> list:
    """The ``ROW_KEY`` values, as CSV text, that a validate request asks for.

    ``inputs`` is the request as ``workloads`` records it: ``suite``,
    ``chain``, ``replications`` and the suite's grid or ``max_total``.
    """
    suite, chain, reps = inputs["suite"], inputs["chain"], \
        inputs["replications"]
    if suite == "oracle":
        total = inputs["max_total"]
        windows = [(n, n0) for n0 in range(total)
                   for n in range(1, total - n0 + 1)]
        checks = [f"exact-n{n}-n0{n0}" for n, n0 in windows]
    elif suite == "bound-dominance":
        suite = f"bound-dominance-{inputs['regime']}"
        n0 = _uniform_burnin_steps(chain)
        windows = [(n, n0) for n in inputs["n_grid"]]
        checks = [f"dominance-n{n}" for n in inputs["n_grid"]]
    else:
        windows = [(n, 0) for n in inputs["n_grid"]]
        checks = [f"e1-n{n}" for n in inputs["n_grid"]]
    rows = [(suite, chain, check, str(n), str(n0), str(reps))
            for check, (n, n0) in zip(checks, windows)]
    if suite == "rate":
        rows += [(suite, chain, check, "", "", "")
                 for check in sorted(STATISTICAL_CHECKS)]
    return rows


def window_steps(inputs: dict) -> int:
    """Replications x (n + n0) summed over the windows asked for: the work
    the user asked for, whatever the program shares between windows."""
    return sum(int(reps) * (int(n) + int(n0))
               for *_, n, n0, reps in expected_rows(inputs) if n)


def check_validate(inputs: dict, code: int, text: str) -> Verdict:
    """Exit status, header, the rows asked for, and every check row.

    The output must hold exactly the rows of :func:`expected_rows`, so a
    program that skips a window, a grid point or replications fails.  Work
    is :func:`window_steps` of the request.
    """
    verdict = Verdict(work=window_steps(inputs))
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        verdict.problems.append(f"no output (exit {code})")
        return verdict
    header, body = tuple(rows[0]), [dict(zip(rows[0], row))
                                    for row in rows[1:]]
    if header != CSV_COLUMNS:
        verdict.problems.append(f"header {header} is not {CSV_COLUMNS}")
        return verdict
    if any(len(row) != len(header) for row in rows[1:]):
        verdict.problems.append("a row has the wrong number of fields")
        return verdict
    got = Counter(tuple(row[column] for column in ROW_KEY) for row in body)
    wanted = Counter(expected_rows(inputs))
    if got != wanted:
        missing, unexpected = wanted - got, got - wanted
        verdict.problems.append(
            f"rows differ from the request: {sum(missing.values())} missing "
            f"{sorted(missing)[:2]}, {sum(unexpected.values())} unexpected "
            f"{sorted(unexpected)[:2]}")
    if inputs["suite"] == "rate":
        verdict.statistical_commands = 1
    failing = [row for row in body if row["passed"] != "pass"]
    for row in failing:
        if row["check"] in STATISTICAL_CHECKS:
            verdict.statistical_misses = 1
        else:
            verdict.problems.append(
                f"check {row['check']} of {row['chain']} failed")
    expected_code = 1 if failing else 0
    if code != expected_code:
        verdict.problems.append(f"exit {code}, expected {expected_code}")
    return verdict


def statistical_miss_limit(commands: int) -> int:
    """The most missed rate commands a correct run of ``commands`` may have.

    The smallest ``k`` with ``P(Binomial(commands, STATISTICAL_MISS_RATE) >
    k) <= STATISTICAL_FALSE_ALARM``.
    """
    rate = STATISTICAL_MISS_RATE
    tail = 1.0
    for k in range(commands + 1):
        tail -= math.comb(commands, k) * rate**k * (1 - rate)**(commands - k)
        if tail <= STATISTICAL_FALSE_ALARM:
            return k
    return commands


def check_statistical_misses(commands: int, misses: int) -> Verdict:
    """A run fails when its rate commands miss more often than a correct
    program's would, by :func:`statistical_miss_limit`."""
    verdict = Verdict()
    limit = statistical_miss_limit(commands)
    if misses > limit:
        verdict.problems.append(
            f"{misses} of {commands} rate commands missed a statistical "
            f"check; a correct program misses at most {limit}")
    return verdict


def check_same_output(first: tuple, second: tuple, what: str) -> Verdict:
    """Two runs of one command agree in exit status and output bytes."""
    verdict = Verdict()
    if first != second:
        verdict.problems.append(f"{what}: output differs")
    return verdict


# ---------------------------------------------------------------------------
# plan and optimize


def _function(inputs: dict) -> FunctionClass:
    return FunctionClass(p=inputs["p"], norm_p=inputs["norm"])


def _bound(inputs: dict, row: dict):
    """The bound the row's budget was planned against, as a function of n."""
    f = _function(inputs)
    if inputs["regime"] == "uniform":
        chain = ChainParams(gap=inputs["gap"], alpha=inputs["alpha"],
                            big_m=inputs["big_m"], dratio=inputs["dratio"])
        return lambda n: uniform_error_bound(n, chain, f).total, \
            uniform_burnin(chain)
    delta = row["delta"]
    return lambda n: gap_error_bound(n, delta, inputs["gap"], f).total, \
        gap_burnin(delta, inputs["gap"], inputs["dratio"])


def check_budget_row(inputs: dict, row: dict) -> list:
    """Feasible and minimal by criterion 2's rule, with a consistent sum."""
    tag = f"{row.get('method')} budget"
    problems = []
    if inputs["regime"] == "gap":
        delta = row.get("delta")
        if not (isinstance(delta, float)
                and 0.0 < delta < min(1.0, inputs["p"] - 1.0)):
            return [f"{tag}: slack {delta!r} outside (0, min(1, p-1))"]
        if "delta" in inputs and delta != inputs["delta"]:
            problems.append(f"{tag}: slack {delta!r} is not the one asked")
    bound, burnin = _bound(inputs, row)
    n, n0 = row["n"], row["n0"]
    if not bound(n) <= inputs["eps"]:
        problems.append(f"{tag}: bound({n!r}) exceeds eps")
    if not bound(n * (1.0 - MINIMALITY_SHRINK)) > inputs["eps"]:
        problems.append(f"{tag}: n={n!r} is not minimal")
    if not math.isclose(n0, burnin, rel_tol=1e-12):
        problems.append(f"{tag}: n0={n0!r}, burn-in recipe gives {burnin!r}")
    if not math.isclose(row["total"], n + n0, rel_tol=1e-12):
        problems.append(f"{tag}: total is not n + n0")
    return problems


def check_plan(kind: str, inputs: dict, code: int, text: str) -> Verdict:
    """Every budget row of a plan or optimize answer passes."""
    verdict = Verdict(work=1.0)
    if code != 0:
        verdict.problems.append(f"{kind} exited {code}")
        return verdict
    try:
        rows = json.loads(text)["rows"]
    except (ValueError, KeyError, TypeError) as exc:
        verdict.problems.append(f"{kind}: unreadable output ({exc})")
        return verdict
    methods = [row.get("method") for row in rows]
    expected = (["optimal", "heuristic"] if kind == "optimize" else
                ["uniform"] if inputs["regime"] == "uniform" else
                ["explicit"] if "delta" in inputs else ["heuristic"])
    if methods != expected:
        verdict.problems.append(f"{kind}: rows {methods}, expected {expected}")
        return verdict
    for row in rows:
        verdict.problems += check_budget_row(inputs, row)
    if kind == "optimize" and \
            rows[0]["total"] > rows[1]["total"] * (1.0 + 1e-12):
        verdict.problems.append("optimize: optimum loses to the heuristic")
    return verdict


# ---------------------------------------------------------------------------
# tables


def check_tables(code: int, text: str) -> Verdict:
    """Criterion 1's cell rules; the known p=1.1 slack cell is reported.

    Heuristic slacks must match the recorded three significant figures;
    budgets and optimized slacks must agree within 2 %, except a cell the
    table marks suspect, which must be reported as a discrepancy instead.
    ``work`` counts the cells that meet their rule (23 of 24 here).
    """
    verdict = Verdict()
    if code != 0:
        verdict.problems.append(f"tables exited {code}")
        return verdict
    rows = json.loads(text)["rows"]
    if len(rows) != 6:
        verdict.problems.append(f"tables: {len(rows)} rows, expected 6")
    for row in rows:
        tag = f"p={row['p']}, eps={row['epsilon']}"
        cells_ok = {"delta_hat":
                    float(f"{row['delta_hat']:.2e}") == row["delta_hat_ref"]}
        suspect = row["suspect"].split(",") if row["suspect"] else []
        for cell in ("total_hat", "delta_star", "total_star"):
            ref = row[f"{cell}_ref"]
            agrees = abs(row[cell] - ref) / abs(ref) <= TABLE_TOLERANCE
            cells_ok[cell] = not agrees if cell in suspect else agrees
        for cell, ok in cells_ok.items():
            if ok:
                verdict.work += 1
            elif (row["p"], row["epsilon"], cell) in KNOWN_TABLE_DEVIATIONS:
                verdict.known_deviations += 1
            else:
                verdict.problems.append(f"tables {tag}: cell {cell}")
    return verdict
