"""End-to-end acceptance suite.

Each test exercises one released guarantee of the package, from the
reference budget tables down to full-scale Monte Carlo validation runs
driven through the command line.  Every test records a single
``[acceptance] criterion k: PASS/FAIL`` line, replayed by ``conftest.py``
in the terminal summary of any ``pytest`` run, and then asserts, so the
pytest status agrees with the recorded line.

The Monte Carlo criteria (6 through 8) share two session-scoped sets of
command-line runs: a primary pass and a second pass with a deliberately
awkward ``--chunk-elements`` value.  Criterion 9 byte-compares the CSV
outputs of the two passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time

import numpy as np
import pytest

from mcmc_budget import (
    TV_RESOLUTION,
    ChainParams,
    FunctionClass,
    PlanRequest,
    budget_for_delta,
    gap_burnin,
    gap_error_bound,
    interpolated_error_bound,
    interpolation_exponent,
    make_chain,
    plan_uniform,
    refined_gap_bound,
    refined_uniform_bound,
    riesz_thorin_exponents,
    spectral_gap_exact,
    uniform_burnin,
    uniform_error_bound,
    uniform_ergodicity_constants,
)
from mcmc_budget.cli import main

MASTER_SEED = 1729

# One verdict line per criterion; conftest.py replays these in the terminal
# summary so they are visible for passing tests too.
ACCEPTANCE_LINES: list[str] = []


def _report(criterion: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] {criterion}: {verdict} ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line, flush=True)


def _timed_cli(argv: list[str]) -> tuple[int, float]:
    start = time.perf_counter()
    code = main(list(argv))
    return code, time.perf_counter() - start


def _read_rows(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode())))


# ---------------------------------------------------------------------------
# shared full-scale validation runs (criteria 6-9)

_VALIDATION_RUNS: dict[str, tuple[str, ...]] = {
    "oracle-two-state": (
        "validate", "--chain", "two-state", "--suite", "oracle",
        "--max-total", "8", "--replications", "100000",
    ),
    "oracle-lazy-cycle-3": (
        "validate", "--chain", "lazy-cycle-3", "--suite", "oracle",
        "--max-total", "8", "--replications", "100000",
    ),
    "dominance-uniform": (
        "validate", "--chain", "two-state", "--suite", "bound-dominance",
        "--regime", "uniform", "--n-grid", "10,100,1000,10000",
        "--replications", "10000",
    ),
    "dominance-gap": (
        "validate", "--chain", "two-state", "--suite", "bound-dominance",
        "--regime", "gap", "--delta", "0.5", "--p", "2.0",
        "--n-grid", "10,100,1000,10000", "--replications", "10000",
    ),
    "rate-iid": (
        "validate", "--chain", "iid-uniform", "--suite", "rate",
        "--gamma", "0.65", "--p", "1.5",
        "--rate-grid", "100,1000,10000,100000", "--replications", "10000",
    ),
}


def _run_validations(workdir, extra: tuple[str, ...]) -> dict[str, dict]:
    results: dict[str, dict] = {}
    for name, argv in _VALIDATION_RUNS.items():
        path = workdir / f"{name}.csv"
        code, elapsed = _timed_cli(
            [*argv, "--seed", str(MASTER_SEED), "--output", str(path), *extra])
        results[name] = {
            "code": code,
            "elapsed": elapsed,
            "data": path.read_bytes() if path.exists() else b"",
        }
    return results


@pytest.fixture(scope="session")
def validation_runs(tmp_path_factory):
    return _run_validations(tmp_path_factory.mktemp("acceptance"), ())


@pytest.fixture(scope="session")
def rechunked_runs(tmp_path_factory):
    # A prime chunk size that divides none of the replication batches.
    return _run_validations(tmp_path_factory.mktemp("acceptance-rechunk"),
                            ("--chunk-elements", "123457"))


# ---------------------------------------------------------------------------
# criterion 1: the reference budget tables


def _gap_total_slope(delta, p, epsilon, gap, dratio, norm=1.0):
    """Analytic derivative in ``delta`` of the gap-regime total budget.

    The total is ``n(delta) + n0(delta)`` with the stated burn-in
    ``n0 = ln(64*dratio/delta) / (delta*gap)`` and the closed-form inverse
    of the two-term bound, ``n = y**(1/a) / gap`` with
    ``y = 2c/(1 + sqrt(1 + 4c))``, ``c = epsilon/(8*norm)`` and
    ``a = (1+delta)/p - 1``.  Written out from the formulas, independently
    of the planner, so that a slack can be checked against the true
    minimizer: the slope is negative below it and positive above it.
    """
    c = epsilon / (8.0 * norm)
    log_y = math.log(2.0 * c / (1.0 + math.sqrt(1.0 + 4.0 * c)))
    a = (1.0 + delta) / p - 1.0
    n = math.exp(log_y / a - math.log(gap))
    dn = -n * log_y / (p * a * a)
    dn0 = -(1.0 + math.log(64.0 * dratio / delta)) / (delta * delta * gap)
    return dn + dn0


# The recorded cells that contradict the recorded objective or another
# recorded cell: the p=1.1 optimized slack, which does not minimize the
# objective it was recorded for, and the p=1.3, eps=0.5 heuristic total,
# which undercuts the optimal total of its row.
FLAGGED_CELLS = {(1.1, 0.1, "delta_star"), (1.3, 0.5, "total_hat")}


def test_criterion_1_reference_budget_tables(tmp_path):
    """``tables`` reproduces the recorded planner tables.

    Heuristic delta values must match the recorded three-significant-figure
    entries exactly; every budget and optimized-delta cell must agree within
    2 % relative, except the recorded cells flagged as suspect, which must
    be exactly the two expected ones and must instead be reported as
    discrepancies.  A flagged optimized slack is still checked, against the
    true minimizer: the analytic slope of the closed-form objective must be
    negative 2 % below the computed slack and positive 2 % above it.
    """
    path = tmp_path / "tables.json"
    code, elapsed = _timed_cli(["tables", "--format", "json",
                                "--output", str(path)])
    rows = json.loads(path.read_text())["rows"]
    problems: list[str] = []
    if code != 0:
        problems.append(f"tables exited {code}")
    if len(rows) != 6:
        problems.append(f"expected 6 rows, got {len(rows)}")
    flagged = set()
    for row in rows:
        tag = f"p={row['p']}, eps={row['epsilon']}"
        three_sig = float(f"{row['delta_hat']:.2e}")
        if three_sig != row["delta_hat_ref"]:
            problems.append(
                f"{tag}: delta_hat rounds to {three_sig:.2e},"
                f" recorded {row['delta_hat_ref']:.2e}")
        suspect = row["suspect"].split(",") if row["suspect"] else []
        for cell in ("total_hat", "delta_star", "total_star"):
            ref = row[f"{cell}_ref"]
            dev = abs(row[cell] - ref) / ref
            if cell in suspect:
                flagged.add((row["p"], row["epsilon"], cell))
                if dev <= 0.02:
                    problems.append(
                        f"{tag}: flagged cell {cell} unexpectedly agrees"
                        f" with the recorded value")
                continue
            if dev > 0.02:
                problems.append(
                    f"{tag}: {cell} off by {dev:.1%}"
                    f" (computed {row[cell]:.4e}, recorded {ref:.4e})")
        if "delta_star" in suspect:
            slope = [_gap_total_slope(factor * row["delta_star"], row["p"],
                                      row["epsilon"], row["gap"],
                                      row["dratio"])
                     for factor in (0.98, 1.02)]
            if not slope[0] < 0.0 < slope[1]:
                problems.append(
                    f"{tag}: delta_star {row['delta_star']:.4e} is not within"
                    f" 2 % of the minimizer (slopes {slope[0]:.3e},"
                    f" {slope[1]:.3e} at -2 %, +2 %)")
    if flagged != FLAGGED_CELLS:
        problems.append(f"expected flagged cells {sorted(FLAGGED_CELLS)},"
                        f" saw {sorted(flagged)}")
    if elapsed >= 10.0:
        problems.append(f"took {elapsed:.1f}s, budget is 10s")
    _report("criterion 1 (reference budget tables)", not problems,
            f"{len(rows)} rows in {elapsed:.2f}s, "
            f"{len(problems)} deviation(s)")
    assert not problems, (
        "reference-table deviations:\n  " + "\n  ".join(problems) +
        "\nNote on the flagged p=1.1 optimizer cell: minimizing the closed"
        " form of the same objective at 60 digits puts the true argmin at"
        " 1.4448e-11, and the budget there agrees with the recorded budget"
        " to 1.2e-8 relative.  The recorded location 5.01e-11 lies on the"
        " strictly rising branch of the curve, 1.2e-8 relative above the"
        " minimum, so it cannot be recovered by minimizing the recorded"
        " objective; the computed slack is checked against the slope of"
        " the objective instead, and the recorded budget against total_star.")


# ---------------------------------------------------------------------------
# criterion 2: planned budgets are feasible and minimal


def test_criterion_2_plans_feasible_and_minimal():
    """For 100 randomized planning problems the returned sample size ``n``
    satisfies bound(n) <= epsilon while bound(n * (1 - 1e-6)) > epsilon."""
    rng = np.random.default_rng(20260814)
    problems: list[str] = []
    start = time.perf_counter()
    for k in range(100):
        p = float(rng.uniform(1.05, 1.95))
        gap = float(10.0 ** rng.uniform(-4, 0))
        dratio = float(10.0 ** rng.uniform(-2, 6))
        f = FunctionClass(p=p, norm_p=float(10.0 ** rng.uniform(-2, 2)))
        if rng.random() < 0.7:
            delta = float(rng.uniform(0.05, 0.95)) * min(1.0, p - 1.0)

            def bound(n: float) -> float:
                return gap_error_bound(n, delta, gap, f).total

            epsilon = bound(max(1.0, 1.0 / gap)) * float(rng.uniform(1e-3, 0.3))
            req = PlanRequest(epsilon=epsilon, gap=gap, dratio=dratio, f=f,
                              regime="gap")
            budget = budget_for_delta(delta, req)
        else:
            chain = ChainParams(gap=gap, alpha=1.0 - gap,
                                big_m=float(10.0 ** rng.uniform(0, 3)),
                                dratio=dratio)

            def bound(n: float) -> float:
                return uniform_error_bound(n, chain, f).total

            # Epsilon below the bound at the planner's floor max(1, 1/gap),
            # so the inversion is active and minimality is well defined.
            epsilon = bound(max(1.0, 1.0 / gap)) * float(rng.uniform(1e-3, 0.3))
            req = PlanRequest(epsilon=epsilon, gap=gap, dratio=dratio, f=f,
                              regime="uniform", alpha=chain.alpha,
                              big_m=chain.big_m)
            budget = plan_uniform(req)
        if not bound(budget.n) <= epsilon:
            problems.append(f"case {k}: bound at n exceeds epsilon")
        if not bound(budget.n * (1.0 - 1e-6)) > epsilon:
            problems.append(f"case {k}: n is not minimal")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s, budget is 5s")
    _report("criterion 2 (plan feasibility and minimality)", not problems,
            f"100 randomized plans in {elapsed:.2f}s")
    assert not problems, "\n".join(problems)


# ---------------------------------------------------------------------------
# criterion 3: interpolation algebra


def test_criterion_3_interpolation_identities():
    """Endpoint and reconstruction identities of the interpolation layer,
    each checked to 1e-12 relative on 1000 random tuples."""
    rng = np.random.default_rng(3)
    problems: list[str] = []
    for k in range(1000):
        p1 = float(rng.uniform(1.0, 2.5))
        p2 = p1 + float(rng.uniform(0.1, 2.0))
        m1 = float(10.0 ** rng.uniform(-3, 3))
        m2 = float(10.0 ** rng.uniform(-3, 3))
        checks = []
        checks.append(("q(p1) = 1",
                       interpolation_exponent(p1, p2, p1), 1.0))
        checks.append(("q(p2) = 2",
                       interpolation_exponent(p1, p2, p2), 2.0))
        q_lo, b_lo = interpolated_error_bound(p1, p2, p1, m1, m2)
        q_hi, b_hi = interpolated_error_bound(p1, p2, p2, m1, m2)
        checks.append(("bound at p1 is 2*m1", b_lo, 2.0 * m1))
        checks.append(("bound at p2 is 2*m2", b_hi, 2.0 * m2))
        checks.append(("q at p1", q_lo, 1.0))
        checks.append(("q at p2", q_hi, 2.0))
        theta = float(rng.uniform(0.0, 1.0))
        q1 = float(rng.uniform(1.0, 20.0))
        q2 = float(rng.uniform(1.0, 20.0))
        pair = riesz_thorin_exponents(p1, q1, p2, q2, theta)
        checks.append(("harmonic mean in p", 1.0 / pair.p,
                       (1.0 - theta) / p1 + theta / p2))
        checks.append(("harmonic mean in q", 1.0 / pair.q,
                       (1.0 - theta) / q1 + theta / q2))
        for label, got, want in checks:
            if abs(got - want) > 1e-12 * abs(want):
                problems.append(f"case {k}: {label}: {got!r} vs {want!r}")
    _report("criterion 3 (interpolation identities)", not problems,
            "8 identities x 1000 tuples at 1e-12 relative")
    assert not problems, "\n".join(problems)


# ---------------------------------------------------------------------------
# criterion 4: refined bounds never exceed the plain ones


def test_criterion_4_refined_bounds_dominated():
    """With burn-in at the recipe threshold, the interpolated moment bound
    is at most the plain displayed bound, in both regimes."""
    rng = np.random.default_rng(4)
    problems: list[str] = []
    for k in range(1000):
        alpha = float(rng.uniform(0.0, 0.99))
        gap = float(rng.uniform(1e-3, 1.0))
        big_m = float(10.0 ** rng.uniform(-0.3, 3))
        dratio = float(10.0 ** rng.uniform(-3, 30))
        p = float(rng.uniform(1.0 + 1e-6, 2.0))
        n = float(10.0 ** rng.uniform(0.0, 8.0))
        chain = ChainParams(gap=gap, alpha=alpha, big_m=big_m, dratio=dratio)
        f = FunctionClass(p=p, norm_p=1.0)
        refined = refined_uniform_bound(n, uniform_burnin(chain), chain, p=p)
        plain = uniform_error_bound(n, chain, f).total
        if not refined <= plain * (1.0 + 1e-12):
            problems.append(f"uniform case {k}: {refined!r} > {plain!r}")
    for k in range(1000):
        delta = float(rng.uniform(1e-4, 0.9))
        p = float(rng.uniform(1.0 + delta + 1e-9, 2.0))
        gap = float(rng.uniform(1e-3, 1.0))
        dratio = float(10.0 ** rng.uniform(-3, 30))
        n = float(10.0 ** rng.uniform(0.0, 8.0))
        n0 = gap_burnin(delta, gap, dratio)
        refined = refined_gap_bound(n, n0, gap=gap, dratio=dratio,
                                    delta=delta, p=p)
        plain = gap_error_bound(n, delta, gap,
                                FunctionClass(p=p, norm_p=1.0)).total
        if not refined <= plain * (1.0 + 1e-12):
            problems.append(f"gap case {k}: {refined!r} > {plain!r}")
    _report("criterion 4 (refined bound dominance)", not problems,
            "1000 tuples per regime at recipe burn-in")
    assert not problems, "\n".join(problems)


# ---------------------------------------------------------------------------
# criterion 5: chain-zoo constants are certified


def test_criterion_5_zoo_constants_certified():
    """Every zoo member's certified constants hold: the exact spectral gap
    is at least ``1 - alpha``, and matrix powers confirm the total-variation
    envelope ``alpha**n * big_m`` for n <= 200 down to the resolution floor
    of double-precision kernel powers."""
    problems: list[str] = []
    for name in ("two-state", "lazy-cycle-3", "lazy-cycle-4", "lazy-cycle-5"):
        model = make_chain(name)
        chain = model.chain
        gap = spectral_gap_exact(chain)
        alpha, big_m = uniform_ergodicity_constants(chain)
        if not gap >= 1.0 - alpha - 1e-10:
            problems.append(f"{name}: gap {gap!r} < 1 - alpha {1 - alpha!r}")
        power = np.array(chain.transition)
        for n in range(1, 201):
            tv = 0.5 * float(np.max(np.abs(power - chain.stationary).sum(axis=1)))
            envelope = max(alpha ** n * big_m * (1.0 + 1e-9), TV_RESOLUTION)
            if tv > envelope:
                problems.append(
                    f"{name}: TV {tv!r} above envelope {envelope!r} at n={n}")
                break
            power = power @ chain.transition
    for name in ("iid-uniform", "indep-mh-2x"):
        params = make_chain(name).params
        if abs(params.alpha - (1.0 - params.gap)) > 1e-15 or params.big_m != 1.0:
            problems.append(f"{name}: constants {params.alpha!r},"
                            f" {params.big_m!r} inconsistent with gap")
    _report("criterion 5 (zoo constants certified)", not problems,
            "4 kernels x 200 powers plus sampler constants")
    assert not problems, "\n".join(problems)


# ---------------------------------------------------------------------------
# criteria 6-8: full-scale Monte Carlo validation through the CLI


def _collect_run_problems(runs: dict[str, dict], names: tuple[str, ...],
                          expect_rows: int) -> tuple[list[str], float]:
    problems: list[str] = []
    elapsed = 0.0
    for name in names:
        run = runs[name]
        elapsed += run["elapsed"]
        if run["code"] != 0:
            problems.append(f"{name}: exited {run['code']}")
        rows = _read_rows(run["data"])
        if len(rows) != expect_rows:
            problems.append(f"{name}: expected {expect_rows} rows,"
                            f" got {len(rows)}")
        for row in rows:
            if row["passed"] != "pass":
                problems.append(f"{name}: failing row {row['check']}"
                                f" at n={row['n']}, n0={row['n0']}")
    return problems, elapsed


def test_criterion_6_estimator_matches_enumeration(validation_runs):
    """Monte Carlo error estimates agree with the exact forward recursion
    within four uncertainty units on every window with n + n0 <= 8, at 100000
    replications, for the two- and three-state chains."""
    problems, elapsed = _collect_run_problems(
        validation_runs, ("oracle-two-state", "oracle-lazy-cycle-3"), 36)
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget is 60s")
    _report("criterion 6 (exact oracle, R=100000)", not problems,
            f"72 windows in {elapsed:.1f}s")
    assert not problems, "\n".join(problems)


def test_criterion_7_bounds_dominate_measured_error(validation_runs):
    """Measured first-moment error stays below the planned bound, with a
    four-uncertainty margin, on the two-state chain with exact constants
    and recipe burn-in, for n in {10, 100, 1000, 10000} in both regimes."""
    problems, elapsed = _collect_run_problems(
        validation_runs, ("dominance-uniform", "dominance-gap"), 4)
    if elapsed >= 300.0:
        problems.append(f"took {elapsed:.1f}s, budget is 300s")
    _report("criterion 7 (bound dominance, R=10000)", not problems,
            f"2 regimes x 4 sample sizes in {elapsed:.1f}s")
    assert not problems, "\n".join(problems)


def test_criterion_8_heavy_tail_convergence_rate(validation_runs):
    """The measured error of the singular integrand x**-0.65 under iid
    uniform sampling decays with log-log slope in [-0.40, -0.283] and
    r-squared at least 0.98 over n in {100, ..., 100000}."""
    problems, elapsed = _collect_run_problems(
        validation_runs, ("rate-iid",), 6)
    rows = _read_rows(validation_runs["rate-iid"]["data"])
    checks = {row["check"] for row in rows}
    for needed in ("slope-window", "r-squared"):
        if needed not in checks:
            problems.append(f"missing check row {needed}")
    if elapsed >= 600.0:
        problems.append(f"took {elapsed:.1f}s, budget is 600s")
    _report("criterion 8 (heavy-tail rate, R=10000)", not problems,
            f"4 sample sizes plus regression checks in {elapsed:.1f}s")
    assert not problems, "\n".join(problems)


# ---------------------------------------------------------------------------
# criterion 9: reproducibility is independent of chunking


def test_criterion_9_reproducible_across_chunk_sizes(validation_runs,
                                                     rechunked_runs):
    """Re-running every validation of criteria 6-8 with the same master seed
    but a different chunk size yields byte-identical CSV output."""
    problems: list[str] = []
    for name in _VALIDATION_RUNS:
        first = validation_runs[name]
        second = rechunked_runs[name]
        if not first["data"]:
            problems.append(f"{name}: primary run produced no output")
        if first["data"] != second["data"]:
            problems.append(f"{name}: output differs across chunk sizes")
    _report("criterion 9 (chunk-independent reproducibility)", not problems,
            f"{len(_VALIDATION_RUNS)} runs byte-compared")
    assert not problems, "\n".join(problems)
