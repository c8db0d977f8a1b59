"""Sample-size planning: invert the error bounds into budgets.

Given a target error, a planner inverts the monotone bound ``n -> bound(n)``
by exponential bracketing plus bisection on a logarithmic axis.  In the gap
regime the slack parameter ``delta`` trades a faster rate (small ``delta``)
against a shorter burn-in (large ``delta``); :func:`delta_hat` is a
closed-form heuristic for it and :func:`delta_star` minimizes the total
budget ``n(delta) + n0(delta)`` numerically.

The module also ships a small reference table of planning instances with
previously recorded results (:data:`REFERENCE_TABLE`); :func:`budget_table`
recomputes every instance and reports the relative deviations.  A recorded
cell that contradicts the recorded objective or another recorded cell is
marked suspect: it is reported with both values instead of being treated
as a target.  Two cells are marked: a heuristic total that undercuts the
optimal total of its row, and an optimized slack that does not minimize
the objective it was recorded for.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .bounds import ChainParams, FunctionClass, _require, gap_burnin, \
    gap_error_bound, uniform_burnin, uniform_error_bound
from .exceptions import DomainError, NumericalError

__all__ = [
    "REFERENCE_TABLE",
    "Budget",
    "PlanRequest",
    "ReferenceRow",
    "TableRow",
    "budget_for_delta",
    "budget_table",
    "delta_hat",
    "delta_star",
    "plan_uniform",
    "required_n",
]

_BRACKET_CAP = 1e300
_BISECT_REL_TOL = 1e-9
_GRID_POINTS = 240
_GOLDEN_TOL = 1e-6  # absolute in log(delta), i.e. relative in delta


@dataclass(frozen=True)
class Budget:
    """A planned run: burn-in ``n0``, averaging length ``n``, their sum,
    the target error, and (in the gap regime) the slack used.

    ``delta`` is ``None`` for uniform-regime plans, where no slack exists.
    Lengths are real-valued; round up only when handing them to a simulator.
    A length that overflows to infinity raises :class:`NumericalError`.
    """

    delta: float | None
    n0: float
    n: float
    total: float
    epsilon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.n0) and math.isfinite(self.n)):
            raise NumericalError(
                f"the budget overflows: n0 = {self.n0:g}, n = {self.n:g}")
        if self.delta is not None:
            _require(0.0 < self.delta <= 1.0, "delta must lie in (0, 1]")
        _require(self.n0 >= 0.0, "n0 must be nonnegative")
        _require(self.n > 0.0, "n must be positive")
        _require(math.isclose(self.total, self.n + self.n0, rel_tol=1e-12),
                 "total must equal n + n0")
        _require(self.epsilon > 0.0, "epsilon must be positive")


@dataclass(frozen=True)
class PlanRequest:
    """Inputs of a planning problem.

    ``regime`` is ``"gap"`` (reversible chain, spectral gap only) or
    ``"uniform"`` (uniformly ergodic chain; ``alpha`` and ``big_m``
    required).
    """

    epsilon: float
    gap: float
    dratio: float
    f: FunctionClass
    regime: str
    alpha: float | None = None
    big_m: float | None = None

    def __post_init__(self) -> None:
        _require(self.epsilon > 0.0, "epsilon must be positive")
        _require(self.regime in ("gap", "uniform"),
                 "regime must be 'gap' or 'uniform'")
        if self.regime == "uniform":
            _require(self.alpha is not None and self.big_m is not None,
                     "uniform regime needs alpha and big_m")
        self.chain_params()  # validate the numeric fields as a set

    def chain_params(self) -> ChainParams:
        return ChainParams(gap=self.gap, alpha=self.alpha, big_m=self.big_m,
                           dratio=self.dratio)


def required_n(epsilon: float, bound, n_lo: float = 1.0) -> float:
    """Smallest ``n >= n_lo`` with ``bound(n) <= epsilon``.

    ``bound`` must be nonincreasing.  The answer is bracketed by repeated
    doubling and then bisected on a logarithmic axis to relative tolerance
    1e-9; the feasible end of the final bracket is returned, so the result
    always satisfies the bound.  Returns ``n_lo`` when it is already
    feasible.
    """
    _require(epsilon > 0.0, "epsilon must be positive")
    _require(n_lo > 0.0, "n_lo must be positive")
    if bound(n_lo) <= epsilon:
        return n_lo
    lo = n_lo
    hi = 2.0 * n_lo
    while bound(hi) > epsilon:
        lo = hi
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise NumericalError(
                f"no feasible n up to {_BRACKET_CAP:g}; last bracket "
                f"[{lo:g}, {hi:g}] with bound({lo:g}) = {bound(lo):g} "
                f"> epsilon = {epsilon:g}")
    while hi - lo > _BISECT_REL_TOL * hi:
        mid = math.sqrt(lo) * math.sqrt(hi)
        if bound(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def delta_hat(p: float, epsilon: float, dratio: float) -> float:
    """Closed-form heuristic slack for the gap regime.

    ``sqrt((p-1)/p) * sqrt(log(64*dratio) / ((16/eps)**(p/(p-1))
    * log(16/eps)))``, evaluated in log space because the inner power is
    astronomically large for ``p`` near 1.
    """
    _require(1.0 < p < 2.0, "p must lie in (1, 2)")
    _require(0.0 < epsilon <= 1.0, "epsilon must lie in (0, 1]")
    _require(dratio > 0.0, "dratio must be positive")
    log_num = math.log(64.0) + math.log(dratio)
    _require(log_num > 0.0, "the heuristic needs dratio > 1/64")
    log_ratio = math.log(16.0 / epsilon)
    inner = (math.log(log_num) - (p / (p - 1.0)) * log_ratio
             - math.log(log_ratio))
    return math.sqrt((p - 1.0) / p) * math.exp(0.5 * inner)


def budget_for_delta(delta: float, req: PlanRequest) -> Budget:
    """Budget achieving ``req.epsilon`` in the gap regime at a given slack."""
    _require(req.regime == "gap", "budget_for_delta plans the gap regime")
    delta = float(delta)  # a numpy slack would warn where a float overflows
    p = req.f.p
    _require(0.0 < delta < min(1.0, p - 1.0),
             "delta must lie in (0, min(1, p - 1))")
    n0 = gap_burnin(delta, req.gap, req.dratio)
    n = required_n(req.epsilon,
                   lambda n: gap_error_bound(n, delta, req.gap, req.f).total,
                   n_lo=max(1.0, 1.0 / req.gap))
    return Budget(delta=delta, n0=n0, n=n, total=n + n0, epsilon=req.epsilon)


def _golden_minimize(fn, lo: float, hi: float, tol: float) -> float:
    """Golden-section minimizer on [lo, hi] to absolute tolerance tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = fn(x2)
    return x1 if f1 <= f2 else x2


def delta_star(req: PlanRequest) -> tuple[float, Budget]:
    """Slack minimizing the total budget, with its Budget.

    A coarse logarithmic grid scan guards against non-convexity; a
    golden-section refinement around the best grid cell then narrows the
    slack to 1e-6 relative on the computed objective.  That objective
    carries the bisection error of :func:`required_n` (up to 1e-9
    relative in ``n``), and near its minimum the true objective is very
    flat, so the located slack is only as close to the exact minimizer as
    that noise allows: on the reference rows, 1.9 % for ``p = 1.1`` (where
    the objective rises 1e-8 relative over 2 % in the slack) and within
    0.09 % for the others.  The closed-form heuristic and its tenfold
    neighbors are always included as candidates, so the result never
    loses to them.
    """
    # numpy's grid, not a pure-Python one, which differs in the last bit;
    # imported here, so that planning at a given slack loads no numpy
    import numpy as np
    _require(req.regime == "gap", "delta_star plans the gap regime")
    p = req.f.p
    d_hi = min(1.0, p - 1.0) * (1.0 - 1e-9)
    _require(d_hi > 1e-16, "empty feasible delta range")

    @functools.cache
    def total(delta: float) -> float:
        try:
            return budget_for_delta(delta, req).total
        except NumericalError:
            return math.inf

    grid = np.geomspace(1e-16, d_hi, _GRID_POINTS)
    values = [total(d) for d in grid]
    best = int(np.argmin(values))
    if values[best] == math.inf:
        raise NumericalError("no feasible delta: every budget overflows")
    lo = math.log(grid[max(best - 1, 0)])
    hi = math.log(grid[min(best + 1, len(grid) - 1)])
    refined = math.exp(_golden_minimize(lambda x: total(math.exp(x)),
                                        lo, hi, _GOLDEN_TOL))
    candidates = {float(grid[best]), refined}
    try:
        dh = delta_hat(p, req.epsilon, req.dratio)
        candidates.update(d for d in (dh, 10.0 * dh, dh / 10.0)
                          if 0.0 < d < d_hi)
    except DomainError:
        pass
    winner = min(sorted(candidates), key=total)
    return winner, budget_for_delta(winner, req)


def plan_uniform(req: PlanRequest) -> Budget:
    """Budget achieving ``req.epsilon`` in the uniform regime."""
    _require(req.regime == "uniform", "plan_uniform plans the uniform regime")
    chain = req.chain_params()
    n0 = uniform_burnin(chain)
    n = required_n(req.epsilon,
                   lambda n: uniform_error_bound(n, chain, req.f).total,
                   n_lo=max(1.0, 1.0 / req.gap))
    return Budget(delta=None, n0=n0, n=n, total=n + n0, epsilon=req.epsilon)


# ---------------------------------------------------------------------------
# reference table


@dataclass(frozen=True)
class ReferenceRow:
    """A planning instance with previously recorded results.

    ``suspect_cells`` names recorded values that contradict the recorded
    objective or another recorded cell; they are reported for comparison
    but are not targets.
    """

    p: float
    epsilon: float
    gap: float
    dratio: float
    delta_star: float
    total_star: float
    delta_hat: float
    total_hat: float
    suspect_cells: tuple[str, ...] = ()


REFERENCE_TABLE: tuple[ReferenceRow, ...] = (
    # the recorded optimized slack does not minimize the recorded objective:
    # n(delta) + n0(delta) evaluated at 60 digits has a single minimum on
    # (1e-16, 0.1), at 1.4448e-11, and 5.01e-11 lies on its rising branch,
    # 1.23e-8 relative above it (the proof-form burn-in puts the argmin at
    # 1.017e-11, so that does not explain it either); the same exact argmin
    # matches the recorded slack of the five other rows to 0.3 %.  The
    # recorded budget is reproducible.  Kept verbatim but marked suspect
    ReferenceRow(1.1, 0.1, 0.01, 1e30, 5.01e-11, 9.83e22, 8.64e-13, 9.83e22,
                 suspect_cells=("delta_star",)),
    ReferenceRow(1.3, 0.1, 0.01, 1e30, 8.39e-5, 1.88e10, 3.06e-5, 1.89e10),
    ReferenceRow(1.5, 0.1, 0.01, 1e30, 2.31e-3, 5.99e7, 1.08e-3, 6.21e7),
    ReferenceRow(1.3, 0.01, 0.01, 1e30, 4.90e-7, 3.82e14, 1.73e-7, 3.82e14),
    ReferenceRow(1.3, 0.2, 0.01, 1e30, 3.92e-4, 1.01e9, 1.48e-4, 1.04e9),
    # the recorded heuristic total contradicts the recorded optimum
    # (2.89e6 < 2.66e7); kept verbatim but marked suspect
    ReferenceRow(1.3, 0.5, 0.01, 1e30, 2.85e-3, 2.66e7, 1.21e-3, 2.89e6,
                 suspect_cells=("total_hat",)),
)


@dataclass(frozen=True)
class TableRow:
    """One recomputed reference-table row: each cell's computed value, its
    recorded value (``_ref``) and their relative deviation (``_dev``).
    The fields, in order, are the columns ``tables`` prints."""

    p: float
    epsilon: float
    gap: float
    dratio: float
    delta_star: float
    delta_star_ref: float
    delta_star_dev: float
    total_star: float
    total_star_ref: float
    total_star_dev: float
    delta_hat: float
    delta_hat_ref: float
    delta_hat_dev: float
    total_hat: float
    total_hat_ref: float
    total_hat_dev: float
    suspect_cells: tuple[str, ...]


def budget_table() -> list[TableRow]:
    """Recompute every reference-table instance and diff against it."""
    rows = []
    for ref in REFERENCE_TABLE:
        req = PlanRequest(epsilon=ref.epsilon, gap=ref.gap, dratio=ref.dratio,
                          f=FunctionClass(p=ref.p, norm_p=1.0), regime="gap")
        dh = delta_hat(ref.p, ref.epsilon, ref.dratio)
        ds, star = delta_star(req)
        cells = {}
        for cell, value in (("delta_star", ds), ("total_star", star.total),
                            ("delta_hat", dh),
                            ("total_hat", budget_for_delta(dh, req).total)):
            recorded = getattr(ref, cell)
            cells[cell], cells[f"{cell}_ref"] = value, recorded
            cells[f"{cell}_dev"] = abs(value - recorded) / abs(recorded)
        rows.append(TableRow(p=ref.p, epsilon=ref.epsilon, gap=ref.gap,
                             dratio=ref.dratio, **cells,
                             suspect_cells=ref.suspect_cells))
    return rows
