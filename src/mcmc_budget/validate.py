"""Empirical validation suites: oracles, bound dominance, rates, constants.

Each suite runs a deterministic batch of checks against a chain testbed and
returns a report with one row per check.  Rows share one schema, the fields
of ``CheckRow`` (named in order by ``CSV_COLUMNS``), so the command-line
layer can emit them uniformly; fields that do not apply to a check are left
empty.

The dominance margin convention throughout: an estimate passes against a
bound when ``e1_hat <= bound + margin * uncertainty`` with ``margin = 4``,
and an estimate matches an exact value when the absolute difference is at
most ``margin * uncertainty``.

The module loads no numpy of its own: ``resolve_model`` and each suite
import ``chains`` and ``estimator`` when they run, so numpy loads with the
first chain.  ``resolve_model`` keeps the zoo models it builds by name (at
most :data:`_ZOO_MODELS`), so a process pays for a model's constants,
TV list and path table once, not once per command.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from pathlib import Path

from .bounds import (
    FunctionClass,
    gap_burnin,
    gap_error_bound,
    uniform_burnin,
    uniform_error_bound,
)
from .exceptions import DomainError, NumericalError

__all__ = [
    "CSV_COLUMNS",
    "CheckRow",
    "ValidationReport",
    "bound_dominance_suite",
    "constants_suite",
    "oracle_suite",
    "rate_suite",
    "resolve_model",
]

_DEFAULT_SEED = 2024
# the estimator's default block budget, in values; the estimator exports
# it, and it lives here so that the suites' and the parser's defaults
# reach it without loading numpy
DEFAULT_CHUNK_ELEMENTS = 8_000_000
_MARGIN = 4.0
# the zoo models a process keeps by name (resolve_model), each at most
# ~16 MB (lazy-cycle-1000)
_ZOO_MODELS = 4
# the rate suite widens its slope window by this on either side
_SLOPE_SLACK = 0.05
_R2_FLOOR = 0.98
# degenerate instances can have exactly zero Monte Carlo spread, where the
# only deviation from the exact value is summation roundoff; allow for it
_FLOAT_SLACK = 1e-12


@dataclass(frozen=True, kw_only=True)
class CheckRow:
    """One validation check; its fields, in order, are the report schema."""

    suite: str
    chain: str
    check: str
    n: int | None = None
    n0: int | None = None
    replications: int | None = None
    e1_hat: float | None = None
    uncertainty: float | None = None
    bound_total: float | None = None
    passed: bool
    seed: int | None = None

    def as_dict(self) -> dict:
        # not dataclasses.asdict: it deep-copies every value, ~15x slower
        return {column: getattr(self, column) for column in CSV_COLUMNS}


CSV_COLUMNS = tuple(field.name for field in fields(CheckRow))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one suite: rows and summary metrics."""

    suite: str
    rows: tuple
    details: dict

    @property
    def passed(self) -> bool:
        """Whether every row passed."""
        return all(row.passed for row in self.rows)


def resolve_model(source: str):
    """Interpret a chain argument as a JSON file path or a built-in name.

    A path is read on every call.  A name resolves to the model this
    process last built for it, while it is among the
    :data:`_ZOO_MODELS` names resolved most recently: a model is read-only
    once built, and what it computes on first use (its constants, TV list
    and path table) serves every later command.
    """
    text = str(source)
    if text.endswith(".json") or Path(text).exists():
        from .chains import load_chain
        return load_chain(text)
    return _zoo_model(text)


@lru_cache(maxsize=_ZOO_MODELS)
def _zoo_model(name: str):
    """:func:`~mcmc_budget.chains.make_chain`, kept for the most recent
    :data:`_ZOO_MODELS` names."""
    from .chains import make_chain
    return make_chain(name)


def _point_mass_rebind(model: FiniteChainModel) -> FiniteChainModel:
    """Restart a finite model from the least likely state.

    This maximizes the density-ratio penalty the burn-in recipes have to
    neutralize, which is the interesting regime for dominance checks.  The
    chain, and with it every constant but ``dratio``, stays.
    """
    import numpy as np
    from .chains import InitialDistribution
    state = int(np.argmin(np.asarray(model.chain.stationary)))
    return replace(model,
                   nu=InitialDistribution.point_mass(state, model.chain))


def _default_values(model: FiniteChainModel) -> np.ndarray:
    """The state values ``0, 1, ..., S - 1``: ``f`` when none is given."""
    import numpy as np
    return np.arange(model.chain.size, dtype=float)


def _model(source, suite: str, start: str | None = None):
    """``source`` (a model, name or path) as ``suite`` runs it.  A
    ``"point-mass"`` start restarts it from its least likely state; ``None``
    and ``"stationary"`` keep its start law."""
    if start not in (None, "point-mass", "stationary"):
        raise DomainError("start must be 'point-mass' or 'stationary'")
    model = resolve_model(source) if isinstance(source, str) else source
    if suite not in model.suites:
        kind = "a continuous sampler" if suite == "rate" else "a finite chain"
        raise DomainError(f"the {suite} suite needs {kind}")
    return _point_mass_rebind(model) if start == "point-mass" else model


def _window_rows(suite: str, model, values, windows, replications: int,
                 master_seed: int, chunk_elements: int, judge) -> list:
    """One row per ``(n, n0)`` window, from one estimator pass over all.

    ``judge(estimate)`` gives the row's check name, verdict and
    ``bound_total``.
    """
    from .estimator import estimate_e1_windows
    rows = []
    for est in estimate_e1_windows(model, values, windows, replications,
                                   master_seed, chunk_elements):
        check, passed, bound_total = judge(est)
        rows.append(CheckRow(
            suite=suite, chain=model.name, check=check, n=est.n, n0=est.n0,
            replications=est.replications, e1_hat=est.e1_hat,
            uncertainty=est.uncertainty, bound_total=bound_total,
            passed=passed, seed=master_seed))
    return rows


def bound_dominance_suite(chain="two-state", regime: str = "uniform",
                          n_grid=(10, 100, 1000, 10000),
                          replications: int = 10_000,
                          master_seed: int = _DEFAULT_SEED,
                          p: float = 2.0, delta: float = 0.5,
                          start: str = "point-mass",
                          chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> ValidationReport:
    """Measured error against the regime bound on a log grid of n.

    Burn-in follows the regime's own recipe with the chain's certified
    constants; the check at each grid point is
    ``e1_hat <= bound(n) + margin * uncertainty``.
    """
    model = _model(chain, "bound-dominance", start)
    params = model.params
    values = _default_values(model)
    f = FunctionClass(p=p, norm_p=model.lp_norm(values, p))
    if regime == "uniform":
        n0 = math.ceil(uniform_burnin(params))

        def bound_total(n: int) -> float:
            return uniform_error_bound(n, params, f).total
    elif regime == "gap":
        if p <= 1.0 + delta:
            raise DomainError("the gap regime needs p > 1 + delta")
        burnin = gap_burnin(delta, params.gap, params.dratio)
        if burnin == math.inf:   # a subnormal delta * gap
            raise NumericalError(f"the gap burn-in overflows at delta = "
                                 f"{delta:g}")
        n0 = math.ceil(burnin)

        def bound_total(n: int) -> float:
            return gap_error_bound(n, delta, params.gap, f).total
    else:
        raise DomainError("regime must be 'uniform' or 'gap'")

    def judge(est):
        bound = bound_total(est.n)
        return (f"dominance-n{est.n}",
                est.e1_hat <= bound + _MARGIN * est.uncertainty, bound)

    suite = f"bound-dominance-{regime}"
    rows = _window_rows(suite, model, values, [(n, n0) for n in n_grid],
                        replications, master_seed, chunk_elements, judge)
    return ValidationReport(
        suite=suite, rows=tuple(rows),
        details={"regime": regime, "p": p, "delta": delta, "n0": n0,
                 "margin": _MARGIN},
    )


def rate_suite(chain="iid-uniform", gamma: float = 0.65, p: float = 1.5,
               n_grid=(100, 1000, 10_000, 100_000),
               replications: int = 10_000,
               master_seed: int = _DEFAULT_SEED,
               chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> ValidationReport:
    """Fit the empirical convergence rate of e1 for a singular integrand.

    The admissible slope window is ``[gamma - 1 - slack, 1/p - 1 + slack]``:
    the left end is the heavy-tail prediction (tail index ``1/gamma``), the
    right end is the planner's guaranteed rate.
    """
    from .chains import SingularFunction
    from .estimator import _check_rate_sizes, rate_regression
    model = _model(chain, "rate")
    f = SingularFunction(gamma)
    # fail fast on p, on a norm that diverges for this pair and on the grid
    FunctionClass(p=p, norm_p=model.lp_norm(f, p))
    _check_rate_sizes(n_grid)
    rows = _window_rows("rate", model, f, [(n, 0) for n in n_grid],
                        replications, master_seed, chunk_elements,
                        lambda est: (f"e1-n{est.n}", est.e1_hat > 0.0, None))
    fit = rate_regression([(row.n, row.e1_hat) for row in rows])
    window = (gamma - 1.0 - _SLOPE_SLACK, 1.0 / p - 1.0 + _SLOPE_SLACK)
    slope_ok = window[0] <= fit.slope <= window[1]
    r2_ok = fit.r_squared >= _R2_FLOOR
    rows.append(CheckRow(suite="rate", chain=model.name,
                         check="slope-window", passed=slope_ok,
                         seed=master_seed))
    rows.append(CheckRow(suite="rate", chain=model.name,
                         check="r-squared", passed=r2_ok, seed=master_seed))
    return ValidationReport(
        suite="rate", rows=tuple(rows),
        details={"slope": fit.slope, "intercept": fit.intercept,
                 "r_squared": fit.r_squared, "window": window,
                 "gamma": gamma, "p": p},
    )


def oracle_suite(chain="two-state", max_total: int = 8,
                 replications: int = 100_000,
                 master_seed: int = _DEFAULT_SEED,
                 start: str = "point-mass",
                 chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> ValidationReport:
    """Monte Carlo versus the exact forward recursion on every small instance.

    Every (n, n0) with ``n + n0 <= max_total`` is checked:
    ``|e1_hat - exact| <= margin * uncertainty``.  One recursion gives the
    exact values of every window length of every burn-in ``n0``, bit for
    bit those of :func:`~mcmc_budget.estimator.exact_e1_small` per burn-in;
    only where the burn-ins' mass would hold more than ``chunk_elements``
    values do they split into groups, one recursion each.  ``start`` is
    ``"point-mass"`` (the least likely state) or ``"stationary"``.
    """
    from .estimator import _exact_e1
    model = _model(chain, "oracle", start)
    values = _default_values(model)
    size = model.chain.size
    starts = [model.nu.nu]   # nu P**n0, by repeated products
    for _ in range(1, max_total):
        starts.append(starts[-1] @ model.chain.transition)
    # exact[n0][n - 1] is the exact e1 of window (n, n0), from one
    # recursion over a group of burn-ins whose mass holds at most
    # chunk_elements values, or one burn-in's
    exact = []
    while len(exact) < max_total:
        first = len(exact)
        mass = size * ((max_total - first) * (size - 1) + 1)
        group = starts[first:first + max(1, chunk_elements // mass)]
        exact.extend(_exact_e1(model.chain, group, values,
                               max_total - first))

    def judge(est):
        value = float(exact[est.n0][est.n - 1])
        return (f"exact-n{est.n}-n0{est.n0}",
                abs(est.e1_hat - value)
                <= _MARGIN * est.uncertainty + _FLOAT_SLACK, value)

    windows = [(n, n0) for n0 in range(max_total)
               for n in range(1, max_total - n0 + 1)]
    rows = _window_rows("oracle", model, values, windows, replications,
                        master_seed, chunk_elements, judge)
    return ValidationReport(
        suite="oracle", rows=tuple(rows),
        details={"instances": len(rows), "margin": _MARGIN,
                 "max_total": max_total},
    )


def constants_suite(chain="two-state",
                    master_seed: int = _DEFAULT_SEED) -> ValidationReport:
    """Certify the exact constants of a finite testbed.

    The checks: the spectral gap accounts for the decay rate
    (``gap >= 1 - alpha`` to 1e-10), the total-variation decay bound holds
    at every step of the horizon (distances below the float64 resolution
    floor count as zero), and detailed balance survives matrix powers.
    """
    import numpy as np
    from .chains import _TV_HORIZON, TV_RESOLUTION
    model = _model(chain, "constants")
    params = model.params
    certified = all(
        tv <= max(params.alpha**n * params.big_m * (1 + 1e-9), TV_RESOLUTION)
        for n, tv in enumerate(model.chain._worst_start_tvs(), start=1))
    kernel = np.asarray(model.chain.transition)
    pi = np.asarray(model.chain.stationary)
    balanced = True
    matrix_power = kernel
    for _ in range(2):
        matrix_power = matrix_power @ kernel
        flow = pi[:, None] * matrix_power
        if np.abs(flow - flow.T).max() > 1e-10:
            balanced = False
    rows = (
        CheckRow(suite="constants", chain=model.name, check="gap-vs-alpha",
                 passed=params.gap >= 1.0 - params.alpha - 1e-10,
                 seed=master_seed),
        CheckRow(suite="constants", chain=model.name,
                 check="tv-certification", n=_TV_HORIZON, passed=certified,
                 seed=master_seed),
        CheckRow(suite="constants", chain=model.name,
                 check="detailed-balance-powers", passed=balanced,
                 seed=master_seed),
    )
    return ValidationReport(
        suite="constants", rows=rows,
        details={"horizon": _TV_HORIZON, "chains": [model.name]},
    )
