"""Empirical validation suites: oracles, bound dominance, rates, constants.

Each suite runs a deterministic batch of checks against a chain testbed and
returns a report with one row per check.  Rows share a fixed schema (see
``CSV_COLUMNS``) so the command-line layer can emit them uniformly; fields
that do not apply to a check are left empty.

The dominance margin convention throughout: an estimate passes against a
bound when ``e1_hat <= bound + margin * uncertainty`` with ``margin = 4``,
and an estimate matches an exact value when the absolute difference is at
most ``margin * uncertainty``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bounds import (
    FunctionClass,
    gap_burnin,
    gap_error_bound,
    uniform_burnin,
    uniform_error_bound,
)
from .chains import (
    TV_RESOLUTION,
    FiniteChainModel,
    InitialDistribution,
    _TV_HORIZON,
    _worst_start_tv,
    load_chain,
    make_chain,
    singular_f,
    spectral_gap_exact,
)
from .estimator import (DEFAULT_CHUNK_ELEMENTS, estimate_e1_windows,
                        exact_e1_small, rate_regression)
from .exceptions import DomainError

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

CSV_COLUMNS = ("suite", "chain", "check", "n", "n0", "replications",
               "e1_hat", "uncertainty", "bound_total", "passed", "seed")

_MARGIN = 4.0
# the rate suite widens its slope window by this on either side
_SLOPE_SLACK = 0.05
_R2_FLOOR = 0.98
# degenerate instances can have exactly zero Monte Carlo spread, where the
# only deviation from the exact value is summation roundoff; allow for it
_FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class CheckRow:
    """One validation check in the shared report schema."""

    suite: str
    chain: str
    check: str
    passed: bool
    n: int | None = None
    n0: int | None = None
    replications: int | None = None
    e1_hat: float | None = None
    uncertainty: float | None = None
    bound_total: float | None = None
    seed: int | None = None

    def as_dict(self) -> dict:
        return {column: getattr(self, column) for column in CSV_COLUMNS}


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one suite: overall verdict, rows, and summary metrics."""

    suite: str
    passed: bool
    rows: tuple
    details: dict


def resolve_model(source: str):
    """Interpret a chain argument as a JSON file path or a built-in name."""
    text = str(source)
    if text.endswith(".json") or Path(text).exists():
        return load_chain(text)
    return make_chain(text)


def _point_mass_rebind(model: FiniteChainModel) -> FiniteChainModel:
    """Restart a finite model from the least likely state.

    This maximizes the density-ratio penalty the burn-in recipes have to
    neutralize, which is the interesting regime for dominance checks.  The
    chain's constants do not depend on the start law, so only ``dratio``
    changes.
    """
    state = int(np.argmin(np.asarray(model.chain.stationary)))
    nu = InitialDistribution.point_mass(state, model.chain)
    return replace(model, nu=nu,
                   params=replace(model.params, dratio=nu.dratio))


def _default_values(model: FiniteChainModel) -> np.ndarray:
    return np.arange(model.chain.size, dtype=float)


def _finite_only(model, suite: str) -> FiniteChainModel:
    if not isinstance(model, FiniteChainModel):
        raise DomainError(f"the {suite} suite needs a finite chain")
    return model


def bound_dominance_suite(chain="two-state", regime: str = "uniform",
                          n_grid=(10, 100, 1000, 10000),
                          replications: int = 10_000,
                          master_seed: int = 2024,
                          p: float = 2.0, delta: float = 0.5,
                          start: str = "point-mass",
                          chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> ValidationReport:
    """Measured error against the regime bound on a log grid of n.

    Burn-in follows the regime's own recipe with the chain's certified
    constants; the check at each grid point is
    ``e1_hat <= bound(n) + margin * uncertainty``.
    """
    model = _finite_only(
        resolve_model(chain) if isinstance(chain, str) else chain,
        "bound-dominance")
    if start == "point-mass":
        model = _point_mass_rebind(model)
    elif start != "stationary":
        raise DomainError("start must be 'point-mass' or 'stationary'")
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
        n0 = math.ceil(gap_burnin(delta, params.gap, params.dratio))

        def bound_total(n: int) -> float:
            return gap_error_bound(n, delta, params.gap, f).total
    else:
        raise DomainError("regime must be 'uniform' or 'gap'")
    windows = [(int(n), n0) for n in n_grid]
    estimates = (estimate_e1_windows(model, values, windows, replications,
                                     master_seed, chunk_elements)
                 if windows else [])
    rows = []
    for est in estimates:
        bound = bound_total(est.n)
        rows.append(CheckRow(
            suite=f"bound-dominance-{regime}", chain=model.name,
            check=f"dominance-n{est.n}",
            passed=est.e1_hat <= bound + _MARGIN * est.uncertainty,
            n=est.n, n0=n0, replications=replications,
            e1_hat=est.e1_hat, uncertainty=est.uncertainty,
            bound_total=bound, seed=master_seed))
    return ValidationReport(
        suite=f"bound-dominance-{regime}",
        passed=all(row.passed for row in rows),
        rows=tuple(rows),
        details={"regime": regime, "p": p, "delta": delta, "n0": n0,
                 "margin": _MARGIN},
    )


def rate_suite(chain="iid-uniform", gamma: float = 0.65, p: float = 1.5,
               n_grid=(100, 1000, 10_000, 100_000),
               replications: int = 10_000, master_seed: int = 2024,
               chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> ValidationReport:
    """Fit the empirical convergence rate of e1 for a singular integrand.

    The admissible slope window is ``[gamma - 1 - slack, 1/p - 1 + slack]``:
    the left end is the heavy-tail prediction (tail index ``1/gamma``), the
    right end is the planner's guaranteed rate.
    """
    model = resolve_model(chain) if isinstance(chain, str) else chain
    if isinstance(model, FiniteChainModel):
        raise DomainError("the rate suite needs a continuous sampler")
    f = singular_f(gamma)
    model.lp_norm(f, p)  # fail fast if the moment diverges for this pair
    estimates = estimate_e1_windows(model, f, [(n, 0) for n in n_grid],
                                    replications, master_seed, chunk_elements)
    rows = [CheckRow(suite="rate", chain=getattr(model, "name", str(chain)),
                     check=f"e1-n{est.n}", passed=est.e1_hat > 0.0,
                     n=est.n, n0=0, replications=replications,
                     e1_hat=est.e1_hat, uncertainty=est.uncertainty,
                     seed=master_seed)
            for est in estimates]
    fit = rate_regression([(est.n, est.e1_hat) for est in estimates])
    window = (gamma - 1.0 - _SLOPE_SLACK, 1.0 / p - 1.0 + _SLOPE_SLACK)
    slope_ok = window[0] <= fit.slope <= window[1]
    r2_ok = fit.r_squared >= _R2_FLOOR
    chain_name = rows[0].chain
    rows.append(CheckRow(suite="rate", chain=chain_name,
                         check="slope-window", passed=slope_ok,
                         seed=master_seed))
    rows.append(CheckRow(suite="rate", chain=chain_name,
                         check="r-squared", passed=r2_ok, seed=master_seed))
    return ValidationReport(
        suite="rate",
        passed=all(row.passed for row in rows),
        rows=tuple(rows),
        details={"slope": fit.slope, "intercept": fit.intercept,
                 "r_squared": fit.r_squared, "window": window,
                 "gamma": gamma, "p": p},
    )


def oracle_suite(chains=("two-state", "lazy-cycle-3"), max_total: int = 8,
                 replications: int = 100_000, master_seed: int = 2024,
                 start: str = "point-mass",
                 chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> ValidationReport:
    """Monte Carlo versus the exact forward recursion on every small instance.

    For each chain, every (n, n0) with ``n + n0 <= max_total`` is checked:
    ``|e1_hat - exact| <= margin * uncertainty``.
    """
    rows = []
    for source in chains:
        model = _finite_only(
            resolve_model(source) if isinstance(source, str) else source,
            "oracle")
        if start == "point-mass":
            model = _point_mass_rebind(model)
        values = _default_values(model)
        windows = [(n, n0) for n0 in range(0, max_total)
                   for n in range(1, max_total - n0 + 1)]
        estimates = estimate_e1_windows(model, values, windows, replications,
                                        master_seed, chunk_elements)
        for (n, n0), est in zip(windows, estimates):
            exact = exact_e1_small(model.chain, model.nu, values, n, n0)
            gap_to_exact = abs(est.e1_hat - exact)
            allowed = _MARGIN * est.uncertainty + _FLOAT_SLACK
            rows.append(CheckRow(
                suite="oracle", chain=model.name,
                check=f"exact-n{n}-n0{n0}",
                passed=gap_to_exact <= allowed,
                n=n, n0=n0, replications=replications,
                e1_hat=est.e1_hat, uncertainty=est.uncertainty,
                bound_total=exact, seed=master_seed))
    return ValidationReport(
        suite="oracle",
        passed=all(row.passed for row in rows),
        rows=tuple(rows),
        details={"instances": len(rows), "margin": _MARGIN,
                 "max_total": max_total},
    )


def constants_suite(chains=("two-state", "lazy-cycle-3", "lazy-cycle-4",
                            "lazy-cycle-5"),
                    master_seed: int = 2024) -> ValidationReport:
    """Certify the exact constants of the finite testbeds.

    Checks per chain: the spectral gap accounts for the decay rate
    (``gap >= 1 - alpha`` to 1e-10), the total-variation decay bound holds
    at every step of the horizon (distances below the float64 resolution
    floor count as zero), and detailed balance survives matrix powers.
    """
    rows = []
    for source in chains:
        model = _finite_only(
            resolve_model(source) if isinstance(source, str) else source,
            "constants")
        params = model.params
        gap = spectral_gap_exact(model.chain)
        rows.append(CheckRow(
            suite="constants", chain=model.name, check="gap-vs-alpha",
            passed=gap >= 1.0 - params.alpha - 1e-10, seed=master_seed))
        certified = all(
            tv <= max(params.alpha**n * params.big_m * (1 + 1e-9),
                      TV_RESOLUTION)
            for n, tv in enumerate(_worst_start_tv(model.chain, _TV_HORIZON),
                                   start=1))
        rows.append(CheckRow(
            suite="constants", chain=model.name, check="tv-certification",
            passed=certified, n=_TV_HORIZON, seed=master_seed))
        kernel = np.asarray(model.chain.transition)
        pi = np.asarray(model.chain.stationary)
        balanced = True
        matrix_power = kernel
        for _ in range(2):
            matrix_power = matrix_power @ kernel
            flow = pi[:, None] * matrix_power
            if np.abs(flow - flow.T).max() > 1e-10:
                balanced = False
        rows.append(CheckRow(
            suite="constants", chain=model.name,
            check="detailed-balance-powers", passed=balanced,
            seed=master_seed))
    return ValidationReport(
        suite="constants",
        passed=all(row.passed for row in rows),
        rows=tuple(rows),
        details={"horizon": _TV_HORIZON, "chains": list(chains)},
    )
