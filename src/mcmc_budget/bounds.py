"""Closed-form error bounds for Markov chain ergodic averages.

This module evaluates non-asymptotic upper bounds on the p-th moment error
of the burn-in ergodic average under two sets of chain assumptions:

* a *uniform* regime, where the chain's total-variation distance to
  stationarity decays as ``big_m * alpha**n`` from every starting point, and
* a *gap* regime, where the chain is reversible with spectral gap ``gap``
  and the only start-dependence enters through ``dratio``, the sup-norm
  distance of the initial density ratio from 1.

Each regime comes with a plain two-term bound, a recommended burn-in that
makes the start-dependent constants harmless, a pair of endpoint operator
bounds (an L1-type constant ``m1`` and an L2-type constant ``m2``), and a
refined bound obtained by interpolating between those endpoints.  All
evaluators accept real (non-integer) sample sizes so that planners can
invert them continuously before rounding.

Extreme magnitudes are routine here: density ratios of 1e30 and burn-ins of
millions of steps appear in realistic plans.  Products of the form
``scale * base**exponent`` are therefore evaluated through logarithms
whenever the scale is large, which avoids the spurious ``0 * inf`` that a
naive evaluation order produces.  Only these scaled powers go through log
space: an interpolated ``m1**e1 * m2**e2`` takes two plain powers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .exceptions import DomainError, NumericalError, RegimeError

__all__ = [
    "BoundBreakdown",
    "ChainParams",
    "ExponentPair",
    "FunctionClass",
    "gap_burnin",
    "gap_endpoint_bounds",
    "gap_error_bound",
    "interpolated_error_bound",
    "interpolation_exponent",
    "refined_gap_bound",
    "refined_uniform_bound",
    "riesz_thorin_exponents",
    "uniform_burnin",
    "uniform_endpoint_bounds",
    "uniform_error_bound",
]

_LOG_SCALE_THRESHOLD = 1e15


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(message)


@dataclass(frozen=True)
class ChainParams:
    """Convergence constants of a Markov chain.

    ``gap`` is the (absolute) spectral gap and must always be given.  The
    uniform-regime constants ``alpha`` and ``big_m`` are optional as a pair;
    evaluators that need them raise :class:`RegimeError` when they are
    missing.  ``dratio`` is ``sup |d(nu)/d(pi) - 1|`` for the initial
    distribution ``nu`` (0 means a stationary start).  Setting
    ``reversible=True`` additionally enforces ``gap >= 1 - alpha``, which
    every reversible chain satisfies.
    """

    gap: float
    alpha: float | None = None
    big_m: float | None = None
    dratio: float = 0.0
    reversible: bool = False

    def __post_init__(self) -> None:
        _require(0.0 < self.gap <= 1.0, "gap must lie in (0, 1]")
        if (self.alpha is None) != (self.big_m is None):
            raise DomainError("alpha and big_m must be given together")
        if self.alpha is not None:
            _require(0.0 <= self.alpha < 1.0, "alpha must lie in [0, 1)")
            _require(self.big_m > 0.0, "big_m must be positive")
        _require(0.0 <= self.dratio < math.inf,
                 "dratio must be finite and nonnegative")
        if self.reversible and self.alpha is not None:
            _require(self.gap >= (1.0 - self.alpha) - 1e-12,
                     "a reversible chain has gap >= 1 - alpha")

    def _uniform_constants(self) -> tuple[float, float]:
        if self.alpha is None or self.big_m is None:
            raise RegimeError(
                "this evaluator needs the uniform constants alpha and big_m")
        return self.alpha, self.big_m


@dataclass(frozen=True)
class FunctionClass:
    """An integrand known only through an L_p norm, ``1 < p <= 2``."""

    p: float
    norm_p: float

    def __post_init__(self) -> None:
        _require(1.0 < self.p <= 2.0, "p must lie in (1, 2]")
        _require(self.norm_p >= 0.0, "norm_p must be nonnegative")


@dataclass(frozen=True)
class BoundBreakdown:
    """A two-term bound split into its leading and higher-order parts."""

    leading: float
    higher_order: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", self.leading + self.higher_order)


@dataclass(frozen=True)
class ExponentPair:
    """An interpolated (p, q) exponent pair with its operator constant."""

    p: float
    q: float
    theta: float
    constant: float


def _pow_scaled(base: float, exponent: float, *factors: float) -> float:
    """Return ``prod(factors) * base**exponent`` stably.

    ``base`` lies in [0, 1] and ``exponent`` is nonnegative, so the power
    can only underflow; the factors can be astronomically large.  Large
    factors are combined with the power in log space so the decayed result
    is accurate instead of ``nan`` or a premature zero.
    """
    if any(f == 0.0 for f in factors):
        return 0.0
    if exponent == 0.0 or base == 1.0:
        return math.prod(factors)
    if base == 0.0:
        return 0.0
    if all(f <= _LOG_SCALE_THRESHOLD for f in factors):
        return math.prod(factors) * base ** exponent
    log_value = exponent * math.log(base) + math.fsum(
        math.log(f) for f in factors)
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _interpolate(p1: float, p2: float, p: float, m1: float,
                 m2: float) -> float:
    """``m1**e1 * m2**e2`` at :func:`interpolated_error_bound`'s exponents,
    capped at 1 so that no power overflows; a zero exponent gives 1."""
    e1 = min(1.0, (p1 / (p2 - p1)) * (p2 / p - 1.0))
    e2 = min(1.0, (p2 / (p2 - p1)) * (1.0 - p1 / p))
    return math.pow(m1, e1) * math.pow(m2, e2)


def _positive_product(a: float, b: float, name: str) -> float:
    """``a * b`` of two positive numbers, which the bounds raise to negative
    powers or divide by: a product that underflows to 0 is an error."""
    product = a * b
    if product == 0.0:
        raise NumericalError(f"{name} underflows to 0")
    return product


def _power(base: float, exponent: float, name: str) -> float:
    """``base**exponent`` of a positive ``base``: a power that overflows is
    an error.  The higher-order terms raise a subnormal product to a power
    down to -1, which can overflow; the leading terms' powers, at least
    -1/2, cannot."""
    try:
        return base ** exponent
    except OverflowError:
        raise NumericalError(
            f"{name} to the power {exponent:g} overflows") from None


def _check_n(n: float) -> None:
    _require(n > 0.0, "sample size n must be positive")


def _check_n0(n0: float) -> None:
    _require(n0 >= 0.0, "burn-in n0 must be nonnegative")


def _check_delta(delta: float) -> None:
    _require(0.0 < delta <= 1.0, "delta must lie in (0, 1]")


# ---------------------------------------------------------------------------
# uniform regime


def uniform_error_bound(n: float, chain: ChainParams,
                        f: FunctionClass) -> BoundBreakdown:
    """Two-term moment error bound in the uniform regime.

    Valid once the chain has run for at least :func:`uniform_burnin` steps
    before averaging starts.  The leading term decays like
    ``(n * gap)**(1/p - 1)``, the higher-order term like
    ``(n * (1 - alpha))**(2/p - 2)``.
    """
    alpha, _ = chain._uniform_constants()
    _check_n(n)
    x = _positive_product(n, chain.gap, "n * gap")
    y = _positive_product(n, 1.0 - alpha, "n * (1 - alpha)")
    scale = 4.0 * f.norm_p
    leading = scale * x ** (1.0 / f.p - 1.0)
    higher = scale * _power(y, 2.0 / f.p - 2.0, "n * (1 - alpha)")
    return BoundBreakdown(leading=leading, higher_order=higher)


def uniform_burnin(chain: ChainParams) -> float:
    """Burn-in length that makes :func:`uniform_error_bound` applicable."""
    alpha, big_m = chain._uniform_constants()
    if chain.dratio == 0.0:
        return 0.0
    log_arg = math.log(2.0) + math.log(big_m) + math.log(chain.dratio)
    return max(0.0, log_arg / (1.0 - alpha))


def uniform_endpoint_bounds(n: float, n0: float,
                            chain: ChainParams) -> tuple[float, float]:
    """Endpoint operator constants ``(m1, m2)`` in the uniform regime.

    ``m1`` controls the averaging operator from L1 to L1 and ``m2`` from
    L2 to L2, for an arbitrary burn-in ``n0`` (no applicability threshold).
    """
    alpha, big_m = chain._uniform_constants()
    _check_n(n)
    _check_n0(n0)
    x = _positive_product(n, chain.gap, "n * gap")
    y = _positive_product(n, 1.0 - alpha, "n * (1 - alpha)")
    m1 = 2.0 + _pow_scaled(alpha, n0, 4.0, big_m, chain.dratio)
    m2 = math.sqrt(2.0 / x) + _pow_scaled(
        alpha, n0 / 2.0,
        2.0, math.sqrt(big_m), math.sqrt(chain.dratio), 1.0 / y)
    return m1, m2


# ---------------------------------------------------------------------------
# gap regime


def gap_error_bound(n: float, delta: float, gap: float,
                    f: FunctionClass) -> BoundBreakdown:
    """Two-term moment error bound in the gap regime.

    ``delta`` is the interpolation slack; the bound needs ``p > 1 + delta``
    and is valid once the chain has run for :func:`gap_burnin` steps.  The
    leading term decays like ``(n * gap)**((1 + delta)/p - 1)``.
    """
    _check_delta(delta)
    _require(0.0 < gap <= 1.0, "gap must lie in (0, 1]")
    _require(f.p > 1.0 + delta, "the gap bound needs p > 1 + delta")
    _check_n(n)
    x = _positive_product(n, gap, "n * gap")
    scale = 8.0 * f.norm_p
    leading = scale * x ** ((1.0 + delta) / f.p - 1.0)
    higher = scale * _power(x, 2.0 * (1.0 + delta) / f.p - 2.0, "n * gap")
    return BoundBreakdown(leading=leading, higher_order=higher)


def gap_burnin(delta: float, gap: float, dratio: float) -> float:
    """Burn-in length that makes :func:`gap_error_bound` applicable.

    The expression ``ln(64 * dratio / delta) / (delta * gap)`` is the stated
    one.  It never undershoots the smaller variant
    ``(1+delta)/(2*delta) * ln(32*(1+delta)/delta * dratio) / ln(1/(1-gap))``
    that the derivation actually needs, so plans built with it remain valid.
    """
    _check_delta(delta)
    _require(0.0 < gap <= 1.0, "gap must lie in (0, 1]")
    _require(dratio >= 0.0, "dratio must be nonnegative")
    if dratio == 0.0:
        return 0.0
    log_arg = math.log(64.0) + math.log(dratio) - math.log(delta)
    return max(0.0, log_arg / _positive_product(delta, gap, "delta * gap"))


def gap_endpoint_bounds(n: float, n0: float, gap: float, dratio: float,
                        p1: float, p2: float) -> tuple[float, float]:
    """Endpoint operator constants ``(m1, m2)`` in the gap regime.

    ``m1`` bounds the averaging operator from L_{p1} to L_{p1} with
    ``p1 in [1, 2]`` and ``m2`` from L_{p2} to L_{p2} with ``p2 in (2, 4]``,
    again for arbitrary ``n0``.
    """
    _require(0.0 < gap <= 1.0, "gap must lie in (0, 1]")
    _require(dratio >= 0.0, "dratio must be nonnegative")
    _require(1.0 <= p1 <= 2.0, "p1 must lie in [1, 2]")
    _require(2.0 < p2 <= 4.0, "p2 must lie in (2, 4]")
    _check_n(n)
    _check_n0(n0)
    base = 1.0 - gap
    x = _positive_product(n, gap, "n * gap")
    m1 = 2.0 + _pow_scaled(base, 2.0 * n0 * (p1 - 1.0) / p1, 4.0, dratio)
    m2 = math.sqrt(2.0 / x) + _pow_scaled(
        base, n0 * (p2 - 2.0) / p2,
        8.0 * math.sqrt(p2) / math.sqrt(p2 - 2.0), math.sqrt(dratio),
        1.0 / x)
    return m1, m2


# ---------------------------------------------------------------------------
# interpolation


def interpolation_exponent(p1: float, p2: float, p: float) -> float:
    """Moment order ``q`` delivered by interpolating between p1 and p2.

    ``q`` runs from 1 (at ``p = p1``) to 2 (at ``p = p2``); an L_p
    integrand admits a q-th moment error bound with this ``q``.
    """
    _require(1.0 <= p1 < p2, "need 1 <= p1 < p2")
    _require(p1 <= p <= p2, "p must lie in [p1, p2]")
    return 1.0 + p2 * (p - p1) / (p2 * (p + p1) - 2.0 * p * p1)


def interpolated_error_bound(p1: float, p2: float, p: float,
                             m1: float, m2: float) -> tuple[float, float]:
    """Interpolate endpoint constants into a ``q``-th moment bound.

    Given the L_{p1} constant ``m1`` and L_{p2} constant ``m2``, returns
    ``(q, bound)`` where ``bound = 2 * m1**e1 * m2**e2`` with exponents
    ``e1 = (p1/(p2-p1)) * (p2/p - 1)`` and ``e2 = (p2/(p2-p1)) * (1 - p1/p)``
    summing to one.

    The bound is within 1e-15 relative of the exact value where both
    powers ``m1**e1`` and ``m2**e2`` are normal floats.  Where one power is
    subnormal and the product normal, the bound carries that power's
    rounding: at worst 2.3e-10 relative, measured at ``(p1, p2, p) =
    (1.7655, 3.1412, 1.7859)``, ``m1 = 2e-323``, ``m2 = 1.246e283``.  The
    refined bounds never reach that corner: their ``m1`` is at least 2 and
    their ``m2**e2`` stays normal.
    """
    _require(1.0 <= p1 < p2, "need 1 <= p1 < p2")
    _require(p1 <= p <= p2, "p must lie in [p1, p2]")
    _require(m1 >= 0.0 and m2 >= 0.0, "endpoint constants must be nonnegative")
    q = interpolation_exponent(p1, p2, p)
    return q, 2.0 * _interpolate(p1, p2, p, m1, m2)


def riesz_thorin_exponents(p1: float, q1: float, p2: float, q2: float,
                           theta: float) -> ExponentPair:
    """Interpolated exponent pair for an operator bounded at two endpoints.

    Solves ``1/p = (1-theta)/p1 + theta/p2`` and likewise for ``q``;
    ``math.inf`` is accepted and returned for essential-supremum exponents.
    The attached ``constant`` is 1.0 when both endpoints map into a larger
    or equal exponent (``p1 <= q1`` and ``p2 <= q2``) and 2.0 otherwise,
    reflecting the real-scalar form of the interpolation theorem.
    """
    for name, value in (("p1", p1), ("q1", q1), ("p2", p2), ("q2", q2)):
        _require(value >= 1.0, f"{name} must lie in [1, inf]")
    _require(0.0 <= theta <= 1.0, "theta must lie in [0, 1]")
    constant = 1.0 if (p1 <= q1 and p2 <= q2) else 2.0
    if theta == 0.0:
        return ExponentPair(p=p1, q=q1, theta=theta, constant=constant)
    if theta == 1.0:
        return ExponentPair(p=p2, q=q2, theta=theta, constant=constant)

    def mix(a: float, b: float) -> float:
        inv_a = 0.0 if math.isinf(a) else 1.0 / a
        inv_b = 0.0 if math.isinf(b) else 1.0 / b
        inv = (1.0 - theta) * inv_a + theta * inv_b
        return math.inf if inv == 0.0 else 1.0 / inv

    return ExponentPair(p=mix(p1, p2), q=mix(q1, q2), theta=theta,
                        constant=constant)


# ---------------------------------------------------------------------------
# refined bounds


def refined_uniform_bound(n: float, n0: float, chain: ChainParams,
                          p: float) -> float:
    """Interpolated moment error bound in the uniform regime.

    Equals ``m1**(2/p - 1) * m2**(2 - 2/p)`` with the constants from
    :func:`uniform_endpoint_bounds`: half of
    ``interpolated_error_bound(1, 2, p, m1, m2)``.  At ``p = 2`` it is
    exactly ``m2``, and as ``p`` decreases to 1 it tends to ``m1``.
    With ``n0`` at least :func:`uniform_burnin` it never exceeds
    :func:`uniform_error_bound` for a unit-norm integrand.
    """
    _require(1.0 < p <= 2.0, "p must lie in (1, 2]")
    m1, m2 = uniform_endpoint_bounds(n, n0, chain)
    return _interpolate(1.0, 2.0, p, m1, m2)


def refined_gap_bound(n: float, n0: float, gap: float, dratio: float,
                      delta: float, p: float) -> float:
    """Interpolated moment error bound in the gap regime.

    Uses the endpoint pair ``p1 = 1 + delta`` and ``p2 = 2 * (1 + delta)``,
    giving ``2 * m1**(2*(1+delta)/p - 1) * m2**(2 - 2*(1+delta)/p)``.  With
    ``n0`` at least :func:`gap_burnin` it never exceeds
    :func:`gap_error_bound` for a unit-norm integrand.
    """
    _check_delta(delta)
    _require(1.0 + delta < p <= 2.0, "p must lie in (1 + delta, 2]")
    p1 = 1.0 + delta
    m1, m2 = gap_endpoint_bounds(n, n0, gap, dratio, p1, 2.0 * p1)
    return 2.0 * _interpolate(p1, 2.0 * p1, p, m1, m2)
