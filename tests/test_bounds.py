"""Oracle tests for the closed-form error-bound evaluators.

Every frozen constant below was derived by hand (or by an inline composition
oracle independent of the code path under test) before the implementation was
written.
"""
from __future__ import annotations

import math
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from mcmc_budget.bounds import (
    BoundBreakdown,
    ChainParams,
    ExponentPair,
    FunctionClass,
    _interpolate,
    gap_burnin,
    gap_endpoint_bounds,
    gap_error_bound,
    interpolated_error_bound,
    interpolation_exponent,
    refined_gap_bound,
    refined_uniform_bound,
    riesz_thorin_exponents,
    uniform_burnin,
    uniform_endpoint_bounds,
    uniform_error_bound,
)
from mcmc_budget.exceptions import DomainError, NumericalError, RegimeError


def make_chain(gap=0.5, alpha=0.5, big_m=1.0, dratio=1.0, reversible=False):
    return ChainParams(gap=gap, alpha=alpha, big_m=big_m, dratio=dratio,
                       reversible=reversible)


# ---------------------------------------------------------------------------
# types


class TestChainParams:
    def test_accepts_valid(self):
        c = make_chain()
        assert c.gap == 0.5 and c.alpha == 0.5

    def test_gap_range(self):
        with pytest.raises(DomainError):
            ChainParams(gap=0.0, dratio=0.0)
        with pytest.raises(DomainError):
            ChainParams(gap=1.5, dratio=0.0)

    def test_alpha_range(self):
        with pytest.raises(DomainError):
            ChainParams(gap=0.5, alpha=1.0, big_m=1.0, dratio=0.0)
        with pytest.raises(DomainError):
            ChainParams(gap=0.5, alpha=-0.1, big_m=1.0, dratio=0.0)

    def test_big_m_positive(self):
        with pytest.raises(DomainError):
            ChainParams(gap=0.5, alpha=0.5, big_m=0.0, dratio=0.0)

    def test_dratio_nonnegative(self):
        with pytest.raises(DomainError):
            ChainParams(gap=0.5, dratio=-1.0)

    def test_reversible_requires_gap_at_least_one_minus_alpha(self):
        # gap 0.2 < 1 - 0.5: impossible for a reversible chain
        with pytest.raises(DomainError):
            ChainParams(gap=0.2, alpha=0.5, big_m=1.0, dratio=0.0,
                        reversible=True)
        # equality and slack are fine
        ChainParams(gap=0.5, alpha=0.5, big_m=1.0, dratio=0.0, reversible=True)
        ChainParams(gap=0.7, alpha=0.5, big_m=1.0, dratio=0.0, reversible=True)
        # without the reversibility declaration the combination is allowed
        ChainParams(gap=0.2, alpha=0.5, big_m=1.0, dratio=0.0)


class TestFunctionClass:
    def test_p_range(self):
        with pytest.raises(DomainError):
            FunctionClass(p=1.0, norm_p=1.0)
        with pytest.raises(DomainError):
            FunctionClass(p=2.5, norm_p=1.0)
        FunctionClass(p=2.0, norm_p=1.0)

    def test_norm_nonnegative(self):
        with pytest.raises(DomainError):
            FunctionClass(p=1.5, norm_p=-1.0)


def test_bound_breakdown_total_is_sum():
    b = BoundBreakdown(leading=0.25, higher_order=0.5)
    assert b.total == 0.75
    rng = np.random.default_rng(0)
    for _ in range(50):
        lead, high = rng.uniform(0.0, 10.0, size=2)
        b = BoundBreakdown(leading=lead, higher_order=high)
        assert b.total == lead + high


# ---------------------------------------------------------------------------
# uniformly ergodic regime


class TestUniformErrorBound:
    def test_unit_case(self):
        # all exponent bases equal 1, so each term is its constant
        chain = make_chain(gap=1.0, alpha=0.0)
        f = FunctionClass(p=2.0, norm_p=1.0)
        b = uniform_error_bound(1, chain, f)
        assert b.leading == 4.0
        assert b.higher_order == 4.0
        assert b.total == 8.0

    def test_hand_value_p2(self):
        # 4/sqrt(100*0.25) + 4/(100*0.5) = 0.8 + 0.08
        chain = make_chain(gap=0.25, alpha=0.5)
        f = FunctionClass(p=2.0, norm_p=1.0)
        b = uniform_error_bound(100, chain, f)
        assert b.leading == pytest.approx(0.8, rel=1e-14)
        assert b.higher_order == pytest.approx(0.08, rel=1e-14)
        assert b.total == pytest.approx(0.88, rel=1e-14)

    def test_hand_value_p15(self):
        # 4/(1e4)^(1/3) + 4/(1e4)^(2/3)
        chain = make_chain(gap=0.01, alpha=0.99)
        f = FunctionClass(p=1.5, norm_p=1.0)
        b = uniform_error_bound(10**6, chain, f)
        assert b.leading == pytest.approx(0.18566355334451413, rel=1e-12)
        assert b.higher_order == pytest.approx(0.008617738760127535, rel=1e-12)
        # the coarse figures quoted for this configuration
        assert b.leading == pytest.approx(0.1857, rel=5e-4)
        assert b.higher_order == pytest.approx(0.00862, rel=5e-4)

    def test_norm_scales_linearly(self):
        chain = make_chain(gap=0.25, alpha=0.5)
        one = uniform_error_bound(50, chain, FunctionClass(p=1.7, norm_p=1.0))
        three = uniform_error_bound(50, chain, FunctionClass(p=1.7, norm_p=3.0))
        assert three.total == pytest.approx(3.0 * one.total, rel=1e-14)

    def test_requires_uniform_constants(self):
        chain = ChainParams(gap=0.5, dratio=1.0)
        with pytest.raises(RegimeError):
            uniform_error_bound(10, chain, FunctionClass(p=1.5, norm_p=1.0))

    def test_rejects_bad_n(self):
        chain = make_chain()
        with pytest.raises(DomainError):
            uniform_error_bound(0, chain, FunctionClass(p=1.5, norm_p=1.0))


class TestUniformBurnin:
    def test_log_argument_one(self):
        assert uniform_burnin(make_chain(alpha=0.5, big_m=1.0, dratio=0.5)) == 0.0

    def test_hand_value(self):
        # ln(2*2*1)/(1-0.5)
        got = uniform_burnin(make_chain(alpha=0.5, big_m=2.0, dratio=1.0))
        assert got == pytest.approx(2.772588722239781, rel=1e-14)

    def test_stationary_start(self):
        assert uniform_burnin(make_chain(dratio=0.0)) == 0.0

    def test_clamped_at_zero(self):
        assert uniform_burnin(make_chain(alpha=0.0, big_m=1.0, dratio=0.1)) == 0.0

    def test_extreme_magnitudes_stay_finite(self):
        # 2*big_m*dratio overflows a double if multiplied directly
        got = uniform_burnin(make_chain(alpha=0.5, big_m=1e300, dratio=1e300))
        want = (math.log(2.0) + 600.0 * math.log(10.0)) / 0.5
        assert got == pytest.approx(want, rel=1e-12)

    def test_requires_uniform_constants(self):
        with pytest.raises(RegimeError):
            uniform_burnin(ChainParams(gap=0.5, dratio=1.0))


# ---------------------------------------------------------------------------
# spectral-gap regime


class TestGapErrorBound:
    def test_hand_value(self):
        # 8/16^0.25 + 8/16^0.5 = 4 + 2
        b = gap_error_bound(16, delta=0.5, gap=1.0,
                            f=FunctionClass(p=2.0, norm_p=1.0))
        assert b.leading == pytest.approx(4.0, rel=1e-14)
        assert b.higher_order == pytest.approx(2.0, rel=1e-14)
        assert b.total == pytest.approx(6.0, rel=1e-14)

    def test_benchmark_scale(self):
        # at the benchmark operating point the total sits at the target error
        b = gap_error_bound(5.47e7, delta=1.08e-3, gap=0.01,
                            f=FunctionClass(p=1.5, norm_p=1.0))
        assert b.total == pytest.approx(0.1, abs=1.5e-3)

    def test_monotone_in_n(self):
        f = FunctionClass(p=1.5, norm_p=1.0)
        grid = np.geomspace(10.0, 1e8, 40)
        vals = [gap_error_bound(n, delta=0.2, gap=0.1, f=f).total for n in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        f15 = FunctionClass(p=1.5, norm_p=1.0)
        with pytest.raises(DomainError):
            gap_error_bound(16, delta=0.6, gap=1.0, f=f15)  # p <= 1+delta
        with pytest.raises(DomainError):
            gap_error_bound(16, delta=0.0, gap=1.0, f=f15)
        with pytest.raises(DomainError):
            gap_error_bound(16, delta=1.2, gap=1.0, f=f15)
        with pytest.raises(DomainError):
            gap_error_bound(0, delta=0.2, gap=1.0, f=f15)


def proof_form_gap_burnin(delta, gap, dratio):
    """The burn-in the gap bound's derivation needs,
    ``(1+delta)/(2*delta) * ln(32*(1+delta)/delta * dratio) / ln(1/(1-gap))``:
    the reference that the stated :func:`gap_burnin` must never undershoot."""
    if dratio == 0.0 or gap == 1.0:
        return 0.0
    log_arg = (math.log(32.0) + math.log1p(delta) - math.log(delta)
               + math.log(dratio))
    return max(0.0, (1.0 + delta) / (2.0 * delta)
               * log_arg / -math.log1p(-gap))


class TestGapBurnin:
    def test_hand_value(self):
        got = gap_burnin(delta=1.084e-3, gap=0.01, dratio=1e30)
        want = math.log(64.0 * 1e30 / 1.084e-3) / (1.084e-3 * 0.01)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(7.39e6, rel=1e-3)

    def test_stationary_start(self):
        assert gap_burnin(delta=0.5, gap=0.5, dratio=0.0) == 0.0

    def test_log_argument_one(self):
        assert gap_burnin(delta=1.0, gap=1.0, dratio=1.0 / 64.0) == 0.0

    def test_clamped_at_zero(self):
        assert gap_burnin(delta=1.0, gap=0.5, dratio=1e-6) == 0.0

    def test_extreme_dratio_stays_finite(self):
        got = gap_burnin(delta=1e-12, gap=0.5, dratio=1e300)
        want = (math.log(64.0) + 300.0 * math.log(10.0)
                + 12.0 * math.log(10.0)) / (1e-12 * 0.5)
        assert got == pytest.approx(want, rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            gap_burnin(delta=0.0, gap=0.5, dratio=1.0)
        with pytest.raises(DomainError):
            gap_burnin(delta=0.5, gap=0.0, dratio=1.0)

    def test_proof_form_hand_value(self):
        # (1+1)/2 * ln(32*2*1)/ln(2) = ln(64)/ln(2) = 6
        got = proof_form_gap_burnin(delta=1.0, gap=0.5, dratio=1.0)
        assert got == pytest.approx(6.0, rel=1e-12)

    def test_proof_form_never_exceeds_default(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            delta = rng.uniform(1e-4, 1.0)
            gap = rng.uniform(1e-3, 1.0)
            dratio = 10.0 ** rng.uniform(-2, 30)
            assert proof_form_gap_burnin(delta, gap, dratio) <= \
                gap_burnin(delta, gap, dratio) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# endpoint operator bounds


class TestUniformEndpointBounds:
    def test_iid_stationary(self):
        chain = make_chain(gap=1.0, alpha=0.0, dratio=0.0)
        m1, m2 = uniform_endpoint_bounds(8, 0, chain)
        assert m1 == 2.0
        assert m2 == pytest.approx(0.5, rel=1e-14)

    def test_hand_value(self):
        chain = make_chain(gap=0.5, alpha=0.5, big_m=2.0, dratio=1.0)
        m1, m2 = uniform_endpoint_bounds(100, 4, chain)
        # 2 + 4*0.5^4*2*1 and sqrt(2)/sqrt(50) + 2*sqrt(2)*0.5^2/50
        assert m1 == pytest.approx(2.5, rel=1e-13)
        assert m2 == pytest.approx(0.21414213562373096, rel=1e-13)

    def test_long_burnin_limit(self):
        chain = make_chain(gap=0.5, alpha=0.5, big_m=2.0, dratio=1.0)
        m1, m2 = uniform_endpoint_bounds(100, 10**6, chain)
        assert m1 == 2.0
        assert m2 == pytest.approx(math.sqrt(2.0) / math.sqrt(50.0), rel=1e-14)

    def test_extreme_magnitudes_no_nan(self):
        # alpha^n0 underflows while big_m*dratio overflows; the product is ~0
        chain = make_chain(gap=0.5, alpha=0.5, big_m=1e200, dratio=1e200)
        m1, m2 = uniform_endpoint_bounds(100, 2000, chain)
        assert m1 == 2.0
        assert m2 == pytest.approx(math.sqrt(2.0) / math.sqrt(50.0), rel=1e-14)

    def test_transient_just_below_the_float_limit_is_finite(self):
        # 4 * 0.5 * 1e300 * 7.5e7 = 1.5e308, whose log is 709.6: finite
        chain = make_chain(gap=0.5, alpha=0.5, big_m=1e300, dratio=7.5e7)
        m1, _ = uniform_endpoint_bounds(100, 1, chain)
        assert m1 == pytest.approx(1.5e308, rel=1e-12)

    def test_overflowing_transient_is_infinite(self):
        # 4 * 0.5 * 1e300 * 1e300 passes float64's range in log space
        chain = make_chain(gap=0.5, alpha=0.5, big_m=1e300, dratio=1e300)
        m1, _ = uniform_endpoint_bounds(100, 1, chain)
        assert m1 == math.inf

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            uniform_endpoint_bounds(10, 0, ChainParams(gap=0.5, dratio=1.0))


class TestGapEndpointBounds:
    def test_trivial_case(self):
        m1, m2 = gap_endpoint_bounds(2, 0, gap=1.0, dratio=0.0, p1=1.5, p2=3.0)
        assert m1 == 2.0
        assert m2 == pytest.approx(1.0, rel=1e-14)

    def test_hand_value(self):
        m1, m2 = gap_endpoint_bounds(100, 0, gap=0.5, dratio=1.0, p1=1.5, p2=4.0)
        assert m1 == pytest.approx(6.0, rel=1e-13)
        # sqrt(2)/sqrt(50) + (8*2/sqrt(2))/50
        want = math.sqrt(2.0) / math.sqrt(50.0) + (16.0 / math.sqrt(2.0)) / 50.0
        assert m2 == pytest.approx(want, rel=1e-13)

    def test_p1_one_kills_burnin_decay(self):
        for n0 in (0, 3, 50):
            m1, _ = gap_endpoint_bounds(10, n0, gap=0.7, dratio=2.5, p1=1.0, p2=3.0)
            assert m1 == pytest.approx(2.0 + 4.0 * 2.5, rel=1e-14)

    def test_full_gap_with_burnin(self):
        # (1-gap)=0 with n0>0 wipes both dratio terms
        m1, m2 = gap_endpoint_bounds(50, 3, gap=1.0, dratio=5.0, p1=1.5, p2=3.0)
        assert m1 == 2.0
        assert m2 == pytest.approx(math.sqrt(2.0) / math.sqrt(50.0), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gap_endpoint_bounds(10, 0, gap=0.5, dratio=1.0, p1=1.5, p2=2.0)
        with pytest.raises(DomainError):
            gap_endpoint_bounds(10, 0, gap=0.5, dratio=1.0, p1=0.5, p2=3.0)
        with pytest.raises(DomainError):
            gap_endpoint_bounds(10, 0, gap=0.5, dratio=1.0, p1=1.5, p2=5.0)


# ---------------------------------------------------------------------------
# interpolation algebra


class TestInterpolationExponent:
    def test_endpoints(self):
        assert interpolation_exponent(2.0, 4.0, 2.0) == 1.0
        assert interpolation_exponent(2.0, 4.0, 4.0) == 2.0

    def test_hand_value(self):
        assert interpolation_exponent(2.0, 4.0, 3.0) == pytest.approx(1.5, rel=1e-14)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            p1 = rng.uniform(1.0, 2.0)
            p2 = rng.uniform(2.0 + 1e-9, 4.0)
            p = rng.uniform(p1, p2)
            q = interpolation_exponent(p1, p2, p)
            assert 1.0 - 1e-12 <= q <= 2.0 + 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            interpolation_exponent(1.5, 3.0, 1.2)
        with pytest.raises(DomainError):
            interpolation_exponent(1.5, 3.0, 3.5)


DBL_MAX = sys.float_info.max
DBL_MIN = sys.float_info.min
# zero, infinity, subnormals, the smallest normal, and constants at and
# just below the float limit
EDGE_CONSTANTS = [0.0, math.inf, 5e-324, 1e-310, DBL_MIN, 1.0, DBL_MAX,
                  math.nextafter(DBL_MAX, 0.0), DBL_MAX * (1.0 - 1e-15)]


def draw_constant(rng) -> float:
    """An edge constant, or a log-uniform one over the whole float range
    or over [1e15, DBL_MAX]."""
    kind = rng.random()
    if kind < 0.2:
        return EDGE_CONSTANTS[rng.integers(len(EDGE_CONSTANTS))]
    return 10.0 ** rng.uniform(-323.0 if kind < 0.6 else 15.0, 308.25)


def exponents(p1, p2, p):
    """The float exponents of ``_interpolate``, each capped at 1."""
    return (min(1.0, (p1 / (p2 - p1)) * (p2 / p - 1.0)),
            min(1.0, (p2 / (p2 - p1)) * (1.0 - p1 / p)))


def decimal_power(context, m: float, e: float) -> Decimal:
    """``m**e`` in ``context``'s precision; a zero exponent gives 1."""
    if e == 0.0:
        return Decimal(1)
    return context.create_decimal_from_float(m) ** Decimal(e)


def check_against_reference(got: float, f1: Decimal, f2: Decimal) -> None:
    """``got`` against the 40-digit product of the powers ``f1`` and
    ``f2``."""
    exact = f1 * f2
    if exact.is_infinite():
        assert got == math.inf
    elif exact >= Decimal(DBL_MAX) * (1 - Decimal("1e-15")):
        assert got in (math.inf, DBL_MAX) \
            or abs(Decimal(got) - exact) <= Decimal("1e-15") * exact
    elif exact >= Decimal(DBL_MIN):
        # a subnormal factor is rounded to a multiple of 5e-324, which the
        # other factor scales
        slack = sum(Decimal(5e-324) * other for factor, other
                    in ((f1, f2), (f2, f1)) if factor < Decimal(DBL_MIN))
        assert abs(Decimal(got) - exact) <= Decimal("1e-15") * exact + slack
    else:
        assert 0.0 <= got <= DBL_MIN


class TestInterpolatedErrorBound:
    def test_left_endpoint(self):
        q, bound = interpolated_error_bound(1.5, 3.0, 1.5, 3.0, 7.0)
        assert q == 1.0
        assert bound == 6.0

    def test_right_endpoint(self):
        q, bound = interpolated_error_bound(1.5, 3.0, 3.0, 3.0, 7.0)
        assert q == 2.0
        assert bound == 14.0

    def test_an_infinite_constant_at_its_zero_exponent(self):
        # a zero exponent gives a factor of 1: the other endpoint's bound
        _, left = interpolated_error_bound(1.5, 3.0, 1.5, 3.0, math.inf)
        _, right = interpolated_error_bound(1.5, 3.0, 3.0, math.inf, 7.0)
        assert (left, right) == (6.0, 14.0)

    def test_matches_a_40_digit_reference(self):
        # m1**e1 * m2**e2 at the same float exponents, to 40 digits: the
        # result is within 1e-15 wherever that value and both powers are
        # normal floats below the limit.  Above it, inf and DBL_MAX are
        # both right: the exponents sum to 1 only within 4e-15.
        rng = np.random.default_rng(27)
        cases = 0
        with localcontext() as context:
            context.prec = 40
            while cases < 10_000:
                p1 = rng.uniform(1.0, 2.0)
                p2 = rng.uniform(2.0 + 1e-6, 4.0)
                p = float(rng.choice([p1, p2, rng.uniform(p1, p2)],
                                     p=[0.1, 0.1, 0.8]))
                m1, m2 = draw_constant(rng), draw_constant(rng)
                f1, f2 = (decimal_power(context, m, e)
                          for m, e in zip((m1, m2), exponents(p1, p2, p)))
                if {f1, f2} & {0} and (f1.is_infinite() or f2.is_infinite()):
                    continue   # 0 * inf has no value
                cases += 1
                got = _interpolate(p1, p2, p, m1, m2)
                check_against_reference(got, f1, f2)

    def test_hand_value(self):
        q, bound = interpolated_error_bound(1.5, 3.0, 2.0, 2.0, 0.5)
        # exponents are (0.5, 0.5): 2*sqrt(2*0.5) = 2
        assert bound == pytest.approx(2.0, rel=1e-12)
        assert q == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_exponents_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            p1 = rng.uniform(1.0, 2.0)
            p2 = rng.uniform(2.0 + 1e-6, 4.0)
            p = rng.uniform(p1, p2)
            m = rng.uniform(0.1, 10.0)
            # with m1 == m2 == m the bound must equal 2*m for any p
            _, bound = interpolated_error_bound(p1, p2, p, m, m)
            assert bound == pytest.approx(2.0 * m, rel=1e-12)


class TestRieszThorinExponents:
    def test_endpoints_exact(self):
        a = riesz_thorin_exponents(1.5, 3.0, 2.0, 4.0, 0.0)
        assert (a.p, a.q, a.theta) == (1.5, 3.0, 0.0)
        b = riesz_thorin_exponents(1.5, 3.0, 2.0, 4.0, 1.0)
        assert (b.p, b.q, b.theta) == (2.0, 4.0, 1.0)

    def test_hand_value(self):
        got = riesz_thorin_exponents(1.0, 1.0, 2.0, 2.0, 0.5)
        assert got.p == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert got.q == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_infinity_sentinel(self):
        got = riesz_thorin_exponents(2.0, math.inf, 2.0, math.inf, 0.3)
        assert got.p == pytest.approx(2.0, rel=1e-14)
        assert got.q == math.inf

    def test_constant_rule(self):
        assert riesz_thorin_exponents(1.0, 2.0, 2.0, 4.0, 0.5).constant == 1.0
        assert riesz_thorin_exponents(2.0, 1.0, 2.0, 4.0, 0.5).constant == 2.0
        assert riesz_thorin_exponents(1.0, 2.0, 4.0, 2.0, 0.5).constant == 2.0

    def test_harmonic_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            p1, p2 = sorted(rng.uniform(1.0, 8.0, size=2))
            q1, q2 = rng.uniform(1.0, 16.0, size=2)
            theta = rng.uniform(0.0, 1.0)
            if abs(1.0 / p1 - 1.0 / p2) < 1e-6:
                continue
            got = riesz_thorin_exponents(p1, q1, p2, q2, theta)
            back = (1.0 / p1 - 1.0 / got.p) / (1.0 / p1 - 1.0 / p2)
            assert back == pytest.approx(theta, rel=1e-12, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            riesz_thorin_exponents(1.0, 2.0, 2.0, 4.0, 1.5)
        with pytest.raises(DomainError):
            riesz_thorin_exponents(0.5, 2.0, 2.0, 4.0, 0.5)


# ---------------------------------------------------------------------------
# refined bounds


class TestRefinedUniformBound:
    def test_p2_equals_m2(self):
        chain = make_chain(gap=0.5, alpha=0.5, big_m=2.0, dratio=1.0)
        _, m2 = uniform_endpoint_bounds(100, 4, chain)
        assert refined_uniform_bound(100, 4, chain, p=2.0) == m2

    def test_p2_equals_m2_when_m1_overflows(self):
        # m1's zero exponent gives a factor of 1, not 0 * log(inf) = nan
        chain = make_chain(gap=0.5, alpha=0.5, big_m=1e300, dratio=1e300)
        m1, m2 = uniform_endpoint_bounds(100, 1, chain)
        assert m1 == math.inf
        assert refined_uniform_bound(100, 1, chain, p=2.0) == m2

    def test_near_one_tends_to_m1(self):
        chain = make_chain(gap=0.5, alpha=0.5, big_m=2.0, dratio=1.0)
        m1, _ = uniform_endpoint_bounds(100, 4, chain)
        got = refined_uniform_bound(100, 4, chain, p=1.0 + 1e-9)
        assert got == pytest.approx(m1, rel=1e-6)

    def test_composition_oracle(self):
        chain = make_chain(gap=0.5, alpha=0.5, big_m=1.0, dratio=1.0)
        m1 = 2.0 + 4.0 * 0.5**10
        m2 = math.sqrt(2.0) / math.sqrt(5e3) + 2.0 * 0.5**5 / (1e4 * 0.5)
        assert m1 == pytest.approx(2.0039, rel=1e-4)
        assert m2 == pytest.approx(0.0200, rel=1e-3)
        want = m1 ** (1.0 / 3.0) * m2 ** (2.0 / 3.0)
        got = refined_uniform_bound(10**4, 10, chain, p=1.5)
        assert got == pytest.approx(want, rel=1e-13)

    def test_huge_m1_is_combined_in_log_space(self):
        # at n0 = 0, m1 = 2 + 4 * 1e8 * 1e8 passes the log-space threshold
        chain = make_chain(gap=0.5, alpha=0.5, big_m=1e8, dratio=1e8)
        m1, m2 = uniform_endpoint_bounds(100, 0, chain)
        assert m1 > 1e15
        want = m1 ** (1.0 / 3.0) * m2 ** (2.0 / 3.0)
        got = refined_uniform_bound(100, 0, chain, p=1.5)
        assert got == pytest.approx(want, rel=1e-12)

    def test_domain_error(self):
        chain = make_chain()
        with pytest.raises(DomainError):
            refined_uniform_bound(10, 0, chain, p=1.0)
        with pytest.raises(DomainError):
            refined_uniform_bound(10, 0, chain, p=2.2)

    def test_dominated_by_plain_bound_after_burnin(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            alpha = rng.uniform(0.0, 0.99)
            gap = rng.uniform(1e-3, 1.0)
            big_m = 10.0 ** rng.uniform(-0.3, 3)
            dratio = 10.0 ** rng.uniform(-3, 30)
            p = rng.uniform(1.0 + 1e-6, 2.0)
            chain = ChainParams(gap=gap, alpha=alpha, big_m=big_m, dratio=dratio)
            n0 = uniform_burnin(chain)
            n = 10.0 ** rng.uniform(0.0, 8.0)
            f = FunctionClass(p=p, norm_p=1.0)
            refined = refined_uniform_bound(n, n0, chain, p=p)
            plain = uniform_error_bound(n, chain, f).total
            assert refined <= plain * (1.0 + 1e-12)


class TestRefinedGapBound:
    def test_stationary_collapse(self):
        # dratio=0, n0=0: endpoints are m1=2 and m2=sqrt(2/(n*gap))
        n, gap, delta, p = 4.0, 1.0, 0.5, 2.0
        m1, m2 = 2.0, math.sqrt(2.0) / math.sqrt(n * gap)
        want = 2.0 * m1**0.5 * m2**0.5
        got = refined_gap_bound(n, 0, gap=gap, dratio=0.0, delta=delta, p=p)
        assert got == pytest.approx(want, rel=1e-13)

    def test_composition_oracle(self):
        # delta=0.5, p=2 uses endpoints p1=1.5, p2=3 and exponents (0.5, 0.5)
        m1, m2 = gap_endpoint_bounds(100, 0, gap=0.5, dratio=1.0, p1=1.5, p2=3.0)
        want = 2.0 * m1**0.5 * m2**0.5
        got = refined_gap_bound(100, 0, gap=0.5, dratio=1.0, delta=0.5, p=2.0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            refined_gap_bound(10, 0, gap=0.5, dratio=1.0, delta=0.0, p=1.5)
        with pytest.raises(DomainError):
            refined_gap_bound(10, 0, gap=0.5, dratio=1.0, delta=0.6, p=1.5)

    def test_dominated_by_plain_bound_after_burnin(self):
        rng = np.random.default_rng(5)
        f_cache = {}
        for _ in range(300):
            delta = rng.uniform(1e-4, 1.0)
            p = rng.uniform(1.0 + delta + 1e-9, 2.0)
            if not (1.0 + delta < p <= 2.0):
                continue
            gap = rng.uniform(1e-3, 1.0)
            dratio = 10.0 ** rng.uniform(-3, 30)
            n = 10.0 ** rng.uniform(0.0, 8.0)
            n0 = gap_burnin(delta, gap, dratio)
            f = f_cache.setdefault(p, FunctionClass(p=p, norm_p=1.0))
            refined = refined_gap_bound(n, n0, gap=gap, dratio=dratio,
                                        delta=delta, p=p)
            plain = gap_error_bound(n, delta=delta, gap=gap, f=f).total
            assert refined <= plain * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# cross-cutting invariants


def test_monotone_in_n_and_n0():
    rng = np.random.default_rng(6)
    for _ in range(100):
        alpha = rng.uniform(0.0, 0.99)
        gap = rng.uniform(1e-3, 1.0)
        big_m = 10.0 ** rng.uniform(-0.3, 2)
        dratio = 10.0 ** rng.uniform(-3, 6)
        delta = rng.uniform(1e-3, 0.5)
        p = rng.uniform(1.0 + delta + 1e-6, 2.0)
        chain = ChainParams(gap=gap, alpha=alpha, big_m=big_m, dratio=dratio)
        f = FunctionClass(p=p, norm_p=1.0)
        n_grid = np.geomspace(max(1.0, 1.0 / gap), max(4.0, 1e6 / gap), 8)
        u = [uniform_error_bound(n, chain, f).total for n in n_grid]
        g = [gap_error_bound(n, delta, gap, f).total for n in n_grid]
        r = [refined_uniform_bound(n, 5, chain, p) for n in n_grid]
        s = [refined_gap_bound(n, 5, gap, dratio, delta, p) for n in n_grid]
        for seq in (u, g, r, s):
            assert all(a >= b - 1e-15 for a, b in zip(seq, seq[1:]))
        n0_grid = [0, 1, 5, 50, 500]
        r0 = [refined_uniform_bound(100.0, n0, chain, p) for n0 in n0_grid]
        s0 = [refined_gap_bound(100.0, n0, gap, dratio, delta, p) for n0 in n0_grid]
        for seq in (r0, s0):
            assert all(a >= b - 1e-15 for a, b in zip(seq, seq[1:]))


def test_regime_consistency_gap_equals_one_minus_alpha():
    rng = np.random.default_rng(8)
    for _ in range(100):
        alpha = rng.uniform(0.0, 0.99)
        p = rng.uniform(1.0 + 1e-6, 2.0)
        n = 10.0 ** rng.uniform(0.0, 6.0)
        norm = 10.0 ** rng.uniform(-1, 1)
        chain = ChainParams(gap=1.0 - alpha, alpha=alpha, big_m=1.0, dratio=1.0,
                            reversible=True)
        b = uniform_error_bound(n, chain, FunctionClass(p=p, norm_p=norm))
        direct = 4.0 * norm * (n * (1.0 - alpha)) ** (1.0 / p - 1.0)
        assert b.leading == pytest.approx(direct, rel=1e-10)
        assert b.higher_order == pytest.approx(
            4.0 * norm * (n * (1.0 - alpha)) ** (2.0 / p - 2.0), rel=1e-10)


F15 = FunctionClass(p=1.5, norm_p=1.0)


@pytest.mark.parametrize("evaluate, product", [
    (lambda: uniform_error_bound(1e-200, make_chain(gap=1e-200, alpha=0.9),
                                 F15), "n * gap"),
    (lambda: uniform_error_bound(5e-324, make_chain(gap=1.0, alpha=0.9),
                                 F15), "n * (1 - alpha)"),
    (lambda: uniform_endpoint_bounds(1e-300, 0.0,
                                     make_chain(gap=1e-300, alpha=0.9)),
     "n * gap"),
    (lambda: uniform_endpoint_bounds(5e-324, 0.0,
                                     make_chain(gap=1.0, alpha=0.9)),
     "n * (1 - alpha)"),
    (lambda: gap_error_bound(1e-200, 0.1, 1e-200, F15), "n * gap"),
    (lambda: gap_endpoint_bounds(1e-300, 0.0, 1e-300, 1.0, 1.1, 2.2),
     "n * gap"),
    (lambda: gap_burnin(1e-16, 1e-320, 10.0), "delta * gap"),
], ids=["uniform-gap", "uniform-alpha", "uniform-endpoints-gap",
        "uniform-endpoints-alpha", "gap", "gap-endpoints", "gap-burnin"])
def test_underflowing_product_is_numerical_error(evaluate, product):
    # each product is raised to a negative power or divided by
    with pytest.raises(NumericalError, match=f"^{re.escape(product)} "
                                             f"underflows to 0$"):
        evaluate()


F2 = FunctionClass(p=2.0, norm_p=1.0)


@pytest.mark.parametrize("evaluate, power", [
    (lambda: uniform_error_bound(1e-310, make_chain(gap=1.0, alpha=0.0),
                                 F2), "n * (1 - alpha) to the power -1"),
    (lambda: gap_error_bound(1e-320, 1e-6, 1.0, F2),
     "n * gap to the power -0.999999"),
], ids=["uniform", "gap"])
def test_overflowing_power_is_numerical_error(evaluate, power):
    # a subnormal product is nonzero, but its negative power overflows
    with pytest.raises(NumericalError, match=f"^{re.escape(power)} "
                                             f"overflows$"):
        evaluate()


@pytest.mark.parametrize("n", [1e-300, 1e-150, 1.0, 1e300])
def test_finite_powers_of_small_products_are_unchanged(n):
    # the largest finite powers just below overflow print as before
    chain = make_chain(gap=1.0, alpha=0.0)
    b = uniform_error_bound(n, chain, F2)
    assert b.leading == 4.0 * n ** -0.5
    assert b.higher_order == 4.0 * n ** -1.0
    g = gap_error_bound(n, 1e-6, 1.0, F2)
    assert g.higher_order == 8.0 * n ** (2.0 * (1.0 + 1e-6) / 2.0 - 2.0)
