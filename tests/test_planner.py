"""Oracle tests for budget planning: bound inversion, the closed-form
slack heuristic, numerical slack optimization, and the bundled reference
table.

The gap-regime bound has an analytic inverse (solve the quadratic in
``u = (n*gap)**-a``), which serves as an independent oracle for the
bisection-based planner throughout this file.
"""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from mcmc_budget.bounds import FunctionClass, gap_burnin, gap_error_bound, \
    uniform_error_bound
from mcmc_budget.exceptions import DomainError, NumericalError
from mcmc_budget.planner import (
    REFERENCE_TABLE,
    Budget,
    PlanRequest,
    budget_for_delta,
    budget_table,
    delta_hat,
    delta_star,
    plan_uniform,
    required_n,
)


def closed_form_n(epsilon, delta, gap, p, norm=1.0):
    """Analytic inverse of the gap-regime two-term bound."""
    u = (math.sqrt(64.0 + 32.0 * epsilon / norm) - 8.0) / 16.0
    a = (p - 1.0 - delta) / p
    return u ** (-1.0 / a) / gap


def gap_request(p, epsilon, gap=0.01, dratio=1e30, norm=1.0):
    return PlanRequest(epsilon=epsilon, gap=gap, dratio=dratio,
                       f=FunctionClass(p=p, norm_p=norm), regime="gap")


# ---------------------------------------------------------------------------
# bound inversion


class TestRequiredN:
    def test_two_term_hand_value(self):
        bound = lambda n: 8.0 / n**0.25 + 8.0 / n**0.5
        assert required_n(6.0, bound) == pytest.approx(16.0, rel=1e-6)

    def test_single_term_closed_form(self):
        gap = 0.01
        for a, eps in [(0.3, 0.5), (0.1, 0.02), (0.45, 1.3)]:
            bound = lambda n: 8.0 * (n * gap) ** (-a)
            want = (8.0 / eps) ** (1.0 / a) / gap
            got = required_n(eps, bound, n_lo=max(1.0, 1.0 / gap))
            assert got == pytest.approx(want, rel=1e-6)

    def test_already_satisfied_returns_floor(self):
        bound = lambda n: 8.0 / n**0.25 + 8.0 / n**0.5
        assert required_n(20.0, bound) == 1.0
        assert required_n(0.16, bound, n_lo=1e8) == 1e8

    def test_minimality_margin(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.uniform(0.05, 0.9)
            eps = 10.0 ** rng.uniform(-3, 0.5)
            bound = lambda n: 8.0 * n ** (-a)
            n = required_n(eps, bound)
            if n > 1.0:
                assert bound(n) <= eps
                assert bound(n * (1.0 - 1e-6)) > eps

    def test_nonconvergent_raises(self):
        with pytest.raises(NumericalError):
            required_n(0.5, lambda n: 1.0)

    def test_bad_epsilon(self):
        with pytest.raises(DomainError):
            required_n(0.0, lambda n: 1.0 / n)


# ---------------------------------------------------------------------------
# closed-form slack heuristic


class TestDeltaHat:
    # reference values from the bundled table (3 significant figures)
    @pytest.mark.parametrize("p,eps,want", [
        (1.5, 0.1, 1.08e-3),
        (1.3, 0.01, 1.73e-7),
        (1.1, 0.1, 8.64e-13),
        (1.3, 0.1, 3.06e-5),
        (1.3, 0.2, 1.48e-4),
        (1.3, 0.5, 1.21e-3),
    ])
    def test_reference_values(self, p, eps, want):
        assert delta_hat(p, eps, 1e30) == pytest.approx(want, rel=5e-3)

    def test_matches_direct_formula(self):
        # the implementation works in log space; cross-check against the
        # naive evaluation wherever that does not overflow
        for p in (1.05, 1.1, 1.3, 1.5, 1.9):
            for eps in (0.01, 0.1, 0.5, 1.0):
                for dratio in (1.0, 1e10, 1e30):
                    direct = math.sqrt((p - 1.0) / p) * math.sqrt(
                        math.log(64.0 * dratio)
                        / ((16.0 / eps) ** (p / (p - 1.0))
                           * math.log(16.0 / eps)))
                    got = delta_hat(p, eps, dratio)
                    assert got == pytest.approx(direct, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            delta_hat(2.0, 0.1, 1e30)
        with pytest.raises(DomainError):
            delta_hat(1.0, 0.1, 1e30)
        with pytest.raises(DomainError):
            delta_hat(1.5, 0.0, 1e30)
        with pytest.raises(DomainError):
            delta_hat(1.5, 1.5, 1e30)
        with pytest.raises(DomainError):
            delta_hat(1.5, 0.1, 0.0)
        with pytest.raises(DomainError):
            # log(64 * dratio) must be positive
            delta_hat(1.5, 0.1, 1.0 / 128.0)


# ---------------------------------------------------------------------------
# budgets at fixed slack


class TestBudgetForDelta:
    def test_stationary_start(self):
        req = gap_request(1.5, 0.1, dratio=0.0)
        b = budget_for_delta(1e-3, req)
        assert b.n0 == 0.0
        assert b.total == b.n

    def test_matches_closed_form(self):
        for p, eps, delta in [(1.5, 0.1, 1.08e-3), (1.3, 0.1, 3.06e-5),
                              (1.7, 0.35, 0.2), (1.2, 0.9, 1e-4)]:
            req = gap_request(p, eps)
            b = budget_for_delta(delta, req)
            assert b.n == pytest.approx(closed_form_n(eps, delta, 0.01, p),
                                        rel=1e-6)
            assert b.n0 == gap_burnin(delta, 0.01, 1e30)
            assert b.total == b.n + b.n0

    def test_reference_total_heuristic_p15(self):
        b = budget_for_delta(1.08e-3, gap_request(1.5, 0.1))
        assert b.total == pytest.approx(6.21e7, rel=0.02)

    def test_reference_total_heuristic_p13(self):
        b = budget_for_delta(3.06e-5, gap_request(1.3, 0.1))
        assert b.total == pytest.approx(1.89e10, rel=0.02)

    def test_feasibility_and_minimality(self):
        req = gap_request(1.4, 0.25)
        b = budget_for_delta(2e-4, req)
        f = req.f
        assert gap_error_bound(b.n, 2e-4, req.gap, f).total <= req.epsilon
        assert gap_error_bound(b.n * (1 - 1e-6), 2e-4, req.gap, f).total \
            > req.epsilon

    def test_scale_equivariance(self):
        base = budget_for_delta(1e-3, gap_request(1.5, 0.1, norm=1.0))
        scaled = budget_for_delta(1e-3, gap_request(1.5, 0.3, norm=3.0))
        assert scaled.n == pytest.approx(base.n, rel=1e-9)

    def test_overflowing_budget_raises(self):
        # near delta = p - 1 the root lies far beyond 1e300; a numpy slack
        # (as on delta_star's grid) must give NumericalError, not inf with
        # an overflow warning
        req = gap_request(1.1, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                budget_for_delta(np.float64(0.1 * (1.0 - 1e-9)), req)

    @pytest.mark.parametrize("gap, delta", [
        (1e-310, 0.3),   # n_lo = 1/gap overflows: n0 and n are inf
        (0.01, 1e-320),  # the burn-in ln(64 dratio/delta)/(delta gap)
    ])
    def test_non_finite_budget_raises(self, gap, delta):
        req = gap_request(1.5, 0.1, gap=gap)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows"):
                budget_for_delta(delta, req)

    def test_non_finite_uniform_budget_raises(self):
        req = PlanRequest(epsilon=0.1, gap=1e-310, dratio=1e30,
                          f=FunctionClass(p=1.5, norm_p=1.0),
                          regime="uniform", alpha=0.5, big_m=1.0)
        with pytest.raises(NumericalError, match="overflows"):
            plan_uniform(req)

    def test_budget_rejects_non_finite_lengths(self):
        with pytest.raises(NumericalError):
            Budget(delta=0.1, n0=math.inf, n=1.0, total=math.inf,
                   epsilon=0.1)

    def test_overflowing_slacks_are_infeasible_without_warning(self):
        # every slack on delta_star's numpy grid overflows at this gap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="no feasible delta"):
                delta_star(gap_request(1.5, 0.1, gap=1e-300))

    def test_slack_out_of_range(self):
        req = gap_request(1.5, 0.1)
        with pytest.raises(DomainError):
            budget_for_delta(0.5, req)  # needs delta < p - 1
        with pytest.raises(DomainError):
            budget_for_delta(0.0, req)

    def test_wrong_regime(self):
        req = PlanRequest(epsilon=0.1, gap=0.5, dratio=1.0,
                          f=FunctionClass(p=1.5, norm_p=1.0),
                          regime="uniform", alpha=0.5, big_m=1.0)
        with pytest.raises(DomainError):
            budget_for_delta(1e-3, req)


# ---------------------------------------------------------------------------
# slack optimization


class TestDeltaStar:
    @pytest.mark.parametrize("p,eps,want_delta,want_total", [
        (1.3, 0.1, 8.39e-5, 1.88e10),
        (1.5, 0.1, 2.31e-3, 5.99e7),
        (1.3, 0.01, 4.90e-7, 3.82e14),
    ])
    def test_reference_values(self, p, eps, want_delta, want_total):
        d, b = delta_star(gap_request(p, eps))
        assert d == pytest.approx(want_delta, rel=0.02)
        assert b.total == pytest.approx(want_total, rel=0.02)
        assert b.delta == d

    def test_never_beaten_by_heuristic_neighborhood(self):
        for p, eps in [(1.3, 0.1), (1.5, 0.1), (1.3, 0.5), (1.7, 0.05)]:
            req = gap_request(p, eps)
            _, best = delta_star(req)
            dh = delta_hat(p, eps, req.dratio)
            for trial in (dh, 10.0 * dh, dh / 10.0):
                if 0.0 < trial < min(1.0, p - 1.0):
                    other = budget_for_delta(trial, req)
                    assert best.total <= other.total * (1.0 + 1e-12)

    def test_deterministic(self):
        req = gap_request(1.4, 0.2)
        assert delta_star(req) == delta_star(req)


# ---------------------------------------------------------------------------
# uniform-regime planning


class TestPlanUniform:
    def test_trivial_instance(self):
        req = PlanRequest(epsilon=8.0, gap=1.0, dratio=0.0,
                          f=FunctionClass(p=2.0, norm_p=1.0),
                          regime="uniform", alpha=0.0, big_m=1.0)
        b = plan_uniform(req)
        assert b.n == 1.0
        assert b.n0 == 0.0
        assert b.delta is None

    def test_inverts_hand_value(self):
        req = PlanRequest(epsilon=0.88, gap=0.25, dratio=1.0,
                          f=FunctionClass(p=2.0, norm_p=1.0),
                          regime="uniform", alpha=0.5, big_m=1.0)
        b = plan_uniform(req)
        assert b.n == pytest.approx(100.0, rel=1e-6)
        assert b.n0 == pytest.approx(math.log(2.0) / 0.5, rel=1e-12)
        assert b.total == b.n + b.n0

    def test_feasibility_and_minimality(self):
        from mcmc_budget.bounds import ChainParams
        req = PlanRequest(epsilon=0.05, gap=0.3, dratio=100.0,
                          f=FunctionClass(p=1.8, norm_p=2.0),
                          regime="uniform", alpha=0.7, big_m=1.5)
        b = plan_uniform(req)
        chain = ChainParams(gap=0.3, alpha=0.7, big_m=1.5, dratio=100.0)
        assert uniform_error_bound(b.n, chain, req.f).total <= req.epsilon
        assert uniform_error_bound(b.n * (1 - 1e-6), chain, req.f).total \
            > req.epsilon

    def test_requires_uniform_constants(self):
        with pytest.raises(DomainError):
            PlanRequest(epsilon=0.1, gap=0.5, dratio=1.0,
                        f=FunctionClass(p=1.5, norm_p=1.0), regime="uniform")

    def test_wrong_regime(self):
        req = gap_request(1.5, 0.1)
        with pytest.raises(DomainError):
            plan_uniform(req)


def test_plan_request_validation():
    f = FunctionClass(p=1.5, norm_p=1.0)
    with pytest.raises(DomainError):
        PlanRequest(epsilon=-1.0, gap=0.5, dratio=1.0, f=f, regime="gap")
    with pytest.raises(DomainError):
        PlanRequest(epsilon=0.1, gap=0.5, dratio=1.0, f=f, regime="bogus")


def test_budget_validation():
    with pytest.raises(DomainError):
        Budget(delta=0.1, n0=-1.0, n=10.0, total=9.0, epsilon=0.1)
    with pytest.raises(DomainError):
        Budget(delta=0.1, n0=1.0, n=10.0, total=12.0, epsilon=0.1)
    b = Budget(delta=None, n0=1.0, n=10.0, total=11.0, epsilon=0.1)
    assert b.delta is None


# ---------------------------------------------------------------------------
# reference table


class TestReferenceTable:
    def test_six_rows_with_expected_settings(self):
        assert len(REFERENCE_TABLE) == 6
        assert [(r.p, r.epsilon) for r in REFERENCE_TABLE] == [
            (1.1, 0.1), (1.3, 0.1), (1.5, 0.1),
            (1.3, 0.01), (1.3, 0.2), (1.3, 0.5)]
        assert all(r.gap == 0.01 and r.dratio == 1e30
                   for r in REFERENCE_TABLE)

    def test_suspect_cell_is_marked(self):
        flagged = {(r.p, r.epsilon, cell)
                   for r in REFERENCE_TABLE for cell in r.suspect_cells}
        assert flagged == {(1.1, 0.1, "delta_star"), (1.3, 0.5, "total_hat")}

    def test_budget_table_structure(self):
        rows = budget_table()
        assert len(rows) == 6
        for row, ref in zip(rows, REFERENCE_TABLE):
            assert (row.p, row.epsilon) == (ref.p, ref.epsilon)
            assert row.ref_delta_hat == ref.delta_hat
            assert row.dev_delta_hat == pytest.approx(
                abs(row.delta_hat - ref.delta_hat) / ref.delta_hat, rel=1e-12)
            assert row.suspect_cells == ref.suspect_cells
            # the budgets behind the row are reproducible one-offs
            req = gap_request(row.p, row.epsilon)
            assert row.total_hat == pytest.approx(
                budget_for_delta(row.delta_hat, req).total, rel=1e-9)

    def test_heuristic_quality_on_unflagged_rows(self):
        for row in budget_table():
            if "total_hat" in row.suspect_cells:
                continue
            assert row.total_star <= row.total_hat * (1.0 + 1e-12)
            assert row.total_hat <= 1.10 * row.total_star

    def test_flagged_row_reports_both_values(self):
        row = [r for r in budget_table()
               if "total_hat" in r.suspect_cells][0]
        # computed value is an order of magnitude above the recorded one
        assert row.total_hat / row.ref_total_hat > 5.0
