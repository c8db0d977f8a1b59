"""Tests for the validation suites at reduced scale.

Full-scale protocol runs live in the acceptance suite; here the same code
paths are exercised with small grids and replication counts, plus the
report plumbing (schema, determinism, chain resolution).
"""
from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from mcmc_budget.chains import (FiniteChain, InitialDistribution,
                                SingularFunction, finite_model, make_chain)
from mcmc_budget import chains, estimator, validate
from mcmc_budget.estimator import estimate_e1, exact_e1_small
from mcmc_budget.estimator import _exact_e1 as exact_e1
from mcmc_budget.exceptions import ChainValidationError, DomainError
from mcmc_budget.validate import (
    CSV_COLUMNS,
    ValidationReport,
    bound_dominance_suite,
    constants_suite,
    oracle_suite,
    _point_mass_rebind,
    rate_suite,
    resolve_model,
)


class TestResolveModel:
    def test_zoo_name(self):
        assert resolve_model("two-state").name == "two-state"

    def test_json_path(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(
            {"matrix": [[0.9, 0.1], [0.2, 0.8]], "reversible": True}))
        model = resolve_model(str(path))
        assert model.params.gap == pytest.approx(0.3, rel=1e-12)

    def test_bad_json_names_invariant(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"matrix": [[0.9, 0.2], [0.2, 0.8]]}))
        with pytest.raises(ChainValidationError, match="rows sum to 1"):
            resolve_model(str(path))

    def test_unknown_name(self):
        with pytest.raises(DomainError, match="unknown chain"):
            resolve_model("three-state")

    def test_a_name_resolves_to_one_model(self):
        assert resolve_model("lazy-cycle-3") is resolve_model("lazy-cycle-3")
        assert resolve_model("two-state") is not resolve_model("lazy-cycle-3")

    def test_make_chain_builds_a_fresh_model(self):
        first, second = make_chain("two-state"), make_chain("two-state")
        assert first is not second and first.chain is not second.chain
        assert resolve_model("two-state") not in (first, second)

    def test_a_rewritten_json_file_gives_the_new_chain(self, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"matrix": [[0.9, 0.1], [0.2, 0.8]]}))
        before = resolve_model(str(path))
        path.write_text(json.dumps({"matrix": [[0.5, 0.5], [0.5, 0.5]]}))
        after = resolve_model(str(path))
        assert after is not before
        assert after.chain.transition.tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_the_oldest_model_is_released(self):
        validate._zoo_model.cache_clear()
        # maxsize + 1 names
        names = [f"lazy-cycle-{size}"
                 for size in range(3, 4 + validate._ZOO_MODELS)]
        oldest = weakref.ref(resolve_model(names[0]))
        for name in names[1:-1]:
            resolve_model(name)
        gc.collect()
        assert oldest() is not None
        resolve_model(names[-1])
        gc.collect()
        assert oldest() is None


class TestConstantsSuite:
    def test_zoo_passes(self):
        for chain in ("two-state", "lazy-cycle-3", "lazy-cycle-4",
                      "lazy-cycle-5"):
            report = constants_suite(chain)
            assert report.passed
            assert report.details["chains"] == [chain]
            checks = {row.check for row in report.rows}
            assert checks == {"gap-vs-alpha", "tv-certification",
                              "detailed-balance-powers"}
            assert all(tuple(row.as_dict()) == CSV_COLUMNS
                       for row in report.rows)

    def test_rejects_continuous(self):
        with pytest.raises(DomainError, match="finite"):
            constants_suite(chain="iid-uniform")

    def test_detailed_balance_can_fail_on_a_power(self):
        # pi = pi* + delta * (1, -1) leaves a flow asymmetry of delta * s
        # in P and delta * s * (2 - s) in P @ P, with s = P01 + P10 = 0.3:
        # 9e-11 passes the chain's 1e-10 checks, 1.53e-10 does not
        delta = 9e-11 / 0.3
        chain = FiniteChain([[0.9, 0.1], [0.2, 0.8]],
                            [2 / 3 + delta, 1 / 3 - delta], reversible=True)
        report = constants_suite(finite_model(chain))
        verdicts = {row.check: row.passed for row in report.rows}
        assert verdicts["detailed-balance-powers"] is False
        assert not report.passed

    # two-state's ratio scan stops at a distance below the resolution floor,
    # lazy-cycle-50's runs the whole horizon; the certification reads on.
    # The dense chain is CI's: symmetric weights normalised by row
    @pytest.mark.parametrize("chain", ["two-state", "lazy-cycle-50",
                                       "dense-40"])
    def test_one_tv_scan_per_suite(self, chain):
        if chain == "dense-40":
            weights = np.random.default_rng(7).random((40, 40))
            weights += weights.T
            model = finite_model(FiniteChain.from_matrix(
                weights / weights.sum(axis=1, keepdims=True)))
        else:
            model = make_chain(chain)
        kept = model.chain
        assert constants_suite(model).passed
        assert len(kept._tvs) == chains._TV_HORIZON
        power = kept._power
        assert constants_suite(model).passed
        assert kept._power is power and len(kept._tvs) == chains._TV_HORIZON
        want, power = [], np.eye(kept.size)
        for _ in range(chains._TV_HORIZON):
            power = power @ kept.transition
            want.append(
                0.5 * np.abs(power - kept.stationary).sum(axis=1).max())
        assert kept._tvs == want
        assert list(kept._worst_start_tvs()) == want


def _random_reversible(seed, size):
    """A dense random reversible chain: symmetric weights, by row."""
    weights = np.random.default_rng(seed).random((size, size))**3
    weights += weights.T
    return finite_model(FiniteChain.from_matrix(
        weights / weights.sum(axis=1, keepdims=True)))


def _oracle_models(chain):
    """The models behind one name of the oracle's bit-identity tests."""
    if chain == "dense-40":   # CI's dense chain
        weights = np.random.default_rng(7).random((40, 40))
        weights += weights.T
        return [finite_model(FiniteChain.from_matrix(
            weights / weights.sum(axis=1, keepdims=True)))]
    if chain == "random-12":
        return [_random_reversible(12, 12)]
    if chain == "random-2-5":
        return [_random_reversible(seed, 2 + seed % 4) for seed in range(20)]
    return [make_chain(chain)]


def _exact_values(report):
    """The exact value of each oracle row, by window."""
    return {(row.n, row.n0): row.bound_total for row in report.rows}


def _per_burnin_values(model, max_total):
    """The oracle's exact values by one ``exact_e1_small`` per burn-in."""
    model = _point_mass_rebind(model)
    values = np.arange(model.chain.size, dtype=float)
    return {(n, n0): float(e1)
            for n0 in range(max_total)
            for n, e1 in enumerate(exact_e1_small(
                model.chain, model.nu, values, max_total - n0, n0), start=1)}


class TestOracleSuite:
    def test_small_scale_passes(self):
        for chain in ("two-state", "lazy-cycle-3"):
            report = oracle_suite(chain, max_total=4, replications=20_000,
                                  master_seed=31)
            assert isinstance(report, ValidationReport)
            assert report.passed
            # instances: (n, n0) with n >= 1, n + n0 <= 4
            assert report.details["instances"] == 10
            for row in report.rows:
                assert row.bound_total is not None  # carries the exact value
                assert (abs(row.e1_hat - row.bound_total)
                        <= 4 * row.uncertainty + 1e-12)

    def test_rejects_unknown_start(self):
        with pytest.raises(DomainError, match="start"):
            oracle_suite(max_total=3, replications=100, start="bogus")

    @pytest.mark.parametrize("chain", ["no-such-chain", "iid-uniform"])
    def test_checks_start_before_any_chain(self, chain):
        with pytest.raises(DomainError, match="start"):
            oracle_suite(chain=chain, start="bogus")

    def test_one_exact_recursion_per_suite(self, monkeypatch):
        calls = []

        def counting_exact(chain, starts, f_values, n):
            calls.append((len(starts), n))
            return exact_e1(chain, starts, f_values, n)

        monkeypatch.setattr(estimator, "_exact_e1", counting_exact)
        report = oracle_suite("lazy-cycle-3", max_total=4,
                              replications=500)
        assert calls == [(4, 4)]
        assert [(row.n, row.n0) for row in report.rows] == [
            (n, n0) for n0 in range(4) for n in range(1, 5 - n0)]
        assert all(type(row.passed) is bool for row in report.rows)

    @pytest.mark.parametrize("max_total", [1, 3, 8])
    @pytest.mark.parametrize("chain", ["two-state", "lazy-cycle-3",
                                       "lazy-cycle-8", "lazy-cycle-50",
                                       "dense-40", "random-12",
                                       "random-2-5"])
    def test_exact_values_are_the_per_burnin_recursions(self, chain,
                                                        max_total):
        for model in _oracle_models(chain):
            report = oracle_suite(model, max_total=max_total,
                                  replications=2)
            assert _exact_values(report) == _per_burnin_values(model,
                                                               max_total)

    def test_a_small_chunk_splits_the_burnins(self, monkeypatch):
        calls = []

        def counting_exact(chain, starts, f_values, n):
            calls.append(len(starts))
            return exact_e1(chain, starts, f_values, n)

        monkeypatch.setattr(estimator, "_exact_e1", counting_exact)
        model = make_chain("lazy-cycle-8")
        whole = _exact_values(oracle_suite(model, replications=2))
        assert calls == [8]
        # one burn-in's mass: 8 states x (8 * 7 + 1) sums at n0 = 0,
        # 8 x (6 * 7 + 1) at n0 = 2, 8 x (4 * 7 + 1) at n0 = 4
        for chunk, groups in ((1000, [2, 2, 4]), (1, [1] * 8)):
            calls.clear()
            report = oracle_suite(model, replications=2,
                                  chunk_elements=chunk)
            assert calls == groups
            assert _exact_values(report) == whole
        assert whole == _per_burnin_values(model, 8)

    def test_deterministic(self):
        a = oracle_suite(max_total=3, replications=5000, master_seed=77)
        b = oracle_suite(max_total=3, replications=5000, master_seed=77)
        assert [r.e1_hat for r in a.rows] == [r.e1_hat for r in b.rows]


class TestBoundDominanceSuite:
    def test_uniform_regime_small(self):
        report = bound_dominance_suite(n_grid=(10, 100), replications=2000,
                                       master_seed=12)
        assert report.passed
        assert report.details["n0"] >= 1  # point-mass start forces burn-in
        for row in report.rows:
            assert row.e1_hat <= row.bound_total + 4 * row.uncertainty

    def test_gap_regime_small(self):
        report = bound_dominance_suite(regime="gap", n_grid=(10, 100),
                                       replications=2000, master_seed=12)
        assert report.passed
        assert report.details["delta"] == 0.5

    def test_gap_regime_needs_admissible_p(self):
        with pytest.raises(DomainError, match="p > 1"):
            bound_dominance_suite(regime="gap", p=1.4, delta=0.5,
                                  n_grid=(10,), replications=100)

    def test_stationary_start_has_no_burnin(self):
        report = bound_dominance_suite(start="stationary", n_grid=(10,),
                                       replications=500, master_seed=4)
        assert report.details["n0"] == 0

    def test_rejects_an_empty_grid(self):
        with pytest.raises(DomainError, match="at least one window"):
            bound_dominance_suite(n_grid=(), replications=100)

    def test_rejects_unknown_regime(self):
        with pytest.raises(DomainError, match="regime"):
            bound_dominance_suite(regime="eq9", n_grid=(10,),
                                  replications=100)

    def test_point_mass_restart_keeps_the_chain_constants(self):
        base = make_chain("lazy-cycle-7")
        model = _point_mass_rebind(base)
        state = int(np.argmin(base.chain.stationary))
        want = finite_model(base.chain,
                            InitialDistribution.point_mass(state, base.chain))
        assert model.params == want.params
        assert model.params.dratio == pytest.approx(6.0, rel=1e-12)
        assert np.array_equal(model.nu.nu, want.nu.nu)
        assert (model.chain, model.name) == (base.chain, base.name)

    def test_a_chain_runs_one_eigendecomposition(self, monkeypatch):
        # the constants are the chain's, computed once: not again for the
        # constants suite, the restart or a model rebuilt on the same chain
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(matrix):
            shapes.append(matrix.shape)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        model = make_chain("lazy-cycle-7")
        assert constants_suite(model).passed
        restarted = _point_mass_rebind(model)
        state = int(np.argmin(model.chain.stationary))
        rebuilt = finite_model(
            model.chain, InitialDistribution.point_mass(state, model.chain))
        assert rebuilt.params == restarted.params
        assert shapes == [(7, 7)]


class TestRateSuite:
    def test_small_scale_passes(self):
        report = rate_suite(n_grid=(100, 400, 1600, 6400),
                            replications=3000, master_seed=8)
        assert report.passed
        window = report.details["window"]
        assert window[0] == pytest.approx(-0.40)
        assert window[1] == pytest.approx(1 / 1.5 - 1 + 0.05)
        assert window[0] <= report.details["slope"] <= window[1]
        assert report.details["r_squared"] >= 0.98

    def test_rejects_finite_chain(self):
        with pytest.raises(DomainError, match="continuous"):
            rate_suite(chain="two-state", n_grid=(10, 20, 40, 80),
                       replications=100)

    def test_divergent_moment_rejected(self):
        with pytest.raises(Exception, match="diverges"):
            rate_suite(gamma=0.8, p=1.5, n_grid=(10, 20, 40, 80),
                       replications=100)


class TestOnePassPerGrid:
    """A suite's single pass over its grid equals one pass per grid point."""

    # the longest walk then runs in equal chunks of 100/100/101 (dominance)
    # and 10/11/10/11/11 (rate) replications; the shorter ones in one chunk
    CHUNK = 123_457

    def test_bound_dominance_rows(self):
        report = bound_dominance_suite(n_grid=(10, 100, 1000),
                                       replications=301, master_seed=3,
                                       chunk_elements=self.CHUNK)
        base = make_chain("two-state")
        # the suite restarts from the least likely state, state 1
        model = finite_model(base.chain,
                             InitialDistribution.point_mass(1, base.chain))
        assert [row.n for row in report.rows] == [10, 100, 1000]
        for row in report.rows:
            est = estimate_e1(model, np.arange(2.0), row.n, row.n0, 301, 3,
                              self.CHUNK)
            assert (row.e1_hat, row.uncertainty) == \
                (est.e1_hat, est.uncertainty)

    def test_rate_rows(self):
        report = rate_suite(n_grid=(10, 100, 1000, 10000), replications=53,
                            master_seed=3, chunk_elements=self.CHUNK)
        rows = [row for row in report.rows if row.n is not None]
        assert [row.n for row in rows] == [10, 100, 1000, 10000]
        for row in rows:
            est = estimate_e1(make_chain("iid-uniform"),
                              SingularFunction(0.65), row.n, 0, 53, 3,
                              self.CHUNK)
            assert (row.e1_hat, row.uncertainty) == \
                (est.e1_hat, est.uncertainty)
