"""Oracle tests for the Monte Carlo error estimator.

Hand-enumerable instances on the two-state chain anchor everything: with
f = (0, 1) and a stationary start the absolute mean error at n=1 is
(2/3)|0 - 1/3| + (1/3)|1 - 1/3| = 4/9, and at n=2 summing the four paths
gives exactly 0.4.  Replications use counter-based per-index streams, so
every value here is reproducible bit for bit regardless of chunking.
"""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mcmc_budget.bounds import (
    FunctionClass,
    gap_burnin,
    gap_error_bound,
    refined_gap_bound,
    refined_uniform_bound,
    uniform_burnin,
    uniform_error_bound,
)
from mcmc_budget.chains import (
    FiniteChain,
    InitialDistribution,
    _batch_states,
    _ReplicationStreams,
    finite_model,
    make_chain,
    simulate_trajectory,
    singular_f,
)
from mcmc_budget.estimator import (
    DEFAULT_CHUNK_ELEMENTS,
    ErrorEstimate,
    RateFit,
    estimate_e1,
    estimate_e1_windows,
    exact_e1_small,
    rate_regression,
    _deviations,
    _estimates,
)
from mcmc_budget.exceptions import DomainError
from mcmc_budget.validate import _point_mass_rebind

TWO_STATE = [[0.9, 0.1], [0.2, 0.8]]
F01 = np.array([0.0, 1.0])


def two_state_model(nu_state=None):
    chain = FiniteChain.from_matrix(TWO_STATE)
    if nu_state is None:
        nu = InitialDistribution.stationary(chain)
    else:
        nu = InitialDistribution.point_mass(nu_state, chain)
    return finite_model(chain, nu, name="two-state")


@st.composite
def reversible_chains(draw, max_size):
    """A random reversible chain from sparse symmetric integer weights.

    A path of positive weights keeps it irreducible and positive holding
    weights keep it aperiodic; other pairs are mostly unconnected.
    """
    size = draw(st.integers(2, max_size))
    weights = np.diag([float(draw(st.integers(1, 4))) for _ in range(size)])
    for i in range(size):
        for j in range(i + 1, size):
            weights[i, j] = weights[j, i] = draw(
                st.integers(1, 4) if j == i + 1
                else st.sampled_from([0, 0, 0, 1, 3]))
    return FiniteChain.from_matrix(weights / weights.sum(axis=1,
                                                         keepdims=True))


def reference_deviations(model, f, windows, replications, seed):
    """``|S - mu|`` by the definition: the mean of ``f`` over each window
    of the float walk ``f[states]``."""
    f = np.asarray(f, dtype=float)
    length = max(n + n0 for n, n0 in windows)
    states = _batch_states(model.chain, model.nu, _ReplicationStreams(
        seed, 0, replications).uniforms(length))
    walk = f[states]
    mu = model.expectation(f)
    return np.array([np.abs(walk[:, n0:n0 + n].mean(axis=1) - mu)
                     for n, n0 in windows])


# ---------------------------------------------------------------------------
# the sample mean of a simulated trajectory


class TestSampleMean:
    def test_long_run_stationary_frequency(self):
        model = two_state_model()
        trajectory = simulate_trajectory(model.chain, model.nu, 20000,
                                         seed=2024)
        mean = F01[trajectory[100:]].mean()
        # autocorrelation-adjusted standard error: var ~ (2/gap) Var(f)/n
        se = math.sqrt((2 / 0.3) * (2 / 9) / 19900)
        assert abs(mean - 1 / 3) < 4 * se


# ---------------------------------------------------------------------------
# deviation vectors and ErrorEstimate


class TestErrorEstimate:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ErrorEstimate(e1_hat=-0.1, uncertainty=0.0, replications=4,
                          n=1, n0=0)
        with pytest.raises(DomainError):
            ErrorEstimate(e1_hat=0.1, uncertainty=0.0, replications=1,
                          n=1, n0=0)
        with pytest.raises(DomainError):
            ErrorEstimate(e1_hat=0.1, uncertainty=-1.0, replications=4,
                          n=1, n0=0)


class TestAbsDeviations:
    def test_two_state_support(self):
        # at n=1 the deviation is |f(X) - 1/3|, either 1/3 or 2/3 exactly
        devs = _deviations(two_state_model(), F01, [(1, 0)], 256, 11,
                           DEFAULT_CHUNK_ELEMENTS)[0]
        assert devs.shape == (256,)
        assert set(np.round(devs, 12)) <= {round(1 / 3, 12), round(2 / 3, 12)}

    def test_chunking_is_invisible(self):
        model = two_state_model()
        big = _deviations(model, F01, [(3, 2)], 500, 7, 10**6)[0]
        tiny = _deviations(model, F01, [(3, 2)], 500, 7, 16)[0]
        assert np.array_equal(big, tiny)

    def test_single_replication_stream(self):
        # replication r must consume exactly the stream derived for index r
        model = two_state_model()
        devs = _deviations(model, F01, [(1, 0)], 8, 77,
                           DEFAULT_CHUNK_ELEMENTS)[0]
        mu = model.expectation(F01)
        cum_first = float(np.cumsum(model.nu.nu)[0])
        for rep in (0, 3, 7):
            seq = np.random.SeedSequence(entropy=77, spawn_key=(rep,))
            u = np.random.Generator(np.random.Philox(seq)).random()
            state = int(u > cum_first)
            assert devs[rep] == abs(F01[state] - mu)


class TestEstimateE1Windows:
    def test_bit_identical_to_individual_calls(self):
        # Shared draws must reproduce the per-window results exactly: a
        # shorter trajectory is a prefix of a longer one on the same stream.
        model = two_state_model()
        windows = [(1, 0), (3, 2), (4, 4), (2, 1), (8, 0)]
        shared = estimate_e1_windows(model, F01, windows, replications=500,
                                     master_seed=11)
        for (n, n0), est in zip(windows, shared):
            assert est == estimate_e1(model, F01, n, n0, replications=500,
                                      master_seed=11)

    def test_bit_identical_for_metropolis_sampler(self):
        sampler = make_chain("indep-mh-2x")
        f = singular_f(0.4)
        windows = [(2, 0), (5, 3), (1, 6)]
        shared = estimate_e1_windows(sampler, f, windows, replications=300,
                                     master_seed=7)
        for (n, n0), est in zip(windows, shared):
            assert est == estimate_e1(sampler, f, n, n0, replications=300,
                                      master_seed=7)

    @pytest.mark.parametrize("replications", [2, 7, 37, 20011])
    def test_batched_reduction_is_the_per_window_definition(self,
                                                            replications):
        # every window with n + n0 <= 8, as the oracle suite asks for them;
        # 37 and 20011 replications split into blocks of unequal size
        model = make_chain("lazy-cycle-3")
        f = np.array([0.0, 1.0, 5.0])
        windows = [(n, n0) for n in range(1, 9) for n0 in range(9 - n)]
        batched = estimate_e1_windows(model, f, windows, replications, 3)
        for (n, n0), est in zip(windows, batched):
            assert est == estimate_e1(model, f, n, n0, replications, 3)
            devs = _deviations(model, f, [(n, n0)], replications, 3,
                               DEFAULT_CHUNK_ELEMENTS)[0]
            means = [np.mean(block) for block in
                     np.array_split(devs, min(20, replications))]
            q1, q3 = np.percentile(means, [25.0, 75.0])
            assert est.e1_hat == np.mean(devs)
            assert est.uncertainty == 0.5 * (q3 - q1)

    def test_rejects_empty_and_bad_windows(self):
        model = two_state_model()
        with pytest.raises(DomainError):
            estimate_e1_windows(model, F01, [], replications=10,
                                master_seed=0)
        with pytest.raises(DomainError):
            estimate_e1_windows(model, F01, [(0, 0)], replications=10,
                                master_seed=0)
        with pytest.raises(DomainError):
            estimate_e1_windows(model, F01, [(1, -1)], replications=10,
                                master_seed=0)


class TestIntegerWalks:
    """An integer-valued ``f`` is reduced from exact partial sums of an
    int64 walk; the results must be those of the float definition."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), chain=reversible_chains(6),
           point_mass=st.booleans(),
           chunk_elements=st.sampled_from([DEFAULT_CHUNK_ELEMENTS, 101]))
    def test_bit_identical_to_the_float_definition(self, data, chain,
                                                   point_mass,
                                                   chunk_elements):
        # walks are at most 60 long, so |f| <= 2**47 keeps every partial
        # sum below 2**53: the widest values the integer route takes
        size = chain.size
        f = np.array(data.draw(st.one_of(
            st.just(list(range(size))),
            st.integers(-9, 9).map(lambda c: [c] * size),
            st.lists(st.integers(-2**47, 2**47), min_size=size,
                     max_size=size),
            st.lists(st.integers(-3, 3), min_size=size, max_size=size))),
            dtype=float)
        windows = data.draw(st.lists(
            st.tuples(st.integers(1, 40), st.integers(0, 20)),
            min_size=1, max_size=5))
        replications = data.draw(st.integers(2, 40))
        seed = data.draw(st.integers(0, 2**32))
        nu = (InitialDistribution.point_mass(
            int(np.argmin(chain.stationary)), chain) if point_mass
            else InitialDistribution.stationary(chain))
        model = finite_model(chain, nu)
        walk = model.batch_values(f, 3, _ReplicationStreams(seed, 0, 2))
        assert walk.dtype == np.int64
        reference = reference_deviations(model, f, windows, replications,
                                         seed)
        got = _deviations(model, f, windows, replications, seed,
                          chunk_elements)
        assert got.tobytes() == reference.tobytes()
        assert estimate_e1_windows(model, f, windows, replications, seed,
                                   chunk_elements) == _estimates(reference,
                                                                 windows)

    @pytest.mark.parametrize("f", [[0.0, 0.5], [0.0, 2.0**52], [0.0, 1e300]])
    @pytest.mark.parametrize("chunk_elements", [DEFAULT_CHUNK_ELEMENTS, 101])
    def test_other_values_take_the_float_walk(self, f, chunk_elements):
        # 1e300 is an integer too large for int64: a cast would raise a
        # RuntimeWarning, which the test configuration makes an error
        model = two_state_model(nu_state=1)
        walk = model.batch_values(np.array(f), 2,
                                  _ReplicationStreams(4, 0, 3))
        assert walk.dtype == np.float64
        windows = [(1, 0), (7, 3), (30, 0)]
        reference = reference_deviations(model, f, windows, 50, 4)
        got = _deviations(model, np.array(f), windows, 50, 4, chunk_elements)
        assert got.tobytes() == reference.tobytes()

    def test_a_chunk_holds_one_walk_matrix(self):
        # a float copy of the int64 walk would double the traced peak
        model = make_chain("two-state")
        tracemalloc.start()
        try:
            estimate_e1_windows(model, np.arange(2.0),
                                [(10, 20), (10000, 20)], 400, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 400 * 10020 * 8


class TestEstimateE1:
    def test_matches_deviation_mean_bitwise(self):
        model = two_state_model()
        est = estimate_e1(model, F01, n=2, n0=1, replications=400,
                          master_seed=5)
        devs = _deviations(model, F01, [(2, 1)], 400, 5,
                           DEFAULT_CHUNK_ELEMENTS)[0]
        assert est.e1_hat == np.mean(devs)
        assert est.replications == 400 and est.n == 2 and est.n0 == 1

    def test_constant_function_zero_error(self):
        est = estimate_e1(two_state_model(), np.array([2.0, 2.0]), n=4,
                          n0=0, replications=64, master_seed=1)
        assert est.e1_hat == 0.0
        assert est.uncertainty == 0.0

    def test_deterministic_across_chunk_sizes(self):
        model = two_state_model(nu_state=1)
        a = estimate_e1(model, F01, n=5, n0=3, replications=300,
                        master_seed=9, chunk_elements=40)
        b = estimate_e1(model, F01, n=5, n0=3, replications=300,
                        master_seed=9, chunk_elements=10**7)
        assert (a.e1_hat, a.uncertainty) == (b.e1_hat, b.uncertainty)

    def test_two_state_oracle(self):
        est = estimate_e1(two_state_model(), F01, n=1, n0=0,
                          replications=20000, master_seed=42)
        assert est.uncertainty < 0.02
        assert abs(est.e1_hat - 4 / 9) <= 4 * est.uncertainty

    def test_replication_floor(self):
        with pytest.raises(DomainError):
            estimate_e1(two_state_model(), F01, n=1, n0=0, replications=1,
                        master_seed=0)

    def test_iid_bound_dominance(self):
        sampler = make_chain("iid-uniform")
        f = singular_f(0.6)
        est = estimate_e1(sampler, f, n=1000, n0=0, replications=2000,
                          master_seed=3)
        bound = uniform_error_bound(
            1000, sampler.params,
            FunctionClass(p=1.5, norm_p=f.lp_norm(1.5)))
        assert est.e1_hat + 4 * est.uncertainty < bound.total


# ---------------------------------------------------------------------------
# exact small-instance oracle


def enumerated_e1(chain, nu, f_values, n, n0):
    """``E|S - mu|`` summed over all ``size**n`` window paths: the
    reference for the forward recursion."""
    f = np.asarray(f_values, dtype=float)
    kernel = np.asarray(chain.transition)
    mu = chain.expectation(f)
    weights = np.asarray(nu.nu)
    for _ in range(n0):
        weights = weights @ kernel
    # row r of the expansion carries the probability and running f-sum of
    # one partial trajectory
    probs = weights.astype(float)
    sums = f.copy()
    states = np.arange(chain.size)
    for _ in range(n - 1):
        probs = (probs[:, None] * kernel[states, :]).ravel()
        sums = (sums[:, None] + f[None, :]).ravel()
        states = np.tile(np.arange(chain.size), states.shape[0])
    return float(probs @ np.abs(sums / n - mu))


class TestExactE1Small:
    def test_one_step_oracle(self):
        model = two_state_model()
        value = exact_e1_small(model.chain, model.nu, F01, n=1, n0=0)
        assert value.shape == (1,)
        assert value[0] == pytest.approx(4 / 9, rel=1e-14)

    def test_two_step_oracle(self):
        # 4 paths: 0.6*(1/3) + (1/15)*(1/6) + (1/15)*(1/6) + (4/15)*(2/3)
        model = two_state_model()
        value = exact_e1_small(model.chain, model.nu, F01, n=2, n0=0)
        assert value.tolist() == pytest.approx([4 / 9, 0.4], rel=1e-14)

    def test_burnin_oracle(self):
        # start in state 2, one burn-in step: X_2 ~ (0.2, 0.8), so
        # e1 = 0.2*(1/3) + 0.8*(2/3) = 0.6
        model = two_state_model(nu_state=1)
        value = exact_e1_small(model.chain, model.nu, F01, n=1, n0=1)
        assert value[0] == pytest.approx(0.6, rel=1e-14)

    def test_constant_function(self):
        model = two_state_model()
        value = exact_e1_small(model.chain, model.nu,
                               np.array([3.0, 3.0]), n=4, n0=2)
        assert value.tolist() == [0.0] * 4

    def test_former_budget_instance_matches_enumeration(self):
        # 2**24 paths counting burn-in were once refused; 2**20 are summed
        model = two_state_model()
        value = exact_e1_small(model.chain, model.nu, F01, n=20, n0=4)
        for n in range(1, 21):
            reference = enumerated_e1(model.chain, model.nu, F01, n, n0=4)
            assert value[n - 1] == pytest.approx(reference, rel=1e-14)

    @pytest.mark.parametrize("name", ["two-state", "lazy-cycle-3"])
    def test_oracle_windows_match_enumeration(self, name):
        model = _point_mass_rebind(make_chain(name))
        f = np.arange(model.chain.size, dtype=float)
        for n0 in range(8):
            value = exact_e1_small(model.chain, model.nu, f, 8 - n0, n0)
            for n in range(1, 9 - n0):
                reference = enumerated_e1(model.chain, model.nu, f, n, n0)
                assert value[n - 1] == pytest.approx(reference, rel=1e-14)

    @pytest.mark.parametrize("n0", [0, 3])
    def test_dense_chain_with_gaps_in_f_matches_enumeration(self, n0):
        matrix = np.random.default_rng(4).random((4, 4))
        chain = FiniteChain.from_matrix(matrix / matrix.sum(axis=1,
                                                            keepdims=True))
        nu = InitialDistribution.against([0.1, 0.2, 0.3, 0.4], chain)
        f = np.array([0.0, 2.0, 3.0, 7.0])
        value = exact_e1_small(chain, nu, f, 7, n0)
        for n in range(1, 8):
            reference = enumerated_e1(chain, nu, f, n, n0)
            assert value[n - 1] == pytest.approx(reference, rel=1e-14)

    @pytest.mark.parametrize("name", ["two-state", "lazy-cycle-3"])
    def test_shorter_runs_are_prefixes(self, name):
        # a longer recursion passes through every shorter window unchanged
        model = _point_mass_rebind(make_chain(name))
        f = np.arange(model.chain.size, dtype=float)
        full = exact_e1_small(model.chain, model.nu, f, 8, 2)
        for n in range(1, 8):
            prefix = exact_e1_small(model.chain, model.nu, f, n, 2)
            assert prefix.tolist() == full[:n].tolist()

    def test_non_integer_differences_raise(self):
        model = two_state_model()
        with pytest.raises(DomainError, match="integer differences"):
            exact_e1_small(model.chain, model.nu, [0.0, 0.5], n=2, n0=0)

    def test_monte_carlo_agreement_two_state(self):
        model = two_state_model(nu_state=0)
        exact = exact_e1_small(model.chain, model.nu, F01, n=3, n0=2)[-1]
        est = estimate_e1(model, F01, n=3, n0=2, replications=30000,
                          master_seed=101)
        assert abs(est.e1_hat - exact) <= 4 * est.uncertainty

    def test_monte_carlo_agreement_three_state(self):
        model = make_chain("lazy-cycle-3")
        f = np.array([0.0, 1.0, 2.0])
        exact = exact_e1_small(model.chain, model.nu, f, n=2, n0=1)[-1]
        est = estimate_e1(model, f, n=2, n0=1, replications=30000,
                          master_seed=202)
        assert abs(est.e1_hat - exact) <= 4 * est.uncertainty


class TestExactBoundDominance:
    """The paper's bounds against exact errors, on random reversible
    chains started at their least likely state, at the recipe burn-in."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), chain=reversible_chains(5),
           # (p, delta): delta None is the uniform regime; the gap regime
           # needs p > 1 + delta
           case=st.sampled_from([(1.5, None), (2.0, None), (1.5, 0.25),
                                 (2.0, 0.25), (2.0, 0.5)]))
    def test_exact_error_within_bound(self, data, chain, case):
        p, delta = case
        model = _point_mass_rebind(finite_model(chain))
        params = model.params
        f = np.array(data.draw(st.lists(st.integers(0, 3),
                                        min_size=chain.size,
                                        max_size=chain.size)), dtype=float)
        f_class = FunctionClass(p=p, norm_p=model.lp_norm(f, p))
        unit = FunctionClass(p=p, norm_p=1.0)
        if delta is None:
            n0 = math.ceil(uniform_burnin(params))

            def bounds(n):
                return (uniform_error_bound(n, params, f_class).total,
                        refined_uniform_bound(n, n0, params, p),
                        uniform_error_bound(n, params, unit).total)
        else:
            n0 = math.ceil(gap_burnin(delta, params.gap, params.dratio))

            def bounds(n):
                return (gap_error_bound(n, delta, params.gap, f_class).total,
                        refined_gap_bound(n, n0, params.gap, params.dratio,
                                          delta, p),
                        gap_error_bound(n, delta, params.gap, unit).total)
        exact = exact_e1_small(model.chain, model.nu, f, 150, n0)
        for n, e1 in enumerate(exact, start=1):
            bound, refined, plain = bounds(n)
            assert e1 <= bound, (n, n0, e1, bound)
            assert refined <= plain * (1.0 + 1e-12), (n, n0, refined, plain)


# ---------------------------------------------------------------------------
# rate regression


class TestRateRegression:
    def test_exact_power_law(self):
        points = [(n, n**(-1 / 3)) for n in (10, 100, 1000, 10000)]
        fit = rate_regression(points)
        assert fit.slope == pytest.approx(-1 / 3, rel=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_scaled_power_law(self):
        points = [(n, 3.0 * n**(-0.5)) for n in (10, 50, 250, 1250, 6250)]
        fit = rate_regression(points)
        assert fit.slope == pytest.approx(-0.5, rel=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.0), rel=1e-12)
        assert isinstance(fit, RateFit)

    def test_needs_four_points(self):
        with pytest.raises(DomainError):
            rate_regression([(10, 1.0), (100, 0.5), (1000, 0.25)])

    def test_rejects_nonpositive_error(self):
        with pytest.raises(DomainError):
            rate_regression([(10, 1.0), (100, 0.5), (1000, 0.0),
                             (10000, 0.1)])

    def test_r_squared_range_with_noise(self):
        rng = np.random.default_rng(5)
        points = [(n, n**(-0.4) * math.exp(0.05 * rng.standard_normal()))
                  for n in (10, 100, 1000, 10000, 100000)]
        fit = rate_regression(points)
        assert 0.0 <= fit.r_squared <= 1.0
        assert fit.points == tuple((float(n), float(e)) for n, e in points)
