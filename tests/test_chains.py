"""Oracle tests for the chain testbeds.

The two-state chain [[0.9, 0.1], [0.2, 0.8]] has stationary distribution
(2/3, 1/3), spectral gap 0.3 (second eigenvalue 0.7), and total-variation
decay exactly proportional to 0.7**n with per-start constants 1/3 and 2/3
(so the certified prefactor is 2/3).  Lazy cycle walks have eigenvalues
(1 + cos(2*pi*k/s))/2.  These hand results anchor everything below.
"""
from __future__ import annotations

import importlib
import json
import math
import pkgutil

import numpy as np
import pytest
from scipy.integrate import quad

import mcmc_budget
from mcmc_budget.chains import (
    TV_RESOLUTION,
    FiniteChain,
    FiniteChainModel,
    IidUniformSampler,
    IndepMHSampler,
    InitialDistribution,
    PowerLawDensity,
    load_chain,
    make_chain,
    simulate_trajectory,
    singular_f,
    spectral_gap_exact,
    uniform_ergodicity_constants,
)
from mcmc_budget.chains import (
    _batch_states,
    _philox_uniforms,
    _ReplicationStreams,
    _stream_keys,
)
from mcmc_budget.exceptions import (
    ChainValidationError,
    DivergenceError,
    DomainError,
    RegimeError,
)

TWO_STATE = [[0.9, 0.1], [0.2, 0.8]]


# ---------------------------------------------------------------------------
# finite-chain structure


class TestFiniteChain:
    def test_from_matrix_two_state(self):
        chain = FiniteChain.from_matrix(TWO_STATE)
        assert chain.stationary == pytest.approx([2 / 3, 1 / 3], rel=1e-12)
        assert chain.reversible  # detailed balance holds: (2/3)*0.1 == (1/3)*0.2

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ChainValidationError, match="rows sum to 1"):
            FiniteChain.from_matrix([[0.9, 0.2], [0.2, 0.8]])

    def test_entries_nonnegative(self):
        with pytest.raises(ChainValidationError, match="nonnegative"):
            FiniteChain.from_matrix([[1.1, -0.1], [0.2, 0.8]])

    def test_square(self):
        with pytest.raises(ChainValidationError, match="square"):
            FiniteChain.from_matrix([[0.5, 0.5]])

    def test_stationary_must_be_invariant(self):
        with pytest.raises(ChainValidationError, match="invariant"):
            FiniteChain(TWO_STATE, [0.5, 0.5], reversible=False)

    def test_declared_reversibility_is_checked(self):
        # stationary (1/3, 1/6, 1/2) for a non-reversible 3-cycle
        matrix = [[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [2 / 3, 0.0, 1 / 3]]
        chain = FiniteChain.from_matrix(matrix)
        assert not chain.reversible
        with pytest.raises(ChainValidationError, match="detailed balance"):
            FiniteChain(matrix, chain.stationary, reversible=True)

    def test_state_space_cap(self):
        with pytest.raises(ChainValidationError, match="1000"):
            FiniteChain.from_matrix(np.eye(1001))


class TestInitialDistribution:
    def test_point_mass_dratio(self):
        chain = FiniteChain.from_matrix(TWO_STATE)
        nu = InitialDistribution.point_mass(1, chain)
        # |0/(2/3) - 1| = 1 and |1/(1/3) - 1| = 2
        assert nu.dratio == pytest.approx(2.0, rel=1e-12)

    def test_stationary_start(self):
        chain = FiniteChain.from_matrix(TWO_STATE)
        nu = InitialDistribution.stationary(chain)
        assert nu.dratio == 0.0

    def test_general_vector(self):
        chain = FiniteChain.from_matrix(TWO_STATE)
        nu = InitialDistribution.against([0.5, 0.5], chain)
        assert nu.dratio == pytest.approx(0.5, rel=1e-12)

    def test_must_sum_to_one(self):
        chain = FiniteChain.from_matrix(TWO_STATE)
        with pytest.raises(ChainValidationError, match="sums to 1"):
            InitialDistribution.against([0.5, 0.6], chain)


# ---------------------------------------------------------------------------
# exact constants


class TestSpectralGap:
    def test_two_state(self):
        chain = FiniteChain.from_matrix(TWO_STATE)
        assert spectral_gap_exact(chain) == pytest.approx(0.3, rel=1e-12)

    def test_iid_rows(self):
        chain = FiniteChain.from_matrix([[0.5, 0.3, 0.2]] * 3)
        assert spectral_gap_exact(chain) == pytest.approx(1.0, abs=1e-12)

    def test_lazy_cycles(self):
        for s, want in [(3, 0.75), (4, 0.5)]:
            model = make_chain(f"lazy-cycle-{s}")
            assert spectral_gap_exact(model.chain) == pytest.approx(
                want, rel=1e-12)

    def test_non_reversible_rejected(self):
        matrix = [[0.0, 0.9, 0.1], [0.1, 0.0, 0.9], [0.9, 0.1, 0.0]]
        chain = FiniteChain.from_matrix(matrix)
        with pytest.raises(RegimeError):
            spectral_gap_exact(chain)


class TestUniformErgodicityConstants:
    def test_two_state_constants(self):
        chain = FiniteChain.from_matrix(TWO_STATE)
        alpha, big_m = uniform_ergodicity_constants(chain)
        assert alpha == pytest.approx(0.7, rel=1e-12)
        assert big_m == pytest.approx(2 / 3, rel=1e-10)

    def test_two_state_certification_hand_values(self):
        # TV after one step: 7/30 from state 1, 7/15 from state 2
        chain = FiniteChain.from_matrix(TWO_STATE)
        alpha, big_m = uniform_ergodicity_constants(chain)
        assert 7 / 15 <= alpha * big_m * (1 + 1e-12)
        # the bound is tight at n=1 for the worse start
        assert alpha * big_m == pytest.approx(7 / 15, rel=1e-10)

    def test_certification_holds_for_200_steps(self):
        # below TV_RESOLUTION the computed distance reflects rounding of
        # the matrix entries, not convergence, and counts as certified
        for name in ("two-state", "lazy-cycle-3", "lazy-cycle-5"):
            model = make_chain(name)
            alpha, big_m = uniform_ergodicity_constants(model.chain)
            k = np.asarray(model.chain.transition)
            pi = np.asarray(model.chain.stationary)
            power = np.eye(len(pi))
            for n in range(1, 201):
                power = power @ k
                tv = 0.5 * np.abs(power - pi).sum(axis=1).max()
                assert tv <= max(alpha**n * big_m * (1 + 1e-9),
                                 TV_RESOLUTION)

    def test_certification_tight_above_resolution(self):
        # on the horizon where float64 still resolves the decay, the bound
        # must hold with no floor at all
        chain = make_chain("two-state").chain
        alpha, big_m = uniform_ergodicity_constants(chain)
        k = np.asarray(chain.transition)
        pi = np.asarray(chain.stationary)
        power = np.eye(2)
        for n in range(1, 41):
            power = power @ k
            tv = 0.5 * np.abs(power - pi).sum(axis=1).max()
            assert tv <= alpha**n * big_m * (1 + 1e-9)
            # and the constant is tight: no 10% smaller M certifies
            assert tv > alpha**n * (big_m / 1.1) * 0.999

    def test_iid_degenerate(self):
        chain = FiniteChain.from_matrix([[0.5, 0.5], [0.5, 0.5]])
        assert uniform_ergodicity_constants(chain) == (0.0, 1.0)

    def test_periodic_rejected(self):
        chain = FiniteChain.from_matrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DomainError):
            uniform_ergodicity_constants(chain)

    def test_reducible_rejected(self):
        chain = FiniteChain(np.eye(2), [0.5, 0.5], reversible=True)
        with pytest.raises(DomainError):
            uniform_ergodicity_constants(chain)

    def test_detailed_balance_under_powers(self):
        for name in ("two-state", "lazy-cycle-4"):
            chain = make_chain(name).chain
            k = np.asarray(chain.transition)
            pi = np.asarray(chain.stationary)
            for power in (k @ k, k @ k @ k):
                flow = pi[:, None] * power
                assert np.abs(flow - flow.T).max() < 1e-10


# ---------------------------------------------------------------------------
# simulation


class TestSimulateTrajectory:
    def test_deterministic_given_seed(self):
        chain = FiniteChain.from_matrix(TWO_STATE)
        nu = InitialDistribution.stationary(chain)
        a = simulate_trajectory(chain, nu, 50, seed=123)
        b = simulate_trajectory(chain, nu, 50, seed=123)
        assert np.array_equal(a, b)
        c = simulate_trajectory(chain, nu, 50, seed=124)
        assert not np.array_equal(a, c)

    def test_point_mass_start(self):
        chain = FiniteChain.from_matrix(TWO_STATE)
        nu = InitialDistribution.point_mass(1, chain)
        for seed in range(5):
            assert simulate_trajectory(chain, nu, 3, seed=seed)[0] == 1

    def test_seed_is_a_required_nonnegative_integer(self):
        chain = FiniteChain.from_matrix(TWO_STATE)
        nu = InitialDistribution.stationary(chain)
        with pytest.raises(TypeError):
            simulate_trajectory(chain, nu, 5)
        for seed in (-1, 1.5, None, True):
            with pytest.raises(DomainError, match="master seed"):
                simulate_trajectory(chain, nu, 5, seed=seed)

    def test_stationary_frequencies(self):
        model = make_chain("two-state")
        vals = model.batch_values(np.array([0.0, 1.0]), 1000,
                                  _ReplicationStreams(2024, 0, 200))
        freq_state2 = vals.mean()
        # pooled standard error with autocorrelation factor ~ (1+alpha)/gap
        se = math.sqrt((2 / 9) * 5.67 / vals.size)
        assert abs(freq_state2 - 1 / 3) < 4 * se

    def test_iid_chain_matches_stationary_law(self):
        chain = FiniteChain.from_matrix([[0.25, 0.75], [0.25, 0.75]])
        nu = InitialDistribution.stationary(chain)
        traj = simulate_trajectory(chain, nu, 4000, seed=9)
        assert abs(traj.mean() - 0.75) < 4 * math.sqrt(0.1875 / 4000)


# ---------------------------------------------------------------------------
# heavy-tailed test functions and continuous samplers


class TestSingularFunction:
    def test_exact_moments_gamma_06(self):
        f = singular_f(0.6)
        assert f.expectation() == pytest.approx(2.5, rel=1e-14)
        assert f.lp_norm(1.5) == pytest.approx(10.0 ** (2 / 3), rel=1e-13)
        with pytest.raises(DivergenceError):
            f.lp_norm(2.0)  # variance infinite: 2*0.6 > 1

    def test_exact_moments_gamma_065(self):
        f = singular_f(0.65)
        assert f.lp_norm(1.5) ** 1.5 == pytest.approx(40.0, rel=1e-12)
        assert f.kappa == pytest.approx(1 / 0.65, rel=1e-14)

    def test_finite_variance_control(self):
        f = singular_f(0.25)
        assert f.lp_norm(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-13)

    def test_divergence_threshold(self):
        f = singular_f(0.6)
        with pytest.raises(DivergenceError):
            f.lp_norm(1 / 0.6)

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            singular_f(0.0)
        with pytest.raises(DomainError):
            singular_f(1.0)

    def test_moments_match_quadrature(self):
        for gamma in (0.3, 0.5, 0.6, 0.65):
            f = singular_f(gamma)
            want_mean = quad(lambda x: x**-gamma, 0.0, 1.0)[0]
            assert f.expectation() == pytest.approx(want_mean, rel=1e-8)
            for p in (1.1, 1.4):
                if gamma * p < 1.0:
                    want = quad(lambda x: x**(-gamma * p), 0.0, 1.0)[0]
                    assert f.lp_norm(p) ** p == pytest.approx(want, rel=1e-8)

    def test_moments_under_linear_density(self):
        density = PowerLawDensity(1.0)
        f = singular_f(0.3)
        assert f.expectation(density) == pytest.approx(2.0 / 1.7, rel=1e-13)
        want = quad(lambda x: 2.0 * x * x**(-0.3 * 1.5), 0.0, 1.0)[0]
        assert f.lp_norm(1.5, density) ** 1.5 == pytest.approx(want, rel=1e-8)

    def test_values(self):
        f = singular_f(0.5)
        assert f(0.25) == pytest.approx(2.0, rel=1e-14)
        got = f(np.array([1.0, 0.01]))
        assert got == pytest.approx([1.0, 10.0], rel=1e-12)


class TestPowerLawDensity:
    def test_uniform(self):
        d = PowerLawDensity(0.0)
        assert d.beta == 1.0
        assert d.pdf(np.array([0.2, 0.9])) == pytest.approx([1.0, 1.0])
        assert d.inverse_cdf(np.array([0.3])) == pytest.approx([0.3])

    def test_linear(self):
        d = PowerLawDensity(1.0)
        assert d.beta == 2.0
        assert d.pdf(0.5) == pytest.approx(1.0, rel=1e-14)
        assert d.inverse_cdf(0.25) == pytest.approx(0.5, rel=1e-14)

    def test_unbounded_rejected(self):
        with pytest.raises(DomainError):
            PowerLawDensity(-0.5)


class TestContinuousSamplers:
    def test_iid_uniform_params(self):
        s = IidUniformSampler()
        assert s.params.gap == 1.0
        assert s.params.alpha == 0.0
        assert s.params.big_m == 1.0
        assert s.params.dratio == 0.0

    def test_iid_values_are_the_uniform_stream(self):
        s = IidUniformSampler()
        f = singular_f(0.5)
        got = s.batch_values(f, 6, _ReplicationStreams(7, 0, 1))[0]
        want = f(_seed_sequence_rng(7, 0).random(6))
        assert np.array_equal(got, want)

    def test_mh_uniform_target_is_iid(self):
        s = IndepMHSampler(PowerLawDensity(0.0))
        assert s.params.alpha == 0.0
        f = singular_f(0.5)
        got = s.batch_values(f, 4, _ReplicationStreams(3, 0, 1))[0]
        u = _seed_sequence_rng(3, 0).random(7)
        # initial inverse-CDF draw, then every accepted proposal
        assert got == pytest.approx(f(np.array([u[0], u[1], u[3], u[5]])))

    def test_mh_2x_params(self):
        s = make_chain("indep-mh-2x")
        assert isinstance(s, IndepMHSampler)
        assert s.params.alpha == pytest.approx(0.5, rel=1e-14)
        assert s.params.gap == pytest.approx(0.5, rel=1e-14)
        assert s.params.big_m == 1.0
        assert s.params.dratio == 0.0  # stationary start

    def test_mh_2x_stationary_mean(self):
        s = make_chain("indep-mh-2x")
        vals = s.batch_values(lambda x: x, 500,
                              _ReplicationStreams(11, 0, 400))
        se = math.sqrt((1 / 18) * 3.0 / vals.size)
        assert abs(vals.mean() - 2 / 3) < 4 * se

    def test_mh_acceptance_reversibility_sanity(self):
        # accepted fraction for the 2x target is E[min(1, y/x)] > 1/2
        s = make_chain("indep-mh-2x")
        vals = s.batch_values(lambda x: x, 300, _ReplicationStreams(5, 0, 50))
        moved = (np.diff(vals, axis=1) != 0).mean()
        assert 0.5 < moved < 0.9


# ---------------------------------------------------------------------------
# zoo and JSON loading


class TestZoo:
    def test_two_state_model(self):
        model = make_chain("two-state")
        assert isinstance(model, FiniteChainModel)
        assert model.params.gap == pytest.approx(0.3, rel=1e-12)
        assert model.params.alpha == pytest.approx(0.7, rel=1e-12)
        assert model.params.big_m == pytest.approx(2 / 3, rel=1e-10)
        assert model.params.dratio == 0.0
        assert model.params.reversible

    def test_lazy_cycle_parse(self):
        model = make_chain("lazy-cycle-7")
        assert model.chain.size == 7

    def test_unknown_name(self):
        with pytest.raises(DomainError, match="unknown chain"):
            make_chain("three-state")
        with pytest.raises(DomainError):
            make_chain("lazy-cycle-2")

    def test_expectation_and_norm(self):
        model = make_chain("two-state")
        f = np.array([0.0, 1.0])
        assert model.expectation(f) == pytest.approx(1 / 3, rel=1e-12)
        assert model.lp_norm(f, 2.0) == pytest.approx(
            math.sqrt(1 / 3), rel=1e-12)

    def test_json_round_trip(self, tmp_path):
        doc = {"matrix": TWO_STATE, "nu": [0.0, 1.0], "reversible": True}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        model = load_chain(path)
        assert model.params.dratio == pytest.approx(2.0, rel=1e-12)
        assert model.params.gap == pytest.approx(0.3, rel=1e-12)

    def test_json_default_start_is_stationary(self):
        model = load_chain({"matrix": TWO_STATE})
        assert model.params.dratio == 0.0

    def test_json_bad_matrix_names_invariant(self):
        with pytest.raises(ChainValidationError, match="rows sum to 1"):
            load_chain({"matrix": [[0.9, 0.2], [0.2, 0.8]]})

    def test_json_bad_nu_names_invariant(self):
        with pytest.raises(ChainValidationError, match="sums to 1"):
            load_chain({"matrix": TWO_STATE, "nu": [0.7, 0.7]})

    @pytest.mark.parametrize("document, invariant", [
        ({"matrix": [[math.nan, 1.0], [0.5, 0.5]]}, "finite numbers"),
        ({"matrix": [[math.inf, 0.0], [0.5, 0.5]]}, "finite numbers"),
        ({"matrix": [[None, 1.0], [0.5, 0.5]]}, "finite numbers"),
        ({"matrix": [["a", "b"], [0.5, 0.5]]}, "finite numbers"),
        ({"matrix": [[{"a": 1}, 1.0], [0.5, 0.5]]}, "finite numbers"),
        ({"matrix": [[0.5, 0.5], [0.5]]}, "square array"),
        ({"matrix": "two-state"}, "square array"),
        ({"matrix": TWO_STATE, "nu": [math.nan, 1.0]}, "nu entries"),
        ({"matrix": TWO_STATE, "nu": ["a", 1.0]}, "nu entries"),
        ({"matrix": TWO_STATE, "nu": [1.0]}, "one entry per state"),
        ({"matrix": TWO_STATE, "nu": [[0.5, 0.5]]}, "one entry per state"),
        ({"matrix": TWO_STATE, "reversible": "no"}, "JSON boolean"),
        ({"matrix": TWO_STATE, "reversible": 1}, "JSON boolean"),
        ({"matrix": TWO_STATE, "nu": [True, False]}, "nu entries"),
        ({"matrix": [[True, False], [0.5, 0.5]]}, "finite numbers"),
        ({"matrix": np.eye(2, dtype=bool)}, "finite numbers"),
    ])
    def test_json_malformed_document_names_invariant(self, document,
                                                     invariant):
        with pytest.raises(ChainValidationError, match=invariant):
            load_chain(document)


# ---------------------------------------------------------------------------
# vectorised stream derivation and time-major stepping


def _seed_sequence_rng(master_seed, replication):
    """The per-replication stream as numpy spawns it."""
    seq = np.random.SeedSequence(entropy=master_seed,
                                 spawn_key=(replication,))
    return np.random.Generator(np.random.Philox(seq))


@pytest.mark.parametrize("master_seed", [
    0, 1, 2**32, 2**130 + 7,
    *np.random.default_rng(2024).integers(0, 2**62, 4).tolist()])
@pytest.mark.parametrize("start, stop", [(0, 40), (2**20, 2**20 + 9),
                                         (2**32 - 5, 2**32)])
def test_stream_keys_match_seed_sequence(master_seed, start, stop):
    keys = _stream_keys(master_seed, start, stop)
    assert keys.shape == (stop - start, 2)
    assert keys.dtype == np.uint64
    for row, replication in zip(keys, range(start, stop)):
        want = np.random.SeedSequence(
            entropy=master_seed,
            spawn_key=(replication,)).generate_state(2, np.uint64)
        assert np.array_equal(row, want)


@pytest.mark.parametrize("master_seed, start, stop", [
    (-1, 0, 3), (1.5, 0, 3), (True, 0, 3), (5, -1, 3),
    (5, 2**32 - 1, 2**32 + 1)])
def test_stream_keys_reject_bad_seeds_and_indices(master_seed, start, stop):
    # numpy spawns an index of 2**32 or more with a two-word key; a bool is
    # an int to Python but not a seed
    with pytest.raises(DomainError):
        _ReplicationStreams(master_seed, start, stop)


@pytest.mark.parametrize("master_seed", [0, 2**32, 2**130 + 7])
@pytest.mark.parametrize("rows", [1, 2049, 4097])
def test_philox_block_function_is_numpy_philox(master_seed, rows):
    # 2049 and 4097 rows cross one and two row-slice boundaries; a narrower
    # draw is a prefix of a wider one on the same stream
    keys = _stream_keys(master_seed, 0, rows)
    want = np.array([np.random.Generator(np.random.Philox(key=key)).random(17)
                     for key in keys])
    for width in range(1, 18):
        got = _philox_uniforms(keys, width)
        assert got.shape == (rows, width)
        assert np.array_equal(got, want[:, :width])


@pytest.mark.parametrize("width", [1, 5, 1000])
def test_uniform_draws_rows_are_the_replication_streams(width):
    draws = _ReplicationStreams(42, 0, 4).uniforms(width)
    assert draws.shape == (4, width)
    for r, row in enumerate(draws):
        assert np.array_equal(row, _seed_sequence_rng(42, r).random(width))


@pytest.mark.parametrize("width", [1, 8, 16, 17, 1000])
def test_rekeyed_streams_are_the_seed_sequence_streams(width):
    # 2049 rows cross a row slice of the block function, which serves up to
    # 16 draws; wider rows come from the re-keyed generator
    for start, stop in ((5, 17), (0, 2049)):
        streams = _ReplicationStreams(2024, start, stop)
        assert len(streams) == stop - start
        draws = streams.uniforms(width)
        assert draws.shape == (stop - start, width)
        for r, row in zip(range(start, stop), draws):
            assert np.array_equal(row,
                                  _seed_sequence_rng(2024, r).random(width))


def _reference_states(chain, nu, length, master_seed, rows):
    """One walk per row by plain inverse-CDF stepping, a step at a time."""
    cum_nu = np.cumsum(nu.nu)
    cum_nu[-1] = 1.0
    cum_rows = np.cumsum(chain.transition, axis=1)
    cum_rows[:, -1] = 1.0
    states = np.empty((rows, length), dtype=np.int64)
    for r in range(rows):
        u = _seed_sequence_rng(master_seed, r).random(length)
        x = int((cum_nu < u[0]).sum())
        states[r, 0] = x
        for t in range(1, length):
            x = int((cum_rows[x] < u[t]).sum())
            states[r, t] = x
    return states


@pytest.mark.parametrize("model", [
    make_chain("two-state"),
    make_chain("lazy-cycle-50"),
    # row 0's trailing zeros put an inner CDF entry at exactly 1.0
    load_chain({"matrix": [[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.5, 0.0],
                           [0.0, 0.5, 0.25, 0.25], [0.0, 0.0, 0.5, 0.5]],
                "nu": [1.0, 0.0, 0.0, 0.0]}),
], ids=["two-state", "lazy-cycle-50", "zero-tail-json"])
def test_time_major_stepping_matches_per_row_reference(model):
    length, rows = 301, 9   # more steps than one time-major block
    got = _batch_states(model.chain, model.nu,
                        _ReplicationStreams(31, 0, rows).uniforms(length))
    want = _reference_states(model.chain, model.nu, length, 31, rows)
    assert got.flags.c_contiguous
    assert np.array_equal(got, want)


def _on_level_walks(chain, nu, length, rows, seed):
    """Draws and walks by the full count of CDF entries below each draw.

    Every step's draw sits exactly on a CDF value below 1.0 of the current
    state's row, or at 0.0, so a comparison that is off by one level or a
    level that counts the wrong number of entries changes the walk.
    """
    cum = np.cumsum(chain.transition, axis=1)[:, :-1].T
    pick = np.random.default_rng(seed)
    draws = np.empty((rows, length))
    states = np.empty((rows, length), dtype=np.int64)
    draws[:, 0] = pick.random(rows)
    x = states[:, 0] = (np.cumsum(nu.nu)[:-1, None] < draws[:, 0]).sum(axis=0)
    for t in range(1, length):
        for r, state in enumerate(x):
            on_level = np.append(cum[:, state], 0.0)
            draws[r, t] = pick.choice(on_level[on_level < 1.0])
        u = draws[:, t]
        x = states[:, t] = (cum.take(x, axis=1) < u).sum(axis=0)
    return draws, states


def _sparse_band(size, seed):
    """A random birth-death chain: each row is zero outside three entries."""
    rng = np.random.default_rng(seed)
    up = rng.uniform(0.05, 0.5, size - 1)
    down = rng.uniform(0.05, 0.5, size - 1)
    k = np.diag(up, 1) + np.diag(down, -1)
    k += np.diag(1.0 - k.sum(axis=1))
    return FiniteChain.from_matrix(k)


def _ulp_short_rows(size=12):
    """A circulant chain whose unrolled row's CDF ends one ulp below 1."""
    base = np.array([0.1] * 10 + [0.0] * (size - 10))
    assert base.cumsum()[9] == np.nextafter(1.0, 0.0)
    k = np.array([np.roll(base, shift) for shift in range(size)])
    return FiniteChain(k, np.full(size, 1.0 / size))


def _random_dense(size, seed):
    rng = np.random.default_rng(seed)
    return FiniteChain.from_matrix(rng.dirichlet(np.ones(size), size))


@pytest.mark.parametrize("chain", [
    _random_dense(5, 1),
    _random_dense(23, 2),
    _sparse_band(9, 3),
    _sparse_band(40, 4),
    _ulp_short_rows(),
    make_chain("two-state").chain,
    FiniteChain([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]),
    FiniteChain([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
    FiniteChain.from_matrix([[0.5, 0.5], [1.0, 0.0]]),
    make_chain("lazy-cycle-3").chain,
    make_chain("lazy-cycle-7").chain,
    make_chain("lazy-cycle-50").chain,
], ids=["dense-5", "dense-23", "band-9", "band-40", "ulp-short",
        "two-state", "always-swap", "never-swap", "swap-from-1",
        "lazy-cycle-3", "lazy-cycle-7", "lazy-cycle-50"])
def test_level_stepping_is_the_full_count(chain):
    nu = InitialDistribution.stationary(chain)
    draws, want = _on_level_walks(chain, nu, 300, 6, seed=chain.size)
    got = _batch_states(chain, nu, draws)
    assert np.array_equal(got, want)


def test_unit_counts_keep_the_unweighted_step():
    for name in ("two-state", "lazy-cycle-3"):
        assert make_chain(name).chain._counts is None
    lazy = make_chain("lazy-cycle-50").chain
    # row 1's CDF reaches 1.0 at state 2, so its third level is padding;
    # row 3's CDF is 0.0 at states 0 and 1, one level of two entries
    assert lazy._levels[:, 1].tolist() == [0.25, 0.75, 1.0]
    assert lazy._counts[:, 1].tolist() == [1, 1, 0]
    assert lazy._levels[:, 3].tolist() == [0.0, 0.25, 0.75]
    assert lazy._counts[:, 3].tolist() == [2, 1, 1]


def test_indep_mh_values_do_not_depend_on_chunking():
    s = make_chain("indep-mh-2x")
    f = singular_f(0.65)
    whole = s.batch_values(f, 300, _ReplicationStreams(13, 0, 40))
    pieces = np.vstack([s.batch_values(f, 300, _ReplicationStreams(13, a, b))
                        for a, b in ((0, 1), (1, 17), (17, 40))])
    assert whole.flags.c_contiguous
    assert np.array_equal(whole, pieces)
    # row 3 against a scalar walk over its own stream
    u = _seed_sequence_rng(13, 3).random(599)
    x = math.sqrt(u[0])
    for t in range(1, 300):
        if u[2 * t] * 2 * x <= 2 * u[2 * t - 1]:
            x = u[2 * t - 1]
        assert whole[3, t] == pytest.approx(x ** -0.65, rel=1e-14)


# ---------------------------------------------------------------------------
# public names


def test_public_names_resolve():
    # a deleted public name must not leave a stale export behind
    modules = [mcmc_budget] + [
        importlib.import_module(f"mcmc_budget.{info.name}")
        for info in pkgutil.iter_modules(mcmc_budget.__path__)]
    exported = {module.__name__: getattr(module, "__all__", ())
                for module in modules}
    assert exported["mcmc_budget"] and exported["mcmc_budget.chains"]
    stale = [(module.__name__, name) for module in modules
             for name in exported[module.__name__]
             if not hasattr(module, name)]
    assert stale == []
    # the package exports exactly its modules' lists, each name once
    declared = [name for module in ("bounds", "chains", "estimator",
                                    "exceptions", "planner", "validate")
                for name in exported[f"mcmc_budget.{module}"]]
    assert mcmc_budget.__all__ == declared
    assert len(set(declared)) == len(declared)
