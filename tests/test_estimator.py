"""Oracle tests for the Monte Carlo error estimator.

Hand-enumerable instances on the two-state chain anchor everything: with
f = (0, 1) and a stationary start the absolute mean error at n=1 is
(2/3)|0 - 1/3| + (1/3)|1 - 1/3| = 4/9, and at n=2 summing the four paths
gives exactly 0.4.  Replications use counter-based per-index streams, so
every value here is reproducible bit for bit regardless of chunking.
"""
from __future__ import annotations

import math
import os
import sys
import threading
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
from mcmc_budget import chains, estimator
from mcmc_budget.chains import (
    FiniteChain,
    FiniteChainModel,
    IidUniformSampler,
    InitialDistribution,
    SingularFunction,
    _ReplicationStreams,
    finite_model,
    make_chain,
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
    _window_deviations,
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


def level_walk(model, length, streams):
    """The states by the level-table loop, one draw at a time, whatever
    the walk's length."""
    walk = np.empty((len(streams), length), dtype=model.chain._state_dtype)
    chains._level_steps(model.chain, model.nu, streams.uniforms(length),
                        walk)
    return walk


def reference_deviations(model, f, windows, replications, seed):
    """``|S - mu|`` by the definition: the mean of ``f`` over each window
    of the float walk ``f[states]``."""
    f = np.asarray(f, dtype=float)
    length = max(n + n0 for n, n0 in windows)
    walk = f[level_walk(model, length,
                        _ReplicationStreams(seed, 0, replications))]
    mu = model.expectation(f)
    return np.array([np.abs(walk[:, n0:n0 + n].mean(axis=1) - mu)
                     for n, n0 in windows])


def fill_dtypes(model, f, length=5, rows=3):
    """The dtypes of what ``model._fill`` yields for ``rows`` walks of
    ``length`` states: the route the estimator reduces them by."""
    block = np.empty((rows, length), dtype=model.chain._state_dtype)
    return {values.dtype for _, values in model._fill(
        np.asarray(f, dtype=float), length, _ReplicationStreams(0, 0, rows),
        block, np.empty(block.size))}


# ---------------------------------------------------------------------------
# the sample mean of a simulated trajectory


class TestSampleMean:
    def test_long_run_stationary_frequency(self):
        model = two_state_model()
        trajectory = model.batch_values(F01, 20000,
                                        _ReplicationStreams(2024, 0, 1))[0]
        mean = trajectory[100:].mean()
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
        f = SingularFunction(0.4)
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
    """``f = arange(S)`` is reduced from exact int64 partial sums of the
    integer walk, and any other ``f`` from its float64 values, whose sums
    of integers are exact; the results must be those of the float
    definition."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), chain=reversible_chains(6),
           point_mass=st.booleans(),
           chunk_elements=st.sampled_from([DEFAULT_CHUNK_ELEMENTS, 101]))
    def test_bit_identical_to_the_float_definition(self, data, chain,
                                                   point_mass,
                                                   chunk_elements):
        # walks are at most 60 long, so |f| <= 2**47 keeps every partial
        # sum below 2**53, where a float sum of integers is exact
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
        # the walk itself for arange(S), float64 values otherwise
        assert fill_dtypes(model, f) == {
            chain._state_dtype if np.array_equal(f, np.arange(size))
            else np.dtype(np.float64)}
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
        windows = [(1, 0), (7, 3), (30, 0)]
        assert fill_dtypes(model, f) == {np.dtype(np.float64)}
        reference = reference_deviations(model, f, windows, 50, 4)
        got = _deviations(model, np.array(f), windows, 50, 4, chunk_elements)
        assert got.tobytes() == reference.tobytes()

    def test_a_chunk_holds_one_walk_matrix(self):
        # a float copy of the int64 walk would double the traced peak; the
        # chain's path table is built inside the traced region
        for name, rows, n0 in (("two-state", 400, 20),
                               ("lazy-cycle-50", 300, 1149)):
            model = make_chain(name)
            tracemalloc.start()
            try:
                estimate_e1_windows(model, np.arange(float(model.chain.size)),
                                    [(10, n0), (10000, n0)], rows, 3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.25 * rows * (10000 + n0) * 8, name


class TestIidRows:
    """``iid-uniform`` rows are drawn, transformed and reduced a block at a
    time on every core, with no chunk matrix; the bytes must be those of
    ``np.mean`` over the rows of ``IidUniformSampler.batch_values``."""

    F = SingularFunction(0.65)
    RATE_WINDOWS = [(100, 0), (1000, 0), (10_000, 0), (100_000, 0)]

    def reference(self, windows, replications, seed):
        length = max(n + n0 for n, n0 in windows)
        values = IidUniformSampler().batch_values(
            self.F, length, _ReplicationStreams(seed, 0, replications))
        mu = self.F.expectation()
        return np.array([np.abs(values[:, n0:n0 + n].mean(axis=1) - mu)
                         for n, n0 in windows])

    # 1001 and 2501 rows split unevenly over 2 or 3 slices; blocks of 109
    # rows at width 300 leave a short last block, rows of 10**5 fill a
    # block each, and 2501 rows of 17 cross key blocks inside row blocks
    @pytest.mark.parametrize("windows, replications", [
        ([(5, 12), (100, 3), (300, 0)], 1001),
        ([(1000, 2000), (30_000, 70_000)], 7),
        ([(17, 0), (3, 14)], 2501),
    ], ids=["blocks", "rows", "key-blocks"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_bit_identical_to_the_rows_of_batch_values(
            self, monkeypatch, windows, replications, workers):
        monkeypatch.setattr(estimator, "_worker_count", lambda: workers)
        # rows of every width on every slice, as the wide ones run
        monkeypatch.setattr(estimator, "_THREADED_WIDTH", 1)
        reference = self.reference(windows, replications, 29)
        got = _deviations(IidUniformSampler(), self.F, windows, replications,
                          29, DEFAULT_CHUNK_ELEMENTS)
        assert got.tobytes() == reference.tobytes()
        assert estimate_e1_windows(IidUniformSampler(), self.F, windows,
                                   replications, 29) == \
            _estimates(reference, windows)

    def test_worker_count_without_cpu_affinity(self, monkeypatch):
        # a platform without sched_getaffinity counts the machine's cores
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert estimator._worker_count() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert estimator._worker_count() == 3
        windows = [(20, 5), (300, 0), (2000, 1)]
        monkeypatch.setattr(estimator, "_THREADED_WIDTH", 1)
        threaded = _deviations(IidUniformSampler(), self.F, windows, 101,
                               1729, DEFAULT_CHUNK_ELEMENTS)
        monkeypatch.setattr(estimator, "_worker_count", lambda: 1)
        assert _deviations(IidUniformSampler(), self.F, windows, 101, 1729,
                           DEFAULT_CHUNK_ELEMENTS).tobytes() == \
            threaded.tobytes()

    def test_bytes_do_not_depend_on_cores_or_chunking(self, monkeypatch):
        windows = [(20, 5), (300, 0), (2000, 1)]
        monkeypatch.setattr(estimator, "_THREADED_WIDTH", 1)
        outputs = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(estimator, "_worker_count", lambda: workers)
            for chunk_elements in (1, 123457, DEFAULT_CHUNK_ELEMENTS):
                outputs.add(_deviations(IidUniformSampler(), self.F, windows,
                                        101, 1729, chunk_elements).tobytes())
        assert len(outputs) == 1

    def test_a_rate_run_holds_no_chunk_matrix(self, monkeypatch):
        # a cap of 200 rows of 10**5 values lets the chunk path draw all
        # 200 at once: a 160 MB matrix; the row path holds one per core
        monkeypatch.setattr(estimator, "_worker_count", lambda: 2)
        tracemalloc.start()
        try:
            estimate_e1_windows(IidUniformSampler(), self.F,
                                self.RATE_WINDOWS, 200, 3,
                                chunk_elements=200 * 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * 200 * 100_000 * 8


class TestModelProtocol:
    """The estimator asks a model only for its expectation, its layout and
    its fills, whatever its class."""

    def test_a_model_of_no_zoo_class(self):
        # i.i.d. rows of 42 uniforms in blocks of at most 50 rows
        sampler, fills = IidUniformSampler(), []

        class Delegate:
            def expectation(self, f):
                return sampler.expectation(f)

            def _layout(self, length):
                width, dtype, _, fill, walks = sampler._layout(length)
                return width, dtype, 42 * 50, fill, walks

            def _fill(self, f, length, streams, block, draws):
                fills.append(len(streams))
                return sampler._fill(f, length, streams, block, draws)

        f, windows = SingularFunction(0.5), [(42, 0), (10, 5)]
        want = _deviations(sampler, f, windows, 300, 11,
                           DEFAULT_CHUNK_ELEMENTS)
        got = _deviations(Delegate(), f, windows, 300, 11,
                          DEFAULT_CHUNK_ELEMENTS)
        assert got.tobytes() == want.tobytes()
        assert max(fills) <= 50 and sum(fills) == 300


class TestRowBlocks:
    """Every model's rows are drawn, stepped and reduced a block at a time
    on every core, with no walk matrix; the bytes must be those of the
    rows of one ``batch_values`` over every replication."""

    # 101 and 2501 rows split unevenly over 2 or 3 slices; at a cap of
    # 123457 uniforms a block leaves a short last block, a cap of 1 gives
    # one-row blocks, and 2501 one-row blocks cross key blocks
    CASES = {
        "two-state-int": ("two-state", F01, [(10, 0), (3000, 4)], 101),
        "two-state-float": ("two-state", np.array([0.0, 0.5]),
                            [(10, 0), (3000, 4)], 101),
        "two-state-key-blocks": ("two-state", F01, [(17, 0), (3, 14)], 2501),
        "two-state-narrow": ("two-state", F01, [(8, 0), (1, 7)], 1001),
        "lazy-cycle-50": ("lazy-cycle-50", np.arange(50.0),
                          [(10, 1149), (2000, 1149)], 101),
        "indep-mh-2x": ("indep-mh-2x", SingularFunction(0.5),
                        [(5, 3), (300, 0)], 103),
        # two-byte states, a 3-step table
        "lazy-cycle-300": ("lazy-cycle-300", np.arange(300.0),
                           [(10, 0), (1500, 7)], 101),
        # integer values other than the states, taken a few rows at a time
        "two-state-int-f": ("two-state", np.array([-3.0, 7.0]),
                            [(10, 0), (3000, 4)], 101),
        # integer values either side of 2**53 / 3004, where a window sum
        # of 3004 steps stops being exact in float64
        "two-state-below-2**53": ("two-state",
                                  np.array([0.0, -(-2**53 // 3004) - 1]),
                                  [(10, 0), (3000, 4)], 101),
        "two-state-at-2**53": ("two-state",
                               np.array([0.0, -(-2**53 // 3004)]),
                               [(10, 0), (3000, 4)], 101),
    }

    def reference(self, model, f, windows, replications, seed):
        if not hasattr(model, "chain"):
            length = max(n + n0 for n, n0 in windows)
            values = model.batch_values(
                f, length, _ReplicationStreams(seed, 0, replications))
            mu = model.expectation(f)
            return np.array([np.abs(values[:, n0:n0 + n].mean(axis=1) - mu)
                             for n, n0 in windows])
        return reference_deviations(model, f, windows, replications, seed)

    @pytest.mark.parametrize("case", list(CASES))
    def test_bytes_do_not_depend_on_cores_or_chunking(self, monkeypatch,
                                                      case):
        name, f, windows, replications = self.CASES[case]
        model = make_chain(name)
        want = self.reference(model, f, windows, replications, 31).tobytes()
        # rows of every width and slices of every size on every core, as
        # the wide and long ones run
        monkeypatch.setattr(estimator, "_THREADED_WIDTH", 1)
        monkeypatch.setattr(estimator, "_THREADED_WALK_ROWS", 1)
        # more workers than cores, switching threads as often as possible
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(estimator, "_worker_count", lambda: workers)
                for chunk_elements in (1, 123457, DEFAULT_CHUNK_ELEMENTS):
                    got = _deviations(model, f, windows, replications, 31,
                                      chunk_elements)
                    assert got.tobytes() == want, (workers, chunk_elements)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("replications, threads", [(254, 1), (256, 2)])
    def test_walks_thread_by_the_rows_a_slice_holds(self, monkeypatch,
                                                    replications, threads):
        # a block holds up to 799 walks of 10004 steps; two slices of 127
        # rows run on the calling thread, two of 128 on one thread each
        monkeypatch.setattr(estimator, "_worker_count", lambda: 2)
        seen = set()

        def walk(self, *args, _walk=FiniteChainModel._walk):
            seen.add(threading.get_ident())
            return _walk(self, *args)

        monkeypatch.setattr(FiniteChainModel, "_walk", walk)
        estimate_e1_windows(make_chain("two-state"), F01, [(10_000, 4)],
                            replications, 3)
        assert len(seen) == threads

    def test_a_dominance_run_holds_no_walk_matrix(self, monkeypatch):
        # a cap of 10**7 values would let a chunk loop draw all 1000 walks
        # of 10004 steps at once, an 80 MB float matrix; each of the two
        # cores here holds its 500 walks as one byte a step (5 MB) and a
        # float draw buffer of 2**17 values (1 MB)
        monkeypatch.setattr(estimator, "_worker_count", lambda: 2)
        model = make_chain("two-state")
        windows = [(n, 4) for n in (10, 100, 1000, 10_000)]
        tracemalloc.start()
        try:
            estimate_e1_windows(model, F01, windows, 1000, 3,
                                chunk_elements=10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * 1000 * 10_004 * 8

    def test_start_states_hold_no_cdf_matrix(self):
        # comparing each start draw with every CDF entry of a 1000-state
        # start law held a 999 x 20000 boolean matrix, ~22 MiB at the peak
        # of this estimate; a search over the CDF holds the states only
        size = 1000
        cycle = np.roll(np.eye(size), 1, axis=1)
        chain = FiniteChain(0.5 * np.eye(size) + 0.25 * (cycle + cycle.T),
                            np.full(size, 1.0 / size), reversible=True)
        model = FiniteChainModel("lazy-cycle-1000", chain,
                                 InitialDistribution.stationary(chain))
        tracemalloc.start()
        try:
            estimate_e1_windows(model, np.arange(float(size)), [(8, 0)],
                                20_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_a_failing_walk_slice_raises_in_the_caller(self, monkeypatch):
        monkeypatch.setattr(estimator, "_worker_count", lambda: 3)
        # slices of 2 and 3 walks, threaded as slices of 128 would be
        monkeypatch.setattr(estimator, "_THREADED_WALK_ROWS", 1)
        caller = threading.get_ident()
        threads_before = threading.active_count()
        table_steps = chains._table_steps

        def fails_off_the_caller(*args):
            if threading.get_ident() != caller:
                raise ZeroDivisionError("slice failed")
            table_steps(*args)

        monkeypatch.setattr(chains, "_table_steps", fails_off_the_caller)
        returned = []
        with pytest.raises(ZeroDivisionError, match="slice failed"):
            returned.append(estimate_e1_windows(
                make_chain("two-state"), F01, [(1000, 0)], 7, 7))
        assert returned == []
        assert threading.active_count() == threads_before


def byte_walk(model, length, streams, draw_rows):
    """The states of ``model._walk`` on an integer block, drawn through a
    float buffer of ``draw_rows`` rows."""
    walk = np.empty((len(streams), length), dtype=model.chain._state_dtype)
    got = model._walk(length, streams, walk, np.empty(draw_rows * length))
    assert got is walk
    return walk


def rank_byte_chain():
    """A 17-state chain whose CDF values below 1.0 are the 255 multiples
    of 1/256: draw ranks fill a byte."""
    k = np.zeros((17, 17))
    for i in range(16):
        cdf = np.append(np.arange(16 * i + 1, 16 * i + 17) / 256, 1.0)
        k[i] = np.diff(cdf, prepend=0.0)
    k[16] = k[0]
    return FiniteChain.from_matrix(k)


class TestByteWalks:
    """A walk through a chain's path table is held as one or two bytes a
    step, from draw ranks; its states must be those of the level-table
    loop, one draw at a time."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), chain=reversible_chains(8),
           point_mass=st.booleans())
    def test_states_are_the_level_walk(self, data, chain, point_mass):
        nu = (InitialDistribution.point_mass(
            int(np.argmin(chain.stationary)), chain) if point_mass
            else InitialDistribution.stationary(chain))
        model = FiniteChainModel("random", chain, nu)
        length = data.draw(st.sampled_from([65, 66, 257, 600]))
        assert model.chain._state_dtype == np.uint8
        assert model._walk_table(length) is chain._paths is not None
        rows = data.draw(st.integers(1, 9))
        streams = _ReplicationStreams(data.draw(st.integers(0, 2**32)), 0,
                                      rows)
        draw_rows = data.draw(st.integers(1, rows))
        assert np.array_equal(byte_walk(model, length, streams, draw_rows),
                              level_walk(model, length, streams))

    def test_two_byte_states(self):
        model = make_chain("lazy-cycle-300")
        assert (model.chain._paths.radix, model.chain._paths.steps) == (5, 3)
        assert model.chain._state_dtype == np.uint16
        assert model._walk_table(1000) is model.chain._paths
        assert model._walk_table(64) is None
        streams = _ReplicationStreams(12, 0, 6)
        walk = byte_walk(model, 1000, streams, 4)
        assert walk.max() > 255
        assert np.array_equal(walk, level_walk(model, 1000, streams))

    def test_ranks_that_fill_a_byte(self, monkeypatch):
        # a table of 2 steps at radix 256 takes 17 * 256**2 * 2 entries
        monkeypatch.setattr(chains, "_PATH_TABLE_ENTRIES", 2**22)
        chain = rank_byte_chain()
        assert (chain._paths.radix, chain._paths.steps) == (256, 2)
        model = FiniteChainModel("rank-byte", chain,
                                 InitialDistribution.stationary(chain))
        assert chain._state_dtype == np.uint8
        assert model._walk_table(300) is chain._paths
        streams = _ReplicationStreams(3, 0, 40)
        ranks = np.empty((40, 300), dtype=np.uint8)
        chains._draw_ranks(chain, model.nu, streams.uniforms(300), ranks)
        assert ranks[:, 1:].max() == 255
        assert np.array_equal(byte_walk(model, 300, streams, 7),
                              level_walk(model, 300, streams))

    def test_segment_sums_copy_no_walk(self):
        # np.add.reduceat with an int64 dtype would cast the whole 5 MB
        # walk first, a 40 MB copy
        walk = np.random.default_rng(1).integers(0, 2, (500, 10_004),
                                                 dtype=np.uint8)
        windows = [(n, 4) for n in (10, 100, 1000, 10_000)]
        out = np.empty((len(windows), 500))
        tracemalloc.start()
        try:
            _window_deviations(walk, windows, 0.5, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * walk.nbytes
        want = np.array([np.abs(walk[:, n0:n0 + n].mean(axis=1) - 0.5)
                         for n, n0 in windows])
        assert out.tobytes() == want.tobytes()


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
        f = SingularFunction(0.6)
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

    def test_batched_starts_are_each_start_alone(self):
        # random chains, start laws and integer f with gaps: a start's row
        # does not depend on the other starts in the batch
        rng = np.random.default_rng(5)
        for size in (2, 3, 5, 12):
            weights = rng.random((size, size))
            weights += weights.T
            chain = FiniteChain.from_matrix(
                weights / weights.sum(axis=1, keepdims=True))
            starts = rng.dirichlet(np.ones(size), 6)
            f = rng.integers(-3, 4, size).astype(float)
            batched = estimator._exact_e1(chain, starts, f, 7)
            assert batched.shape == (6, 7)
            for row, start in zip(batched, starts):
                alone = estimator._exact_e1(chain, [start], f, 7)
                assert np.array_equal(row, alone[0])

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

    def test_equal_errors_fit_exactly(self):
        # no spread in log error: the flat line explains all of it
        fit = rate_regression([(n, 0.25) for n in (10, 100, 1000, 10000)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_needs_four_points(self):
        with pytest.raises(DomainError):
            rate_regression([(10, 1.0), (100, 0.5), (1000, 0.25)])

    def test_needs_four_distinct_sample_sizes(self):
        with pytest.raises(DomainError, match="4 distinct sample sizes"):
            rate_regression([(100, 1.0), (100, 0.9), (100, 1.1),
                             (100, 0.95)])

    def test_rejects_nonpositive_error(self):
        with pytest.raises(DomainError):
            rate_regression([(10, 1.0), (100, 0.5), (1000, 0.0),
                             (10000, 0.1)])

    def test_rejects_nonpositive_size(self):
        with pytest.raises(DomainError, match="sizes must be positive"):
            rate_regression([(0, 1.0), (100, 0.5), (1000, 0.2),
                             (10000, 0.1)])

    def test_r_squared_range_with_noise(self):
        rng = np.random.default_rng(5)
        points = [(n, n**(-0.4) * math.exp(0.05 * rng.standard_normal()))
                  for n in (10, 100, 1000, 10000, 100000)]
        fit = rate_regression(points)
        assert 0.0 <= fit.r_squared <= 1.0
        assert fit.points == tuple((float(n), float(e)) for n, e in points)
