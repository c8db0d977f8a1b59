"""Chain testbeds with exactly computable convergence constants.

Two families are provided.  Finite reversible chains admit brute-force
ground truth: the spectral gap comes from an eigendecomposition of the
stationarity-symmetrized transition matrix, and the total-variation decay
constants are certified against exact matrix powers.  A continuous family
(i.i.d. uniform draws and an independence Metropolis sampler on the unit
interval) hosts the heavy-tailed integrands ``x**-gamma`` whose stationary
variance is infinite, which no finite state space can produce.

Randomness is counter-based (Philox) and derived per replication from a
master seed, so every simulation is reproducible independently of execution
order, chunking, or thread count.  Replication ``r`` of master seed ``s``
draws from ``Philox(SeedSequence(entropy=s, spawn_key=(r,)))``.  A chunk of
replications is one :class:`_ReplicationStreams`, whose keys are derived in
one vectorised pass that reproduces numpy's ``SeedSequence`` hash; every
sampler is a function of its uniform matrix.  Short rows come from a numpy
Philox block function, longer ones from one generator re-keyed per row.
A finite walk steps by inverse CDF: the next state is the number of the
current row's CDF entries below the draw, counted over each state's
distinct CDF levels rather than entry by entry, so the same streams give
the same states.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import ChainParams
from .exceptions import (
    ChainValidationError,
    DivergenceError,
    DomainError,
    RegimeError,
)

__all__ = [
    "TV_RESOLUTION",
    "FiniteChain",
    "FiniteChainModel",
    "IidUniformSampler",
    "IndepMHSampler",
    "InitialDistribution",
    "PowerLawDensity",
    "SingularFunction",
    "finite_model",
    "load_chain",
    "make_chain",
    "simulate_trajectory",
    "singular_f",
    "spectral_gap_exact",
    "uniform_ergodicity_constants",
]

_MAX_STATES = 1000
_TV_HORIZON = 200
_ROW_SUM_TOL = 1e-12
_STATIONARY_TOL = 1e-10
_BALANCE_TOL = 1e-10
# columns of draws per time-major block; even, so that a block holds whole
# (proposal, acceptance) pairs of the independence sampler
_STEP_BLOCK = 256

# Below this total-variation level, float64 matrix powers measure the
# rounding of the matrix entries rather than chain convergence (a matrix
# like [[0.9, 0.1], ...] is not exactly stochastic in binary), so decay
# ratios are certified only above it and treated as zero underneath.
TV_RESOLUTION = 64.0 * float(np.finfo(float).eps)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _word_hasher(const: int, mult: int):
    """SeedSequence's word hash with its running constant.

    Each call XORs the word with the constant, advances the constant,
    multiplies by the new one and folds the high half into the low half.
    Words may be Python ints or uint32 arrays; arithmetic is modulo 2**32.
    """
    def hash_word(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hash_word


def _mix(x, y):
    """SeedSequence's mix of a pool word ``x`` with a hashed word ``y``."""
    value = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) \
        & _MASK32
    return value ^ value >> 16


def _stream_keys(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Philox keys of replications ``start .. stop-1``, one row each.

    Row ``i`` equals ``SeedSequence(entropy=master_seed, spawn_key=(start +
    i,)).generate_state(2, np.uint64)``.  The master seed's words are
    hashed into the pool once, as scalars; only the spawn-key word and the
    output hash run over the replications, as uint32 arrays.  Indices
    must be below 2**32, where numpy's spawn key is a single word.
    """
    if isinstance(master_seed, bool) or \
            not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
        raise DomainError("master seed must be a nonnegative integer")
    master_seed = int(master_seed)
    if not 0 <= start <= stop <= 2**32:
        raise DomainError("replication indices must lie in [0, 2**32)")
    words = [master_seed & _MASK32]
    while master_seed > _MASK32:
        master_seed >>= 32
        words.append(master_seed & _MASK32)
    # numpy pads the run entropy to the pool size when a spawn key follows
    words += [0] * (_POOL_SIZE - len(words))
    hash_word = _word_hasher(_INIT_A, _MULT_A)
    pool = [hash_word(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hash_word(pool[src]))
    # the remaining run-entropy words, then the spawn key: one word, r
    index = np.arange(start, stop, dtype=np.uint32)
    for word in words[_POOL_SIZE:] + [index]:
        pool = [_mix(entry, hash_word(word)) for entry in pool]
    hash_out = _word_hasher(_INIT_B, _MULT_B)
    out = [hash_out(entry).astype(np.uint64) for entry in pool]
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)


# Philox4x64-10 (Salmon et al., SC 2011) as numpy's Philox computes it.
# The two multiplied counter words (0 and 2) are kept together as lanes
# 0 and 1 of one array, with their multipliers and key bumps as columns.
_U32, _U11 = np.uint64(32), np.uint64(11)
_LOW32 = np.uint64(_MASK32)
_PHILOX_MULT = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                        dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                        dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_ROUNDS = 10
# rows per pass of the block function: its temporaries stay in cache
_PHILOX_SLICE = 2048
# the widest draw the block function serves (four Philox blocks); wider
# rows are cheaper through one re-keyed C generator per row
_PHILOX_MAX_WIDTH = 16


def _mulhilo(words: np.ndarray):
    """High and low 64-bit halves of ``_PHILOX_MULT * words``.

    The high half is assembled from products of 32-bit halves, none of
    which overflows 64 bits; the low half is the wrapping product.
    """
    m_lo, m_hi = _PHILOX_MULT & _LOW32, _PHILOX_MULT >> _U32
    w_lo, w_hi = words & _LOW32, words >> _U32
    mid = w_hi * m_lo
    mid += (w_lo * m_lo) >> _U32
    cross = w_lo * m_hi
    cross += mid & _LOW32
    high = w_hi * m_hi
    high += mid >> _U32
    high += cross >> _U32
    return high, words * _PHILOX_MULT


def _philox_uniforms(keys: np.ndarray, width: int) -> np.ndarray:
    """``width`` uniforms per Philox key: row ``r`` is bit for bit
    ``np.random.Generator(np.random.Philox(key=keys[r])).random(width)``.

    Block ``b`` of a stream is the Philox4x64-10 image of the counter
    ``(b + 1, 0, 0, 0)``; its four words are the stream's next four 64-bit
    outputs, and a double is the top 53 bits of a word times 2**-53.
    Every block of up to :data:`_PHILOX_SLICE` rows is computed in one
    array pass.
    """
    blocks = -(-width // 4)
    draws = np.empty((len(keys), width))
    for start in range(0, len(keys), _PHILOX_SLICE):
        key = keys[start:start + _PHILOX_SLICE].T[:, :, None]
        rows = key.shape[1]
        # counter words (0, 2) as lanes of `mixed`, words (1, 3) of `passed`
        mixed = np.zeros((2, rows, blocks), dtype=np.uint64)
        mixed[0] = np.arange(1, blocks + 1, dtype=np.uint64)
        passed = np.zeros_like(mixed)
        for step in range(_PHILOX_ROUNDS):
            if step:
                key = key + _PHILOX_BUMP
            high, low = _mulhilo(mixed)
            mixed = high[::-1] ^ passed
            mixed ^= key
            passed = low[::-1]
        words = np.stack([mixed[0], passed[0], mixed[1], passed[1]], axis=2)
        np.multiply(words.reshape(rows, -1)[:, :width] >> _U11, 2.0**-53,
                    out=draws[start:start + rows])
    return draws


class _ReplicationStreams:
    """The streams of replications ``start .. stop-1``, in order; samplers
    draw only through :meth:`uniforms`.  ``keys`` holds the streams'
    Philox keys, one row each."""

    def __init__(self, master_seed: int, start: int, stop: int):
        self.keys = _stream_keys(master_seed, start, stop)

    def __len__(self) -> int:
        return len(self.keys)

    def uniforms(self, width: int) -> np.ndarray:
        """The first ``width`` uniforms of every stream, one row each:
        from the block function up to :data:`_PHILOX_MAX_WIDTH`, else
        written by one generator re-keyed before each row to counter 0
        with an empty buffer, the state a fresh generator starts in."""
        if width <= _PHILOX_MAX_WIDTH:
            return _philox_uniforms(self.keys, width)
        bitgen = np.random.Philox(0)
        rng = np.random.Generator(bitgen)
        draws = np.empty((len(self.keys), width))
        for key, row in zip(self.keys.tolist(), draws):
            bitgen.state = {"bit_generator": "Philox",
                            "state": {"counter": (0, 0, 0, 0), "key": key},
                            "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                            "has_uint32": 0, "uinteger": 0}
            rng.random(out=row)
        return draws


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _finite_array(values, invariant: str) -> np.ndarray:
    """``values`` as a float array, or :class:`ChainValidationError` naming
    ``invariant`` when they are not an array of finite numbers."""
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError):
        raise ChainValidationError(invariant) from None
    if not np.isfinite(arr).all() or _holds_booleans(values):
        raise ChainValidationError(invariant)
    return arr


def _holds_booleans(values) -> bool:
    """Whether ``values`` has a boolean entry, which numpy would read as
    1.0 or 0.0."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        return values.dtype == bool
    kinds = set(map(type, np.asarray(values, dtype=object).flat))
    return bool in kinds or np.bool_ in kinds


# ---------------------------------------------------------------------------
# finite chains


class FiniteChain:
    """A validated row-stochastic matrix with its stationary distribution.

    Raises :class:`ChainValidationError` naming the violated invariant when
    the matrix is not a square array of finite numbers, exceeds 1000
    states, has negative entries or rows that do not sum to 1, when the
    stationary vector is not invariant, or when declared reversibility
    fails detailed balance.
    """

    def __init__(self, transition, stationary, reversible: bool = False):
        k = _transition_matrix(transition)
        pi = _finite_array(stationary, "stationary entries are finite numbers")
        if pi.shape != (k.shape[0],):
            raise ChainValidationError(
                "stationary vector length matches the state count")
        if (pi < 0).any():
            raise ChainValidationError("stationary entries are nonnegative")
        if abs(pi.sum() - 1.0) > _STATIONARY_TOL:
            raise ChainValidationError("stationary vector sums to 1")
        if np.abs(pi @ k - pi).max() > _STATIONARY_TOL:
            raise ChainValidationError(
                "stationary vector is invariant under the transition matrix")
        if reversible:
            flow = pi[:, None] * k
            if np.abs(flow - flow.T).max() > _BALANCE_TOL:
                raise ChainValidationError(
                    "detailed balance holds for a reversible chain")
        self.transition = _frozen_array(k)
        self.stationary = _frozen_array(pi)
        self.reversible = bool(reversible)
        self._levels, self._counts = _level_table(k)

    @property
    def size(self) -> int:
        return self.transition.shape[0]

    def expectation(self, f_values) -> float:
        """Stationary mean of the state values ``f_values``."""
        f = np.asarray(f_values, dtype=float)
        if np.all(f == f.flat[0]):
            # a constant integrates to itself exactly; the weighted dot
            # product would leave last-ulp residue from the computed pi
            return float(f.flat[0])
        return float(self.stationary @ f)

    @classmethod
    def from_matrix(cls, matrix,
                    reversible: bool | None = None) -> "FiniteChain":
        """Build a chain from a transition matrix alone.

        The stationary distribution is computed from the eigenvector of the
        transposed matrix at eigenvalue 1; reversibility is auto-detected
        via detailed balance unless declared explicitly.
        """
        k = _transition_matrix(matrix)
        eigenvalues, eigenvectors = np.linalg.eig(k.T)
        lead = int(np.argmin(np.abs(eigenvalues - 1.0)))
        pi = np.real(eigenvectors[:, lead])
        pi = np.where(np.abs(pi) < 1e-14, 0.0, pi)
        pi = pi / pi.sum()
        if reversible is None:
            flow = pi[:, None] * k
            reversible = bool(np.abs(flow - flow.T).max() <= _BALANCE_TOL)
        return cls(k, pi, reversible=reversible)


def _transition_matrix(matrix) -> np.ndarray:
    square = "transition matrix is a square array of finite numbers"
    k = _finite_array(matrix, square)
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ChainValidationError(square)
    if k.shape[0] > _MAX_STATES:
        raise ChainValidationError("state space has at most 1000 states")
    if (k < 0).any():
        raise ChainValidationError("transition entries are nonnegative")
    if np.abs(k.sum(axis=1) - 1.0).max() > _ROW_SUM_TOL:
        raise ChainValidationError("rows sum to 1")
    return k


def _level_table(k: np.ndarray):
    """Each state's distinct CDF values below 1.0 and their multiplicities.

    Column ``x`` of ``levels`` holds, in increasing order, the distinct
    values below 1.0 among the first ``S - 1`` entries of row ``x``'s CDF,
    padded with 1.0, which is never below a draw in [0, 1).  Column ``x``
    of ``counts`` holds how many of those entries equal each level; it is
    None when every level holds one entry.  A CDF row is nondecreasing
    (adding a nonnegative float never lowers a sum), so equal entries form
    runs, and a level is where a run starts.
    """
    size = len(k)
    cdf = np.cumsum(k, axis=1)[:, :-1]
    below = cdf < 1.0
    starts = below.copy()
    starts[:, 1:] &= cdf[:, 1:] != cdf[:, :-1]
    rows, cols = np.nonzero(starts)
    per_row = starts.sum(axis=1)
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(per_row) - per_row,
                                            per_row)
    width = int(per_row.max(initial=0))
    levels = np.ones((width, size))
    levels[rank, rows] = cdf[rows, cols]
    # a run's entries below 1.0 are those up to the next run's start: what
    # lies between is 1.0 or more, or in rows with no level at all
    runs = np.add.reduceat(below.ravel(), rows * (size - 1) + cols,
                           dtype=np.int64)
    if (runs == 1).all():
        return _frozen_array(levels), None
    counts = np.zeros((width, size), dtype=np.int64)
    counts[rank, rows] = runs
    return _frozen_array(levels), _frozen_array(counts, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class InitialDistribution:
    """A start distribution together with its density-ratio distance.

    ``dratio`` is ``max_i |nu_i / pi_i - 1|``, the quantity the burn-in
    recipes must neutralize; it is 0 for a stationary start.
    """

    nu: np.ndarray
    dratio: float

    def __post_init__(self) -> None:
        nu = _finite_array(self.nu, "nu entries are finite numbers")
        nu.setflags(write=False)
        object.__setattr__(self, "nu", nu)
        if (nu < 0).any():
            raise ChainValidationError("nu entries are nonnegative")
        if abs(nu.sum() - 1.0) > _STATIONARY_TOL:
            raise ChainValidationError("nu sums to 1")

    @classmethod
    def against(cls, nu, chain: FiniteChain) -> "InitialDistribution":
        nu = _finite_array(nu, "nu entries are finite numbers")
        pi = chain.stationary
        if nu.shape != pi.shape:
            raise ChainValidationError("nu has one entry per state")
        if ((pi == 0) & (nu > 0)).any():
            raise ChainValidationError(
                "dratio is finite (nu puts mass where stationary has none)")
        ratio = np.where(pi > 0, np.abs(np.divide(
            nu, pi, out=np.ones_like(nu), where=pi > 0) - 1.0), 0.0)
        return cls(nu, float(ratio.max()))

    @classmethod
    def stationary(cls, chain: FiniteChain) -> "InitialDistribution":
        return cls(chain.stationary.copy(), 0.0)

    @classmethod
    def point_mass(cls, state: int, chain: FiniteChain) -> "InitialDistribution":
        nu = np.zeros(chain.size)
        nu[state] = 1.0
        return cls.against(nu, chain)


# ---------------------------------------------------------------------------
# exact constants


def spectral_gap_exact(chain: FiniteChain) -> float:
    """1 minus the second-largest eigenvalue modulus, exactly.

    Requires reversibility: the transition matrix is then symmetrizable by
    the stationary weights and its spectrum is real, so the operator norm
    equals the spectral radius on the mean-zero subspace.
    """
    if not chain.reversible:
        raise RegimeError(
            "the exact spectral gap needs a reversible chain")
    pi = chain.stationary
    if (pi <= 0).any():
        # an irreducible chain puts positive stationary mass on every state
        raise DomainError("chain is reducible (its stationary distribution "
                          "has a zero entry)")
    root = np.sqrt(pi)
    sym = (root[:, None] / root[None, :]) * chain.transition
    sym = 0.5 * (sym + sym.T)
    eigenvalues = np.linalg.eigvalsh(sym)
    if len(eigenvalues) == 1:
        return 1.0
    slem = max(abs(float(eigenvalues[0])), abs(float(eigenvalues[-2])))
    return 1.0 - slem


def uniform_ergodicity_constants(chain: FiniteChain) -> tuple[float, float]:
    """Tightest certified total-variation decay constants ``(alpha, big_m)``.

    ``alpha`` is 1 minus the exact spectral gap; ``big_m`` is the largest
    ratio ``TV_n(x) / alpha**n`` over starts ``x`` and ``n`` up to 200,
    computed from matrix powers, so the decay bound holds on that horizon
    by construction.  The ratio scan stops once the computed distance
    falls below :data:`TV_RESOLUTION`, where float64 powers no longer
    carry decay signal.  An i.i.d. chain returns ``(0.0, 1.0)``.
    """
    gap = spectral_gap_exact(chain)
    alpha = 1.0 - gap
    if alpha <= 1e-12:
        return 0.0, 1.0
    if alpha >= 1.0 - 1e-12:
        raise DomainError(
            "chain is periodic or reducible (an eigenvalue has modulus 1)")
    alpha_pow = 1.0
    big_m = 0.0
    for tv in _worst_start_tv(chain, _TV_HORIZON):
        alpha_pow *= alpha
        if alpha_pow == 0.0 or tv <= TV_RESOLUTION:
            break
        big_m = max(big_m, float(tv) / alpha_pow)
    return alpha, big_m if big_m > 0.0 else 1.0


def _worst_start_tv(chain: FiniteChain, horizon: int):
    """Yield ``max_x TV(P^n(x, .), pi)`` for ``n = 1 .. horizon``."""
    pi = chain.stationary
    power = np.eye(chain.size)
    for _ in range(horizon):
        power = power @ chain.transition
        yield 0.5 * np.abs(power - pi[None, :]).sum(axis=1).max()


# ---------------------------------------------------------------------------
# simulation


def _batch_states(chain: FiniteChain, nu: InitialDistribution,
                  draws: np.ndarray) -> np.ndarray:
    """Trajectories by inverse-CDF stepping, one per row of ``draws``.

    Row ``r`` depends only on ``draws[r]``, so results are identical however
    replications are grouped into batches.  A state is the count of CDF
    entries below its draw.  A step counts them per distinct level of the
    current state's row (see :func:`_level_table`): ``x = sum_k counts[k,
    x] * (levels[k, x] < u)``, unweighted when every count is 1.  The last
    entry is 1.0 and never below a draw in [0, 1), so it is left out.
    """
    # the states overwrite the draws they are stepped from: a column is
    # written only after it has been read (column 0) or copied (blocks)
    states = draws.view(np.int64)
    cum_nu = np.cumsum(nu.nu)[:-1]
    x = (cum_nu[:, None] < draws[:, 0]).sum(axis=0)
    states[:, 0] = x
    levels, counts = chain._levels, chain._counts
    for start, block in _time_major_blocks(draws, 1):
        stepped = np.empty(block.shape, dtype=np.int64)
        for t, u in enumerate(block):
            hits = levels.take(x, axis=1) < u
            if counts is not None:
                hits = counts.take(x, axis=1) * hits
            x = stepped[t] = hits.sum(axis=0)
        states[:, start:start + len(stepped)] = stepped.T
    return states


def _time_major_blocks(draws: np.ndarray, first: int):
    """``(start, block)`` for the columns of ``draws`` from ``first`` on.

    ``block`` is a C-contiguous copy of ``draws[:, start:start + width].T``
    with ``width`` at most :data:`_STEP_BLOCK`, so that a time step, which
    reads one draw per row, reads a contiguous vector; and the block is
    small enough that its transposition and the write-back of the stepped
    block stay in cache.
    """
    for start in range(first, draws.shape[1], _STEP_BLOCK):
        yield start, np.ascontiguousarray(
            draws[:, start:start + _STEP_BLOCK].T)


def simulate_trajectory(chain: FiniteChain, nu: InitialDistribution,
                        length: int, seed: int) -> np.ndarray:
    """One state trajectory, ``X_1 ~ nu`` and then transition steps: the
    replication 0 of ``seed`` that ``simulate --trajectory`` prints."""
    if length < 1:
        raise DomainError("length must be at least 1")
    draws = _ReplicationStreams(seed, 0, 1).uniforms(length)
    return _batch_states(chain, nu, draws)[0]


# ---------------------------------------------------------------------------
# heavy-tailed integrands and continuous samplers


@dataclass(frozen=True)
class PowerLawDensity:
    """The normalized density ``(k+1) * x**k`` on (0, 1], ``k >= 0``.

    ``k = 0`` is the uniform distribution.  The density is bounded by
    ``beta = k + 1``, which is exactly the constant an independence sampler
    with uniform proposals needs.
    """

    k: float

    def __post_init__(self) -> None:
        if self.k < 0:
            raise DomainError("density is unbounded on (0, 1] for k < 0")

    @property
    def beta(self) -> float:
        return self.k + 1.0

    def pdf(self, x):
        return (self.k + 1.0) * np.power(x, self.k)

    def inverse_cdf(self, u):
        return np.power(u, 1.0 / (self.k + 1.0))


_UNIFORM = PowerLawDensity(0.0)


@dataclass(frozen=True)
class SingularFunction:
    """``f(x) = x**-gamma`` on (0, 1] with analytic moments.

    Under the density ``(k+1) x**k`` the mean is ``(k+1)/(k+1-gamma)`` and
    ``lp_norm(p)**p = (k+1)/(k+1-gamma*p)`` whenever ``gamma*p < k+1``;
    otherwise the moment diverges.  The tail index of ``f(X)`` under the
    uniform law is ``kappa = 1/gamma``; the variance is infinite as soon as
    ``gamma >= 1/2``.
    """

    gamma: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < 1.0:
            raise DomainError("gamma must lie in (0, 1)")

    @property
    def kappa(self) -> float:
        return 1.0 / self.gamma

    def __call__(self, x, out=None):
        return np.power(x, -self.gamma, out=out)

    def expectation(self, density: PowerLawDensity | None = None) -> float:
        density = density or _UNIFORM
        scale = density.k + 1.0
        return scale / (scale - self.gamma)

    def lp_norm(self, p: float, density: PowerLawDensity | None = None) -> float:
        if p < 1.0:
            raise DomainError("p must be at least 1")
        density = density or _UNIFORM
        scale = density.k + 1.0
        weight = self.gamma * p
        if weight >= scale:
            raise DivergenceError(
                f"the L_{p:g} norm diverges: gamma * p = {weight:g} "
                f">= {scale:g}")
        return (scale / (scale - weight)) ** (1.0 / p)


def singular_f(gamma: float) -> SingularFunction:
    """Heavy-tailed test integrand ``x**-gamma`` with exact moments."""
    return SingularFunction(gamma)


class _ContinuousSampler:
    """Moments of a singular integrand under the sampler's target."""

    target: PowerLawDensity

    def expectation(self, f: SingularFunction) -> float:
        return f.expectation(self.target)

    def lp_norm(self, f: SingularFunction, p: float) -> float:
        return f.lp_norm(p, self.target)


class IidUniformSampler(_ContinuousSampler):
    """Independent uniform draws, viewed as a chain with gap 1."""

    name = "iid-uniform"

    def __init__(self) -> None:
        self.target = _UNIFORM
        self.params = ChainParams(gap=1.0, alpha=0.0, big_m=1.0, dratio=0.0,
                                  reversible=True)

    def batch_values(self, f: SingularFunction, length: int,
                     streams) -> np.ndarray:
        # f of each stream's first `length` uniforms, written over them
        draws = streams.uniforms(length)
        return f(draws, out=draws)


class IndepMHSampler(_ContinuousSampler):
    """Independence Metropolis sampler with uniform proposals.

    The target density must be bounded by some ``beta``; the sampler is
    then uniformly ergodic with ``alpha = 1 - 1/beta``, prefactor 1, and
    spectral gap at least ``1/beta`` (reported as the certified gap).
    Trajectories start from the target itself, so ``dratio = 0``.
    """

    def __init__(self, target: PowerLawDensity,
                 name: str = "indep-mh") -> None:
        self.name = name
        self.target = target
        inv_beta = 1.0 / target.beta
        self.params = ChainParams(gap=inv_beta, alpha=1.0 - inv_beta,
                                  big_m=1.0, dratio=0.0, reversible=True)

    def batch_values(self, f, length: int, streams) -> np.ndarray:
        # a row's own uniforms: one initial inverse-CDF draw, then a
        # (proposal, acceptance) pair per step, keeping batching irrelevant
        draws = streams.uniforms(2 * length - 1)
        x = self.target.inverse_cdf(draws[:, 0])
        values = np.empty((draws.shape[0], length))
        values[:, 0] = f(x)
        for start, block in _time_major_blocks(draws, 1):
            stepped = np.empty((len(block) // 2, block.shape[1]))
            for t, (proposal, toss) in enumerate(zip(block[0::2],
                                                     block[1::2])):
                accept = toss * self.target.pdf(x) <= \
                    self.target.pdf(proposal)
                x = np.where(accept, proposal, x)
                stepped[t] = f(x)
            step = (start + 1) // 2   # columns 2t-1 and 2t drive step t
            values[:, step:step + len(stepped)] = stepped.T
        return values


# ---------------------------------------------------------------------------
# models and the chain zoo


@dataclass(frozen=True, eq=False)
class FiniteChainModel:
    """A finite chain bundled with a start law and certified constants."""

    name: str
    chain: FiniteChain
    nu: InitialDistribution
    params: ChainParams

    def expectation(self, f_values) -> float:
        return self.chain.expectation(f_values)

    def lp_norm(self, f_values, p: float) -> float:
        if p < 1.0:
            raise DomainError("p must be at least 1")
        weights = np.abs(np.asarray(f_values, dtype=float)) ** p
        return float(self.chain.stationary @ weights) ** (1.0 / p)

    def batch_values(self, f_values, length: int, streams) -> np.ndarray:
        """``f`` along each replication's walk, one row per stream.

        An integer-valued ``f`` whose walk sums stay below ``2**53`` in
        magnitude gives an int64 matrix, written over the states (which are
        the walk itself when ``f`` is ``arange(S)``), so its partial sums
        are exact; any other ``f`` gives the float matrix ``f[states]``.
        """
        f = np.asarray(f_values, dtype=float)
        states = _batch_states(self.chain, self.nu, streams.uniforms(length))
        if not (np.array_equal(f, np.round(f))
                and np.abs(f).max() * length < 2.0**53):
            return f[states]
        if np.array_equal(f, np.arange(f.size)):
            return states
        # states are in range; the default mode="raise" would write through
        # a buffered copy of `out`, a second matrix
        return f.astype(np.int64).take(states, out=states, mode="clip")


def finite_model(chain: FiniteChain, nu: InitialDistribution | None = None,
                 name: str = "custom") -> FiniteChainModel:
    """Bundle a reversible finite chain with its exact constants."""
    nu = nu if nu is not None else InitialDistribution.stationary(chain)
    gap = spectral_gap_exact(chain)
    alpha, big_m = uniform_ergodicity_constants(chain)
    params = ChainParams(gap=gap, alpha=alpha, big_m=big_m, dratio=nu.dratio,
                         reversible=True)
    return FiniteChainModel(name=name, chain=chain, nu=nu, params=params)


def make_chain(name: str):
    """Look up a built-in testbed by name.

    Finite members: ``two-state`` and ``lazy-cycle-S`` (hold 1/2, step to a
    neighbor with 1/4 each, ``S >= 3``).  Continuous members:
    ``iid-uniform`` and ``indep-mh-2x`` (independence sampler targeting the
    density ``2x``).
    """
    if name == "two-state":
        chain = FiniteChain.from_matrix([[0.9, 0.1], [0.2, 0.8]])
        return finite_model(chain, name=name)
    match = re.fullmatch(r"lazy-cycle-(\d+)", name)
    if match:
        size = int(match.group(1))
        if size < 3:
            raise DomainError("a lazy cycle needs at least 3 states")
        matrix = 0.5 * np.eye(size)
        for i in range(size):
            matrix[i, (i + 1) % size] += 0.25
            matrix[i, (i - 1) % size] += 0.25
        return finite_model(FiniteChain.from_matrix(matrix), name=name)
    if name == "iid-uniform":
        return IidUniformSampler()
    if name == "indep-mh-2x":
        return IndepMHSampler(PowerLawDensity(1.0), name)
    raise DomainError(f"unknown chain name: {name!r}")


def load_chain(source) -> FiniteChainModel:
    """Load a finite chain from a JSON document or file path.

    The document is ``{"matrix": [[...]], "nu": [...], "reversible": true}``
    with ``nu`` and ``reversible`` optional (stationary start and
    auto-detection by default).  ``reversible`` is a JSON boolean.
    Validation failures name the violated invariant.
    """
    if isinstance(source, dict):
        document = source
        name = "inline"
    else:
        path = Path(source)
        document = json.loads(path.read_text())
        name = path.name
    if not isinstance(document, dict):
        raise ChainValidationError("chain document is a JSON object")
    unknown = set(document) - {"matrix", "nu", "reversible"}
    if unknown:
        raise ChainValidationError(
            f"unknown chain fields: {sorted(unknown)}")
    if "matrix" not in document:
        raise ChainValidationError("chain document has a 'matrix' field")
    reversible = document.get("reversible")
    if not isinstance(reversible, (bool, type(None))):
        raise ChainValidationError("reversible is a JSON boolean")
    chain = FiniteChain.from_matrix(document["matrix"], reversible=reversible)
    if "nu" in document:
        nu = InitialDistribution.against(document["nu"], chain)
    else:
        nu = InitialDistribution.stationary(chain)
    return finite_model(chain, nu, name=name)
