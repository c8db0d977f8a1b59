"""Chain testbeds with exactly computable convergence constants.

Two families are provided.  Finite reversible chains admit brute-force
ground truth: the spectral gap comes from an eigendecomposition of the
stationarity-symmetrized transition matrix, and the total-variation decay
constants are certified against exact matrix powers; each chain computes
them once, on first use, and keeps them.  A model's ``params`` are its
chain's constants with its start law's density ratio.  A continuous family
(i.i.d. uniform draws and an independence Metropolis sampler on the unit
interval) hosts the heavy-tailed integrands ``x**-gamma`` whose stationary
variance is infinite, which no finite state space can produce.

Randomness is counter-based (Philox) and derived per replication from a
master seed, so every simulation is reproducible independently of execution
order, chunking, or thread count.  Replication ``r`` of master seed ``s``
draws from ``Philox(SeedSequence(entropy=s, spawn_key=(r,)))``.  A block of
replications is one :class:`_ReplicationStreams`, whose keys are derived in
one vectorised pass that reproduces numpy's ``SeedSequence`` hash; every
model is a function of its uniform matrix.  Short rows come from a numpy
Philox block function, whose first round is in closed form (a block's
counter has one nonzero word) and whose other nine rounds write into
buffers reused across rounds.  Longer rows are drawn one at a time by a
generator re-keyed per row; a row depends only on its key.  Every model
states how its rows are blocked (``_layout``), fills the blocks it is
given, serially (``_fill``), and names the suites it runs (``suites``):
the estimator owns the row blocks (it splits the replications into one
slice per core, sizes and allocates each slice's buffers from the layout
and runs the slices), so this module only derives streams, draws, steps.
A finite walk steps by inverse CDF: the next state is the number of the
current row's CDF entries below the draw, counted over each state's
distinct CDF levels rather than entry by entry, so the same streams give
the same states.  That count depends on the draw only through its rank
among the chain's distinct CDF values below 1.0, so a long walk packs
several consecutive ranks into one code and looks up the states of those
steps in a per-chain table of every path, built on first use: the same
states, several steps per interpreted iteration.  Every walk is held as
integers, one byte a step on chains of at most 256 states and two up to
the 1000-state limit (:meth:`FiniteChainModel._walk`).
"""
from __future__ import annotations

import ctypes
import json
import math
import re
import threading
from dataclasses import dataclass
from functools import cached_property
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
# entries a chain's path table may hold (128 KB of one-byte states), and
# the walk length in columns above which a walk steps through it: shorter
# walks (the 8-step oracle windows) step faster by the level-table loop
_PATH_TABLE_ENTRIES = 2**17
_PATH_MIN_COLUMNS = 64
# the bytes of a block of walks each core holds at once: a walk pays its
# interpreted stepping loop once per block, so it takes 16 MB, 2**21 floats
# or 2**24 one-byte states (2**20 floats held less but ran slower).  i.i.d.
# rows only draw and transform, and keep theirs in cache (2**17 floats,
# 1 MB, half a core's L2 cache on the Xeon it was timed on), as do the
# draws of a walk through a path table
_WALK_BYTES = 2**24
_DRAW_BLOCK = 2**17

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
    i,)).generate_state(2, np.uint64)``.  numpy mixes the master seed into
    the same pool with or without a spawn key (it hashes missing words as
    zeros either way), so the pool is ``SeedSequence(master_seed).pool``;
    by then the hash constant has advanced ``4 * max(4, words)`` times for
    a seed of ``words`` 32-bit words.  Only the spawn-key word and the
    output hash run over the replications, as uint32 arrays.  Indices must
    be below 2**32, where numpy's spawn key is a single word.
    """
    if isinstance(master_seed, bool) or \
            not isinstance(master_seed, (int, np.integer)) or master_seed < 0:
        raise DomainError("master seed must be a nonnegative integer")
    master_seed = int(master_seed)
    if not 0 <= start <= stop <= 2**32:
        raise DomainError("replication indices must lie in [0, 2**32)")
    pool = np.random.SeedSequence(master_seed).pool.tolist()
    hashes = 4 * max(len(pool), -(-master_seed.bit_length() // 32))
    hash_word = _word_hasher(_INIT_A * pow(_MULT_A, hashes, 2**32) & _MASK32,
                             _MULT_A)
    # the spawn key: one word, r
    index = np.arange(start, stop, dtype=np.uint32)
    pool = [_mix(entry, hash_word(index)) for entry in pool]
    hash_out = _word_hasher(_INIT_B, _MULT_B)
    out = [hash_out(entry).astype(np.uint64) for entry in pool]
    return np.stack([out[0] | out[1] << 32, out[2] | out[3] << 32], axis=1)


# Philox4x64-10 (Salmon et al., SC 2011) as numpy's Philox computes it.
# The two multiplied counter words (0 and 2) are kept together as lanes
# 0 and 1 of one array, with their multipliers, the multipliers' 32-bit
# halves and their key bumps as columns.
_U32, _U11 = np.uint64(32), np.uint64(11)
_LOW32 = np.uint64(_MASK32)
_PHILOX_MULT_0 = 0xD2E7470EE14C6C93
_PHILOX_MULT = np.array([_PHILOX_MULT_0, 0xCA5A826395121157],
                        dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_MULT_LO, _PHILOX_MULT_HI = _PHILOX_MULT & _LOW32, _PHILOX_MULT >> _U32
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                        dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_ROUNDS = 10
# rows per pass of the block function: of 2048, 4096, 8192 and 20000, the
# fastest on an 8-step oracle draw of 20000 rows
_PHILOX_SLICE = 4096
# the widest draw the block function serves (four Philox blocks); wider
# rows are cheaper through re-keyed C generators
_PHILOX_MAX_WIDTH = 16


def _philox_uniforms(keys: np.ndarray, width: int,
                     out: np.ndarray | None = None) -> np.ndarray:
    """``width`` uniforms per Philox key, in ``out`` if given: row ``r``
    is bit for bit
    ``np.random.Generator(np.random.Philox(key=keys[r])).random(width)``.

    Block ``b`` of a stream is the Philox4x64-10 image of the counter
    ``(b + 1, 0, 0, 0)``; its four words are the stream's next four 64-bit
    outputs, and a double is the top 53 bits of a word times 2**-53.  The
    first round is in closed form: only counter word 0 is nonzero, so it
    leaves the words ``(k0, 0, k1 ^ H_b, L_b)``, where ``H_b`` and ``L_b``
    are the high and low 64 bits of the multiplier times ``b + 1``.  Each
    slice of up to :data:`_PHILOX_SLICE` rows then takes the other nine
    rounds in one array pass, writing into buffers allocated once per
    slice; the high half of a product is assembled from products of 32-bit
    halves, none of which overflows 64 bits.
    """
    blocks = -(-width // 4)
    first = [_PHILOX_MULT_0 * (b + 1) for b in range(blocks)]
    first_high = np.array([p >> 64 for p in first], dtype=np.uint64)
    first_low = np.array([p & 2**64 - 1 for p in first], dtype=np.uint64)
    draws = np.empty((len(keys), width)) if out is None else out
    for start in range(0, len(keys), _PHILOX_SLICE):
        key = keys[start:start + _PHILOX_SLICE].T[:, :, None].copy()
        rows = key.shape[1]
        # counter words (0, 2) as lanes of `mixed`, words (1, 3) of `passed`
        mixed, passed, low, w_lo, w_hi, mid, part = (
            np.empty((2, rows, blocks), dtype=np.uint64) for _ in range(7))
        mixed[0] = key[0]
        np.bitwise_xor(key[1], first_high, out=mixed[1])
        passed[0] = 0
        passed[1] = first_low
        for _ in range(_PHILOX_ROUNDS - 1):
            key += _PHILOX_BUMP
            np.multiply(mixed, _PHILOX_MULT, out=low)
            np.bitwise_and(mixed, _LOW32, out=w_lo)
            np.right_shift(mixed, _U32, out=w_hi)
            np.multiply(w_hi, _PHILOX_MULT_LO, out=mid)
            np.multiply(w_lo, _PHILOX_MULT_LO, out=part)
            part >>= _U32
            mid += part
            w_lo *= _PHILOX_MULT_HI      # the cross term
            np.bitwise_and(mid, _LOW32, out=part)
            w_lo += part
            w_hi *= _PHILOX_MULT_HI      # the high half
            mid >>= _U32
            w_hi += mid
            w_lo >>= _U32
            w_hi += w_lo
            np.bitwise_xor(w_hi[::-1], passed, out=mixed)
            mixed ^= key
            # the lanes swap by view: `low` reversed is the next `passed`
            passed, low = low[::-1], passed[::-1]
        words = np.stack([mixed[0], passed[0], mixed[1], passed[1]], axis=2)
        np.multiply(words.reshape(rows, -1)[:, :width] >> _U11, 2.0**-53,
                    out=draws[start:start + rows])
    return draws


def _empty_rows(rows: int, width: int, dtype=np.float64) -> np.ndarray:
    """An uninitialised ``rows`` by ``width`` matrix of ``dtype``; raises
    :class:`DomainError` when numpy cannot shape it."""
    try:
        return np.empty((rows, width), dtype=dtype)
    except ValueError:   # more elements or bytes than an array can hold
        raise DomainError(f"{width} draws per replication are more than "
                          "an array can hold") from None


def _philox_state(key) -> dict:
    """The state of a fresh ``np.random.Philox(key=key)``: counter 0 and an
    empty buffer, so that the next draws start the stream of ``key``."""
    return {"bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": key},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}


class _ReplicationStreams:
    """The streams of replications ``start .. stop-1``, in order; samplers
    draw only through :meth:`uniforms`.  ``keys`` holds the streams'
    Philox keys, one row each.  One generator, re-keyed per row, serves
    the streams and every part taken from them, so they are for one thread
    at a time."""

    def __init__(self, master_seed: int, start: int, stop: int):
        self.keys = _stream_keys(master_seed, start, stop)
        self._rng = np.random.Generator(np.random.Philox(0))

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, rows: slice) -> "_ReplicationStreams":
        """The streams of ``rows``, without deriving their keys again."""
        part = object.__new__(_ReplicationStreams)
        part.keys, part._rng = self.keys[rows], self._rng
        return part

    def uniforms(self, width: int,
                 out: np.ndarray | None = None) -> np.ndarray:
        """The first ``width`` uniforms of every stream, one row each, in
        the C-contiguous matrix ``out`` if given.

        Up to :data:`_PHILOX_MAX_WIDTH` they come from the block function.
        Wider rows are drawn one at a time by the generator, re-keyed
        before each row to the state a fresh generator starts in
        (:func:`_philox_state`).  A row depends only on its key, so the
        bytes do not depend on how the streams are grouped.  Without
        ``out``, raises :class:`DomainError` when numpy cannot shape the
        matrix.
        """
        if width <= _PHILOX_MAX_WIDTH:
            return _philox_uniforms(self.keys, width, out)
        draws = _empty_rows(len(self), width) if out is None else out
        bitgen = self._rng.bit_generator
        for key, row in zip(self.keys.tolist(), draws):
            bitgen.state = _philox_state(key)
            self._rng.random(out=row)
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


def _one_blas_thread(solve, matrix):
    """``solve(matrix)`` on one thread of numpy's OpenBLAS (scipy-openblas
    in numpy 2), whose thread count follows the cores and moves the last
    bits of an eigensolver's result; without it, on the default count."""
    library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        get = getattr(library, f"{prefix}_get_num_threads64_", None)
        put = getattr(library, f"{prefix}_set_num_threads64_", None)
        if get and put:
            count = get()
            put(1)
            try:
                return solve(matrix)
            finally:
                put(count)
    return solve(matrix)


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
        self._tvs: list = []   # worst-start distances read so far
        self._tv_lock = threading.Lock()   # held while a read extends them

    @property
    def size(self) -> int:
        return self.transition.shape[0]

    @property
    def _state_dtype(self) -> np.dtype:
        """The integer dtype of the chain's walks and path table: one byte
        a state on chains of at most 256 states, two above."""
        return np.dtype(np.uint8 if self.size <= 256 else np.uint16)

    @cached_property
    def _paths(self) -> "_PathTable | None":
        """The chain's path table (:func:`_path_table`), built on first
        use and freed with the chain."""
        return _path_table(self)

    @cached_property
    def _gap(self) -> float:
        """:func:`spectral_gap_exact`, computed on first use and kept."""
        if not self.reversible:
            raise RegimeError(
                "the exact spectral gap needs a reversible chain")
        pi = self.stationary
        if (pi <= 0).any():
            # an irreducible chain puts positive stationary mass on every state
            raise DomainError("chain is reducible (its stationary "
                              "distribution has a zero entry)")
        root = np.sqrt(pi)
        sym = (root[:, None] / root[None, :]) * self.transition
        sym = 0.5 * (sym + sym.T)
        eigenvalues = _one_blas_thread(np.linalg.eigvalsh, sym)
        if len(eigenvalues) == 1:
            return 1.0
        slem = max(abs(float(eigenvalues[0])), abs(float(eigenvalues[-2])))
        return 1.0 - slem

    def _worst_start_tvs(self):
        """Yield ``max_x TV(P^n(x, .), pi)`` for ``n = 1 .. 200``.

        The chain keeps a list of the distances read so far and the last
        matrix power, which a read extends, so each power is computed once
        per chain, as far as :attr:`_decay` or the constants suite reads.
        A read checks and extends them under the chain's lock, so threads
        that share the chain append each power once.
        """
        for n in range(_TV_HORIZON):
            with self._tv_lock:
                if n == len(self._tvs):
                    self._power = (self._power if n else np.eye(self.size)) \
                        @ self.transition
                    offset = self._power - self.stationary[None, :]
                    self._tvs.append(0.5 * np.abs(offset).sum(axis=1).max())
            yield self._tvs[n]

    @cached_property
    def _decay(self) -> tuple[float, float]:
        """:func:`uniform_ergodicity_constants`, computed on first use from
        :attr:`_gap` and kept."""
        alpha = 1.0 - self._gap
        if alpha <= 1e-12:
            return 0.0, 1.0
        if alpha >= 1.0 - 1e-12:
            raise DomainError(
                "chain is periodic or reducible (an eigenvalue has modulus 1)")
        alpha_pow = 1.0
        big_m = 0.0
        for tv in self._worst_start_tvs():
            alpha_pow *= alpha
            if alpha_pow == 0.0 or tv <= TV_RESOLUTION:
                break
            big_m = max(big_m, float(tv) / alpha_pow)
        return alpha, big_m if big_m > 0.0 else 1.0

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
        eigenvalues, eigenvectors = _one_blas_thread(np.linalg.eig, k.T)
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
    None when every level holds one entry.
    """
    cdf = np.cumsum(k, axis=1)[:, :-1]
    table = [np.unique(row[row < 1.0], return_counts=True) for row in cdf]
    width = max((len(row_levels) for row_levels, _ in table), default=0)
    levels = np.ones((width, len(k)))
    counts = np.zeros((width, len(k)), dtype=np.int64)
    for x, (row_levels, row_counts) in enumerate(table):
        levels[:len(row_levels), x] = row_levels
        counts[:len(row_counts), x] = row_counts
    if (counts <= 1).all():
        return _frozen_array(levels), None
    return _frozen_array(levels), _frozen_array(counts, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class _PathTable:
    """Every walk of ``steps`` steps of a chain, by start and draw ranks.

    ``levels`` holds the chain's distinct CDF values below 1.0, in
    increasing order.  A draw's rank is the number of levels below it, one
    of ``radix = len(levels) + 1`` values, and ``steps`` consecutive ranks
    ``q_0 .. q_{steps-1}`` pack into the code ``sum_i q_i * radix**i``.
    Row ``x * radix**steps + code`` of ``paths`` holds the states after each
    of those steps from state ``x``; the same entry of ``ends`` is the last
    of them times ``radix**steps``, the row offset of the next steps.
    ``paths`` holds the chain's :attr:`FiniteChain._state_dtype`, the
    dtype of the walks it steps.
    """

    levels: np.ndarray
    steps: int
    paths: np.ndarray
    ends: np.ndarray

    @property
    def radix(self) -> int:
        return len(self.levels) + 1


def _path_table(chain: FiniteChain) -> _PathTable | None:
    """The path table of ``chain`` for the most steps whose ``S *
    radix**steps * steps`` entries fit :data:`_PATH_TABLE_ENTRIES`, at most
    :data:`_STEP_BLOCK`; None when fewer than two steps fit, where a table
    saves no interpreter iteration.

    A draw ``u`` of rank ``q`` sends state ``x`` to the number of row
    ``x``'s CDF entries below ``u``: those at or below level ``q - 1``.
    Entries of 1.0 or more exceed every level and every draw.
    """
    size = chain.size
    cdf = np.cumsum(chain.transition, axis=1)[:, :-1]
    levels = np.unique(cdf[cdf < 1.0])
    radix = len(levels) + 1
    steps = 0
    while steps < _STEP_BLOCK and \
            size * radix**(steps + 1) * (steps + 1) <= _PATH_TABLE_ENTRIES:
        steps += 1
    if steps < 2:
        return None
    step = np.zeros((size, radix), dtype=np.int64)
    for rank, level in enumerate(levels, 1):
        step[:, rank] = (cdf <= level).sum(axis=1)
    span = radix**steps
    codes = np.arange(span)
    x = np.arange(size)[:, None]
    paths = np.empty((size, span, steps), dtype=chain._state_dtype)
    for i in range(steps):
        x = paths[:, :, i] = step[x, codes // radix**i % radix]
    paths = paths.reshape(size * span, steps)
    ends = paths[:, -1].astype(np.int64) * span
    for table in (levels, paths, ends):
        table.setflags(write=False)
    return _PathTable(levels, steps, paths, ends)


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
    return chain._gap


def uniform_ergodicity_constants(chain: FiniteChain) -> tuple[float, float]:
    """Tightest certified total-variation decay constants ``(alpha, big_m)``.

    ``alpha`` is 1 minus the exact spectral gap; ``big_m`` is the largest
    ratio ``TV_n(x) / alpha**n`` over starts ``x`` and ``n`` up to 200,
    computed from matrix powers, so the decay bound holds on that horizon
    by construction.  The ratio scan stops once the computed distance
    falls below :data:`TV_RESOLUTION`, where float64 powers no longer
    carry decay signal.  An i.i.d. chain returns ``(0.0, 1.0)``.
    """
    return chain._decay


# ---------------------------------------------------------------------------
# simulation


def _start_states(nu: InitialDistribution, u: np.ndarray) -> np.ndarray:
    """The start state of each draw of ``u``: the count of ``nu``'s CDF
    entries below it."""
    return np.searchsorted(np.cumsum(nu.nu)[:-1], u)


def _draw_ranks(chain: FiniteChain, nu: InitialDistribution,
                draws: np.ndarray, walk: np.ndarray) -> None:
    """Write each row's start state into column 0 of the integer ``walk``,
    and the rank of each later draw among the path table's levels (the
    number of levels below it) into the same column of ``walk``, ready
    for :func:`_table_steps`: a fill of a table walk."""
    walk[:, 0] = _start_states(nu, draws[:, 0])
    ranks = walk[:, 1:]
    ranks[...] = 0
    for level in chain._paths.levels:
        ranks += draws[:, 1:] > level


def _level_steps(chain: FiniteChain, nu: InitialDistribution,
                 draws: np.ndarray, walk: np.ndarray) -> None:
    """Write each row's start state into column 0 of the integer ``walk``
    and step it through the later columns of ``draws``, one interpreted
    step per column, writing each state into the same column of ``walk``:
    a fill of a level walk.

    A step counts the CDF entries below the draw per distinct level of
    the current state's row (see :func:`_level_table`): ``x = sum_k
    counts[k, x] * (levels[k, x] < u)``, unweighted when every count is 1.
    The last entry is 1.0 and never below a draw in [0, 1), so it is left
    out.
    """
    x = walk[:, 0] = _start_states(nu, draws[:, 0])
    levels, counts = chain._levels, chain._counts
    for start, block in _time_major_blocks(draws, 1):
        stepped = np.empty(block.shape, dtype=walk.dtype)
        for t, u in enumerate(block):
            hits = levels.take(x, axis=1) < u
            if counts is not None:
                hits = counts.take(x, axis=1) * hits
            x = stepped[t] = hits.sum(axis=0)
        walk[:, start:start + len(stepped)] = stepped.T


def _table_steps(table: _PathTable, walk: np.ndarray) -> None:
    """:func:`_level_steps` through the path table, ``table.steps`` steps
    per interpreted iteration, on an integer ``walk`` of the table's dtype
    that holds the start states in column 0 and draw ranks after them
    (:func:`_draw_ranks`); the states are written over the ranks.

    Each time block of whole groups of ``steps`` columns (the last one
    padded with rank 0, whose paths are cut off) becomes codes by Horner's
    rule.  One add and one ``take`` per group find each row's path-table
    row; one gather then writes the block's states over its ranks, after
    they were read.
    """
    rows, length = walk.shape
    steps, radix = table.steps, table.radix
    offset = walk[:, 0].astype(np.int64) * radix**steps
    width = _STEP_BLOCK // steps * steps
    for start in range(1, length, width):
        block = walk[:, start:start + width]
        cols = block.shape[1]
        groups = -(-cols // steps)
        ranks = block
        if cols < groups * steps:
            ranks = np.zeros((rows, groups * steps), dtype=walk.dtype)
            ranks[:, :cols] = block
        ranks = ranks.reshape(rows, groups, steps)
        codes = ranks[:, :, -1].astype(np.int64)
        for i in range(steps - 2, -1, -1):
            codes *= radix
            codes += ranks[:, :, i]
        index = np.ascontiguousarray(codes.T)
        for row in index:
            row += offset
            offset = table.ends.take(row)
        block[...] = table.paths.take(
            index.T, axis=0).reshape(rows, -1)[:, :cols]


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


class _ContinuousSampler:
    """Moments of a singular integrand under the sampler's target; the
    sampler states its layout and fills its blocks with ``f``'s values."""

    target: PowerLawDensity
    suites = ("rate",)

    def expectation(self, f: SingularFunction) -> float:
        return f.expectation(self.target)

    def lp_norm(self, f: SingularFunction, p: float) -> float:
        return f.lp_norm(p, self.target)

    def _fill(self, f: SingularFunction, length: int, streams,
              block: np.ndarray, draws: np.ndarray):
        """Yield ``(0, values)`` once: ``f``'s values on every stream,
        written over their draws in ``block``; ``draws`` stays unused."""
        yield 0, self.batch_values(f, length, streams, out=block)


class IidUniformSampler(_ContinuousSampler):
    """Independent uniform draws, viewed as a chain with gap 1."""

    name = "iid-uniform"

    def __init__(self) -> None:
        self.target = _UNIFORM
        self.params = ChainParams(gap=1.0, alpha=0.0, big_m=1.0, dratio=0.0,
                                  reversible=True)

    def _layout(self, length: int) -> tuple:
        """Rows of ``length`` uniforms, transformed in place, in cache."""
        return length, np.float64, _DRAW_BLOCK, 0, False

    def batch_values(self, f: SingularFunction, length: int, streams,
                     out: np.ndarray | None = None) -> np.ndarray:
        # f of each stream's first `length` uniforms, written over them
        draws = streams.uniforms(length, out)
        f(draws, out=draws)
        return draws


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

    def _layout(self, length: int) -> tuple:
        """Walks of a start draw and a (proposal, acceptance) pair a step,
        whose values are written over their first draws."""
        return 2 * length - 1, np.float64, _WALK_BYTES // 8, 0, True

    def batch_values(self, f, length: int, streams,
                     out: np.ndarray | None = None) -> np.ndarray:
        # a row's own uniforms: one initial inverse-CDF draw, then a
        # (proposal, acceptance) pair per step, keeping batching irrelevant.
        # In `out`, step t's value is written over draw t, which the block
        # of step t's pair, or an earlier one, has already copied
        draws = streams.uniforms(2 * length - 1, out)
        x = self.target.inverse_cdf(draws[:, 0])
        values = np.empty((len(draws), length)) if out is None \
            else draws[:, :length]
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
    """A finite chain bundled with a start law; its certified constants
    are the chain's, with the start's density ratio."""

    name: str
    chain: FiniteChain
    nu: InitialDistribution
    suites = ("constants", "oracle", "bound-dominance")

    @property
    def params(self) -> ChainParams:
        alpha, big_m = uniform_ergodicity_constants(self.chain)
        return ChainParams(gap=spectral_gap_exact(self.chain), alpha=alpha,
                           big_m=big_m, dratio=self.nu.dratio,
                           reversible=True)

    def expectation(self, f_values) -> float:
        return self.chain.expectation(f_values)

    def lp_norm(self, f_values, p: float) -> float:
        if p < 1.0:
            raise DomainError("p must be at least 1")
        f = np.abs(np.asarray(f_values, dtype=float))
        with np.errstate(over="ignore"):
            norm = float(self.chain.stationary @ f**p) ** (1.0 / p)
        if math.isinf(norm):   # |f|**p overflowed where the norm need not
            scale = float(f.max())
            norm = scale * float(self.chain.stationary
                                 @ (f / scale)**p) ** (1.0 / p)
        return norm

    def _layout(self, length: int) -> tuple:
        """Walks of ``length`` integer states, drawn through a float fill
        of :data:`_DRAW_BLOCK` values on a path table, and of the whole
        block on a level walk, so that its stepping loop runs once per
        block (fills of 2**17 values took a dense 40-state chain at
        4000 x 1000 from 0.30 to 0.94 s on a 2-core Xeon)."""
        dtype = self.chain._state_dtype
        if self._walk_table(length) is None:
            return length, dtype, _WALK_BYTES // 8, _WALK_BYTES // 8, True
        return length, dtype, _WALK_BYTES // dtype.itemsize, _DRAW_BLOCK, True

    def _walk_table(self, length: int) -> _PathTable | None:
        """The path table a walk of ``length`` columns steps through, or
        None where the level-table loop steps it: on walks of at most
        :data:`_PATH_MIN_COLUMNS` columns, which step faster so, and on
        chains with no table."""
        return self.chain._paths if length > _PATH_MIN_COLUMNS else None

    def _walk(self, length: int, streams, out: np.ndarray,
              draws: np.ndarray) -> np.ndarray:
        """Each replication's walk of ``length`` states, one row per
        stream, in the integer block ``out`` of
        :attr:`FiniteChain._state_dtype`, which it returns.

        The uniforms are drawn into ``draws``, a flat float buffer of at
        least one row, as many whole rows at a time as it holds.  Each
        fill becomes its rows' states by the level-table loop
        (:func:`_level_steps`), which so runs once per fill, or their draw
        ranks (:func:`_draw_ranks`), which the path table then steps once
        over the block (:func:`_table_steps`), as :meth:`_walk_table`
        chooses.
        """
        table = self._walk_table(length)
        fill = _level_steps if table is None else _draw_ranks
        per_fill = max(1, len(draws) // length)
        for start in range(0, len(streams), per_fill):
            part = streams[start:start + per_fill]
            fill(self.chain, self.nu, part.uniforms(
                length, draws[:len(part) * length].reshape(-1, length)),
                out[start:start + len(part)])
        if table is not None:
            _table_steps(table, out)
        return out

    def _fill(self, f_values, length: int, streams, block: np.ndarray,
              draws: np.ndarray):
        """Walk the streams into the integer ``block`` (:meth:`_walk`) and
        yield ``(row, values)`` for its rows from ``row`` on: the walk
        itself once when ``f`` is ``arange(S)``, which is reduced from
        exact int64 sums, and otherwise ``f``'s float64 values at its
        states a fill at a time, in ``draws``, whose sums of integers are
        exact too; both give the window means bit for bit."""
        walk = self._walk(length, streams, block, draws)
        f = np.asarray(f_values, dtype=float)
        if np.array_equal(f, np.arange(f.size)):
            yield 0, walk
            return
        rows = max(1, len(draws) // length)
        for row in range(0, len(walk), rows):
            states = walk[row:row + rows]
            yield row, f.take(states, mode="clip", out=draws[
                :states.size].reshape(states.shape))

    def batch_values(self, f_values, length: int, streams) -> np.ndarray:
        """``f``'s values along each replication's walk, one float row per
        stream (:meth:`_walk`)."""
        draws = _empty_rows(len(streams), length)
        walk = np.empty(draws.shape, dtype=self.chain._state_dtype)
        self._walk(length, streams, walk, draws.reshape(-1))
        return np.asarray(f_values, dtype=float).take(walk)


def finite_model(chain: FiniteChain, nu: InitialDistribution | None = None,
                 name: str = "custom") -> FiniteChainModel:
    """Bundle a reversible finite chain with its exact constants; refuses
    a chain that is not reversible, irreducible and aperiodic."""
    nu = nu if nu is not None else InitialDistribution.stationary(chain)
    model = FiniteChainModel(name=name, chain=chain, nu=nu)
    model.params   # computes the chain's constants, or raises
    return model


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
        if size > _MAX_STATES:   # refused before its matrix is allocated
            raise ChainValidationError("state space has at most 1000 states")
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
