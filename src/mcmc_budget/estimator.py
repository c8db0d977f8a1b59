"""Monte Carlo estimation of the absolute mean error of time averages.

The estimand is e1 = E|S - mu| where S is the burn-in-discarded time
average of f along the chain and mu the exact stationary expectation
supplied by the chain model.  Replications run on per-index counter-based
streams and are reduced by fixed-index aggregation, so results are
bit-identical however the work is chunked or threaded.  Wide ``iid-uniform``
rows are drawn, transformed and averaged a cache-sized block at a time on
every core, with no chunk matrix.  An integer-valued f on a finite chain is
reduced from exact partial sums of its int64 walk, which gives the window
means bit for bit without a float copy of the walk.

Because |S - mu| itself can have infinite variance in the heavy-tailed
regimes under study, the spread of the estimate is reported as half the
interquartile range of contiguous block means (median-of-means style)
instead of a standard error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import (
    _PHILOX_MAX_WIDTH,
    IidUniformSampler,
    _over_row_slices,
    _philox_state,
    _ReplicationStreams,
    _stream_keys,
)
from .exceptions import DomainError

__all__ = [
    "DEFAULT_CHUNK_ELEMENTS",
    "ErrorEstimate",
    "RateFit",
    "estimate_e1",
    "estimate_e1_windows",
    "exact_e1_small",
    "rate_regression",
]

DEFAULT_CHUNK_ELEMENTS = 8_000_000
_UNCERTAINTY_BLOCKS = 20
# replications whose stream keys the i.i.d. path derives at once, and the
# values of its rows each core holds at once (1 MB, half a core's L2 cache
# on the Xeon it was timed on), or one row if wider
_KEY_BLOCK = 1024
_CACHE_ELEMENTS = 2**17


@dataclass(frozen=True)
class ErrorEstimate:
    """Replicated estimate of the absolute mean error."""

    e1_hat: float
    uncertainty: float
    replications: int
    n: int
    n0: int

    def __post_init__(self) -> None:
        if self.e1_hat < 0:
            raise DomainError("e1_hat must be nonnegative")
        if self.uncertainty < 0:
            raise DomainError("uncertainty must be nonnegative")
        if self.replications < 2:
            raise DomainError("at least 2 replications are required")


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log error against log sample size."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple


def _check_window(n: int, n0: int) -> None:
    """Reject a window of fewer than one step or a negative burn-in."""
    if n < 1:
        raise DomainError("n must be at least 1")
    if n0 < 0:
        raise DomainError("n0 must be nonnegative")


def _deviations(model, f, windows, replications: int, master_seed: int,
                chunk_elements: int) -> np.ndarray:
    """``|S - mu|`` per window (row) and replication (column).

    One walk of ``max(n + n0)`` steps per replication serves every window:
    a shorter trajectory is a prefix of a longer one on the same stream.
    Rows of ``iid-uniform`` wider than the Philox block function serves
    are drawn, transformed and reduced a cache-sized block at a time on
    every core (:func:`_iid_deviations`), so no chunk matrix is built and
    ``chunk_elements`` does not apply; narrower rows come faster from the
    block function in one vectorised pass.  Other walks are drawn in
    chunks of equal size, each within ``chunk_elements`` values, and each
    is freed before the next is drawn (an uneven tail chunk raises the
    allocator's mmap threshold and so the peak resident memory).

    An integer walk (see ``FiniteChainModel.batch_values``) is reduced by
    :func:`_window_deviations`.  A float walk is reduced window by window
    with ``np.mean``.
    """
    if not windows:
        raise DomainError("at least one window is required")
    for n, n0 in windows:
        _check_window(n, n0)
    if replications < 2:
        raise DomainError("at least 2 replications are required")
    if replications > 2**32:
        # stream indices are single spawn-key words (chains._stream_keys)
        raise DomainError("at most 2**32 replications are supported")
    mu = model.expectation(f)
    length = max(n + n0 for n, n0 in windows)
    deviations = np.empty((len(windows), replications))
    if isinstance(model, IidUniformSampler) and length > _PHILOX_MAX_WIDTH:
        _iid_deviations(f, windows, mu, length, master_seed, deviations)
        return deviations
    rows_per_chunk = max(1, int(chunk_elements) // length)
    chunks = -(-replications // rows_per_chunk)
    for chunk in range(chunks):
        start = chunk * replications // chunks
        stop = (chunk + 1) * replications // chunks
        values = model.batch_values(
            f, length, _ReplicationStreams(master_seed, start, stop))
        if values.dtype.kind == "f":
            for k, (n, n0) in enumerate(windows):
                deviations[k, start:stop] = np.abs(
                    values[:, n0:n0 + n].mean(axis=1) - mu)
        else:
            _window_deviations(values, windows, mu,
                               deviations[:, start:stop])
        del values
    return deviations


def _iid_deviations(f, windows, mu: float, length: int, master_seed: int,
                    out: np.ndarray) -> None:
    """Write ``|S - mu|`` of every window of ``iid-uniform`` into ``out``
    (window by replication), a block of rows at a time.

    The replications are split into one contiguous row slice per core
    (``chains._over_row_slices``).  A slice derives its streams' keys
    :data:`_KEY_BLOCK` replications at a time.  It fills its one buffer of
    :data:`_CACHE_ELEMENTS` values (or one row, if wider) with whole rows,
    re-keying its generator before each, applies ``f`` there and takes
    every window's ``np.mean`` along the rows.  Each row is the one
    ``IidUniformSampler.batch_values`` gives that replication, so the
    bytes are those of the chunk path, whatever the core count.
    """
    rows = max(1, _CACHE_ELEMENTS // length)

    def reduce(start: int, stop: int, buffer: np.ndarray) -> None:
        bitgen = np.random.Philox(0)
        rng = np.random.Generator(bitgen)
        keys = (key for first in range(start, stop, _KEY_BLOCK)
                for key in _stream_keys(master_seed, first, min(
                    first + _KEY_BLOCK, stop)).tolist())
        buffer = buffer.reshape(rows, length)
        for first in range(start, stop, rows):
            block = buffer[:stop - first]
            # the block first: zip then takes no key past its last row
            for row, key in zip(block, keys):
                bitgen.state = _philox_state(key)
                rng.random(out=row)
            f(block, out=block)
            for k, (n, n0) in enumerate(windows):
                out[k, first:first + len(block)] = np.abs(
                    block[:, n0:n0 + n].mean(axis=1) - mu)

    _over_row_slices(reduce, out.shape[1], rows * length)


def _window_deviations(walk: np.ndarray, windows, mu: float,
                       out: np.ndarray) -> None:
    """Write ``|S - mu|`` of every window of an integer ``walk`` into
    ``out`` (window by replication).

    The walk's columns split into segments at every window boundary; one
    ``np.add.reduceat`` sums each segment and a running sum over those few
    columns gives every boundary's partial sum.  When every segment is one
    column (the oracle's short walks), the walk is its own segment sums and
    is summed in place instead.  Every partial sum is an integer below
    ``2**53``, exact in any order of addition, so a window's sum, the
    difference of the partial sums at its ends, divided by ``n`` is bit for
    bit ``np.mean`` of the window.
    """
    edges = sorted({0, *(b for n, n0 in windows for b in (n0, n0 + n))})
    if len(edges) > walk.shape[1]:
        partial = np.cumsum(walk, axis=1, out=walk)
    else:
        partial = np.add.reduceat(walk, edges[:-1], axis=1)
        np.cumsum(partial, axis=1, out=partial)
    # row i of `sums` is the sum of the first edges[i] columns
    sums = np.empty((len(edges), walk.shape[0]))
    sums[0] = 0.0
    sums[1:] = partial.T
    row = {b: i for i, b in enumerate(edges)}
    for k, (n, n0) in enumerate(windows):
        window = out[k]
        np.subtract(sums[row[n0 + n]], sums[row[n0]], out=window)
        window /= n
        window -= mu
        np.abs(window, out=window)


def _estimates(deviations: np.ndarray, windows) -> list:
    """One :class:`ErrorEstimate` per row of ``deviations``.

    The spread is half the interquartile range of the means of
    ``min(20, replications)`` contiguous blocks, split as
    ``np.array_split`` splits: the first ``replications % blocks`` blocks
    hold one replication more.  The block means and quartiles of every
    window are taken in one pass each; a row's figures are bit for bit
    those of that row on its own.
    """
    replications = deviations.shape[1]
    blocks = min(_UNCERTAINTY_BLOCKS, replications)
    size, longer = divmod(replications, blocks)
    split = longer * (size + 1)
    means = np.concatenate([
        deviations[:, :split].reshape(len(deviations), longer, size + 1)
        .mean(axis=2),
        deviations[:, split:].reshape(len(deviations), blocks - longer, size)
        .mean(axis=2)], axis=1)
    q1, q3 = np.percentile(means, [25.0, 75.0], axis=1)
    e1_hat = deviations.mean(axis=1)
    return [ErrorEstimate(e1_hat=float(e1_hat[k]),
                          uncertainty=0.5 * float(q3[k] - q1[k]),
                          replications=replications, n=n, n0=n0)
            for k, (n, n0) in enumerate(windows)]


def estimate_e1_windows(model, f, windows, replications: int,
                        master_seed: int,
                        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS):
    """Estimates of ``E|S - mu|`` for several ``(n, n0)`` windows at once.

    All windows observe the same walks, so a single generation pass of
    ``max(n + n0)`` steps serves every window; this is what makes sweeping
    many small windows, or a grid of ``n``, affordable.  Because a shorter
    trajectory is a prefix of a longer one from the same stream, each
    result is bit for bit what :func:`estimate_e1` returns for that window
    on its own.
    """
    windows = [(int(n), int(n0)) for n, n0 in windows]
    return _estimates(_deviations(model, f, windows, replications,
                                  master_seed, chunk_elements), windows)


def estimate_e1(model, f, n: int, n0: int, replications: int,
                master_seed: int,
                chunk_elements: int = DEFAULT_CHUNK_ELEMENTS) -> ErrorEstimate:
    """Replicated Monte Carlo estimate of ``E|S - mu|``."""
    return estimate_e1_windows(model, f, [(n, n0)], replications,
                               master_seed, chunk_elements)[0]


def exact_e1_small(chain, nu, f_values, n: int, n0: int) -> np.ndarray:
    """Exact ``E|S - mu|`` of every window ``1 .. n`` after burn-in ``n0``,
    by one forward recursion over (state, partial sum).

    After the exact burn-in, ``mass[s, k]`` is the probability of state ``s``
    with ``k`` as the window's sum of ``f - min f`` so far: the Markov-additive
    recursion (Asmussen 2003, *Applied Probability and Queues*, ch. XI).  The
    mass after ``m`` steps is window ``m + 1``, entry ``m`` of the result.  It
    costs ``O(n**2 S**2 (max f - min f))``; ``f`` needs integer differences.
    """
    _check_window(n, n0)
    f = np.asarray(f_values, dtype=float)
    lift = f - f.min()
    if not np.array_equal(lift, np.round(lift)):
        raise DomainError("the exact oracle needs f values with integer "
                          "differences")
    lift = lift.astype(np.int64)
    weights = nu.nu
    for _ in range(n0):
        weights = weights @ chain.transition
    size, reach = chain.size, int(lift.max())
    width = n * reach + 1
    mass = np.zeros((size, width))
    mass[np.arange(size), lift] = weights
    # an index below its row's start lands in the top max(lift) columns of
    # the row before (row 0: the last row), empty until the n-th value
    source = (np.arange(size)[:, None] * width + np.arange(width)
              - lift[:, None])
    mu = chain.expectation(f)
    e1 = np.empty(n)
    for m in range(n):
        if m:
            mass = (chain.transition.T @ mass).take(source)
        sums = np.arange((m + 1) * reach + 1)
        e1[m] = mass[:, :sums.size].sum(axis=0) @ np.abs(
            f.min() + sums / (m + 1) - mu)
    return e1


def _check_rate_sizes(sizes) -> None:
    """A rate fit needs at least 4 points at 4 distinct sample sizes."""
    if len(sizes) < 4:
        raise DomainError("rate regression needs at least 4 points")
    if len(set(sizes)) < 4:
        raise DomainError("rate regression needs at least 4 distinct "
                          "sample sizes")


def rate_regression(points) -> RateFit:
    """Least-squares slope of log error against log sample size."""
    cleaned = tuple((float(n), float(e1)) for n, e1 in points)
    _check_rate_sizes([n for n, _ in cleaned])
    if any(n <= 0 for n, _ in cleaned):
        raise DomainError("sample sizes must be positive")
    if any(e1 <= 0 for _, e1 in cleaned):
        raise DomainError("error values must be positive to take logs")
    log_n = np.log([n for n, _ in cleaned])
    log_e = np.log([e1 for _, e1 in cleaned])
    slope, intercept = np.polyfit(log_n, log_e, 1)
    residuals = log_e - (slope * log_n + intercept)
    total = float(np.sum((log_e - log_e.mean()) ** 2))
    if total == 0.0:
        r_squared = 1.0
    else:
        r_squared = 1.0 - float(np.sum(residuals**2)) / total
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=min(1.0, max(0.0, r_squared)),
        points=cleaned,
    )
