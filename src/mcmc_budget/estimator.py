"""Monte Carlo estimation of the absolute mean error of time averages.

The estimand is e1 = E|S - mu| where S is the burn-in-discarded time
average of f along the chain and mu the exact stationary expectation
supplied by the chain model.  Replications run on per-index counter-based
streams and are reduced by fixed-index aggregation, so results are
bit-identical however the work is chunked or threaded.  Every model's rows
are drawn, stepped and reduced a block at a time on every core, in one
buffer per core, with no matrix of every walk.  An integer-valued f on a
finite chain is reduced from exact partial sums of its int64 walk, which
gives the window means bit for bit without a float copy of the walk.

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
    _ReplicationStreams,
)
from .exceptions import DomainError, NumericalError

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
# the uniforms of a block of rows each core holds at once.  A walk pays its
# interpreted stepping loop once per block, so it takes 2**21 (16 MB; 2**20
# held less but ran slower); i.i.d. rows only draw and transform, and keep
# theirs in cache (1 MB, half a core's L2 cache on the Xeon it was timed on)
_WALK_BLOCK = 2**21
_DRAW_BLOCK = 2**17
# a walk's stepping loop makes one interpreted numpy call per step over a
# block's rows, holding the interpreter lock; on blocks of fewer rows than
# this the calls cost more than the work they start, so threads only
# contend and such a walk runs on one thread (two-state, 1000 walks of
# 10004 steps in 12-row blocks: 344 ms on one thread, 560 ms on two)
_THREADED_WALK_ROWS = 128
# replications whose stream keys a slice derives at once: a derivation
# costs ~0.1 ms however few keys it gives
_KEY_BLOCK = 1024


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
    The replications are split into one contiguous row slice per core
    (``chains._over_row_slices``), each with one buffer of its own.  A
    slice derives its streams' keys at least :data:`_KEY_BLOCK` rows at a
    time, and for each block of rows has the model draw, step and
    transform the block in its buffer (``batch_values``), then reduces
    every window into the block's own columns.  A block holds at most
    ``chunk_elements`` uniforms, and at most :data:`_WALK_BLOCK` on a walk
    or :data:`_DRAW_BLOCK` on ``iid-uniform``, or one row if wider.  Two
    cases take one slice, on the calling thread: rows of at most
    :data:`~mcmc_budget.chains._PHILOX_MAX_WIDTH` uniforms (the oracle's),
    where the Philox block function draws a whole block in one vectorised
    pass, and walks in blocks of fewer than :data:`_THREADED_WALK_ROWS`
    rows.  A row depends only on its stream, so the bytes do not depend on
    the core count or the block size.

    An integer walk (see ``FiniteChainModel.batch_values``) is reduced by
    :func:`_window_deviations`.  A float walk is reduced window by window
    with ``np.mean``; a sum that overflows gives an infinite deviation,
    which :func:`_estimates` refuses.
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
    width = model.uniform_width(length)
    deviations = np.empty((len(windows), replications))
    iid = isinstance(model, IidUniformSampler)
    block = int(chunk_elements)
    if width > _PHILOX_MAX_WIDTH:
        block = min(block, _DRAW_BLOCK if iid else _WALK_BLOCK)
    rows = max(1, block // width)
    threaded = width > _PHILOX_MAX_WIDTH and (
        iid or rows >= _THREADED_WALK_ROWS)
    key_rows = rows * -(-_KEY_BLOCK // rows)

    def reduce(start: int, stop: int, buffer: np.ndarray) -> None:
        for first in range(start, stop, key_rows):
            streams = _ReplicationStreams(master_seed, first,
                                          min(first + key_rows, stop))
            for offset in range(0, len(streams), rows):
                part = streams[offset:offset + rows]
                values = model.batch_values(
                    f, length, part,
                    out=buffer[:len(part) * width].reshape(len(part), width))
                out = deviations[:, first + offset:first + offset + len(part)]
                if values.dtype.kind != "f":
                    _window_deviations(values, windows, mu, out)
                    continue
                for k, (n, n0) in enumerate(windows):
                    out[k] = np.abs(values[:, n0:n0 + n].mean(axis=1) - mu)

    def reduce_slice(start: int, stop: int, buffer: np.ndarray) -> None:
        # numpy's error state is per thread, so each slice sets its own: a
        # window sum that overflows is an infinite deviation, which
        # _estimates refuses
        with np.errstate(over="ignore", invalid="ignore"):
            reduce(start, stop, buffer)

    _over_row_slices(reduce_slice, replications, width, rows, threaded)
    return deviations


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
    those of that row on its own.  A mean that is not finite raises
    :class:`NumericalError`.
    """
    replications = deviations.shape[1]
    blocks = min(_UNCERTAINTY_BLOCKS, replications)
    size, longer = divmod(replications, blocks)
    split = longer * (size + 1)
    with np.errstate(over="ignore"):   # an overflow is refused below
        means = np.concatenate([
            deviations[:, :split].reshape(len(deviations), longer, size + 1)
            .mean(axis=2),
            deviations[:, split:].reshape(len(deviations), blocks - longer,
                                          size).mean(axis=2)], axis=1)
        e1_hat = deviations.mean(axis=1)
    finite = np.isfinite(means).all(axis=1) & np.isfinite(e1_hat)
    if not finite.all():
        n, n0 = windows[int(np.argmin(finite))]
        raise NumericalError(f"the mean error of window n={n}, n0={n0} is "
                             "not finite: the values of f overflow float64")
    q1, q3 = np.percentile(means, [25.0, 75.0], axis=1)
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
