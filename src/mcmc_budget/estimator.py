"""Monte Carlo estimation of the absolute mean error of time averages.

The estimand is e1 = E|S - mu| where S is the burn-in-discarded time
average of f along the chain and mu the exact stationary expectation
supplied by the chain model.  Replications run on per-index counter-based
streams and are reduced by fixed-index aggregation, so results are
bit-identical however the work is chunked or threaded.  The estimator
owns the row blocks: it splits the replications into one slice per core,
sizes and allocates each slice's buffers from the model's layout, and
runs the slices, whose models fill their rows a block at a time, with no
matrix of every walk.

Because |S - mu| itself can have infinite variance in the heavy-tailed
regimes under study, the spread of the estimate is reported as half the
interquartile range of contiguous block means (median-of-means style)
instead of a standard error.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .chains import _empty_rows, _ReplicationStreams
from .exceptions import DomainError, NumericalError
from .validate import DEFAULT_CHUNK_ELEMENTS

__all__ = [
    "DEFAULT_CHUNK_ELEMENTS",
    "ErrorEstimate",
    "RateFit",
    "estimate_e1",
    "estimate_e1_windows",
    "exact_e1_small",
    "rate_regression",
]

_UNCERTAINTY_BLOCKS = 20
# Threads pay only where each interpreted call, which holds the interpreter
# lock, starts enough numpy work; elsewhere they contend.  So the rows run
# on every core only when each row has at least _THREADED_WIDTH uniforms
# (every row's draw re-keys a generator under the lock) and a walk's block
# at least _THREADED_WALK_ROWS rows (its stepping loop makes one call per
# step over the block's rows).  Best of 5, one thread against two: 117647
# i.i.d. rows of 17 took 257 against 575 ms, 4000 rows of 500 27 against
# 37 ms, 2000 rows of 1000 35 against 29 ms; 20000 indep-mh walks of 99
# uniforms 74 against 118 ms; two-state, 1000 walks of 10004 steps in
# 12-row blocks, 344 against 560 ms
_THREADED_WIDTH = 1000
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


def _worker_count() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no CPU affinity on this platform
        return os.cpu_count() or 1


def _deviations(model, f, windows, replications: int, master_seed: int,
                chunk_elements: int) -> np.ndarray:
    """``|S - mu|`` per window (row) and replication (column).

    One walk of ``max(n + n0)`` steps per replication serves every window:
    a shorter trajectory is a prefix of a longer one on the same stream.
    This function owns the row blocks.  It splits the replications into
    one contiguous row slice per core, sizes each slice's block, allocates
    every slice's buffers before any thread starts, and runs the first
    slice on the calling thread and each other one on a thread of a
    :class:`~concurrent.futures.ThreadPoolExecutor`; numpy releases the
    interpreter lock in the draws, the stepping, the integrand and the
    sums.  The pool's exit waits for every slice; then the exception of
    the first slice that raised one is raised.  The pool is imported
    here: with the module, it would add 12 modules (~6 ms) to every
    import of the package.  A slice derives its streams' keys at least
    :data:`_KEY_BLOCK` rows at a time, and for each block of rows has the
    model fill the block in its buffer (``model._fill``), then reduces
    every window of what it yields into the block's own columns: an
    integer walk by :func:`_window_deviations`, float64 values window by
    window with ``np.mean``, where a sum that overflows gives an infinite
    deviation, which :func:`_estimates` refuses.

    ``model._layout(length)`` gives ``(width, dtype, cap, fill, walks)``:
    the uniforms a row draws, the block's dtype, the values a block may
    hold, the float values a fill holds apart from the block (0 when the
    values are written over their draws), and whether the rows walk.  A
    block holds at most ``chunk_elements`` and ``cap`` values, or one row
    if wider.  The rows run on one slice, on the calling thread, unless
    they are at least :data:`_THREADED_WIDTH` uniforms wide and, on a
    walk, a slice's block holds at least :data:`_THREADED_WALK_ROWS` of
    them.  A row depends only on its stream, so the bytes do not depend
    on the core count or the block size.
    """
    from concurrent.futures import ThreadPoolExecutor
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
    width, dtype, cap, fill, walks = model._layout(length)
    deviations = np.empty((len(windows), replications))
    capacity = max(1, min(int(chunk_elements), cap) // width)
    # `rows`: what a slice's block holds, which the threading rule counts
    workers = max(1, min(_worker_count(), replications))
    rows = min(capacity, -(-replications // workers))
    if width < _THREADED_WIDTH or walks and rows < _THREADED_WALK_ROWS:
        workers, rows = 1, min(capacity, replications)
    bounds = [replications * k // workers for k in range(workers + 1)]
    key_rows = rows * -(-_KEY_BLOCK // rows)
    fill_rows = fill and min(max(1, fill // width), rows)
    # every slice's buffers, the float one first, before any thread starts
    fills = _empty_rows(workers * fill_rows, width).reshape(workers, -1)
    blocks = _empty_rows(workers * rows, width, dtype).reshape(workers, -1)

    def reduce(start: int, stop: int, buffer: np.ndarray,
               draws: np.ndarray) -> None:
        for first in range(start, stop, key_rows):
            streams = _ReplicationStreams(master_seed, first,
                                          min(first + key_rows, stop))
            for offset in range(0, len(streams), rows):
                part = streams[offset:offset + rows]
                block = buffer[:len(part) * width].reshape(len(part), width)
                for row, values in model._fill(f, length, part, block,
                                               draws):
                    at = first + offset + row
                    out = deviations[:, at:at + len(values)]
                    if values.dtype != np.float64:
                        _window_deviations(values, windows, mu, out)
                        continue
                    for k, (n, n0) in enumerate(windows):
                        out[k] = np.abs(
                            values[:, n0:n0 + n].mean(axis=1) - mu)

    def run(k: int) -> None:
        # numpy's error state is per thread, so each slice sets its own: an
        # overflowing window sum is an infinite deviation, which _estimates
        # refuses
        with np.errstate(over="ignore", invalid="ignore"):
            reduce(bounds[k], bounds[k + 1], blocks[k], fills[k])

    # the calling thread runs the first slice and a pool thread each other
    with ThreadPoolExecutor(workers) as pool:
        slices = [pool.submit(run, k) for k in range(1, workers)]
        run(0)
    for done in slices:
        done.result()
    return deviations


def _window_deviations(walk: np.ndarray, windows, mu: float,
                       out: np.ndarray) -> None:
    """Write ``|S - mu|`` of every window of an integer ``walk`` into
    ``out`` (window by replication).

    The walk's columns split into segments at every window boundary; each
    segment is summed in an int64 accumulator (``sum(dtype=np.int64)``,
    which casts a block of the walk at a time, where ``np.add.reduceat``
    with that dtype would cast a copy of the whole walk first), and a
    running sum over those few sums gives every boundary's partial sum.
    Every partial sum is an integer below ``2**53``, exact in any order of
    addition, so a window's sum, the difference of the partial sums at its
    ends, divided by ``n`` is bit for bit ``np.mean`` of the window.
    """
    edges = sorted({0, *(b for n, n0 in windows for b in (n0, n0 + n))})
    # row i of `sums` is the sum of the first edges[i] columns
    sums = np.empty((len(edges), walk.shape[0]))
    sums[0] = 0.0
    partial = np.empty((len(edges) - 1, walk.shape[0]), dtype=np.int64)
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        walk[:, a:b].sum(axis=1, dtype=np.int64, out=partial[i])
    sums[1:] = np.cumsum(partial, axis=0, out=partial)
    row = {b: i for i, b in enumerate(edges)}
    for k, (n, n0) in enumerate(windows):
        window = out[k]
        np.subtract(sums[row[n0 + n]], sums[row[n0]], out=window)
        window /= n
        window -= mu
        np.abs(window, out=window)


def _estimates(deviations: np.ndarray, windows) -> list:
    """One :class:`ErrorEstimate` per row of ``deviations``.

    The spread is half the interquartile range of the means of the
    ``min(20, replications)`` contiguous blocks of ``np.array_split``: the
    first ``replications % blocks`` blocks hold one replication more.
    Each block's means and the quartiles are taken over every window in
    one pass; a row's figures are bit for bit those of that row on its
    own.  A mean that is not finite raises :class:`NumericalError`.
    """
    replications = deviations.shape[1]
    blocks = np.array_split(deviations,
                            min(_UNCERTAINTY_BLOCKS, replications), axis=1)
    with np.errstate(over="ignore"):   # an overflow is refused below
        means = np.stack([block.mean(axis=1) for block in blocks], axis=1)
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
    by one forward recursion over (state, partial sum) from the exact
    burn-in law ``nu P**n0`` (:func:`_exact_e1`, which the oracle suite
    runs once for all its burn-ins, with the same values bit for bit).

    It costs ``O(n**2 S**2 (max f - min f))``; ``f`` needs integer
    differences.
    """
    _check_window(n, n0)
    weights = nu.nu
    for _ in range(n0):
        weights = weights @ chain.transition
    return _exact_e1(chain, [weights], f_values, n)[0]


def _exact_e1(chain, starts, f_values, n: int) -> np.ndarray:
    """Exact ``E|S - mu|`` of every window ``1 .. n`` from each start law
    in ``starts``, one row of the result each.

    ``mass[s, i, k]`` is the probability, from start ``i``, of state ``s``
    with ``k`` as the window's sum of ``f - min f`` so far: the
    Markov-additive recursion (Asmussen 2003, *Applied Probability and
    Queues*, ch. XI), stepped for every start by one product.  The mass
    after ``m`` steps is window ``m + 1``, entry ``m`` of a row.  A start's
    values do not depend on the others: each column of the product is its
    own, and each start takes its e1 by its own dot product (one product
    over all starts moves last bits).
    """
    f = np.asarray(f_values, dtype=float)
    lift = f - f.min()
    if not np.array_equal(lift, np.round(lift)):
        raise DomainError("the exact oracle needs f values with integer "
                          "differences")
    lift = lift.astype(np.int64)
    size, count, reach = chain.size, len(starts), int(lift.max())
    width = n * reach + 1
    mass = np.zeros((size, count, width))
    mass[np.arange(size), :, lift] = np.transpose(starts)
    # an index below its row's start lands in the top max(lift) columns of
    # the row before (row 0: the last row), empty until the n-th value
    source = (np.arange(size * count)[:, None] * width
              + np.arange(width)).reshape(mass.shape) - lift[:, None, None]
    mu = chain.expectation(f)
    e1 = np.empty((count, n))
    for m in range(n):
        if m:
            mass = (chain.transition.T @ mass.reshape(size, -1)).take(source)
        sums = np.arange((m + 1) * reach + 1)
        deviation = np.abs(f.min() + sums / (m + 1) - mu)
        for i, total in enumerate(mass[:, :, :sums.size].sum(axis=0)):
            e1[i, m] = total @ deviation
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
