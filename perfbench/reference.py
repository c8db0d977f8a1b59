"""Reference kernel: fixed work, timed between rounds, that tracks host speed.

The benchmark's host shares its cores with other tenants, and its speed
drifts by up to a half over tens of seconds to minutes (README.md, Noise).
A run of half a minute cannot average that away, so round times in seconds
differ between runs of the same code by more than any useful bound.  This
kernel does the three kinds of work the workloads do, none of it through
the package under test: numpy generator construction from a seed sequence,
interpreted floating-point arithmetic, and numpy array arithmetic on a
cache-resident and on a larger array.  Timed next to a round, it slows and
speeds up with the host, and a round's time divided by the kernel's time
stays steady while the host drifts.
"""
import math
from time import perf_counter

import numpy as np

GENERATORS = 1_000
PYTHON_STEPS = 20_000
SMALL_ELEMENTS, SMALL_PASSES = 50_000, 20
LARGE_ELEMENTS, LARGE_PASSES = 500_000, 10   # 4 MB, more than L2 holds


def reference_seconds() -> float:
    """Seconds one pass of the reference kernel takes now."""
    start = perf_counter()
    for i in range(GENERATORS):   # one alive at a time: the RSS stays low
        np.random.Generator(np.random.Philox(np.random.SeedSequence(
            entropy=12345, spawn_key=(i,)))).random(8)
    x = 0.0
    for i in range(1, PYTHON_STEPS):
        x += math.log(i) * 0.5 ** (i % 7) / (1.0 + x * 1e-9)
    for elements, passes in ((SMALL_ELEMENTS, SMALL_PASSES),
                             (LARGE_ELEMENTS, LARGE_PASSES)):
        v = np.full(elements, 0.5)
        for _ in range(passes):
            np.multiply(v, 0.99, out=v)
            np.add(v, 0.01, out=v)
            np.sqrt(v, out=v)
    return perf_counter() - start
