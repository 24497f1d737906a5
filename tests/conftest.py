"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own quadrature and
nearest-point code: dense midpoint integration for one-dimensional
expectations, a brute-force python nearest-point loop, and the d=1
Lloyd range sums kept for every sample.  Two test-only functions ride
along: a running-maximum functional and the exact distortion of the
scalar N(0,1) quantizer.  ``PINNED_ENV`` is the env that the seeded
checksums of the workloads and the README examples were taken on.
"""
import math
import os
import tracemalloc

import numpy as np
import pytest

from quantquad import measures, quantize
from quantquad.paths import Functional, Grid
from quantquad.quantize import _lloyd_max


def dense_integral(fn, a=0.0, b=1.0, n=2**19):
    """Midpoint-rule integral of a vectorized fn over [a, b]."""
    x = a + (np.arange(n) + 0.5) * (b - a) / n
    return float(np.mean(fn(x)) * (b - a))


def normal_expectation(fn, span=24.0, n=2**20):
    """Midpoint-rule E fn(Z) for Z ~ N(0,1) over [-span/2, span/2]."""
    h = span / n
    x = -span / 2 + (np.arange(n) + 0.5) * h
    w = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return float(np.sum(fn(x) * w) * h)


def brute_nearest(points, x):
    """Reference nearest-point search: plain loop, first minimum wins."""
    best, best_i = None, -1
    for i, p in enumerate(points):
        d = math.sqrt(float(np.sum((np.asarray(p) - np.asarray(x)) ** 2)))
        if best is None or d < best:
            best, best_i = d, i
    return best_i, best


def running_max_functional():
    """f(x) = max_t x(t) (signed maximum of the first coordinate)."""
    return Functional(lambda v: v[..., 0].max(axis=-1), 1.0, None, "running_max")


def scalar_quantizer_distortion2(levels):
    """Exact E min_i (Z - c_i)^2 of the N(0,1) quantizer with ``levels`` points."""
    return _lloyd_max(levels)[2]


class FullBlockSums:
    """Reference d=1 range sums: every sample's in-block prefix sums.

    Holds the sums of y = x - pivot and y^2 through every sample of a
    sorted pool in two pool-sized rows, each block one numpy cumsum, and
    answers as the checkpointed ``quantize._BlockSums`` does.
    """

    def __init__(self, flat):
        block = quantize._BLOCK
        self.flat, self.pivots = flat, flat[::block].copy()
        self.sums = np.stack([flat, flat])
        s1, s2 = self.sums
        full = flat.size - flat.size % block
        for y, y2 in ((s1[:full], s2[:full]), (s1[full:], s2[full:])):
            if not y.size:
                continue
            width = min(block, y.size)
            y, y2 = y.reshape(-1, width), y2.reshape(-1, width)
            pivot = y[:, :1].copy()
            y -= pivot
            y2 -= pivot
            np.square(y2, out=y2)
            np.cumsum(y, axis=1, out=y)
            np.cumsum(y2, axis=1, out=y2)

    def totals(self, r):
        ends = np.minimum(np.arange(1, self.pivots.size + 1) * quantize._BLOCK, self.flat.size)
        return self.sums[:r, ends - 1]

    def prefix(self, at, r):
        return self.sums[:r, at]


# KL paths go through BLAS products, so seeded checksums hold for this
# numpy, BLAS and thread count only.
PINNED_ENV = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", "blas_threads": "2"}


def moved_env() -> dict:
    """(pinned, here) for each key of PINNED_ENV on which this env differs."""
    # OpenBLAS runs one thread per usable core unless told otherwise.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or str(len(os.sched_getaffinity(0)))
    env = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
           "blas_threads": threads}
    return {key: (pinned, env[key]) for key, pinned in PINNED_ENV.items() if env[key] != pinned}


def traced_peak(fn):
    """Bytes by which the traced peak during ``fn()`` exceeds the memory before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def grid():
    return Grid.uniform()


@pytest.fixture(autouse=True)
def cold_stream():
    """Each test starts with no held stream, as a fresh process does."""
    measures._held = None
    yield
    measures._held = None
