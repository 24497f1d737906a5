"""Quadrature algorithms with cardinality and cost accounting.

Three estimators of S(f) = E f(X):

* ``voronoi_quadrature``: the deterministic weighted sum over a codebook,
  sum_i mu(V_i) f(x_i).
* ``classical_mc``: the plain Monte Carlo mean over independent draws.
* ``vr_mc``: quantization-based variance reduction; the Voronoi sum plus
  a Monte Carlo correction of the interpolation residual
  f - f(nearest codebook point).

Euler Monte Carlo and Gaussian-subspace Monte Carlo are ``classical_mc``
on ``Diffusion(spec, k, grid)`` (Euler paths with k breakpoints), resp.
``BrownianKL(k, grid)`` (the truncated Karhunen-Loeve expansion), with
cost proportional to (subspace dimension) x (draws).

Each Monte Carlo estimator has a ``*_replicated`` form returning the
estimates of R runs at once; replication j uses draws j*n .. (j+1)*n of
the seed's single stream, so replication 0 equals the single run.  Each
run's mean and stderr sqrt(m2 / (n - 1)) / sqrt(n) are folded in block
memory, whatever n and R are, by the one estimator ``measures._Moments``.

Cost-balanced schedules split a total budget N into (repetitions n,
subspace dimension k) with k*n <= N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ConfigurationError
from .measures import (
    BrownianKL,
    Diffusion,
    MeasureSpec,
    SeedSpec,
    _check_kl_basis,
    _Moments,
    _stream,
    oracle_dim,
    rng_calls_per_sample,
)
from .paths import DEFAULT_GRID_SIZE, Functional, Grid, check_kl_dim
from .quantize import Codebook, _check_reads, min_dist_batch


@dataclass(frozen=True)
class CostLedger:
    """Recorded (never inferred) cost of one algorithm run.

    ``oracle_cost`` is exactly subspace_dim x oracle_calls.  The
    arithmetic proxy counts one unit per recorded loop-level operation
    (per sample, or per Euler step per path); it stands in for a full
    operation count, which the oracle term dominates anyway.
    """

    oracle_calls: int
    subspace_dim: int
    rng_calls: int
    arithmetic_proxy: int

    @property
    def oracle_cost(self) -> int:
        return self.subspace_dim * self.oracle_calls


@dataclass(frozen=True)
class QuadratureResult:
    estimate: float
    stderr: float  # 0 for deterministic rules
    cardinality: int  # functional evaluations
    cost: CostLedger


@dataclass(frozen=True)
class SmallBallProfile:
    """Exponents of the small-ball behaviour -ln mu(ball(eps)) ~ eps^-alpha
    (ln 1/eps)^beta; alpha=2, beta=0 for Brownian motion in sup norm."""

    alpha: float
    beta: float = 0.0

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ConfigurationError("alpha must be positive and finite")
        if not math.isfinite(self.beta):
            raise ConfigurationError("beta must be finite")


def _check_oracle_dim(f: Functional, k: int):
    if f.oracle_dim is not None and k > f.oracle_dim:
        raise ConfigurationError(
            f"functional {f.name or '<anonymous>'} only accepts points from a "
            f"subspace of dimension <= {f.oracle_dim}, got {k}"
        )


# ---------------------------------------------------------------------------
# Deterministic Voronoi quadrature


def voronoi_quadrature(codebook: Codebook, f: Functional) -> QuadratureResult:
    """sum_i weight_i f(x_i) over a weighted codebook; deterministic.

    The reported stderr is 0; the estimation error of the weights is
    reported separately by whoever estimated them.
    """
    if codebook.weights is None:
        raise ConfigurationError("voronoi_quadrature needs codebook weights")
    k = codebook.oracle_dim
    if k is None:
        k = math.prod(codebook.points.shape[1:])
    _check_oracle_dim(f, k)
    values = f(codebook.points)
    estimate = float(values @ codebook.weights)
    ledger = CostLedger(
        oracle_calls=codebook.n,
        subspace_dim=k,
        rng_calls=0,
        arithmetic_proxy=codebook.n,
    )
    return QuadratureResult(estimate, 0.0, codebook.n, ledger)


# ---------------------------------------------------------------------------
# Classical Monte Carlo


def _mc_values(
    measure: MeasureSpec,
    f: Functional,
    n: int,
    replications: int,
    seed: SeedSpec,
    codebook: Optional[Codebook] = None,
) -> Tuple[float, _Moments]:
    """Voronoi part and the per-run moments of values over ``seed``'s stream.

    The values are f, or given a codebook the residuals f - J(f) with
    S(J(f)) as the Voronoi part (else 0).  Run j reads draws j*n ..
    (j+1)*n and is column j of the moments; each needs n >= 2 draws.
    """
    _check_oracle_dim(f, oracle_dim(measure))
    evaluate, voronoi_part = f, 0.0
    if codebook is not None:
        if codebook.weights is None:
            raise ConfigurationError("vr_mc needs codebook weights")
        _check_reads(codebook, measure)  # before f reads the points
        f_at_points = f(codebook.points)
        voronoi_part = float(f_at_points @ codebook.weights)

        def evaluate(batch):
            return f(batch) - f_at_points[min_dist_batch(batch, codebook)[1]]

    values = _stream(measure, seed, n * replications, evaluate, 2 * replications)
    return voronoi_part, _Moments(values, (replications,), run=n)


def _mc_result(
    measure: MeasureSpec, f: Functional, n: int, seed: SeedSpec,
    codebook: Optional[Codebook] = None,
) -> QuadratureResult:
    """``classical_mc``, or given a codebook ``vr_mc``, with its cost: one
    arithmetic unit per draw (per Euler step) and per codebook point."""
    voronoi_part, moments = _mc_values(measure, f, n, 1, seed, codebook)
    mean = float(moments.mean()[0])
    extra = 0 if codebook is None else codebook.n
    steps = measure.k_steps if isinstance(measure, Diffusion) else 1
    ledger = CostLedger(
        oracle_calls=n + extra,
        subspace_dim=oracle_dim(measure),
        rng_calls=n * rng_calls_per_sample(measure),
        arithmetic_proxy=n * steps + extra,
    )
    estimate = mean if codebook is None else voronoi_part + mean
    return QuadratureResult(estimate, float(moments.stderr()[0]), n + extra, ledger)


def classical_mc(
    measure: MeasureSpec, f: Functional, n: int, seed: SeedSpec
) -> QuadratureResult:
    """Mean of f over n independent draws with CLT standard error."""
    return _mc_result(measure, f, n, seed)


def classical_mc_replicated(
    measure: MeasureSpec, f: Functional, n: int, replications: int, seed: SeedSpec
) -> np.ndarray:
    """Estimates of ``replications`` independent classical_mc runs; (R,)."""
    return _mc_values(measure, f, n, replications, seed)[1].mean()


# ---------------------------------------------------------------------------
# Quantization-based variance reduction


def vr_mc(
    codebook: Codebook,
    measure: MeasureSpec,
    f: Functional,
    n: int,
    seed: SeedSpec,
) -> QuadratureResult:
    """Voronoi quadrature plus a Monte Carlo correction of the residual.

    Returns S(J(f)) + mean_j (f - J(f))(X_j) where J(f)(x) is f at the
    nearest codebook point.  The codebook evaluations of f are genuine
    oracle calls and are counted once in the cardinality; the stderr
    comes from the residual sample alone (the weights are taken as
    exact, their estimation error is reported by the codebook).
    """
    return _mc_result(measure, f, n, seed, codebook)


def vr_mc_replicated(
    codebook: Codebook,
    measure: MeasureSpec,
    f: Functional,
    n: int,
    replications: int,
    seed: SeedSpec,
) -> np.ndarray:
    """Estimates of ``replications`` independent vr_mc runs; (R,)."""
    voronoi_part, residuals = _mc_values(measure, f, n, replications, seed, codebook)
    return voronoi_part + residuals.mean()


# ---------------------------------------------------------------------------
# Cost-balanced budget schedules


def _balanced_schedule(N: int, a: float, b: float, name: str) -> Tuple[int, int]:
    """The (n, k) of ``subspace_mc_schedule`` at exponents (a, b).

    Errors name the ``name`` schedule.  A budget whose powers leave float
    range raises ``ConfigurationError``, as does one too small.
    """

    def formula(budget):
        # (n, k), or None when a power leaves float range.
        log = math.log(budget) if budget > 0 else 0.0
        if log <= 1.0:
            return 0, 0
        try:
            lf = log ** (2.0 * (a + b) / (2.0 + a))
            n = int(budget ** (2.0 / (2.0 + a)) / lf)
            return n, int(budget ** (a / (2.0 + a)) * lf)
        except (OverflowError, ZeroDivisionError):
            return None

    schedule = formula(N)
    if schedule is None:
        raise ConfigurationError(f"the {name} schedule leaves float range at N={N}")
    n, k = schedule
    if n < 2 or k < 2:
        feasible = (c for c in range(3, 10_000) if min(formula(c) or (0,)) >= 2)
        minimum = next(feasible, None)
        if minimum is None:
            raise ConfigurationError("no feasible budget below 10000")
        raise ConfigurationError(
            f"budget N={N} too small for the {name} schedule; minimum feasible "
            f"N is {minimum}"
        )
    assert k * n <= N
    return n, k


def euler_mc_schedule(N: int) -> Tuple[int, int]:
    """Cost-balanced (n, k) for the Euler Monte Carlo budget N.

    n = floor(sqrt(N / ln N)) repetitions and k = floor(sqrt(N ln N))
    breakpoints, so that k*n <= N.  This is the subspace schedule at the
    small-ball exponents (a, b) = (2, -1), where both powers of N are 1/2
    and both powers of ln N are -1/2 and +1/2.  Requires ln N > 1 and a
    budget large enough that both floors reach 2.
    """
    return _balanced_schedule(N, 2.0, -1.0, "Euler")


def subspace_mc_schedule(N: int, profile: SmallBallProfile) -> Tuple[int, int]:
    """Cost-balanced (n, k) for Gaussian-subspace Monte Carlo with budget N.

    n = floor(N^(2/(2+a)) (ln N)^(-2(a+b)/(2+a))) and
    k = floor(N^(a/(2+a)) (ln N)^(+2(a+b)/(2+a))) for a small-ball profile
    (a, b); their product is at most N.
    """
    return _balanced_schedule(N, profile.alpha, profile.beta, "subspace")


def _subspace_grid(k: int, grid: Optional[Grid] = None) -> Grid:
    """The grid on which a k-term Gaussian-subspace run samples.

    ``grid`` when a measure gives one; else the DEFAULT_GRID_SIZE-point
    uniform grid, doubled (G -> 2 (G - 1) + 1 points) until it has more
    than 2k points, its basis checked against the byte limit before it is
    built.  Raises ``ConfigurationError`` unless a k-term subspace fits on
    the grid.  ``quad --algo gauss-sub`` takes its budget's k, a ``rates``
    ladder its largest budget's, so that every rung reads one grid.
    """
    if grid is None:
        size = DEFAULT_GRID_SIZE
        while size <= 2 * k:
            size = 2 * (size - 1) + 1
        _check_kl_basis(k, size)  # before the grid is built
        grid = Grid.uniform(size)
    check_kl_dim(k, grid)
    return grid


def _budget_rung(
    algorithm: str, budget: int, grid: Optional[Grid], spec=None, profile=None
) -> Tuple[int, int, MeasureSpec]:
    """(n, k, measure) of an euler or gauss-sub run of cost ``budget``, as
    ``quad`` and each ``rates`` rung run it: the schedule's n draws of Euler
    paths of ``spec`` with k breakpoints on ``grid`` (257 points if None),
    or of the k-term expansion on the grid ``_subspace_grid`` picks."""
    if algorithm == "euler":
        n, k = euler_mc_schedule(budget)
        return n, k, Diffusion(spec, k, grid)
    n, k = subspace_mc_schedule(budget, profile)
    return n, k, BrownianKL(k, _subspace_grid(k, grid))


# The measure kind that Euler and Gaussian-subspace Monte Carlo sample at
# their schedule's k, and its name in a measure spec.
_PATH_MEASURES = {"euler": (Diffusion, "kind=diffusion"), "gauss-sub": (BrownianKL, "brownian_kl")}


def check_path_measure(algorithm: str, measure: Optional[MeasureSpec]) -> None:
    """Refuse a measure of another kind than an euler or gauss-sub run samples."""
    sampled, label = _PATH_MEASURES.get(algorithm, (object, ""))
    if measure is not None and not isinstance(measure, sampled):
        raise ConfigurationError(f"{algorithm} needs a {label} measure")
