"""Quadrature algorithms with cardinality and cost accounting.

Four estimators of S(f) = E f(X):

* ``voronoi_quadrature``: the deterministic weighted sum over a codebook,
  sum_i mu(V_i) f(x_i).
* ``classical_mc``: the plain Monte Carlo mean over independent draws.
* ``vr_mc``: quantization-based variance reduction; the Voronoi sum plus
  a Monte Carlo correction of the interpolation residual
  f - f(nearest codebook point).
* ``euler_mc`` / ``gaussian_subspace_mc``: ``classical_mc`` over Euler
  diffusion paths, resp. truncated Gaussian expansions on a subspace,
  with cost proportional to (subspace dimension) x (draws).

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
    DiffusionSpec,
    MeasureSpec,
    SeedSpec,
    _Moments,
    _stream,
    oracle_dim,
    rng_calls_per_sample,
)
from .paths import Functional, Grid, Subspace
from .quantize import Codebook, min_dist_batch


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
# Euler Monte Carlo and its budget schedule


def euler_mc(
    spec: DiffusionSpec,
    f: Functional,
    k: int,
    n: int,
    seed: SeedSpec,
    grid: Optional[Grid] = None,
) -> QuadratureResult:
    """Mean of f over n Euler paths with k breakpoints.

    This is classical_mc on ``Diffusion(spec, k, grid)``.
    """
    return classical_mc(Diffusion(spec, k, grid), f, n, seed)


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


# ---------------------------------------------------------------------------
# Gaussian-subspace Monte Carlo


def gaussian_subspace_mc(
    sub: Subspace, f: Functional, n: int, seed: SeedSpec
) -> QuadratureResult:
    """Classical Monte Carlo over the truncated expansion living on ``sub``.

    Draws are sums of the k leading Brownian eigenfunctions with
    independent N(0, lambda_l) coefficients; every sample lies in the
    subspace, so a functional vanishing there is estimated as exactly 0.
    This is classical_mc on ``BrownianKL(sub.dim, sub.grid)``.
    """
    if sub.kind != "karhunen-loeve":
        raise ConfigurationError("gaussian_subspace_mc needs a karhunen-loeve subspace")
    return classical_mc(BrownianKL(sub.dim, sub.grid), f, n, seed)
