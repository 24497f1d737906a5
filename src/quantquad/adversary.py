"""Executable lower-bound machinery: fooling functionals and certificates.

The constructions here turn worst-case arguments into runnable checks:

* ``fooling_family``: for a codebook x_1..x_m, the 1-Lipschitz functionals
  f_i(x) = 1/2 max(0, min_{j != i} ||x - x_j|| - ||x - x_i||) with pairwise
  disjoint supports.
* ``gap_identity_check``: the mean of f_m equals half the drop in
  quantization error when x_m joins the codebook; both sides estimated on
  a shared sample pool.
* ``increment_functional`` / ``event_probability``: functionals keyed to
  the signs of Brownian increments on a sub-grid, and the probability of
  the corresponding sign event.
* ``bakhvalov_lower_bound``: the classical fooling-family certificate
  (1/4) sqrt(n) min_i S(f_i), taken conservatively with a 3-stderr haircut.
* ``subspace_blind_functional``: the distance to a subspace, which any
  algorithm sampling inside that subspace estimates as exactly zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError
from .measures import (
    BrownianKL,
    MeasureSpec,
    SeedSpec,
    StdNormal,
    _evaluated,
    _kl_matrix,
    _Moments,
    _stream,
    _tiles,
)
from .paths import Functional, Grid, NormKind, Subspace, batch_norm, batch_project
from .quantize import Codebook, _all_point_distances, min_dist_batch

# Residuals below this are snapped to exactly 0, so that membership in the
# subspace is decided, not approximated.
_BLIND_SNAP_TOL = 1e-9
# Standard deviation of the random bumps lipschitz_check adds to its draws.
_BUMP_SCALE = 1e-3
# Level of the two-sided exact binomial test of event_probability: the
# two-sided tail of a normal beyond 3 standard deviations.
_EVENTS_ALPHA = 0.0027
# A binomial tail is summed until its terms fall this many nats below its
# first: the rest adds less than a part in 1e20.
_TAIL_NATS = 60.0


# ---------------------------------------------------------------------------
# Fooling families from codebooks


def _fooling_values(
    batch: np.ndarray, codebook: Codebook, i: int, nearest: np.ndarray
) -> np.ndarray:
    # f_i on samples whose distances to the codebook are ``nearest``.  f_i
    # is positive only where d_i < d_j for every j != i; a row with
    # d_i > nearest has some d_j < d_i, so f_i is exactly 0 there, and only
    # the other rows take their distances to every point.
    out = np.zeros(batch.shape[0])
    own = batch_norm(batch - codebook.points[i], codebook.norm, codebook.grid)
    rows = np.flatnonzero(own <= nearest)
    d = _all_point_distances(batch[rows], codebook)
    d[:, i] = np.inf
    out[rows] = 0.5 * np.maximum(0.0, d.min(axis=1) - own[rows])
    return out


def fooling_family(codebook: Codebook) -> List[Functional]:
    """One fooling functional per codebook point; disjoint supports.

    f_i is positive exactly on the interior of the i-th Voronoi cell and
    is 1-Lipschitz for the codebook norm.  Evaluating f_i costs one nearest
    search, one distance to x_i per sample, and distances to every point
    only for the samples nearest to x_i.
    """
    if codebook.n < 2:
        raise ConfigurationError("fooling_family needs at least 2 points")

    def member(i: int) -> Functional:
        def fn(batch):
            nearest = min_dist_batch(batch, codebook)[0]
            return _fooling_values(batch, codebook, i, nearest)

        return Functional(fn, 1.0, None, f"fooling[{i}]")

    return [member(i) for i in range(codebook.n)]


@dataclass(frozen=True)
class GapIdentityReport:
    """Both sides of the fooling-gap identity estimated on one pool."""

    mean_f_last: float
    mean_f_last_stderr: float
    half_gap: float
    half_gap_stderr: float
    difference: float
    combined_stderr: float
    sample_count: int

    @property
    def passed(self) -> bool:
        return abs(self.difference) <= 3.0 * max(self.combined_stderr, 1e-300)


def gap_identity_check(
    codebook: Codebook, measure: MeasureSpec, M: int, seed: SeedSpec
) -> GapIdentityReport:
    """Check S(f_m) = (q(x_1..x_{m-1}) - q(x_1..x_m)) / 2 on a shared pool.

    f_m is the fooling functional of the last codebook point and q is the
    order-1 quantization error.  Both sides are averaged over the same
    samples, so the difference is fully paired.  Needs M >= 100.
    """
    if codebook.n < 2:
        raise ConfigurationError("gap_identity_check needs at least 2 points")
    m = codebook.n
    reduced = Codebook(
        codebook.points[: m - 1],
        codebook.order_r,
        codebook.norm,
        codebook.measure_tag,
        grid=codebook.grid,
        oracle_dim=codebook.oracle_dim,
    )

    def sides(batch):
        d_full = min_dist_batch(batch, codebook)[0]
        lhs = _fooling_values(batch, codebook, m - 1, d_full)
        rhs = 0.5 * (min_dist_batch(batch, reduced)[0] - d_full)
        return np.stack((lhs, rhs, lhs - rhs))

    moments = _Moments(_stream(measure, seed.child(0), M, sides, 100), (3,))
    means, stderrs = moments.mean(), moments.stderr()
    combined = math.sqrt(stderrs[0] ** 2 + stderrs[1] ** 2)
    return GapIdentityReport(
        mean_f_last=float(means[0]),
        mean_f_last_stderr=float(stderrs[0]),
        half_gap=float(means[1]),
        half_gap_stderr=float(stderrs[1]),
        difference=float(means[2]),
        combined_stderr=float(max(combined, stderrs[2])),
        sample_count=M,
    )


# ---------------------------------------------------------------------------
# Increment-sign functionals and their events


@dataclass(frozen=True)
class IncrementFamilySpec:
    """Sign pattern on Brownian increments over s_i = i * window / segments.

    ``signs`` is a 0/1 vector: 0 demands an increment above the threshold,
    1 demands one below its negative.  The sub-grid points s_i must lie on
    the path grid.
    """

    segments: int
    window: float = 1.0
    threshold: float = 0.0
    signs: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.segments < 1:
            raise ConfigurationError("segments must be >= 1")
        if not (0.0 < self.window <= 1.0):
            raise ConfigurationError("window must lie in (0, 1]")
        if self.threshold < 0.0:
            raise ConfigurationError("threshold must be >= 0")
        signs = tuple(self.signs) or (0,) * self.segments
        if len(signs) != self.segments or any(s not in (0, 1) for s in signs):
            raise ConfigurationError("signs must be a 0/1 vector of length segments")
        object.__setattr__(self, "signs", signs)

    def times(self) -> np.ndarray:
        return self.window * np.arange(self.segments + 1) / self.segments


def _sub_grid(spec: IncrementFamilySpec, grid: Grid) -> np.ndarray:
    """Indices on ``grid`` of ``spec``'s sub-grid points s_0 .. s_segments,
    the only grid points that its increments x(s_i) - x(s_{i-1}) read."""
    return np.array([grid.index_of(t) for t in spec.times()])


def increment_functional(
    spec: IncrementFamilySpec, grid: Optional[Grid] = None
) -> Functional:
    """f(x) = 1/2 min_i max(0, sigma_i (x(s_i) - x(s_{i-1})) - threshold).

    sigma_i is +1 where signs[i] = 0 and -1 otherwise.  The functional is
    nonnegative, vanishes outside the sign set, and is 1-Lipschitz for
    the sup norm: perturbing x by delta moves each increment by at most
    2 delta.
    """
    indices = _sub_grid(spec, grid or Grid.uniform())
    sigma = np.where(np.array(spec.signs) == 0, 1.0, -1.0)
    theta = spec.threshold

    def fn(batch):
        increments = np.diff(batch[:, indices, 0], axis=1)
        slack = np.maximum(0.0, increments * sigma[None, :] - theta)
        return 0.5 * slack.min(axis=1)

    name = f"increment[{spec.segments},{spec.window},{spec.threshold}]"
    return Functional(fn, 1.0, None, name)


def _binomial_p_value(hits: int, M: int, log_p: float) -> float:
    """Two-sided exact binomial p-value of ``hits`` successes in M trials of
    success probability exp(``log_p``): twice the smaller tail, at most 1.

    The tail on the side of ``hits`` away from the mean M p is summed from
    ``hits`` outward, where its terms fall, as a log-sum of terms
    lgamma(M + 1) - lgamma(j + 1) - lgamma(M - j + 1) + j ln p +
    (M - j) ln(1 - p), until a term falls _TAIL_NATS below the first.  The
    other tail holds at least half the mass, or the p-value is 1 anyway.
    """
    log_q = math.log1p(-math.exp(log_p))
    log_m = math.lgamma(M + 1)

    def log_term(j):
        return log_m - math.lgamma(j + 1) - math.lgamma(M - j + 1) + j * log_p + (M - j) * log_q

    step = -1 if hits <= M * math.exp(log_p) else 1
    first, total = log_term(hits), 0.0
    for j in range(hits, -1 if step < 0 else M + 1, step):
        drop = log_term(j) - first
        if drop < -_TAIL_NATS:
            break
        total += math.exp(drop)
    return min(1.0, 2.0 * math.exp(first) * total)


@dataclass(frozen=True)
class EventProbabilityReport:
    estimate: float
    stderr: float
    analytic: float
    upper_bound: float  # 2^-segments
    segments: int
    window: float
    threshold: float
    sample_count: int
    p_value: float  # of the two-sided exact binomial test at ``analytic``

    @property
    def passed(self) -> bool:
        """Whether the exact binomial test at level _EVENTS_ALPHA keeps the
        analytic probability: its p-value exceeds the level."""
        return self.p_value > _EVENTS_ALPHA


def event_probability(
    segments: int,
    window: float = 1.0,
    M: int = 100_000,
    seed: SeedSpec = SeedSpec(0),
    k_terms: int = 200,
    grid: Optional[Grid] = None,
) -> EventProbabilityReport:
    """Probability that every increment clears sqrt(window)/segments^(3/2).

    Estimated over truncated-expansion Brownian samples and compared to
    the exact value p^segments with p = 1/2 - (Phi(1/segments) - 1/2):
    each increment has standard deviation sqrt(window/segments), so the
    threshold is the (1/segments)-quantile away from zero, and the
    increments are independent.  Needs M >= 10^4.

    The estimate is the fraction of hits and its stderr the CLT stderr of
    the 0/1 indicators, sqrt(m2 / (M - 1)) / sqrt(M) as for every Monte
    Carlo mean; both come from ``measures._Moments``.  At an estimate of 0
    or 1 the stderr is exactly 0.  ``passed`` is the two-sided exact
    binomial test of the hit count against the analytic value at level
    0.0027 (``_binomial_p_value``), which holds at any M p, however small.

    The stream of expansion normals, StdNormal(k_terms), is mapped through
    only the segments + 1 columns of the basis at the sub-grid points, so no
    whole path is built.
    """
    spec = IncrementFamilySpec(segments, window, signs=(0,) * segments)
    grid = grid or Grid.uniform()
    threshold = math.sqrt(window) / segments**1.5
    columns = _kl_matrix(BrownianKL(k_terms, grid))[:, _sub_grid(spec, grid)]

    def cleared(z):
        return np.all(np.diff(z @ columns, axis=1) >= threshold, axis=1).astype(float)

    hits = _Moments(_stream(StdNormal(k_terms), seed.child(0), M, cleared, 10**4))
    p = 1.0 - NormalDist().cdf(1.0 / segments)
    return EventProbabilityReport(
        estimate=float(hits.mean()),
        stderr=float(hits.stderr()),
        analytic=p**segments,
        upper_bound=2.0**-segments,
        segments=segments,
        window=window,
        threshold=threshold,
        sample_count=M,
        p_value=_binomial_p_value(int(hits.total), M, segments * math.log(p)),
    )


# ---------------------------------------------------------------------------
# Lower-bound certificate


def _check_certificate_size(n: int, m: int) -> None:
    """Raise ``ConfigurationError`` unless n >= 1 and the family size m >= 4n."""
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if m < 4 * n:
        raise ConfigurationError(
            f"fooling family of size m={m} is too small: the certificate "
            f"requires m >= 4n = {4 * n}"
        )


def bakhvalov_lower_bound(n: int, family_means: Sequence[Tuple[float, float]]) -> float:
    """Conservative minimal-error certificate from a fooling family.

    ``family_means`` holds (estimate, stderr) of S(f_i) for a family of m
    disjoint-support functionals whose signed sums stay 1-Lipschitz.  The
    certificate is (1/4) sqrt(n) min_i (estimate_i - 3 stderr_i), clamped
    at 0; it requires m >= 4n.
    """
    _check_certificate_size(n, len(family_means))
    haircut = min(est - 3.0 * se for est, se in family_means)
    return max(0.0, 0.25 * math.sqrt(n) * haircut)


# ---------------------------------------------------------------------------
# Subspace-blind functional


def subspace_blind_functional(sub: Subspace) -> Functional:
    """f0(x) = L2 residual of x after projection onto the subspace.

    Vanishes exactly on the subspace (residuals below 1e-9 snap to 0) and
    is 1-Lipschitz even for the sup norm, because the grid L2 norm is
    dominated by the sup norm on [0,1].  Any algorithm that only sees
    sample values inside the subspace returns exactly 0 for it.
    """

    def fn(batch):
        resid = batch_project(batch[:, :, 0], sub)[1]
        norms = batch_norm(resid[:, :, None], NormKind.L2, sub.grid)
        norms[norms < _BLIND_SNAP_TOL] = 0.0
        return norms

    return Functional(fn, 1.0, None, f"dist_to_subspace[{sub.kind}:{sub.dim}]")


# ---------------------------------------------------------------------------
# Statistical Lipschitz verification


@dataclass(frozen=True)
class LipschitzReport:
    max_ratio: float
    lip_claim: float
    pairs: int

    @property
    def flagged(self) -> bool:
        return self.max_ratio > self.lip_claim * (1.0 + 1e-9)


def lipschitz_check(
    f: Functional,
    measure: MeasureSpec,
    pairs: int,
    seed: SeedSpec,
) -> LipschitzReport:
    """Largest observed |f(x)-f(y)| / ||x - y|| over sampled pairs.

    The norm is sup on paths and euclidean on vectors.  Pairs are
    independent draws plus locally perturbed copies (small random bumps),
    which probe local Lipschitz violations.  Coincident pairs are skipped.
    A failure while drawing or evaluating, and a non-finite value of f,
    raise ``NumericError`` at the draw's index in its stream, which the
    message names (``ConfigurationError`` passes through).
    """
    if pairs < 100:
        raise ConfigurationError("lipschitz_check needs at least 100 pairs")
    if not math.isfinite(f.lip_claim):
        raise ConfigurationError("Lipschitz claim must be finite")
    norm_kind = NormKind.EUCLIDEAN if measure.grid is None else NormKind.SUP
    bump_rng = seed.child(2).rng()
    max_ratio = 0.0
    # The two streams of one measure have the same tiles; the bumps are
    # drawn tile by tile in row order, so they are those of one call.
    x_tiles = _tiles(measure, seed.child(0), pairs, stream="seed.child(0)")
    y_tiles = _tiles(measure, seed.child(1), pairs, stream="seed.child(1)")
    try:
        for start, xs in x_tiles:
            fx = _evaluated(f, xs, start, "seed.child(0)")
            ys = next(y_tiles)[1]
            fy = _evaluated(f, ys, start, "seed.child(1)")
            bumped = xs + _BUMP_SCALE * bump_rng.standard_normal(xs.shape)
            fbumped = _evaluated(f, bumped, start, "seed.child(0), bumped")
            for b, fb in ((ys, fy), (bumped, fbumped)):
                dist = batch_norm(xs - b, norm_kind, measure.grid)
                ok = dist > 0
                if np.any(ok):
                    ratios = np.abs(fx[ok] - fb[ok]) / dist[ok]
                    max_ratio = max(max_ratio, float(ratios.max()))
            del xs, ys, bumped, b  # no block outlives its tiles into the next draw
    finally:
        x_tiles.close()
        y_tiles.close()
    return LipschitzReport(max_ratio, f.lip_claim, pairs)
