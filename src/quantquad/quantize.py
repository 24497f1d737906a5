"""Codebooks, Voronoi weights, distortion estimates, and Lloyd search.

A codebook is a finite set of points quantizing a measure; its quality of
order r is the r-th mean of the distance from a sample to its nearest
point.  Search is Lloyd iteration on a fixed sample pool (empirical
measure): deterministic given the seed, with pool distortion that never
increases from one iteration to the next.  The scalar N(0,1) quantizers
behind the Brownian product quantizer need no pool: they are exact
Lloyd-Max fixed points.  Product codebooks (the cube's midpoint grid and
the Brownian product quantizer) keep their per-axis levels, and their
nearest search runs axis by axis.  Other L2 and euclidean codebooks are
searched by Gram scores with near ties rescored.  Every nearest distance
is the norm of an exact difference, so it does not depend on the batch.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, NumericError
from .measures import (
    MeasureSpec,
    MonteCarloEstimate,
    SeedSpec,
    StdNormal,
    _block_rows,
    _check_grid,
    _coefficient_route,
    _Moments,
    _stream,
    measure_tag,
    oracle_dim,
    sample_batch,
    sample_shape,
)
from .paths import (
    _ORTHONORMAL_TOL,
    Functional,
    Grid,
    NormKind,
    _is_orthonormal,
    batch_norm,
    check_norm_space,
    kl_basis_on_grid,
    kl_eigenvalues,
)

# Bytes of the buffer that holds a run of gathered points whose exact
# distances are taken: small enough to stay in cache.
_GATHER_BYTES = 2**19
# Fewest draws a distortion or Voronoi-weight estimate takes.
_MIN_SAMPLES = 100


@dataclass(frozen=True, eq=False)
class ProductStructure:
    """A codebook built as the product of scalar codebooks.

    Point i is sum_l levels[l][i_l] * basis[l], where (i_0, i_1, ...) are
    the mixed-radix digits of i, first axis most significant (the order
    ``meshgrid(indexing="ij")`` gives).  Each level array is strictly
    increasing.  ``basis`` is None for the identity (point i is the
    vector of its levels), else (axes, G*m) rows orthonormal under the
    grid weights.
    """

    levels: tuple
    basis: Optional[np.ndarray] = None

    def __post_init__(self):
        levels = tuple(np.asarray(lv, dtype=float) for lv in self.levels)
        for lv in levels:
            if lv.ndim != 1 or lv.size < 1 or not np.all(np.isfinite(lv)):
                raise ConfigurationError("product levels must be finite 1-D arrays")
            if not np.all(np.diff(lv) > 0):
                raise ConfigurationError("product levels must be strictly increasing")
        object.__setattr__(self, "levels", levels)
        if self.basis is not None:
            object.__setattr__(self, "basis", np.asarray(self.basis, dtype=float))


def _has_equal_rows(flat: np.ndarray) -> bool:
    """Whether two rows of a finite (n, D) array are equal as floats.

    Adding 0.0 maps -0.0 to +0.0, so rows are equal exactly when their bytes
    are; sorted as D * 8-byte strings, equal rows are neighbours.  (One sort
    of byte strings: np.unique(axis=0) imports numpy.ma on first use, and a
    lexsort makes D passes, 2.2 times the time of np.unique at n = 2**14,
    D = 257.)
    """
    rows = np.ascontiguousarray(flat + 0.0)
    rows = np.sort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0])
    return bool((rows[1:] == rows[:-1]).any())


@dataclass
class Codebook:
    """n quantization points with optional Voronoi weights.

    ``points`` is (n, d) for vector measures, measured by the euclidean
    norm, or (n, G, m) for path measures (``grid`` set), measured by sup,
    L1 or L2.  ``oracle_dim`` records the dimension of the
    subspace the points were built in, used for cost accounting.
    ``product``, when set, says how the points were built from scalar
    codebooks; ``min_dist_batch`` then searches them axis by axis.
    """

    points: np.ndarray
    order_r: float
    norm: NormKind
    measure_tag: str
    grid: Optional[Grid] = None
    weights: Optional[np.ndarray] = None
    oracle_dim: Optional[int] = None
    fit_history: Optional[list] = None
    meta: Optional[dict] = None
    product: Optional[ProductStructure] = None

    def __post_init__(self):
        check_norm_space(self.norm, self.grid)
        pts = np.asarray(self.points, dtype=float)
        if self.grid is None:
            if pts.ndim != 2:
                raise ConfigurationError("vector codebook points must be (n, d)")
        else:
            if pts.ndim == 2:  # scalar paths given as (n, G)
                pts = pts[:, :, None]
            if pts.ndim != 3 or pts.shape[1] != self.grid.size:
                raise ConfigurationError(
                    "path codebook points must be (n, G, m) on the grid"
                )
        if pts.shape[0] < 1:
            raise ConfigurationError("codebook needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("codebook points must be finite")
        if self.product is None:
            if _has_equal_rows(pts.reshape(pts.shape[0], -1)):
                raise ConfigurationError("codebook points must be pairwise distinct")
        else:
            # Strictly increasing levels along orthonormal rows give
            # pairwise distinct points, so no unique() pass is needed.
            self._check_product(pts)
        if not 0 < self.order_r < math.inf:
            raise ConfigurationError("order r must be positive and finite")
        self.points = pts
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (pts.shape[0],) or np.any(w < 0):
                raise ConfigurationError("weights must be n nonnegative reals")
            if abs(w.sum() - 1.0) > 1e-12:
                raise ConfigurationError("weights must sum to 1")
            self.weights = w

    def _check_product(self, pts: np.ndarray):
        product = self.product
        if self.norm not in (NormKind.EUCLIDEAN, NormKind.L2):
            raise ConfigurationError("a product codebook needs the euclidean or L2 norm")
        if math.prod(lv.size for lv in product.levels) != pts.shape[0]:
            raise ConfigurationError("product level counts must multiply to n")
        flat = math.prod(pts.shape[1:])
        if self.grid is None:
            fits = product.basis is None and len(product.levels) == flat
        else:
            w = np.repeat(self.grid.weights, pts.shape[2])
            fits = (
                product.basis is not None
                and product.basis.shape == (len(product.levels), flat)
                and _is_orthonormal(product.basis, w)
            )
        if not fits:
            raise ConfigurationError(
                "product basis must be the identity on vectors or one row per "
                "axis, orthonormal under the grid weights"
            )

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def flat_points(self) -> np.ndarray:
        return self.points.reshape(self.n, -1)


# ---------------------------------------------------------------------------
# Nearest-point machinery


def _check_fits(shape: tuple, codebook: Codebook):
    if shape != codebook.points.shape[1:]:
        raise ConfigurationError(
            f"samples of shape {shape} do not fit codebook points "
            f"of shape {codebook.points.shape[1:]}"
        )


def _check_reads(codebook: Codebook, measure: MeasureSpec):
    """Refuse a codebook whose points are not draws of ``measure``: another
    shape, or another grid (``measures._check_grid``).  Draws nothing."""
    _check_fits(sample_shape(measure), codebook)
    _check_grid(measure, codebook.grid, "codebook")


def _unit_sum(w: np.ndarray) -> np.ndarray:
    """``w`` forced, in place, to an exact unit sum at its largest entry
    (the first on a tie); the correction is at the rounding level."""
    w[int(np.argmax(w))] += 1.0 - w.sum()
    return w


def _pair_distances(values: np.ndarray, codebook: Codebook, cols, rows=None):
    """Distances from sample rows[i] (sample i if rows is None) to point cols[i].

    Each is ``batch_norm`` of the exact difference, as in a direct search.
    One buffer of _GATHER_BYTES holds each run of gathered points, then
    their differences, so it stays in cache between the gather, the
    difference and the norm; norms are summed per sample, so runs move
    nothing.
    """
    k = cols.size
    out = np.empty(k)
    step = max(1, _GATHER_BYTES // (8 * math.prod(values.shape[1:])))
    buf = np.empty((min(step, k),) + values.shape[1:])
    for a in range(0, k, step):
        run = buf[: min(step, k - a)]
        np.take(codebook.points, cols[a : a + step], axis=0, out=run)
        x = values[a : a + step] if rows is None else values[rows[a : a + step]]
        np.subtract(x, run, out=run)
        out[a : a + step] = batch_norm(run, codebook.norm, codebook.grid)
    return out


def _nearest_level(lv: np.ndarray, x: np.ndarray):
    # The nearest of two or more levels to each x, the lower on a tie, from
    # the bracketing pair lv[hi-1] < x <= lv[hi] of one binary search, and
    # d_hi - d_lo for the pair's distances d.
    hi = np.clip(np.searchsorted(lv, x), 1, lv.size - 1)
    lo = hi - 1
    with np.errstate(invalid="ignore"):  # inf - inf on an infinite x
        diff = np.abs(lv[hi] - x) - np.abs(x - lv[lo])
    return np.where(diff >= 0, lo, hi), diff


def _product_search(values: np.ndarray, codebook: Codebook):
    # With orthonormal rows e_l and coordinates xi_l = <x, e_l>,
    # |x - y|^2 = |x - Px|^2 + sum_l (xi_l - y_l)^2 for every point y, so
    # the nearest point takes the nearest level on each axis, the lower on
    # a tie, which is the lower flat index.  O(B (a G + sum_l log n_l)) for
    # a axes.
    #
    # Rounding can break a tie, or a near tie, the other way in the exact
    # distances, so a row where a second level on some axis lies within a
    # proven margin of that axis's best is rescored over every combination
    # of its near levels, as _gram_search rescores near scores.  With
    # F = flat, A = |x|^2 + c_max, c_max = sum_l max_v lv_v^2 >= |y|^2 and
    # rows orthonormal to within tol = _ORTHONORMAL_TOL, the winner of a
    # search over every exact distance exceeds the levelwise best on each
    # axis, in squared exact coordinates, by at most the sum of
    # 4 gamma_{F+8} A (rounded distances; see _gram_search), 2 a tol A (the
    # rows' overlap) and 3 a^2 eps A (rounded points).  Rounded coordinates
    # move an axis's excess by at most 8.02 gamma_{F+1} A, and forming it
    # by about 16 eps A: (6.01 F + 3 a^2 + 36.1) eps A + 2 a tol A in all.
    # The margin is twice that, with A bounded over the batch by the
    # largest distance to a levelwise best plus sqrt(c_max).  On an axis of
    # smallest spacing s, a level on the best's own side is behind it by
    # at least s^2, more than the margin unless the levels are closer than
    # rounding (then every point is searched), and the other level of the
    # bracketing pair by |d_hi - d_lo| (d_hi + d_lo) >= |d_hi - d_lo| s.
    product = codebook.product
    b, flat = values.shape[0], math.prod(values.shape[1:])
    xi = values.reshape(b, flat)
    if product.basis is not None:
        w = np.repeat(codebook.grid.weights, codebook.points.shape[2])
        xi = xi @ (product.basis * w).T
    axes = [(axis, lv, np.diff(lv).min()) for axis, lv in enumerate(product.levels)
            if lv.size > 1]  # a one-level axis adds digit 0 in radix 1
    idx = np.zeros(b, dtype=np.intp)
    tie = np.full(b, np.inf)  # the smallest |d_hi - d_lo| s over the axes
    for axis, lv, s in axes:
        nearest, diff = _nearest_level(lv, xi[:, axis])
        idx = idx * lv.size + nearest
        np.minimum(tie, np.abs(diff) * s, out=tie)
    dist = _pair_distances(values, codebook, idx)
    top = dist.max(initial=0.0)
    if not math.isfinite(top):  # min_dist_batch reports the row
        return dist, idx
    c_max = sum(max(lv[0] ** 2, lv[-1] ** 2) for lv in product.levels)
    a = len(product.levels)
    coef = 16.0 * (flat + a * a + 5) * np.finfo(float).eps + 4.0 * a * _ORTHONORMAL_TOL
    margin = coef * ((top + math.sqrt(c_max)) ** 2 + c_max)
    if margin >= min((s * s for _, _, s in axes), default=math.inf):
        return _gram_search(values, codebook)
    rows = np.flatnonzero(tie <= margin)
    if rows.size == 0:
        return dist, idx
    cols = np.zeros(rows.size, dtype=np.intp)
    for axis, lv, s in axes:  # the best level, or a near pair, times the combinations so far
        nearest, diff = _nearest_level(lv, xi[rows, axis])
        count = 1 + (np.abs(diff) * s <= margin)
        start = nearest - (count - 1) * (diff < 0)  # a pair starts at its lower level
        pick = np.repeat(np.arange(rows.size), count)
        first = np.repeat(np.cumsum(count) - count, count)
        cols = cols[pick] * lv.size + start[pick] + np.arange(pick.size) - first
        rows = rows[pick]
    d = _pair_distances(values, codebook, cols, rows)
    rows, cols, d = _row_minima(rows, cols, d)
    dist[rows], idx[rows] = d, cols
    return dist, idx


def _row_minima(rows, cols, d):
    # Each row's smallest distance, its lowest index on a tie.
    keep = np.lexsort((cols, d, rows))
    keep = keep[np.r_[0, np.flatnonzero(np.diff(rows[keep])) + 1]]
    return rows[keep], cols[keep], d[keep]


def _gram_search(values: np.ndarray, codebook: Codebook):
    # Exact L2/euclidean search through scores s_j = |c_j|^2 - 2<x, c_j>
    # (grid-weighted on paths), which order the points as
    # D_j = |x - c_j|^2 = |x|^2 + s_j does: one BLAS product per tile.
    # Every point whose score lies within a proven margin of its row's best
    # is then rescored by batch_norm of its exact difference, the smallest
    # distance winning and the lowest index on a tie, so the result is that
    # of a search over every exact difference, bit for bit, in any tile
    # layout.
    #
    # The margin.  With u = eps/2 and gamma_k = k u / (1 - k u), a sum of
    # products of k-fold rounded terms, in any order, errs by at most
    # gamma_k times the sum of the terms' magnitudes (Higham, Accuracy and
    # Stability of Numerical Algorithms, 3.1).  Let F = flat and
    # A = |x|^2 + max_j |c_j|^2 (``scale``), so D_j <= 2A.
    # - Scores round the weighting x*w, each product, the sum and the
    #   final subtraction: |s^_j - s_j| <= gamma_{F+2} (|c_j|^2 +
    #   2 sum w|x||c_j|) <= 2 gamma_{F+2} A.
    # - batch_norm rounds each difference (2, as it is squared), the sum of
    #   m squares and its square root when m > 1 (m + 2), the weight
    #   products (2), the sum over G points and the final square root (2):
    #   d^_j^2 is D_j to within gamma_{G+m+7} D_j <= 2 gamma_{F+8} A, as
    #   G + m <= F + 1.
    # If j wins on d^ and k on s^, then d^_j <= d^_k gives
    # D_j - D_k <= 4 gamma_{F+8} A, hence s^_j - s^_k <=
    # 4 (gamma_{F+8} + gamma_{F+2}) A <= 4.1 (F+5) eps A.  The margin
    # 8 (F+5) eps A is twice that, which covers A's own rounding.  Rows
    # where the best score or 4A is not finite (non-finite samples,
    # overflow) rescore every point, as a score itself may have overflowed,
    # so the score arithmetic's overflow and invalid warnings are silenced.
    b = values.shape[0]
    flat = math.prod(values.shape[1:])
    x2d = values.reshape(b, flat)
    c2d = codebook.flat_points()
    w = None
    if codebook.grid is not None:
        w = np.repeat(codebook.grid.weights, codebook.points.shape[2])
    with np.errstate(over="ignore", invalid="ignore"):
        c_sq = np.einsum("nd,nd->n", c2d if w is None else c2d * w, c2d)
        c_twice = 2.0 * c2d  # exact, so x @ c_twice.T is exactly 2 <x, c>
    c_max = c_sq.max()
    ulps = 8.0 * (flat + 5) * np.finfo(float).eps
    dist = np.empty(b)
    idx = np.empty(b, dtype=np.intp)
    step = _block_rows(max(codebook.n, flat))  # scores and xw fill <= a block
    for b0 in range(0, b, step):
        x = x2d[b0 : b0 + step]
        t = x.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            xw = x if w is None else x * w
            # Scores are (points, samples): the reductions then run over
            # contiguous rows of samples, which is fastest for few points.
            scores = c_twice @ xw.T
            np.subtract(c_sq[:, None], scores, out=scores)
            scale = np.einsum("bd,bd->b", xw, x) + c_max
            del xw
            limit = scores.min(axis=0) + ulps * scale
            unsafe = ~np.isfinite(limit + 4.0 * scale)
        near = scores <= limit
        del scores
        near[:, unsafe] = True
        cols, rows = np.divmod(np.flatnonzero(near), t)
        del near
        d = _pair_distances(values[b0 : b0 + step], codebook, cols, rows)
        if rows.size > t:
            rows, cols, d = _row_minima(rows, cols, d)
        dist[b0 + rows] = d
        idx[b0 + rows] = cols
    return dist, idx


def _all_point_runs(values: np.ndarray, codebook: Codebook):
    # (start, distances to every point) for each run of samples whose
    # (samples, points, flat) difference array fills one block.
    step = _block_rows(codebook.n * math.prod(values.shape[1:]))
    for b0 in range(0, values.shape[0], step):
        diff = values[b0 : b0 + step, None] - codebook.points[None]
        yield b0, batch_norm(diff, codebook.norm, codebook.grid)


def _all_point_distances(values: np.ndarray, codebook: Codebook) -> np.ndarray:
    """(B, n) ``batch_norm`` of every exact difference: the brute-force search."""
    _check_fits(values.shape[1:], codebook)
    out = np.empty((values.shape[0], codebook.n))
    for b0, d in _all_point_runs(values, codebook):
        out[b0 : b0 + d.shape[0]] = d
    return out


def _direct_search(values: np.ndarray, codebook: Codebook):
    # Sup and L1 have no Gram identity: each run of samples takes its
    # distances to every point; the first minimum is the lowest index.
    dist = np.empty(values.shape[0])
    idx = np.empty(values.shape[0], dtype=np.intp)
    for b0, d in _all_point_runs(values, codebook):
        near = np.argmin(d, axis=1)
        dist[b0 : b0 + near.size] = d[np.arange(near.size), near]
        idx[b0 : b0 + near.size] = near
    return dist, idx


def min_dist_batch(values: np.ndarray, codebook: Codebook):
    """Distance to and index of the nearest codebook point for each sample.

    Returns (distances, indices); ties go to the lowest index.  Every
    distance is ``batch_norm`` of the exact difference to the returned
    point, so neither depends on how many samples share the call.  A
    product codebook is searched axis by axis; any other L2 or euclidean
    codebook by Gram scores with near ties rescored; sup and L1 codebooks
    point by point.  Raises ``ConfigurationError`` when a sample's shape is
    not a point's shape, and ``NumericError`` (``sample`` the first bad
    row) when a distance is not finite: a non-finite sample or overflow.
    """
    _check_fits(values.shape[1:], codebook)
    if codebook.product is not None:
        search = _product_search
    elif codebook.norm in (NormKind.L2, NormKind.EUCLIDEAN):
        search = _gram_search
    else:
        search = _direct_search
    dist, idx = search(values, codebook)
    if not np.all(np.isfinite(dist)):
        bad = int(np.argmin(np.isfinite(dist)))
        raise NumericError(
            f"distance to the codebook is not finite at row {bad}", sample=bad
        )
    return dist, idx


def dist_to_codebook_functional(codebook: Codebook) -> Functional:
    """f(x) = distance from x to the codebook; 1-Lipschitz in the codebook norm."""

    def fn(batch):
        d, _ = min_dist_batch(batch, codebook)
        return d

    return Functional(fn, 1.0, None, "dist_to_codebook")


# ---------------------------------------------------------------------------
# Distortion and Voronoi weights


def _searched(codebook: Codebook, measure: MeasureSpec, M: int, seed: SeedSpec, read):
    """``read(distances, indices)`` of each tile of the nearest search of
    draws 0 .. M of ``seed.child(0)``'s stream of ``measure``, in order,
    after ``_check_reads``.

    A path stream is searched by ``min_dist_batch``.  A product codebook
    whose rows are the measure's first a expansion rows
    (``measures._coefficient_route``) reads the stream's expansion normals z
    instead: with c = z sqrt(lambda), the winner is that of
    ``min_dist_batch`` on c's a leading coordinates in the vector product
    codebook of the same levels, whose flat index is the path codebook's,
    and the distance is sqrt(head^2 + sum_{l >= a} c_l^2) for the head
    distance on those coordinates: the stream read is StdNormal(k_terms) on
    the same seed.  Draws are held and replayed (``_tiles``).
    """
    _check_reads(codebook, measure)
    product = codebook.product
    basis = None if product is None else product.basis
    if not _coefficient_route(measure, codebook.norm, codebook.grid, basis, kl_basis_on_grid):
        return _stream(measure, seed.child(0), M, lambda x: read(*min_dist_batch(x, codebook)),
                       _MIN_SAMPLES, replay=True)
    head = Codebook(_mesh(product.levels), codebook.order_r, NormKind.EUCLIDEAN,
                    codebook.measure_tag, product=ProductStructure(product.levels))
    scale, a = np.sqrt(kl_eigenvalues(measure.k_terms)), basis.shape[0]

    def search(z):
        c = z * scale
        dist, idx = min_dist_batch(c[:, :a], head)
        tail = c[:, a:]
        return read(np.sqrt(dist * dist + np.einsum("bl,bl->b", tail, tail)), idx)

    return _stream(StdNormal(measure.k_terms), seed.child(0), M, search, _MIN_SAMPLES,
                   replay=True)


def distortion(
    codebook: Codebook, measure: MeasureSpec, r: float, M: int, seed: SeedSpec
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the order-r quantization error of the codebook.

    The distance is that of ``min_dist_batch`` on paths.  For a product
    codebook on a BrownianKL measure's first expansion rows, orthonormal on
    its grid, it is the euclidean distance of the draws' expansion
    coefficients to the point's, which equals the path distance to within
    the rows' orthonormality (``_searched``); no path is built.  The stderr
    comes from the CLT on the r-th power of the distance and the delta
    method for the 1/r-th root (``measures._Moments.root``).

    Needs M >= 100; a non-finite distance raises ``NumericError`` at its draw.
    Draws that fit in one block are held after the call, and the next
    distortion or Voronoi-weight estimate on the same measure, seed and M
    replays them instead of drawing them again.
    """
    if not 0 < r < math.inf:
        raise ConfigurationError("order r must be positive and finite")
    powers = _searched(codebook, measure, M, seed, lambda dist, idx: dist**r)
    value, stderr = _Moments(powers).root(r)
    return MonteCarloEstimate(value, stderr, M)


def voronoi_weights(
    codebook: Codebook, measure: MeasureSpec, M: int, seed: SeedSpec
) -> np.ndarray:
    """Estimate cell masses by nearest-point counting; stores them on the codebook.

    Needs M >= 100.  Each draw counts for the point ``min_dist_batch`` finds
    on its path, or, on the route of ``distortion``, for the point nearest
    to its expansion coefficients.  The returned weights sum to 1 exactly;
    empty cells get weight 0 and are flagged with a warning.  Draws are held
    and replayed as in ``distortion``.
    """
    counts = np.zeros(codebook.n, dtype=np.int64)
    for idx in _searched(codebook, measure, M, seed, lambda dist, idx: idx):
        counts += np.bincount(idx, minlength=codebook.n)
    w = _unit_sum(counts / float(M))
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        warnings.warn(
            f"voronoi_weights: {empty.size} empty cell(s) at indices "
            f"{empty.tolist()[:8]}",
            stacklevel=2,
        )
    codebook.weights = w
    return w


# ---------------------------------------------------------------------------
# Lloyd search on a fixed pool


@dataclass(frozen=True)
class LloydOptions:
    iters: int = 200
    tol: float = 1e-10
    restarts: int = 8
    pool_size: Optional[int] = None  # default: 100000 vectors, 20000 paths

    def __post_init__(self):
        if self.restarts < 1:
            raise ConfigurationError(f"Lloyd needs restarts >= 1, got {self.restarts}")
        if self.iters < 0:
            raise ConfigurationError(f"Lloyd needs iters >= 0, got {self.iters}")
        if not self.tol >= 0:
            raise ConfigurationError(f"Lloyd needs tol >= 0, got {self.tol}")
        if self.pool_size is not None and self.pool_size < 1:
            raise ConfigurationError(
                f"Lloyd needs pool_size >= 1, got {self.pool_size}"
            )


_DEFAULT_POOL_VECTOR = 100_000
_DEFAULT_POOL_PATH = 20_000
# Samples per block of the d=1 range sums.  Each block is summed relative
# to its own first sample, so the rounding of a cell's power sum scales
# with the spread of a block, not with |x|; a block must stay narrow next
# to a cell, while an iteration costs O(M / _BLOCK) besides its searches.
# A block keeps its running sums only between runs of _CHECKPOINT
# samples, so the sums of y and y^2 take 2 / _CHECKPOINT + 2 / _BLOCK of
# the pool (17/128), and a prefix inside a block costs at most
# _CHECKPOINT - 1 additions.
_BLOCK = 256
_CHECKPOINT = 16
_RUN = np.arange(_CHECKPOINT)[:, None]  # offsets within a run of samples
# Samples per tile of a d=1 pass over the pool: each of its float
# temporaries takes 1 MiB.
_POOL_TILE = 2**17


def _cell_update(flat_pool: np.ndarray, labels: np.ndarray, n: int, r: int):
    # Exact minimizers per cell: mean for r=2, coordinatewise median for r=1.
    counts = np.bincount(labels, minlength=n)
    centers = np.empty((n, flat_pool.shape[1]))
    if r == 2:
        for j in range(flat_pool.shape[1]):
            centers[:, j] = np.bincount(
                labels, weights=flat_pool[:, j], minlength=n
            )
        nonzero = counts > 0
        centers[nonzero] /= counts[nonzero, None]
    else:
        order = np.argsort(labels, kind="stable")
        sorted_pool = flat_pool[order]
        splits = np.cumsum(counts)[:-1]
        for i, cell in enumerate(np.split(sorted_pool, splits)):
            if cell.shape[0]:
                centers[i] = np.median(cell, axis=0)
    return centers, counts


def _farthest(size: int, e: int, distances) -> np.ndarray:
    """Indices of the e samples farthest from the codebook.

    Samples are ordered by distance descending, then index ascending;
    ``distances(lo, hi)`` gives those of samples lo .. hi - 1.  Each tile
    keeps its own first e, and a stable sort merges them, so no temporary
    is the size of the pool.
    """
    index, dist = [], []
    for lo in range(0, size, _POOL_TILE):
        d = distances(lo, min(lo + _POOL_TILE, size))
        keep = np.arange(d.size)
        if e < d.size:
            keep = np.flatnonzero(d >= np.partition(d, d.size - e)[d.size - e])
        keep = keep[np.argsort(-d[keep], kind="stable")[:e]]
        index.append(lo + keep)
        dist.append(d[keep])
    index, dist = np.concatenate(index), np.concatenate(dist)
    return index[np.argsort(-dist, kind="stable")[:e]]


def _reseed_empty(centers, counts, pool_flat, distances):
    # Deterministic rule: move each empty point to the pool sample farthest
    # from the current codebook, taking distinct samples in distance order.
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        centers[empty] = pool_flat[_farthest(pool_flat.shape[0], empty.size, distances)]
    return centers


def _lloyd_loop(centers, step, opts):
    """One restart from ``centers``: (centers, history, stop, reseeds).

    ``step(centers)`` gives their pool distortion and an update that
    returns the next centers, empty cells reseeded, and the cell counts.
    """
    history, reseeds, prev = [], 0, None
    for it in range(opts.iters + 1):
        cur, update = step(centers)
        if prev is not None and cur > prev:  # keep the pool distortion non-increasing
            return prev_centers, history, "revert", reseeds
        history.append(cur)
        if prev is not None and prev - cur <= opts.tol * max(prev, 1e-300):
            return centers, history, "tol", reseeds
        if it == opts.iters:
            return centers, history, "iters", reseeds
        prev, prev_centers = cur, centers
        centers, counts = update()
        reseeds += int(np.count_nonzero(counts == 0))


def _lloyd_run_general(pool, codebook, init_flat, opts, r):
    shape = pool.shape[1:]
    flat_pool = pool.reshape(pool.shape[0], -1)

    def step(centers):
        dists, labels = min_dist_batch(pool, codebook(centers.reshape((-1,) + shape)))

        def update():
            new, counts = _cell_update(flat_pool, labels, centers.shape[0], r)
            return _reseed_empty(new, counts, flat_pool, lambda lo, hi: dists[lo:hi]), counts

        return float(np.mean(dists**r)), update

    centers, history, stop, reseeds = _lloyd_loop(init_flat.copy(), step, opts)
    return centers.reshape((-1,) + shape), history, stop, reseeds


@dataclass(frozen=True)
class _BlockSums:
    """Checkpointed in-block prefix sums of y = x - pivot and y^2.

    Block k of the sorted pool holds samples k*_BLOCK .. (k+1)*_BLOCK - 1
    (the last may be shorter) and its pivot is its first sample.  Its
    running sums (numpy's sequential cumsum) are kept only before each
    run of _CHECKPOINT samples and at its end: checkpoint j of a block is
    the sum through in-block offset j _CHECKPOINT - 1, so checkpoint 0 is
    0.0 and the last one, of the shorter block too, is the block's total.
    The checkpoints of y and y^2 are stacked as
    (2, blocks, _BLOCK // _CHECKPOINT + 1).
    """

    flat: np.ndarray
    pivots: np.ndarray
    checkpoints: np.ndarray

    def totals(self, r):
        """Block totals of y (row 0) and, for r=2, y^2 (row 1)."""
        return self.checkpoints[:r, :, -1]

    def prefix(self, at, r):
        """In-block prefix sums of y (row 0) and, for r=2, y^2 (row 1)
        through samples ``at``.

        Each resumes its block's running sum at the checkpoint just
        before the run of _CHECKPOINT samples that holds it and adds that
        run's samples in order, so it repeats the block's cumsum float for
        float.  The first run of a block starts from 0.0, which adds
        exactly.  An index outside the pool gives a value but no error.
        """
        run, block = at // _CHECKPOINT, at // _BLOCK
        # Row j of folds runs through sample j of each run; a run that
        # passes the end of the pool repeats its last sample, after ``at``.
        folds = np.empty((_CHECKPOINT, r, at.size))
        samples = self.flat.take(run * _CHECKPOINT + _RUN, mode="clip")
        np.subtract(samples, self.pivots.take(block, mode="clip"), out=folds[:, 0])
        if r == 2:
            np.square(folds[:, 0], out=folds[:, 1])
        # A block's checkpoints are its runs' starts and its total.
        folds[0] += self.checkpoints.reshape(2, -1)[:r].take(run + block, axis=1, mode="clip")
        rows = list(folds)
        for prev, row in zip(rows, rows[1:]):
            row += prev
        pick = (at - run * _CHECKPOINT) * (r * at.size) + np.arange(r * at.size).reshape(r, -1)
        return folds.reshape(-1).take(pick)


def _block_sums(flat: np.ndarray) -> _BlockSums:
    """The checkpointed in-block sums of a sorted pool, built in tiles of
    _POOL_TILE samples."""
    full = flat.size - flat.size % _BLOCK
    tiles = [(lo, min(lo + _POOL_TILE, full)) for lo in range(0, full, _POOL_TILE)]
    tiles += [(full, flat.size)] if full < flat.size else []
    checkpoints = np.zeros((2, -(-flat.size // _BLOCK), _BLOCK // _CHECKPOINT + 1))
    for lo, hi in tiles:
        width = min(_BLOCK, hi - lo)
        y = flat[lo:hi].reshape(-1, width)
        y = y - y[:, :1]
        y2 = np.square(y)
        np.cumsum(y, axis=1, out=y)
        np.cumsum(y2, axis=1, out=y2)
        kept = np.minimum(np.arange(_CHECKPOINT - 1, _BLOCK, _CHECKPOINT), width - 1)
        rows = slice(lo // _BLOCK, lo // _BLOCK + y.shape[0])
        checkpoints[0, rows, 1:], checkpoints[1, rows, 1:] = y[:, kept], y2[:, kept]
    return _BlockSums(flat, flat[::_BLOCK].copy(), checkpoints)


def _pieces(sums, r, splits, cuts=()):
    """Pieces of the cells of a sorted pool that each lie in one block.

    Cell i is flat[splits[i]:splits[i+1]].  Cutting the cells at block
    edges (and at the extra ``cuts``) leaves pieces flat[a:a+count] that
    lie in one block and one cell.  Returns (a, count, cell, pivot, piece):
    per piece its block's pivot and its sums of y (row 0 of piece) and,
    for r=2, y^2 (row 1).  A piece that ends at its block's end reads the
    block total; only the edges inside a block read in-block prefixes,
    each shared by the pieces on either side.
    """
    size = sums.flat.size
    inner = np.concatenate([splits[1:-1], *cuts])
    if cuts:
        inner.sort()
    prefix = sums.prefix(inner - 1, r)
    block = inner // _BLOCK
    keep = (inner > block * _BLOCK) & (inner < size)
    keep[1:] &= inner[1:] != inner[:-1]
    keep = np.flatnonzero(keep)
    inner, block, prefix = inner.take(keep), block.take(keep), prefix.take(keep, axis=1)
    pos = block + np.arange(1, inner.size + 1)  # the pieces starting there
    per_block = np.bincount(block, minlength=sums.pivots.size) + 1
    blocks = np.repeat(np.arange(sums.pivots.size), per_block)  # of each piece
    a = blocks * _BLOCK
    a[pos] = inner
    count = np.append(a[1:], size) - a
    first = np.searchsorted(a, splits)  # each cell's first piece
    cell = np.repeat(np.arange(splits.size - 1), first[1:] - first[:-1])
    piece = sums.totals(r).take(blocks, axis=1)
    ends = pos - 1  # the pieces ending there
    for row, edge in zip(piece, prefix):
        row[ends] = edge
        row[pos] -= edge
    return a, count, cell, sums.pivots.take(blocks), piece


def _pool_power_sum(flat, pieces, centers, at, r):
    """Sum of |x - c|^r over a sorted pool, x in the cell of center c.

    For r=1 the pieces are also cut at the centers ``at``, so each lies
    on one side of its center; each piece's sum comes from its in-block
    sums with d = c - pivot.
    """
    a, count, cell, pivot, piece = pieces
    d = centers[cell] - pivot
    if r == 2:  # sum (y - d)^2 = S2 - d (2 S1 - count d)
        total = piece[1] - d * (2.0 * piece[0] - count * d)
    else:
        total = np.where(a >= at[cell], 1.0, -1.0) * (piece[0] - count * d)
    # A one-sample piece is taken from its sample, so a cell holding only
    # its center costs exactly 0; no piece sum can be negative.
    one = np.flatnonzero(count == 1)
    if one.size:
        total[one] = np.abs(flat[a[one]] - centers[cell[one]]) ** r
    return float(np.sum(np.maximum(total, 0.0)))


def _cell_means(flat, pieces, splits, counts, filled):
    """Means of the filled cells of a sorted pool.

    Each mean is the cell's first sample p plus the mean of x - p.  A
    piece's sum of x - p is its in-block sum of y = x - pivot plus
    count (pivot - p), so no partial sum grows with |x|.
    """
    _, count, cell, pivot, piece = pieces
    first = flat[np.minimum(splits[:-1], flat.size - 1)]
    offsets = piece[0] + count * (pivot - first[cell])
    return first[filled] + np.bincount(cell, offsets, counts.size)[filled] / counts[filled]


def _cell_distances(flat, splits, centers):
    # Distances of samples lo .. hi - 1 of a sorted pool to their cells'
    # centers; a tile's centers repeat by the cells' counts inside it.
    def distances(lo, hi):
        d = np.repeat(centers, np.diff(np.clip(splits, lo, hi)))
        np.subtract(flat[lo:hi], d, out=d)
        return np.abs(d, out=d)

    return distances


def _lloyd_run_1d(flat, sums, init, opts, r):
    # Vector d=1 fast path: the cells of a sorted codebook are index ranges
    # of the sorted pool, so an iteration costs O(n log M + M / _BLOCK).
    M = flat.size

    def step(centers):
        bounds = (centers[1:] + centers[:-1]) / 2.0
        splits = np.concatenate(([0], np.searchsorted(flat, bounds, side="right"), [M]))
        at = np.searchsorted(flat, centers) if r == 1 else None
        pieces = _pieces(sums, r, splits, [at] if r == 1 else [])

        def update():
            counts = splits[1:] - splits[:-1]
            filled = counts > 0
            new = np.empty_like(centers)
            if r == 2:
                new[filled] = _cell_means(flat, pieces, splits, counts, filled)
            else:
                size = counts[filled]
                mid = splits[:-1][filled] + (size - 1) // 2
                low, upper = flat.take(mid), flat.take(mid + 1, mode="clip")
                new[filled] = np.where(size % 2 == 1, low, (low + upper) / 2.0)
            _reseed_empty(new, counts, flat, _cell_distances(flat, splits, centers))
            return np.sort(new), counts

        return _pool_power_sum(flat, pieces, centers, at, r) / M, update

    centers, history, stop, reseeds = _lloyd_loop(np.sort(init), step, opts)
    return centers[:, None], history, stop, reseeds


def lloyd(
    measure: MeasureSpec,
    n: int,
    r: int,
    opts: Optional[LloydOptions] = None,
    seed: SeedSpec = SeedSpec(0),
    norm: Optional[NormKind] = None,
) -> Codebook:
    """Best-of-restarts Lloyd iteration on a fixed sample pool.

    r=2 updates cells by their mean, r=1 by the coordinatewise median
    (exact in one dimension, the standard surrogate otherwise).  Empty
    cells are reseeded at the pool sample farthest from the codebook.
    The empirical pool distortion never increases from one iteration to
    the next; the best restart by final pool distortion wins.

    The codebook's ``meta`` reports the search: ``winner`` (index of the
    winning restart) and, per restart, ``iterations`` (length of its pool
    distortion history), ``stops`` (``"tol"``: converged, ``"iters"``:
    hit the cap, ``"revert"``: an update raised the distortion and was
    undone) and ``reseeds`` (empty cells reseeded).
    """
    if n < 1:
        raise ConfigurationError("codebook size must be >= 1")
    if r not in (1, 2):
        raise ConfigurationError("centroid updates support r in {1, 2}")
    opts = opts or LloydOptions()
    grid = measure.grid
    if norm is None:
        norm = NormKind.EUCLIDEAN if grid is None else NormKind.L2
    check_norm_space(norm, grid)
    pool_size = opts.pool_size
    if pool_size is None:
        pool_size = _DEFAULT_POOL_VECTOR if grid is None else _DEFAULT_POOL_PATH
    if pool_size < n:
        raise ConfigurationError("pool is smaller than the codebook")
    pool = sample_batch(measure, seed.child(0), pool_size)
    codebook = functools.partial(
        Codebook,
        order_r=float(r),
        norm=norm,
        measure_tag=measure_tag(measure),
        grid=grid,
        oracle_dim=oracle_dim(measure),
    )
    inits = [
        pool[seed.child(1 + restart).rng().choice(pool_size, size=n, replace=False)]
        for restart in range(opts.restarts)
    ]

    if grid is None and pool.shape[1] == 1:
        flat = pool.reshape(-1)
        flat.sort()  # in place: the unsorted pool is not needed again
        sums = _block_sums(flat)
        runs = [_lloyd_run_1d(flat, sums, x[:, 0], opts, r) for x in inits]
    else:
        runs = [
            _lloyd_run_general(pool, codebook, x.reshape(n, -1), opts, r) for x in inits
        ]
    points, histories, stops, reseeds = zip(*runs)
    winner = min(range(len(runs)), key=lambda i: histories[i][-1])
    points = points[winner]
    if grid is None:
        points = points[np.lexsort(points.T[::-1])]
    meta = {
        "winner": winner,
        "iterations": [len(history) for history in histories],
        "stops": list(stops),
        "reseeds": list(reseeds),
    }
    return codebook(points, fit_history=histories[winner], meta=meta)


def _mesh(axes) -> np.ndarray:
    """Every combination of the axes' values, (prod of sizes, len(axes)).

    Rows are in mixed-radix order, first axis most significant.
    """
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def uniform_midpoint_codebook(d: int, per_axis: int) -> Codebook:
    """Product-of-midpoints codebook for the uniform cube, with exact weights.

    Each axis gets the points (2i-1)/(2 per_axis); every cell carries the
    exact mass per_axis^-d by symmetry.  In one dimension this is the
    optimal codebook of its size for any order r.  The codebook keeps its
    product structure, so its nearest search costs O(d log per_axis) per
    sample.
    """
    if d < 1 or per_axis < 1:
        raise ConfigurationError("need d >= 1 and per_axis >= 1")
    axis = (2.0 * np.arange(1, per_axis + 1) - 1.0) / (2.0 * per_axis)
    points = _mesh([axis] * d)
    n = points.shape[0]
    return Codebook(
        points,
        2.0,
        NormKind.EUCLIDEAN,
        f"uniform_cube:{d}",
        weights=_unit_sum(np.full(n, 1.0 / n)),
        oracle_dim=d,
        product=ProductStructure((axis,) * d),
    )


# ---------------------------------------------------------------------------
# Exact scalar N(0,1) quantizers and the Brownian product quantizer

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LLOYD_MAX_TOL = 1e-13
_LLOYD_MAX_ITERS = 100_000  # about 2 n^2 iterations are needed; n = 128 takes 31k


def _normal_tail(x: np.ndarray) -> np.ndarray:
    """P(Z > x) for Z ~ N(0,1), elementwise."""
    return np.array([0.5 * math.erfc(v / _SQRT2) for v in x])


def _companding_start(n: int) -> np.ndarray:
    """Exactly symmetric N(0, 3) quantiles at (i + 1/2) / n, by bisection.

    Their density, proportional to phi^(1/3), is asymptotically optimal.
    """
    q = (np.arange(n) + 0.5) / n
    x, step = np.zeros(n), 16.0
    for _ in range(60):
        x += np.where(_normal_tail(x) > 1.0 - q, step, -step)
        step /= 2.0
    return math.sqrt(3.0) * (x - x[::-1]) / 2.0


def _cell_moments(c: np.ndarray):
    """Mass, first and second moment of N(0,1) on each midpoint cell of sorted c."""
    e = (c[1:] + c[:-1]) / 2.0
    a, b = np.append(-np.inf, e), np.append(e, np.inf)
    # Masses come from the tail beyond each edge on the cell's side away
    # from 0, so tail cells do not lose digits to cancellation.
    t = _normal_tail(np.abs(e))
    ta, tb = np.append(0.0, t), np.append(t, 0.0)
    p = np.where(a >= 0, ta - tb, np.where(b <= 0, tb - ta, 1.0 - ta - tb))
    pdf = np.exp(-0.5 * e * e) / _SQRT_2PI
    m1 = np.append(0.0, pdf) - np.append(pdf, 0.0)
    m2 = p + np.append(0.0, e * pdf) - np.append(e * pdf, 0.0)
    return p, m1, m2


@functools.cache
def _lloyd_max(n: int):
    """Exact quadratic-optimal N(0,1) codebook of size n: (points, cell masses, D2).

    Lloyd-Max fixed-point iteration (Max 1960; Pages & Printems 2003): each
    point moves to the centroid of its cell, with cell masses and moments
    in closed form.  The optimum is unique, as the normal density is
    log-concave.  The returned arrays are shared, so they are read-only.
    """
    if n < 1:
        raise ConfigurationError("levels must be >= 1")
    c = _companding_start(n)
    for _ in range(_LLOYD_MAX_ITERS):
        p, m1, m2 = _cell_moments(c)
        centroids = m1 / p
        if np.max(np.abs(centroids - c)) <= _LLOYD_MAX_TOL:
            d2 = float(np.sum(m2 - 2.0 * c * m1 + c * c * p))
            c.flags.writeable = p.flags.writeable = False
            return c, p, d2
        c = centroids
    raise NumericError(
        f"Lloyd-Max did not converge in {_LLOYD_MAX_ITERS} steps at n={n}"
    )


def scalar_gaussian_quantizer(levels: int) -> Codebook:
    """Exact quadratic-optimal quantizer of N(0,1), weighted by its cell masses."""
    points, masses, _ = _lloyd_max(levels)
    return Codebook(
        points[:, None].copy(),
        2.0,
        NormKind.EUCLIDEAN,
        "std_normal:1",
        weights=_unit_sum(masses.copy()),
        oracle_dim=1,
    )


def product_quantizer_bm(
    n_budget: int, k_terms: int = 200, grid: Optional[Grid] = None
) -> Codebook:
    """Product codebook for Brownian motion over its expansion coordinates.

    Levels n_1 >= n_2 >= ... >= 1 are allocated greedily: each increment
    goes to the coordinate with the largest predicted drop in squared L2
    distortion, lambda_l * (D2(n_l) - D2(n_l + 1)), subject to the product
    of levels staying within ``n_budget``.  Points are all combinations of
    the scaled scalar codebooks; weights are the exact products of the
    scalar cell masses.

    The codebook keeps its product structure: levels sqrt(lambda_l) c^(n_l)
    on the active expansion rows e_l.  Its nearest search then costs
    O(a G + sum_l log n_l) per sample for a active rows and G grid points,
    instead of O(n G).  On a grid where the active rows are not
    orthonormal under the trapezoid weights (a non-uniform grid, or one
    too coarse for them), the structure is left out and the points are
    searched one by one.
    """
    if n_budget < 1:
        raise ConfigurationError("n_budget must be >= 1")
    if k_terms < 1:
        raise ConfigurationError("k_terms must be >= 1")
    grid = grid or Grid.uniform()
    lam = kl_eigenvalues(k_terms)
    levels = np.ones(k_terms, dtype=int)
    prod = 1
    while True:
        best_gain = 0.0
        best_coord = -1
        for ell in range(k_terms):
            new_prod = prod // levels[ell] * (levels[ell] + 1)
            if new_prod > n_budget:
                continue
            gain = lam[ell] * (
                _lloyd_max(int(levels[ell]))[2] - _lloyd_max(int(levels[ell]) + 1)[2]
            )
            if gain > best_gain:
                best_gain = gain
                best_coord = ell
        if best_coord < 0:
            break
        prod = prod // levels[best_coord] * (levels[best_coord] + 1)
        levels[best_coord] += 1
    assert np.all(np.diff(levels) <= 0), "greedy allocation must be non-increasing"

    active = np.flatnonzero(levels > 1)
    rows = kl_basis_on_grid(k_terms, grid)[active]
    axes_levels = tuple(
        _lloyd_max(int(levels[ell]))[0] * s
        for ell, s in zip(active, np.sqrt(lam[active]))
    )
    if active.size == 0:
        points = np.zeros((1, grid.size, 1))
        weights = np.ones(1)
    else:
        points = (_mesh(axes_levels) @ rows)[:, :, None]
        weights = np.ones(points.shape[0])
        for masses in _mesh([_lloyd_max(int(levels[ell]))[1] for ell in active]).T:
            weights = weights * masses
        _unit_sum(weights)
    product = None
    if _is_orthonormal(rows, grid.weights):
        product = ProductStructure(axes_levels, rows)
    return Codebook(
        points,
        2.0,
        NormKind.L2,
        f"brownian_kl:{k_terms}:{grid.size}",
        grid=grid,
        weights=weights,
        oracle_dim=max(1, int(active.size)),
        meta={"levels": tuple(int(v) for v in levels[: max(1, active.size)])},
        product=product,
    )
