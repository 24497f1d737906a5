"""Grids, paths, norms, Lipschitz functionals, and linear path subspaces.

A path is a continuous function on [0,1] stored through its values on a
fixed grid; integral norms use trapezoid weights, which are exact for
piecewise-linear integrands.  Everything works on batches: (B, G, m) path
values and (B, d) vectors.  Subspaces keep bases that are orthonormal
with respect to the grid inner product, so projecting is two matrix
products and the L2 residual of the projection is the exact L2 distance
to the subspace.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError

DEFAULT_GRID_SIZE = 257

# Exact-match tolerance when locating a time on the grid.
_GRID_MATCH_TOL = 1e-12
# Largest entry of |rows W rows^T - I| for rows that count as orthonormal
# under the grid weights W.  Uniform grids give the KL rows about 1e-14.
_ORTHONORMAL_TOL = 1e-12


class NormKind(enum.Enum):
    SUP = "sup"
    L1 = "l1"
    L2 = "l2"
    EUCLIDEAN = "euclidean"

    @classmethod
    def parse(cls, text: str) -> "NormKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown norm {text!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing time points t_0 = 0 < ... < t_{G-1} = 1."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ConfigurationError("grid needs at least two points")
        if pts[0] != 0.0 or pts[-1] != 1.0:
            raise ConfigurationError("grid must start at 0 and end at 1")
        if np.any(np.diff(pts) <= 0):
            raise ConfigurationError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)
        # Trapezoid quadrature weights on the grid.
        w = np.empty_like(pts)
        w[0] = (pts[1] - pts[0]) / 2.0
        w[-1] = (pts[-1] - pts[-2]) / 2.0
        w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
        w.setflags(write=False)
        pts.setflags(write=False)
        object.__setattr__(self, "_weights", w)

    @staticmethod
    def uniform(size: int = DEFAULT_GRID_SIZE) -> "Grid":
        if size < 2:
            raise ConfigurationError("uniform grid needs size >= 2")
        return Grid(np.linspace(0.0, 1.0, size))

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    def index_of(self, t: float) -> int:
        """Index of a grid point matching t exactly (within 1e-12)."""
        i = int(np.argmin(np.abs(self.points - t)))
        if abs(self.points[i] - t) > _GRID_MATCH_TOL:
            raise ConfigurationError(f"t={float(t)!r} does not lie on the grid")
        return i


# ---------------------------------------------------------------------------
# Norms


def _pointwise_magnitude(values: np.ndarray) -> np.ndarray:
    # (..., G, m) -> (..., G) Euclidean magnitude across the path dimension.
    if values.shape[-1] == 1:
        return np.abs(values[..., 0])
    return np.sqrt(np.einsum("...i,...i->...", values, values))


def _sup_magnitude(values: np.ndarray) -> np.ndarray:
    # (..., G, m) -> (...) largest pointwise magnitude.  For m = 1 it is
    # max(max x, -min x) + 0.0, which is max |x| with no path-sized |x|:
    # negation is exact, and adding 0.0 maps -0.0 to +0.0 as abs does.
    if values.shape[-1] == 1:
        x = values[..., 0]
        return np.maximum(x.max(axis=-1), -x.min(axis=-1)) + 0.0
    return _pointwise_magnitude(values).max(axis=-1)


def check_norm_space(kind: NormKind, grid: Optional[Grid]) -> None:
    """Raise unless the norm fits the space: euclidean on vectors, paths otherwise."""
    if grid is None and kind is not NormKind.EUCLIDEAN:
        raise ConfigurationError(f"{kind.value} norm applies to paths, not vectors")
    if grid is not None and kind is NormKind.EUCLIDEAN:
        raise ConfigurationError("euclidean norm applies to vectors, not paths")


def batch_norm(
    values: np.ndarray, kind: NormKind, grid: Optional[Grid] = None
) -> np.ndarray:
    """Norms of vectors (..., d) with no grid, or of paths (..., G, m) on a grid.

    Returns an array of the leading shape.  Each norm is summed within its
    own sample, so it does not depend on how many samples share the call.
    """
    check_norm_space(kind, grid)
    if grid is None:
        return np.sqrt(np.einsum("...d,...d->...", values, values))
    if kind is NormKind.SUP:
        return _sup_magnitude(values)
    w = grid.weights
    if kind is NormKind.L1:
        return np.einsum("...g,g->...", _pointwise_magnitude(values), w)
    # L2: trapezoid rule on the squared magnitude; for m = 1, on x itself,
    # since |x|^2 = x^2 bit for bit.
    mag = values[..., 0] if values.shape[-1] == 1 else _pointwise_magnitude(values)
    return np.sqrt(np.einsum("...g,g,...g->...", mag, w, mag))


def _is_orthonormal(rows: np.ndarray, w: np.ndarray) -> bool:
    """Whether ``rows`` are orthonormal under the weights ``w`` to _ORTHONORMAL_TOL."""
    gram = (rows * w) @ rows.T
    return bool(np.all(np.abs(gram - np.eye(rows.shape[0])) <= _ORTHONORMAL_TOL))


# ---------------------------------------------------------------------------
# Karhunen-Loeve system for Brownian motion on [0,1]


def kl_eigenvalues(k: int) -> np.ndarray:
    """First k eigenvalues ((l - 1/2) pi)^(-2) of the Brownian covariance."""
    ell = np.arange(1, k + 1)
    return ((ell - 0.5) * math.pi) ** -2.0


def kl_basis_on_grid(k: int, grid: Grid) -> np.ndarray:
    """Rows e_l(t) = sqrt(2) sin((l - 1/2) pi t) evaluated on the grid; (k, G)."""
    ell = np.arange(1, k + 1)[:, None]
    return math.sqrt(2.0) * np.sin((ell - 0.5) * math.pi * grid.points[None, :])


# ---------------------------------------------------------------------------
# Subspaces (scalar paths)


@dataclass
class Subspace:
    """A k-dimensional space of scalar paths.

    ``basis`` rows are orthonormal for the grid inner product
    <x, y> = sum_i w_i x_i y_i with trapezoid weights w.
    """

    grid: Grid
    basis: np.ndarray  # (k, G)
    kind: str  # "piecewise-linear" or "karhunen-loeve"

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def _check_scalar_paths(shape: tuple) -> None:
    """Raise ``ConfigurationError`` unless ``shape`` is one scalar path's,
    (G, 1): a subspace has no distance to a vector or a path in R^m, m != 1."""
    if len(shape) != 2 or shape[1] != 1:
        raise ConfigurationError(f"a subspace reads scalar paths, not samples of shape {shape}")


def _orthonormalize_rows(raw: np.ndarray, grid: Grid) -> np.ndarray:
    # QR in sqrt-weighted coordinates; rows of the result are W-orthonormal.
    sw = np.sqrt(grid.weights)
    q, r = np.linalg.qr((raw * sw[None, :]).T)
    k = raw.shape[0]
    if np.any(np.abs(np.diag(r)) < 1e-12):
        raise ConfigurationError("basis functions are linearly dependent")
    signs = np.sign(np.diag(r))
    q = q[:, :k] * signs[None, :]
    return (q / sw[:, None]).T


def make_pl_subspace(breakpoints, grid: Optional[Grid] = None) -> Subspace:
    """Span of hat functions over the given breakpoints, orthonormalized.

    Breakpoints must include 0 and 1, be strictly increasing, and each must
    coincide with a grid point.
    """
    grid = grid or Grid.uniform()
    bp = np.asarray(list(breakpoints), dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise ConfigurationError("need at least the breakpoints 0 and 1")
    if bp[0] != 0.0 or bp[-1] != 1.0:
        raise ConfigurationError("breakpoints must include 0 and 1")
    if np.any(np.diff(bp) <= 0):
        raise ConfigurationError("breakpoints must be strictly increasing")
    for b in bp:
        grid.index_of(b)  # raises if off-grid
    # Hat j interpolates the j-th unit vector over the breakpoints.
    raw = np.stack([np.interp(grid.points, bp, np.arange(bp.size) == j) for j in range(bp.size)])
    basis = _orthonormalize_rows(raw, grid)
    return Subspace(grid, basis, "piecewise-linear")


def check_kl_dim(k: int, grid: Grid) -> None:
    """Raise unless a k-dimensional expansion subspace fits on the grid."""
    if k < 1:
        raise ConfigurationError("subspace dimension must be >= 1")
    if k >= grid.size:
        raise ConfigurationError(
            f"a {k}-dimensional expansion subspace needs a grid with more "
            f"than {k} points (got {grid.size}); use a finer grid"
        )


def make_kl_subspace(k: int, grid: Optional[Grid] = None) -> Subspace:
    """Span of the first k Brownian eigenfunctions, re-orthonormalized on the grid."""
    grid = grid or Grid.uniform()
    check_kl_dim(k, grid)
    basis = _orthonormalize_rows(kl_basis_on_grid(k, grid), grid)
    return Subspace(grid, basis, "karhunen-loeve")


def batch_project(values: np.ndarray, sub: Subspace):
    """Project (B, G) scalar path values; returns (projection, residual)."""
    coeff = (values * sub.grid.weights[None, :]) @ sub.basis.T  # (B, k)
    proj = coeff @ sub.basis  # (B, G)
    return proj, values - proj


# ---------------------------------------------------------------------------
# Functionals


@dataclass
class Functional:
    """Evaluation oracle with a claimed Lipschitz constant.

    ``fn`` maps a batch of sample values to a 1-d array: (B, d) for vector
    measures, (B, G, m) for path measures.  ``lip_claim`` is a claim only;
    the adversary module checks it statistically.  When ``oracle_dim`` is
    set, algorithms refuse to evaluate the functional at points of a
    higher-dimensional subspace.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lip_claim: float = 1.0
    oracle_dim: Optional[int] = None
    name: str = ""

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(batch), dtype=float)
        if out.shape != batch.shape[:1]:
            raise ConfigurationError(
                f"functional {self.name or '<anonymous>'} returned shape "
                f"{out.shape} for a batch of {batch.shape[0]}"
            )
        return out


def sup_norm_functional() -> Functional:
    """f(x) = sup_t |x(t)| on grid paths; 1-Lipschitz for the sup norm."""
    return Functional(_sup_magnitude, 1.0, None, "sup_norm")


def l1_integral_functional(grid: Grid) -> Functional:
    """f(x) = integral of |x(t)| dt by the grid trapezoid rule."""
    return Functional(
        lambda v: batch_norm(v, NormKind.L1, grid), 1.0, None, "l1_integral"
    )


def path_coord_functional(t: float, grid: Grid, absolute: bool = False) -> Functional:
    """f(x) = x(t) (or |x(t)|) for a grid time t, first path coordinate."""
    i = grid.index_of(t)
    if absolute:
        return Functional(lambda v: np.abs(v[:, i, 0]), 1.0, None, f"abs_coord_at({t})")
    return Functional(lambda v: v[:, i, 0], 1.0, None, f"coord_at({t})")


def vector_coord_functional(index: int, absolute: bool = False) -> Functional:
    """f(x) = x_index (or |x_index|) for vector samples."""
    if absolute:
        return Functional(
            lambda v: np.abs(v[:, index]), 1.0, None, f"abs_coord_at({index})"
        )
    return Functional(lambda v: v[:, index], 1.0, None, f"coord_at({index})")
