"""Empirical rate verification: error ladders, width estimates, log fits.

Asymptotic rate claims are tested as slope brackets at finite sizes: the
harness runs an algorithm over a ladder of sizes, measures the RMSE of
its estimates against a reference value over many replications, fits a
line in transformed coordinates (log-log, or log against log-log for
doubly logarithmic laws), and compares the slope to a configured
bracket.  It never claims to verify a limit.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError
from .measures import (
    Diffusion,
    DiffusionSpec,
    MeasureSpec,
    SeedSpec,
    StdNormal,
    _check_count,
    _check_grid,
    _coefficient_route,
    _Moments,
    _stream,
    reference_value,
    sample_shape,
)
from .paths import (
    Functional,
    Grid,
    NormKind,
    Subspace,
    _check_scalar_paths,
    batch_norm,
    batch_project,
    kl_eigenvalues,
    make_kl_subspace,
)
from .quadrature import (
    SmallBallProfile,
    _budget_rung,
    _subspace_grid,
    classical_mc_replicated,
    euler_mc_schedule,
    subspace_mc_schedule,
    vr_mc_replicated,
)
from .quantize import Codebook


@dataclass(frozen=True)
class RatePoint:
    size: float
    error: float
    stderr: float = 0.0

    def __post_init__(self):
        if self.size <= 0:
            raise ConfigurationError("rate point size must be positive")
        if self.error < 0 or self.stderr < 0:
            raise ConfigurationError("rate point error/stderr must be >= 0")


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    transform: str
    point_count: int


_TRANSFORMS = ("loglog", "loglog-in-log")


def _fit_coords(points: Sequence[RatePoint], transform: str):
    """(ln(size) or ln(ln(size)), ln(error)) of the points with positive error."""
    usable = [p for p in points if p.error > 0]
    sizes = np.array([p.size for p in usable])
    if transform == "loglog-in-log" and np.any(sizes <= 1.0):
        raise ConfigurationError("loglog-in-log needs sizes > 1")
    x = np.log(sizes) if transform == "loglog" else np.log(np.log(sizes))
    return x, np.log(np.array([p.error for p in usable]))


def rate_fit(points: Sequence[RatePoint], transform: str = "loglog") -> RateFit:
    """Least squares on transformed coordinates.

    ``loglog`` fits ln(error) against ln(size); ``loglog-in-log`` fits
    ln(error) against ln(ln(size)), the right frame for errors decaying
    like powers of ln(size).  Zero errors are dropped with a warning.
    """
    if transform not in _TRANSFORMS:
        raise ConfigurationError(f"unknown transform {transform!r}")
    x, y = _fit_coords(points, transform)
    if x.size < len(points):
        warnings.warn(
            f"rate_fit dropped {len(points) - x.size} zero-error point(s)",
            stacklevel=2,
        )
    if x.size < 4:
        raise ConfigurationError("rate_fit needs at least 4 positive points")
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res < 1e-24 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return RateFit(float(slope), float(intercept), r2, transform, x.size)


# ---------------------------------------------------------------------------
# Kolmogorov-width estimates


def kl_tail_width(k: int) -> float:
    """Exact L2 width of Brownian motion under k-term expansion truncation.

    Computes (sum_{l > k} lambda_l)^(1/2) with lambda_l = ((l-1/2) pi)^-2
    by explicit summation plus the analytic remainder of the series.
    """
    if k < 0:
        raise ConfigurationError("k must be >= 0")
    terms = 50_000
    ell = np.arange(k + 1, k + terms + 1, dtype=float)
    total = float(np.sum(((ell - 0.5) * math.pi) ** -2.0))
    big = float(k + terms)
    # sum_{l > K} (l - 1/2)^-2 = 1/K - 1/(12 K^3) + O(K^-5)
    total += (1.0 / big - 1.0 / (12.0 * big**3)) / math.pi**2
    return math.sqrt(total)


def width_estimate(
    measure: MeasureSpec,
    sub: Subspace,
    p: float,
    M: int,
    seed: SeedSpec,
    norm_kind: NormKind = NormKind.L2,
) -> RatePoint:
    """Monte Carlo estimate of (E dist^p(X, sub))^(1/p).

    The distance is the norm of the L2-projection residual, so for L2
    this is the exact subspace distance and for sup/L1 an upper bound.
    Since the subspace is given rather than optimized, the result is an
    upper estimate of the k-th average width.  Needs M >= 1000.

    The L2 distance of a BrownianKL draw to ``make_kl_subspace(k)`` on the
    measure's grid, k <= k_terms, with the measure's rows orthonormal there
    (``measures._coefficient_route``), is read from the draw's expansion
    normals z, the stream of StdNormal(k_terms) on the same seed, as
    (sum_{l > k} lambda_l z_l^2)^(1/2), which is the residual's norm to
    within the rows' orthonormality; no path is built.  Every other distance
    is taken on the draw's path.
    """
    if not 0 < p < math.inf:
        raise ConfigurationError("order p must be positive and finite")
    _check_scalar_paths(sample_shape(measure))
    _check_grid(measure, sub.grid, "subspace")

    if _coefficient_route(measure, norm_kind, sub.grid, sub.basis,
                          lambda k, grid: make_kl_subspace(k, grid).basis):
        scale = np.sqrt(kl_eigenvalues(measure.k_terms)[sub.dim:])
        measure = StdNormal(measure.k_terms)

        def distances(z):
            # In place: the tile is this evaluator's own, and a tile-sized
            # temporary beside it was re-faulted on every tile.
            tail = z[:, sub.dim:]
            tail *= scale
            return np.sqrt(np.einsum("bl,bl->b", tail, tail)) ** p
    else:
        def distances(batch):
            resid = batch_project(batch[:, :, 0], sub)[1]
            return batch_norm(resid[:, :, None], norm_kind, sub.grid) ** p

    powers = _stream(measure, seed.child(0), M, distances, 1000)
    value, stderr = _Moments(powers).root(p)
    return RatePoint(size=float(sub.dim), error=value, stderr=stderr)


# ---------------------------------------------------------------------------
# Rate experiments


# The fields that each algorithm and each reference kind needs.
_NEEDS = {"mc": "measure", "vrmc": "measure", "euler": "diffusion", "gauss-sub": "profile"}
_REFERENCES = {"analytic": "", "mc": "measure", "euler": "diffusion"}


def _check_ladder(algorithm: str, ladder: Sequence[int]) -> None:
    """Refuse a ladder that no fit can use or with a size that no rung can
    run: fewer than 4 sizes, an mc/vrmc size below 2 draws, or a budget that
    the Euler schedule calls too small (``_rung_grid`` checks gauss-sub's)."""
    if len(ladder) < 4:
        raise ConfigurationError(f"a rate fit needs at least 4 ladder sizes, got {len(ladder)}")
    for size in ladder:
        if algorithm in ("mc", "vrmc"):
            _check_count(size, 2)
        elif algorithm == "euler":
            euler_mc_schedule(size)


def _rung_grid(algorithm: str, ladder: Sequence[int], profile=None, grid=None) -> Grid:
    """The grid on which every rung of a checked ladder samples (and an
    euler reference runs): ``grid``; else for gauss-sub the grid
    ``quadrature._subspace_grid`` picks for the largest budget's k, as
    ``quad`` does for that budget; else 257 points.  A gauss-sub budget
    too small for its schedule, or a largest k beyond ``grid``, is refused."""
    if algorithm == "gauss-sub":
        return _subspace_grid(max(subspace_mc_schedule(size, profile)[1] for size in ladder), grid)
    return grid or Grid.uniform()


@dataclass
class RateExperimentConfig:
    """One rate experiment: algorithm, size ladder, reference, brackets.

    ``ladder`` holds sample counts n for "mc"/"vrmc" and cost budgets N
    for "euler"/"gauss-sub" (which derive (n, k) from their schedules).
    ``reference`` is ("analytic", value), ("mc", budget), or
    ("euler", k_ref, n_ref) for diffusion targets.

    The rungs of "euler"/"gauss-sub" and an "euler" reference sample
    ``grid``: the given grid, else the measure's, resolved when the config
    is built by ``_rung_grid``, the rule that the ``rates`` loader calls.
    """

    name: str
    algorithm: str  # mc | vrmc | euler | gauss-sub
    ladder: Tuple[int, ...]
    functional: Functional
    measure: Optional[MeasureSpec] = None
    replications: int = 200
    reference: Tuple = ("mc", 1_000_000)
    slope_bracket: Optional[Tuple[float, float]] = None
    transform: str = "loglog"
    seed: SeedSpec = SeedSpec(0)
    codebooks: Optional[Dict[int, Codebook]] = None  # vrmc: one per ladder n
    diffusion: Optional[DiffusionSpec] = None  # euler
    profile: Optional[SmallBallProfile] = None  # gauss-sub
    grid: Optional[Grid] = None

    def __post_init__(self):
        kind = self.reference[0]
        if self.algorithm not in _NEEDS:
            raise ConfigurationError(f"unknown algorithm {self.algorithm!r}")
        if kind not in _REFERENCES:
            raise ConfigurationError(f"unknown reference kind {kind!r}")
        if self.replications < 2:
            raise ConfigurationError("need at least 2 replications")
        for label, needs in ((self.algorithm, _NEEDS[self.algorithm]),
                             (f"reference kind {kind!r}", _REFERENCES[kind])):
            for field in needs.split():
                if getattr(self, field) is None:
                    raise ConfigurationError(f"{label} needs the field {field!r}")
        _check_ladder(self.algorithm, self.ladder)
        self.grid = _rung_grid(self.algorithm, self.ladder, self.profile,
                               self.grid or getattr(self.measure, "grid", None))
        if self.algorithm == "vrmc" and not set(self.ladder) <= set(self.codebooks or ()):
            raise ConfigurationError("vrmc needs one codebook per ladder size")
        if self.transform not in _TRANSFORMS:
            raise ConfigurationError(f"unknown transform {self.transform!r}")
        try:  # before any rung runs, not after
            lo, hi = (0, 0) if self.slope_bracket is None else self.slope_bracket
            if not -math.inf < lo <= hi < math.inf:
                raise ValueError
        except (TypeError, ValueError):
            raise ConfigurationError("slope_bracket must be two finite numbers lo <= hi, "
                                     f"got {self.slope_bracket!r}") from None


@dataclass(frozen=True)
class RateReport:
    name: str
    algorithm: str
    points: Tuple[RatePoint, ...]
    fit: RateFit
    slope_bracket: Optional[Tuple[float, float]]
    passed: bool
    reference: Tuple[float, float]  # (value, stderr)
    seed_tag: str
    schedule: Tuple[Tuple[int, int, int], ...]  # (size, n, k) per ladder point

    def rows(self) -> List[dict]:
        return [
            {"size": p.size, "rmse": p.error, "stderr": p.stderr}
            for p in self.points
        ]


def _resolve_reference(config: RateExperimentConfig) -> Tuple[float, float]:
    kind = config.reference[0]
    if kind == "analytic":
        return float(config.reference[1]), 0.0
    if kind == "mc":
        measure, n_ref, stream = config.measure, int(config.reference[1]), 1_000_000
    else:  # euler
        _, k_ref, n_ref = config.reference
        measure, stream = Diffusion(config.diffusion, k_ref, config.grid), 1_000_001
    est = reference_value(config.functional, measure, n_ref, config.seed.child(stream))
    return est.value, est.stderr


def _run_one_size(config: RateExperimentConfig, size: int, stream: SeedSpec):
    if config.algorithm == "vrmc":
        est = vr_mc_replicated(config.codebooks[size], config.measure, config.functional, size,
                               config.replications, stream)
        return est, size, 0
    if config.algorithm == "mc":
        n, k, measure = size, 0, config.measure
    else:
        n, k, measure = _budget_rung(config.algorithm, size, config.grid, config.diffusion,
                                     config.profile)
    est = classical_mc_replicated(measure, config.functional, n, config.replications, stream)
    return est, n, k


def run_rate_experiment(config: RateExperimentConfig) -> RateReport:
    """RMSE ladder, fit, and bracket verdict for one configured experiment.

    Aborts when the reference oracle is too noisy for the measured curve
    (stderr above 10% of the smallest RMSE).
    """
    ref_value, ref_stderr = _resolve_reference(config)
    points = []
    schedule = []
    for i, size in enumerate(config.ladder):
        estimates, n_used, k_used = _run_one_size(config, size, config.seed.child(i))
        errs = estimates - ref_value
        rmse, se_rmse = _Moments([errs * errs]).root(2)
        points.append(RatePoint(float(size), rmse, se_rmse))
        schedule.append((int(size), int(n_used), int(k_used)))
    smallest = min(p.error for p in points)
    if smallest > 0 and ref_stderr > 0.1 * smallest:
        raise ConfigurationError(
            f"reference too noisy: stderr {ref_stderr:.3g} exceeds 10% of the "
            f"smallest RMSE {smallest:.3g}; raise the reference budget"
        )
    fit = rate_fit(points, config.transform)
    passed = True
    if config.slope_bracket is not None:
        lo, hi = config.slope_bracket
        passed = lo <= fit.slope <= hi
    return RateReport(
        name=config.name,
        algorithm=config.algorithm,
        points=tuple(points),
        fit=fit,
        slope_bracket=config.slope_bracket,
        passed=passed,
        reference=(ref_value, ref_stderr),
        seed_tag=config.seed.tag(),
        schedule=tuple(schedule),
    )
