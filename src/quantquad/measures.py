"""Sampleable probability measures and their reference-value oracle.

Four measure families: the uniform law on [0,1]^d, the d-dimensional
standard normal, Brownian motion on [0,1] through a truncated
Karhunen-Loeve expansion, and diffusion paths through the strong Euler
scheme (``Diffusion``).  Sampling is a pure function of (measure, seed),
streams being derived from a splittable seed tree.  The stream contract
is stated here once; the code points to it by name.

Cut from draw 0.  A stream of n draws is made in pieces counted from draw
0 by the rule one ``sample_batch`` call of n draws cuts by (``_pieces``),
so its draws are that call's, bit for bit: _BLOCK_BYTES and _TILE_BYTES
bound memory and move no draw.  A Diffusion's pieces are its Euler parts;
any other measure's are tiles of _TILE_BYTES of the largest array one
draw makes (``_draw_floats``), each drawn by ``sample_batch`` on the
caller's thread when it is asked for.  A BrownianKL path is built from
k_terms standard normals z drawn row by row, so a stream that reads z is
that of StdNormal(k_terms) on the same seed.

The part rule.  The Euler kernel (``_euler_run``) runs n paths with k
breakpoints in R^m, read on G grid points, as parts counted from row 0:
at most 16 _TILE rows, and at most the rows whose (k - 1, m) increments
and (G, m) output each fit _BLOCK_BYTES; the fewest such parts, but at
least two from 2 _TILE rows, whose sizes differ by at most one, the
larger first (``_euler_parts``).  Every row's floats are those of one run
over all rows.  Each part is handed out as soon as it has stepped, so a
stream holds one part of output.

Draw-ahead.  A run's increments are those of one ``rng.standard_normal``
call over all rows.  From two parts on, one worker thread draws the next
part into the free slot of a two-part buffer while the current part
steps (``_increments``), so a run holds two parts of increments; only
``Generator.standard_normal`` runs on the worker.  Closing a run cancels
its pending draw, or waits for it if it has begun.  (Drawing a KL tile's
coefficients ahead slowed the stream: the product and most functionals
are BLAS calls that already keep every core busy.)

Failure naming.  An Euler state that is not finite raises
``NumericError`` at its step and row: the earliest step over all parts,
and the lowest row at that step.  A coefficient that raises while
computing a step's state raises at that step and the first row of its
part, chained from its exception, unless a non-finite state comes at an
earlier step.  After a failure the remaining parts run only up to its
step and none is handed out, so a failure in evaluating an earlier part
comes first.  In a stream, any failure while drawing or evaluating, and
a non-finite value, raise ``NumericError`` at the failing draw's stream
index, naming the stream (``_located``); ``ConfigurationError`` passes
through.
"""
from __future__ import annotations

import functools
import math
import os
from contextlib import closing, contextmanager
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigurationError, NumericError
from .paths import Grid, NormKind, _is_orthonormal, kl_basis_on_grid, kl_eigenvalues

# Bytes of the largest array a stream may hold at once: a replayed stream
# (_held), one draw (_check_draw), an Euler part's increments or output
# (_euler_parts) and a codebook search's blocks.  It shapes no stream.
_BLOCK_BYTES = 2**26
# Bytes of the largest (k_terms, G) basis a BrownianKL may hold; every
# BrownianKL checks it when it is built (see _check_kl_basis).
_KL_BASIS_BYTES = 2**26
# Bytes of the row tiles in which a stream's draws reach an estimate (see
# _tiles).  Evaluating and building make tile-sized temporaries.  At 512 KiB
# the tile temporaries were page-faulted afresh (about 40 times the minor
# faults of 2 MiB tiles), which doubled the time of a distortion ladder.
_TILE_BYTES = 2**21
# Side of the squares in which the Euler kernel turns its increments from
# sample-major to step-major order, and the unit of the part rule.
_TILE = 64
# The last replayed stream a codebook search read, as (key, read-only
# draws), or None.  sample_batch drops it before drawing anything, so it
# never lives beside another stream's draws.
_held = None
# The one thread that draws an Euler run's increments ahead of their use
# (see _increments), started by the first run of two or more parts.
_drawer = None
# Draws per chunk in which _Moments folds each run of a stream's values.
_CHUNK = 2**12


@dataclass(frozen=True)
class SeedSpec:
    """Key of a reproducible random stream.

    Distinct (master_seed, stream_index) pairs give statistically
    independent streams; the same pair replays the identical sequence.
    ``branch`` extends the key for internal sub-streams (restarts,
    replications) so that parallel schedules stay deterministic.
    """

    master_seed: int
    stream_index: int = 0
    branch: tuple = ()

    def __post_init__(self):
        if not (0 <= int(self.master_seed) < 2**64):
            raise ConfigurationError("master_seed must be a 64-bit unsigned integer")
        if self.stream_index < 0:
            raise ConfigurationError("stream_index must be non-negative")

    def child(self, *indices: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.stream_index, self.branch + indices)

    def rng(self) -> np.random.Generator:
        key = (self.stream_index,) + self.branch
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.master_seed, spawn_key=key)
        )

    def tag(self) -> str:
        parts = [str(self.master_seed), str(self.stream_index)]
        parts += [str(b) for b in self.branch]
        return ":".join(parts)


# ---------------------------------------------------------------------------
# Diffusion coefficients

CoeffFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class AffineCoeff:
    """a(x) = c0 + c1 x elementwise; as diffusion, diag(c0 + c1 x).

    ``diagonal`` gives that diagonal, c0 + c1 x as (B, m) for a batch
    (B, m); the Euler kernel reads it instead of the (B, m, m) matrix,
    through ``into``, which writes the same floats into a given array.
    """

    intercept: float
    slope: float

    def __post_init__(self):
        if not (math.isfinite(self.intercept) and math.isfinite(self.slope)):
            raise ConfigurationError(f"coefficients must be finite, got {self!r}")

    def drift(self, x: np.ndarray) -> np.ndarray:
        return self.intercept + self.slope * x

    diagonal = drift

    def into(self, x: np.ndarray, out: np.ndarray) -> None:
        """``drift(x)`` written into ``out``: the same two roundings, no temporary."""
        np.multiply(x, self.slope, out=out)
        out += self.intercept

    def diffusion(self, x: np.ndarray) -> np.ndarray:
        b, m = x.shape
        out = np.zeros((b, m, m))
        idx = np.arange(m)
        out[:, idx, idx] = self.diagonal(x)
        return out


def ConstantCoeff(value: float) -> AffineCoeff:
    """a(x) = value (drift) or b(x) = value * I (diffusion)."""
    return AffineCoeff(value, 0.0)


def LinearCoeff(rate: float) -> AffineCoeff:
    """a(x) = rate * x."""
    return AffineCoeff(0.0, rate)


@dataclass(frozen=True)
class DiffusionSpec:
    """Coefficients of dX = a(X) dt + b(X) dW with X_0 = u0 in R^m.

    ``drift`` maps a batch (B, m) to (B, m); ``diffusion`` maps (B, m) to
    (B, m, m).  The built-in coefficient families satisfy this contract;
    custom coefficients must as well.
    """

    drift: CoeffFn
    diffusion: CoeffFn
    u0: tuple
    m: int = 1

    def __post_init__(self):
        u0 = np.atleast_1d(np.asarray(self.u0, dtype=float))
        if u0.shape != (self.m,):
            raise ConfigurationError(f"u0 must have shape ({self.m},)")
        if not np.all(np.isfinite(u0)):
            raise ConfigurationError("u0 must be finite")
        object.__setattr__(self, "u0", tuple(u0.tolist()))

    def u0_array(self) -> np.ndarray:
        return np.asarray(self.u0, dtype=float)


def gbm_spec(drift_rate: float, vol_rate: float, u0: float = 1.0) -> DiffusionSpec:
    """Scalar linear SDE dX = drift_rate X dt + vol_rate X dW."""
    a = LinearCoeff(drift_rate)
    b = LinearCoeff(vol_rate)
    return DiffusionSpec(a.drift, b.diffusion, (u0,), 1)


# ---------------------------------------------------------------------------
# Measure variants


@dataclass(frozen=True)
class UniformCube:
    d: int
    grid = None  # a vector measure: no grid

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError("dimension must be >= 1")


@dataclass(frozen=True)
class StdNormal:
    d: int
    grid = None

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError("dimension must be >= 1")


@dataclass(frozen=True, eq=False)
class BrownianKL:
    """Truncated Karhunen-Loeve Brownian motion on the grid.

    The truncation keeps k_terms expansion terms; the bias this induces
    is documented, not hidden: reference values of path functionals carry
    an explicit discretization allowance (see README).
    """

    k_terms: int = 200
    grid: Grid = None

    def __post_init__(self):
        if self.k_terms < 1:
            raise ConfigurationError("k_terms must be >= 1")
        if self.grid is None:
            object.__setattr__(self, "grid", Grid.uniform())
        _check_kl_basis(self.k_terms, self.grid.size)


@dataclass(frozen=True, eq=False)
class Diffusion:
    """Euler paths of ``spec`` with k_steps breakpoints, read on the grid.

    The strong Euler scheme with step dt = 1/(k_steps - 1): a step is
    x + dt a(x) + sqrt(dt) b(x) z, and increments z are drawn for every
    step even where b vanishes, so stream consumption does not depend on
    the coefficients.  When ``spec.diffusion`` is the ``diffusion`` method
    of an AffineCoeff (which ConstantCoeff and LinearCoeff return), b(x) z
    is the elementwise product of its ``diagonal`` and z, equal to the
    matrix product bit for bit, and the drift and diagonal are written in
    place (``AffineCoeff.into``).  A grid point between breakpoints l and
    l+1 is x_l (1 - lam) + x_{l+1} lam, written when the tile of _TILE steps
    holding both states ends, so the large arrays are the increments and
    the output.  A tile's states are checked when it ends, which names the
    same step and row as a check after every step; the kernel reports a
    non-finite state itself, so numpy's overflow and invalid warnings are
    silenced.  Drawing follows the part rule, draw-ahead and failure
    naming of the module docstring.
    """

    spec: DiffusionSpec
    k_steps: int
    grid: Grid = None

    def __post_init__(self):
        if self.k_steps < 2:
            raise ConfigurationError("k_steps must be >= 2")
        if self.grid is None:
            object.__setattr__(self, "grid", Grid.uniform())


MeasureSpec = Union[UniformCube, StdNormal, BrownianKL, Diffusion]


def oracle_dim(measure: MeasureSpec) -> int:
    """Dimension of the subspace the measure's samples live in.

    This is the per-oracle-call cost of evaluating a functional at a
    sample: d for product measures on R^d, the number of expansion terms
    for truncated Brownian motion, and the number of Euler breakpoints
    for diffusions (sample paths are piecewise linear on those points).
    """
    if isinstance(measure, (UniformCube, StdNormal)):
        return measure.d
    if isinstance(measure, BrownianKL):
        return measure.k_terms
    return measure.k_steps


def measure_tag(measure: MeasureSpec) -> str:
    if isinstance(measure, UniformCube):
        return f"uniform_cube:{measure.d}"
    if isinstance(measure, StdNormal):
        return f"std_normal:{measure.d}"
    if isinstance(measure, BrownianKL):
        return f"brownian_kl:{measure.k_terms}:{measure.grid.size}"
    return f"diffusion:k_steps={measure.k_steps}"


def sample_shape(measure: MeasureSpec) -> tuple:
    """Shape of one draw: (d,) for a vector, (G, m) for a path on G points."""
    if measure.grid is None:
        return (measure.d,)
    return (measure.grid.size, measure.spec.m if isinstance(measure, Diffusion) else 1)


def rng_calls_per_sample(measure: MeasureSpec) -> int:
    """Random scalars consumed per draw; exact by construction."""
    if isinstance(measure, (UniformCube, StdNormal)):
        return measure.d
    if isinstance(measure, BrownianKL):
        return measure.k_terms
    return (measure.k_steps - 1) * measure.spec.m


# ---------------------------------------------------------------------------
# Sampling


@functools.lru_cache(maxsize=1)
def _kl_matrix(measure: BrownianKL) -> np.ndarray:
    # (k_terms, G) rows sqrt(lambda_l) e_l(t), read-only.  The last measure's
    # matrix is kept, so a stream that builds its tiles one sample_batch call
    # at a time computes it once.
    lam = kl_eigenvalues(measure.k_terms)
    basis = np.sqrt(lam)[:, None] * kl_basis_on_grid(measure.k_terms, measure.grid)
    basis.flags.writeable = False
    return basis


@functools.lru_cache(maxsize=1)
def _kl_orthonormal(measure: BrownianKL) -> bool:
    # Whether the measure's k_terms expansion rows are orthonormal under its
    # grid weights; kept for the last measure, as _kl_matrix is.
    return _is_orthonormal(kl_basis_on_grid(measure.k_terms, measure.grid), measure.grid.weights)


def _coefficient_route(
    measure: MeasureSpec, norm: NormKind, grid: Grid, basis: Optional[np.ndarray], rows
) -> bool:
    """Whether a ``norm`` reading of ``measure``'s draws through ``basis`` on
    ``grid`` may read the draws' expansion coefficients instead of their paths.

    The one rule: ``norm`` is L2, ``measure`` is a BrownianKL whose k_terms
    expansion rows are orthonormal under its grid weights (checked once per
    measure), and ``basis`` holds a of them, 1 <= a <= k_terms: bit for bit
    ``rows(a, grid)``, ``grid`` being the measure's (``_check_grid``).  The
    rows of a product codebook are ``kl_basis_on_grid``; those of a subspace
    ``make_kl_subspace``'s.  By Parseval, the grid L2 distance of two paths
    of the expansion is then the euclidean distance of their coefficients
    c = z sqrt(lambda), to within the rows' orthonormality.  A reading on
    this route streams the normals z, StdNormal(k_terms) on the same seed
    (see the module docstring).
    """
    if norm is not NormKind.L2 or not isinstance(measure, BrownianKL) or basis is None:
        return False
    return (
        1 <= basis.shape[0] <= measure.k_terms
        and _kl_orthonormal(measure)
        and np.array_equal(basis, rows(basis.shape[0], grid))
    )


def _check_grid(measure: MeasureSpec, grid: Optional[Grid], reader: str) -> None:
    """Raise ``ConfigurationError`` when a ``reader`` on ``grid`` (None for a
    vector reader) would read ``measure``'s paths at other points than they
    are drawn on.  Every codebook and subspace that meets a path measure is
    checked by this, before anything is drawn."""
    if grid is not None and not np.array_equal(grid.points, measure.grid.points):
        raise ConfigurationError(
            f"a {reader} on a {grid.size}-point grid cannot read draws on the "
            f"measure's {measure.grid.size}-point grid: their points differ"
        )


def _check_kl_basis(k_terms: int, size: int) -> None:
    """Raise ``ConfigurationError`` when a k_terms-term basis on ``size`` grid
    points would exceed _KL_BASIS_BYTES: a BrownianKL stream holds that basis
    (``_kl_matrix``) for its whole life.  Needs no grid to be built."""
    needed = 8 * k_terms * size
    if needed > _KL_BASIS_BYTES:
        raise ConfigurationError(
            f"a {k_terms}-term expansion on a {size}-point grid needs a "
            f"{needed}-byte basis, more than the {_KL_BASIS_BYTES}-byte limit"
        )


def _diagonal_of(spec: DiffusionSpec) -> Optional[CoeffFn]:
    # x -> the (B, m) diagonal of b(x) when b(x) is known to be diagonal:
    # for a built-in coefficient, and for every coefficient when m = 1.
    # None otherwise; such a coefficient keeps the (B, m, m) contract.
    owner = getattr(spec.diffusion, "__self__", None)
    if type(owner) is AffineCoeff and spec.diffusion == owner.diffusion:
        return owner.diagonal
    if spec.m == 1:
        return lambda x: np.asarray(spec.diffusion(x), dtype=float)[:, :, 0]
    return None


def _into(fn: CoeffFn) -> Callable[[np.ndarray, np.ndarray], None]:
    # (x, out) -> None, writing fn(x) into out.  An AffineCoeff's drift (and
    # its diagonal, the same function) writes in place with no temporary;
    # any other coefficient's values are copied.
    owner = getattr(fn, "__self__", None)
    if type(owner) is AffineCoeff and fn == owner.drift:
        return owner.into
    return lambda x, out: np.copyto(out, fn(x))


def _steps_first(block: np.ndarray, tile: np.ndarray) -> None:
    # Copy the (n, T, m) increments of T steps into tile[:T] as (T, n, m).
    # One step's column reads a float from every row, and long rows lie a
    # memory page or more apart; copying _TILE x _TILE squares reads each
    # row's page once per tile instead of once per step.
    steps = block.shape[1]
    for r in range(0, block.shape[0], _TILE):
        np.copyto(tile[:steps, r : r + _TILE], block[r : r + _TILE].transpose(1, 0, 2))


def _first_nonfinite(states: np.ndarray):
    # (step, row) of the first non-finite state in (steps, rows, m), the
    # lowest row at that step, or None.
    if np.isfinite(states).all():
        return None
    bad = ~np.isfinite(states).all(axis=2)
    step, row = np.argwhere(bad)[0]
    return int(step), int(row)


def _euler_parts(n: int, k: int, m: int, points: int) -> list:
    """Row counts of the Euler parts of n paths with k breakpoints in R^m on
    ``points`` grid points, in order (the part rule of the module docstring):
    one part below 128 rows, two halves up to 2048 rows at the default sizes.
    """
    cap = min(16 * _TILE, _block_rows(m * max(k - 1, points)))
    count = max(1 if n < 2 * _TILE else 2, -(-n // cap))
    return [(n + i) // count for i in range(count - 1, -1, -1)]


def _euler_run(
    spec: DiffusionSpec, k: int, rng: np.random.Generator, n: int, grid: Grid, out=None
):
    """(start, paths) of each Euler part of n paths of the scheme of
    ``Diffusion``, in order, by the part rule, draw-ahead and failure naming
    of the module docstring.  A part's (rows, G, m) paths are written into
    ``out[start : start + rows]`` when ``out`` is given, else into a new
    array; the earliest failure raises when the parts end."""
    m = spec.m
    dt = 1.0 / (k - 1)
    sq = math.sqrt(dt)
    # Grid point g lies between breakpoints j[g] and j[g] + 1 at weight
    # lam[g] on the upper one.  The grid increases, so the tile of steps
    # first .. first + count fills the slice edges[first] : edges[first + count].
    pos = grid.points * (k - 1)
    j = np.minimum(pos.astype(int), k - 2)
    lam = pos - j
    lower = (1.0 - lam)[:, None, None]
    upper = lam[:, None, None]
    edges = np.searchsorted(j, np.arange(k)).tolist()
    drift = _into(spec.drift)
    diagonal = _diagonal_of(spec)
    scale = None if diagonal is None else _into(diagonal)

    def run(increments, paths, start, steps):
        # The first ``steps`` steps of the rows from ``start`` whose
        # increments are given, their grid values written into ``paths``.
        # Returns the first failure as (step, row, None) of a non-finite
        # state, lowest row first, or (step, start, exception) of a
        # coefficient that raised while computing that step's state; None if
        # there is none.  The states of one tile of steps are kept,
        # states[i + 1] after its step i, and checked when the tile ends.
        rows = increments.shape[0]
        noise = np.empty((rows, m))
        tile = np.empty((min(_TILE, k - 1), rows, m))
        states = np.empty((len(tile) + 1, rows, m))
        states[0] = spec.u0_array()
        rows_of_states, rows_of_tile = list(states), list(tile)
        for first in range(0, steps, _TILE):
            _steps_first(increments[:, first : first + _TILE, :], tile)
            count = min(_TILE, steps - first)
            try:
                for i in range(count):
                    x, nxt, z = rows_of_states[i], rows_of_states[i + 1], rows_of_tile[i]
                    drift(x, nxt)
                    # The float operations run in the order of x + dt*a +
                    # (sq*b)*z for m = 1 and of x + dt*a + sq*(b z) for m > 1.
                    if scale is None:
                        b = np.asarray(spec.diffusion(x), dtype=float)
                        np.einsum("bij,bj->bi", b, z, out=noise)
                        noise *= sq
                    elif m == 1:
                        scale(x, noise)
                        noise *= sq
                        noise *= z
                    else:
                        scale(x, noise)
                        noise *= z
                        noise *= sq
                    nxt *= dt
                    nxt += x
                    nxt += noise
            except Exception as exc:
                # The states before the call that raised come first.
                hit = _first_nonfinite(states[1 : i + 1])
                if hit is None:
                    return first + i + 1, start, exc
            else:
                hit = _first_nonfinite(states[1 : count + 1])
            if hit is not None:
                return first + hit[0] + 1, start + hit[1], None
            # The tile's grid points, _TILE at a time: each gathers its two
            # breakpoints' states, step-major, and is written once.
            lo, hi = edges[first], edges[first + count]
            for g in range(lo, hi, _TILE):
                end = min(g + _TILE, hi)
                below = j[g:end] - first
                seg = states[below]
                seg *= lower[g:end]
                above = states[below + 1]
                above *= upper[g:end]
                seg += above
                paths[:, g:end] = seg.transpose(1, 0, 2)
            states[0] = states[count]
        return None

    parts = _euler_parts(n, k, m, grid.size)
    failure = None
    start = 0
    with closing(_increments(rng, parts, (k - 1, m))) as increments:
        for rows in parts:
            # After a failure in lower rows only an earlier step can win.
            steps = k - 1 if failure is None else failure[0] - 1
            paths = np.empty((rows, grid.size, m)) if out is None else out[start : start + rows]
            with np.errstate(over="ignore", invalid="ignore"):
                hit = run(next(increments), paths, start, steps)
            failure = hit or failure
            if failure is None:
                yield start, paths
            del paths  # a handed-out part dies before the next is made
            start += rows
    if failure is not None:
        step, row, exc = failure
        if exc is None:
            message = f"euler recursion produced a non-finite state at step {step}"
        else:
            message = f"euler coefficient raised at step {step}: {type(exc).__name__}: {exc}"
        raise NumericError(message, step=step, sample=row) from exc


def _increments(rng: np.random.Generator, parts: list, shape: tuple):
    """The (rows,) + ``shape`` standard normals of each part, in order, drawn
    ahead as the module docstring says.  ``parts`` are row counts, none
    larger than the first (as ``_euler_parts`` gives them); the two-part
    buffer is allocated on the caller's thread, and a part is valid until
    the next is asked for.
    """
    global _drawer
    if len(parts) == 1:
        yield rng.standard_normal((parts[0],) + shape)
        return
    if _drawer is None:
        # Imported here: a run that never draws ahead never loads it.
        from concurrent.futures import ThreadPoolExecutor

        _drawer = ThreadPoolExecutor(1, thread_name_prefix="quantquad-draws")
    buffer = np.empty((2, parts[0]) + shape)
    slots = [buffer[i % 2, :rows] for i, rows in enumerate(parts)]
    pending = _drawer.submit(rng.standard_normal, out=slots[0])
    try:
        for i, part in enumerate(slots):
            pending.result()
            pending = None
            if i + 1 < len(slots):
                pending = _drawer.submit(rng.standard_normal, out=slots[i + 1])
            yield part
    finally:
        if pending is not None and not pending.cancel():
            pending.exception()  # waits; the run's own error wins


def _forget_drawer():
    # A forked child has no worker thread; its first stream starts one.
    global _drawer
    _drawer = None


os.register_at_fork(after_in_child=_forget_drawer)


def sample_batch(
    measure: MeasureSpec, seed: Union[SeedSpec, np.random.Generator], n: int
) -> np.ndarray:
    """n independent draws as one array: (n, d) vectors or (n, G, m) paths.

    ``seed`` is a SeedSpec, or a Generator whose stream continues.  A
    Diffusion runs the Euler kernel over all n rows.  Drops the stream a
    codebook search holds (see ``_tiles``).
    """
    global _held
    _held = None
    if n < 1:
        raise ConfigurationError("sample count must be >= 1")
    rng = seed.rng() if isinstance(seed, SeedSpec) else seed
    if isinstance(measure, UniformCube):
        return rng.random((n, measure.d))
    if isinstance(measure, StdNormal):
        return rng.standard_normal((n, measure.d))
    if isinstance(measure, BrownianKL):
        # Each tile's coefficient rows are drawn in stream order, so the
        # draws are those of one (n, k_terms) array that is never made.
        basis = _kl_matrix(measure)
        out = np.empty((n, measure.grid.size))
        step = _block_rows(max(basis.shape), _TILE_BYTES)
        for r in range(0, n, step):
            coeff = rng.standard_normal((min(step, n - r), measure.k_terms))
            np.matmul(coeff, basis, out=out[r : r + step])
        return out[:, :, None]
    if isinstance(measure, Diffusion):
        out = np.empty((n, measure.grid.size, measure.spec.m))
        for _ in _euler_run(measure.spec, measure.k_steps, rng, n, measure.grid, out):
            pass
        return out
    raise ConfigurationError(f"unknown measure {measure!r}")


# ---------------------------------------------------------------------------
# Streamed estimation


def _block_rows(floats: int, limit: int = 0) -> int:
    """Rows of ``floats`` floats that fit in ``limit`` (or _BLOCK_BYTES) bytes, >= 1."""
    return max(1, (limit or _BLOCK_BYTES) // (8 * max(1, floats)))


def _draw_floats(measure: MeasureSpec) -> int:
    """Floats of the largest array one draw of ``measure`` makes (``_floats_of``)."""
    if measure.grid is None:
        return _floats_of(1, measure.d)
    if isinstance(measure, BrownianKL):
        return _floats_of(1, measure.k_terms, measure.grid.size)
    return _floats_of(measure.spec.m, measure.k_steps, measure.grid.size)


def _floats_of(m: int, *sizes: int) -> int:
    """Floats of the largest array one draw makes (its vector, its path, its
    expansion coefficients or its Euler increments): m times the largest
    of its sizes, d, or G with k_terms or k_steps.  Needs nothing built."""
    return m * max(sizes)


def _tiles(
    measure: MeasureSpec, seed: SeedSpec, total: int, replay: bool = False, stream: str = ""
):
    """(start, tile) over draws 0 .. total of ``seed``'s stream, in row tiles.

    The one source of a stream's draws, made as the module docstring says
    (``_pieces``), each piece handed out in tiles of _TILE_BYTES of its
    rows.  Closing the generator closes the pieces, and with them an
    Euler run.

    With ``replay``, a stream whose draws fit in _BLOCK_BYTES is drawn
    read-only and held after the call, as ``sample_batch`` builds it; the
    next ``replay`` call on the same key (measure, seed, total, block rows)
    gets the held draws instead of drawing them again.  Vector measures
    compare by value, so equal StdNormal measures share their held normals;
    path measures compare by identity.  Any other draw drops the held
    stream first.
    """
    global _held
    rows = _block_rows(_draw_floats(measure))
    if replay and total <= rows:
        key = (measure, seed, total, rows)
        if _held is None or _held[0] != key:
            with _located(0, stream):
                batch = sample_batch(measure, seed, total)
            batch.flags.writeable = False
            _held = (key, batch)
        yield from _split(0, _held[1])
        return
    with closing(_pieces(measure, seed.rng(), total, stream)) as pieces:
        for first, draws in pieces:
            yield from _split(first, draws)
            del draws  # each piece dies before the next is made


def _pieces(measure: MeasureSpec, rng, n: int, stream: str = ""):
    """(first, draws) over the n draws of a stream, in the pieces they are
    made in, cut from draw 0, each raising a failure at its stream index
    (module docstring)."""
    global _held
    if isinstance(measure, Diffusion):
        _held = None  # as sample_batch drops it
        # GeneratorExit passes _located, and yield from closes the run.
        with _located(0, stream):
            yield from _euler_run(measure.spec, measure.k_steps, rng, n, measure.grid)
        return
    step = _block_rows(_draw_floats(measure), _TILE_BYTES)
    for first in range(0, n, step):
        with _located(first, stream):
            draws = sample_batch(measure, rng, min(step, n - first))
        yield first, draws
        del draws


def _split(start: int, batch: np.ndarray):
    # (start + r, rows r ...) of a drawn piece, in tiles of _TILE_BYTES.
    step = _block_rows(math.prod(batch.shape[1:]), _TILE_BYTES)
    for r in range(0, batch.shape[0], step):
        yield start + r, batch[r : r + step]


def _check_count(total: int, minimum: int) -> None:
    """Raise ``ConfigurationError`` when fewer than ``minimum`` draws are asked."""
    if total < minimum:
        raise ConfigurationError(f"at least {minimum} samples needed, got {total}")


def _check_draw(floats: int) -> None:
    """Raise ``ConfigurationError`` when one draw of ``floats`` floats would
    not fit in _BLOCK_BYTES, so that an Euler part of one row fits it too.
    Needs nothing to be built."""
    if 8 * floats > _BLOCK_BYTES:
        raise ConfigurationError(
            f"one draw of {floats} floats needs {8 * floats} bytes, more than the "
            f"{_BLOCK_BYTES}-byte block"
        )


@contextmanager
def _located(start: int, stream: str = ""):
    """Raise a failure in the draws from ``start`` at its stream index.

    ``ConfigurationError`` passes through.  A ``NumericError`` keeps its
    ``step`` and gets its row (0 if unset) plus ``start`` as ``sample``; any
    other exception becomes a ``NumericError`` at ``start``.  A non-empty
    ``stream`` is named in the message.
    """
    where = f" of {stream}" if stream else ""
    try:
        yield
    except ConfigurationError:
        raise
    except NumericError as exc:
        bad = start + (exc.sample or 0)
        raise NumericError(f"sample {bad}{where}: {exc}", step=exc.step, sample=bad) from exc
    except Exception as exc:
        message = f"sample {start}{where}: {type(exc).__name__}: {exc}"
        raise NumericError(message, sample=start) from exc


def _stream(
    measure: MeasureSpec, seed: SeedSpec, total: int, evaluate, minimum: int,
    replay: bool = False,
):
    """``evaluate`` of each tile of draws 0 .. total of ``seed``'s stream, in order.

    The driver of every streamed estimate.  ``evaluate`` maps the b draws of
    a tile of ``_tiles`` to (b,) or (columns, b) values.  Fewer than
    ``minimum`` draws raise ``ConfigurationError``; failures are named as
    the module docstring says (``_evaluated``).  ``replay`` is for an
    ``evaluate`` that only reads its draws (see ``_tiles``).  Values may
    view their piece: a consumer drops them before it asks for the next, so
    each piece dies before the next.
    """
    _check_count(total, minimum)
    tiles = _tiles(measure, seed, total, replay)
    try:
        for start, tile in tiles:
            yield _evaluated(evaluate, tile, start)
            del tile
    finally:
        tiles.close()


def _evaluated(evaluate, tile: np.ndarray, start: int, stream: str = "") -> np.ndarray:
    """``evaluate(tile)`` of the draws from ``start``; a failure, or a
    non-finite value, raises at the failing draw (a raise at the tile's
    first), naming ``stream`` (``_located``)."""
    with _located(start, stream):
        values = evaluate(tile)
        _check_finite(values)
    return values


def _check_finite(values: np.ndarray) -> None:
    """Raise ``NumericError`` at the first draw (last axis) with a non-finite value."""
    finite = np.isfinite(values).reshape(-1, values.shape[-1]).all(axis=0)
    if not finite.all():
        raise NumericError("non-finite value", sample=int(np.argmin(finite)))


class _Moments:
    """Running means and CLT stderrs of a stream's values, per column.

    ``values`` yields the values in draw order, in pieces of any size:
    shape + (b,), or (b,) with ``run``, column j being draws j*run ..
    (j+1)*run.  Columns are folded in chunks of _CHUNK draws from their
    run's first draw (from draw 0 without ``run``); each mean is the sum of
    the chunks' pairwise sums over the count, and the chunks' centred sums
    of squares merge by Chan, Golub & LeVeque (1983), free of the
    cancellation of E[y^2] - mean^2.  No mean or stderr depends on how the
    stream is cut, and one chunk has numpy's mean and std(ddof=1)/sqrt(n)
    (a constant chunk has stderr exactly 0, where numpy may not).
    """

    def __init__(self, values, shape=(), run=None):
        self.run = run
        # Per column: count, sum of chunk sums, centre, centred second moment.
        self.columns = [[0, 0.0, 0.0, 0.0] for _ in range(math.prod(shape))]
        self.carry = np.empty((1 if run else len(self.columns), _CHUNK))
        self.filled = self.position = 0  # the chunk in progress: carry[:, :filled]
        for piece in values:
            self._add(piece.reshape(-1, piece.shape[-1]))
            del piece  # a view of a drawn piece dies before the next is drawn
        if self.filled:  # the stream's last chunk
            self._fold(self.carry[:, None, : self.filled], self.position - self.filled)
        arrays = (np.array(column).reshape(shape) for column in zip(*self.columns))
        self.count, self.total, self.center, self.m2 = arrays

    def _add(self, values: np.ndarray):
        b, i = values.shape[1], 0
        while i < b:
            first = self.position + i - self.filled  # of the chunk in progress
            left = self.run - first % self.run if self.run else math.inf  # in its run
            length = min(_CHUNK, left)
            whole = (b - i if length == self.run else min(b - i, left)) // length
            if self.filled or not whole:
                take = min(length - self.filled, b - i)
                self.carry[:, self.filled : self.filled + take] = values[:, i : i + take]
                self.filled += take
                i += take
                if self.filled == length:
                    self._fold(self.carry[:, None, :length], first)
                    self.filled = 0
            else:
                self._fold(values[:, i : i + whole * length].reshape(-1, whole, length), first)
                i += whole * length
        self.position += b

    def _fold(self, chunks: np.ndarray, first: int):
        # Merge chunks (rows, k, L) of L draws from draw ``first``, in order:
        # with ``run``, each into its run's column; else row i into column i.
        # Python floats round as numpy's do, at a tenth of the cost.
        length = chunks.shape[-1]
        sums = chunks.sum(axis=-1)
        # Clipping to the chunk's range keeps a constant chunk exactly centred.
        means = np.clip(sums / length, chunks.min(axis=-1), chunks.max(axis=-1))
        dev = chunks - means[..., None]
        dev *= dev
        stats = zip(sums.T.tolist(), means.T.tolist(), dev.sum(axis=-1).T.tolist())
        for c, chunk in enumerate(stats):
            run = (first + c * length) // self.run if self.run else None
            columns = self.columns if run is None else [self.columns[run]]
            for column, chunk_sum, chunk_mean, squares in zip(columns, *chunk):
                count, total, center, m2 = column
                n = count + length
                delta = chunk_mean - center
                if count == 0:  # the column's first chunk
                    column[:] = n, chunk_sum, chunk_mean, squares
                else:
                    column[:] = (n, total + chunk_sum, center + delta * (length / n),
                                 m2 + (squares + delta * delta * (count * length / n)))

    def mean(self):
        return self.total / self.count

    def stderr(self):
        return np.sqrt(self.m2 / (self.count - 1)) / np.sqrt(self.count)

    def root(self, p: float):
        """(mean^(1/p), its stderr by the delta method) of a single column."""
        mean, se_mean = float(self.mean()), float(self.stderr())
        value = mean ** (1.0 / p)
        # d(mean^(1/p)) = mean^(1/p - 1) / p.
        stderr = se_mean * value / (p * mean) if mean > 0 else se_mean
        return value, stderr


# ---------------------------------------------------------------------------
# Reference oracle


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    n: int


def reference_value(
    functional, measure: MeasureSpec, budget: int, seed: SeedSpec
) -> MonteCarloEstimate:
    """Plain Monte Carlo estimate of the mean of a functional with CLT stderr.

    Used as the ground-truth oracle by tests and the rate harness.  This is
    ``quadrature.classical_mc`` on ``seed.child(0)``, value and stderr, but
    needs a budget of at least 100.  A ``ConfigurationError`` from the functional
    (say, a wrong output shape) passes through; any other failure, and a
    non-finite value, raise ``NumericError`` at the failing draw's index.
    """
    moments = _Moments(_stream(measure, seed.child(0), budget, functional, 100))
    return MonteCarloEstimate(float(moments.mean()), float(moments.stderr()), budget)
