import math
import multiprocessing
import threading
import time
import warnings

import numpy as np
import pytest
from conftest import running_max_functional, traced_peak

from quantquad import measures
from quantquad.errors import ConfigurationError, NumericError
from quantquad.measures import (
    AffineCoeff,
    BrownianKL,
    ConstantCoeff,
    Diffusion,
    DiffusionSpec,
    LinearCoeff,
    SeedSpec,
    StdNormal,
    UniformCube,
    euler_values,
    gbm_spec,
    reference_value,
    sample_batch,
)
from quantquad.paths import Grid, path_coord_functional

SQRT_2_OVER_PI = 0.7978845608028654
# Measured mean of max_t W(t) for the 200-term expansion on the 257-point
# grid is 0.7522; the documented discretization allowance for sup-type
# reference values at these defaults is 0.05.
SUP_ALLOWANCE = 0.05


class TestSample:
    def test_uniform_mean(self):
        batch = sample_batch(UniformCube(1), SeedSpec(1), 10**6)
        # E X = 1/2, sd of the mean = (1/sqrt(12)) / 10^3
        assert abs(batch[:, 0].mean() - 0.5) <= 3.0 * (1.0 / math.sqrt(12)) / 1e3

    def test_std_normal_shape(self):
        draws = sample_batch(StdNormal(2), SeedSpec(5), 1)
        assert draws.shape == (1, 2)
        assert np.all(np.isfinite(draws))

    def test_determinism(self):
        a = sample_batch(UniformCube(1), SeedSpec(7), 5)
        b = sample_batch(UniformCube(1), SeedSpec(7), 5)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = sample_batch(UniformCube(1), SeedSpec(7, 0), 5)
        b = sample_batch(UniformCube(1), SeedSpec(7, 1), 5)
        assert not np.array_equal(a, b)

    def test_reproducible_across_measures(self):
        for measure in (
            UniformCube(3),
            StdNormal(2),
            BrownianKL(20),
            Diffusion(gbm_spec(0.1, 0.2), 11),
        ):
            a = sample_batch(measure, SeedSpec(3), 4)
            b = sample_batch(measure, SeedSpec(3), 4)
            assert np.array_equal(a, b)

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            UniformCube(0)
        with pytest.raises(ConfigurationError):
            sample_batch(UniformCube(1), SeedSpec(0), 0)


class TestBrownianKL:
    def test_starts_at_zero(self):
        for k in (1, 7, 200):
            w = sample_batch(BrownianKL(k, Grid.uniform()), SeedSpec(11), 1)[0]
            assert w[0, 0] == 0.0

    def test_single_term_variance(self):
        # W^(1)(1) = sqrt(l_1) Z e_1(1) with l_1 e_1(1)^2 = 2 (2/pi)^2 = 8/pi^2
        target = 8.0 / math.pi**2
        n = 10**5
        batch = sample_batch(BrownianKL(1), SeedSpec(12), n)
        end = batch[:, -1, 0]
        var = end.var(ddof=1)
        # sd of the sample variance of a Gaussian is var * sqrt(2/(n-1))
        assert abs(var - target) <= 3.0 * target * math.sqrt(2.0 / (n - 1))

    def test_truncated_variance_near_one(self):
        batch = sample_batch(BrownianKL(200), SeedSpec(13), 10**5)
        assert abs(batch[:, -1, 0].var(ddof=1) - 1.0) <= 0.02

    def test_covariance_matches_min(self, grid):
        batch = sample_batch(BrownianKL(200, grid), SeedSpec(14), 10**5)
        for s in (0.25, 0.5, 1.0):
            for t in (0.25, 0.5, 1.0):
                i, j = grid.index_of(s), grid.index_of(t)
                cov = np.mean(batch[:, i, 0] * batch[:, j, 0])
                assert abs(cov - min(s, t)) <= 0.02 * min(s, t) + 0.005

    def test_zero_terms_rejected(self):
        with pytest.raises(ConfigurationError):
            BrownianKL(0)

    def test_a_basis_over_64_mib_is_rejected_before_it_is_built(self):
        # 2048 terms on 4096 points take 64 MiB exactly; building either
        # measure's basis would take at least that.
        grid, finer = Grid.uniform(4096), Grid.uniform(4097)

        def build():
            assert BrownianKL(2048, grid).k_terms == 2048
            with pytest.raises(ConfigurationError, match="needs a 67125248-byte basis"):
                BrownianKL(2048, finer)
            with pytest.raises(ConfigurationError, match="needs a 800040000-byte basis"):
                BrownianKL(5000, Grid.uniform(20001))

        assert traced_peak(build) < 2**20


def _one_euler_path(spec, k, seed):
    # One Euler path with k breakpoints on the default grid, shape (G, m).
    return euler_values(spec, k, seed.rng(), 1, Grid.uniform())[0]


class TestEuler:
    def test_constant_drift_exact(self):
        spec = DiffusionSpec(
            ConstantCoeff(1.0).drift, ConstantCoeff(0.0).diffusion, (0.0,), 1
        )
        for k in (2, 5, 64):
            p = _one_euler_path(spec, k, SeedSpec(1))
            assert p[-1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_recursion_closed_form(self):
        spec = DiffusionSpec(
            LinearCoeff(0.1).drift, ConstantCoeff(0.0).diffusion, (1.0,), 1
        )
        p = _one_euler_path(spec, 11, SeedSpec(2))
        # (1 + 0.1/10)^10
        assert p[-1, 0] == pytest.approx(1.01**10, abs=1e-12)

    def test_linear_sde_mean(self):
        k, n = 11, 2 * 10**5
        f = path_coord_functional(1.0, Grid.uniform())
        est = reference_value(f, Diffusion(gbm_spec(0.1, 0.2), k), n, SeedSpec(3))
        exact = (1.0 + 0.1 / (k - 1)) ** (k - 1)
        assert abs(est.value - exact) <= 3.0 * est.stderr

    def test_stream_consumption_independent_of_coefficients(self):
        # Increments are drawn even when b = 0, so the generator state
        # after a run does not depend on the coefficients.
        states = []
        for vol in (0.0, 0.2):
            rng = SeedSpec(4).rng()
            euler_values(gbm_spec(0.1, vol), 9, rng, 3, Grid.uniform())
            states.append(rng.bit_generator.state["state"])
        assert states[0] == states[1]

    def test_nonfinite_coefficients_raise_with_step(self):
        def bad_drift(x):
            return np.full_like(x, np.inf)

        spec = DiffusionSpec(bad_drift, ConstantCoeff(0.0).diffusion, (0.0,), 1)
        with pytest.raises(NumericError) as info:
            _one_euler_path(spec, 5, SeedSpec(5))
        assert info.value.step == 1

    def test_breakpoints_off_grid_interpolated(self):
        # k=4 breakpoints {0, 1/3, 2/3, 1} do not lie on the 257-point grid;
        # the interpolated path must still start and end exactly.
        spec = DiffusionSpec(
            ConstantCoeff(1.0).drift, ConstantCoeff(0.0).diffusion, (0.5,), 1
        )
        p = _one_euler_path(spec, 4, SeedSpec(6))
        assert p[0, 0] == 0.5
        assert p[-1, 0] == pytest.approx(1.5, abs=1e-12)


def _euler_with_states(spec, k, rng, n, grid):
    # The Euler kernel written the plain way: every breakpoint state kept in
    # an (n, k, m) array, then interpolated to the grid in one gather.  The
    # oracle for the step-by-step kernel, which must match it bit for bit.
    m = spec.m
    dt = 1.0 / (k - 1)
    sq = math.sqrt(dt)
    increments = rng.standard_normal((n, k - 1, m))
    states = np.empty((n, k, m))
    x = np.tile(spec.u0_array(), (n, 1))
    states[:, 0, :] = x
    for step in range(k - 1):
        a = np.asarray(spec.drift(x), dtype=float)
        b = np.asarray(spec.diffusion(x), dtype=float)
        z = increments[:, step, :]
        if m == 1:
            x = x + dt * a + sq * b[:, :, 0] * z
        else:
            x = x + dt * a + sq * np.einsum("bij,bj->bi", b, z)
        if not np.all(np.isfinite(x)):
            bad = int(np.argwhere(~np.isfinite(x).all(axis=1))[0, 0])
            raise NumericError("non-finite state", step=step + 1, sample=bad)
        states[:, step + 1, :] = x
    pos = grid.points * (k - 1)
    j = np.minimum(pos.astype(int), k - 2)
    lam = pos - j
    out = states[:, j, :]
    out *= (1.0 - lam)[None, :, None]
    upper = states[:, j + 1, :]
    upper *= lam[None, :, None]
    out += upper
    return out


def _coupled_noise(x):
    # A non-diagonal (B, 2, 2) diffusion matrix: the kernel's general path.
    b = np.empty((x.shape[0], 2, 2))
    b[:, 0, 0] = 0.2 + 0.1 * x[:, 0]
    b[:, 0, 1] = 0.05 * x[:, 1]
    b[:, 1, 0] = 0.1
    b[:, 1, 1] = 0.3
    return b


_DRIFT = AffineCoeff(0.1, -0.3)

EULER_CASES = {
    # m = 1: breakpoints on the grid (every 8th), off it, and fewer than G.
    "k2049-on-grid": (gbm_spec(0.1, 0.2), 2049, Grid.uniform(), 70),
    "k4-off-grid": (gbm_spec(0.1, 0.2), 4, Grid.uniform(), 300),
    "k100-off-grid": (gbm_spec(0.05, 0.3), 100, Grid.uniform(), 300),
    "k100-fine-grid": (gbm_spec(0.05, 0.3), 100, Grid.uniform(1025), 130),
    "m2-affine": (
        DiffusionSpec(_DRIFT.drift, AffineCoeff(0.2, 0.1).diffusion, (1.0, 0.5), 2),
        65, Grid.uniform(33), 200,
    ),
    "m1-constant": (
        DiffusionSpec(ConstantCoeff(0.4).drift, ConstantCoeff(0.3).diffusion, (1.0,), 1),
        65, Grid.uniform(), 200,
    ),
    "m3-constant": (
        DiffusionSpec(
            _DRIFT.drift, ConstantCoeff(0.3).diffusion, (1.0, 0.5, -1.0), 3
        ),
        50, Grid.uniform(), 200,
    ),
    "m2-custom": (
        DiffusionSpec(_DRIFT.drift, _coupled_noise, (1.0, 0.5), 2),
        65, Grid.uniform(33), 200,
    ),
    "m1-custom": (
        DiffusionSpec(_DRIFT.drift, lambda x: (0.2 * x)[:, :, None], (1.0,), 1),
        65, Grid.uniform(), 200,
    ),
    # n = 257 >= 2 _TILE runs as halves of 129 and 128 rows, over two tiles
    # of steps when k > G and one when k < G.
    "halves-m1-k-above-grid": (gbm_spec(0.1, 0.2), 100, Grid.uniform(33), 257),
    "halves-m1-k-below-grid": (gbm_spec(0.05, 0.3), 9, Grid.uniform(), 257),
    "halves-m2-k-above-grid": (
        DiffusionSpec(_DRIFT.drift, AffineCoeff(0.2, 0.1).diffusion, (1.0, 0.5), 2),
        100, Grid.uniform(33), 257,
    ),
    "halves-m2-k-below-grid": (
        DiffusionSpec(_DRIFT.drift, _coupled_noise, (1.0, 0.5), 2), 9, Grid.uniform(), 257,
    ),
}


def _blows_up_at(step, sample):
    # A zero drift that is infinite on one sample at the given step.
    calls = []

    def drift(x):
        calls.append(step)
        a = np.zeros_like(x)
        if len(calls) == step:
            a[sample, -1] = np.inf
        return a

    return drift


def _blows_up_in_calls(at):
    # A zero drift that is infinite on one row when called for the
    # ``count``-th time on a batch of ``rows`` rows: at[(rows, count)] = row.
    # The kernel calls it once per step of each half.
    def drift(x):
        drift.calls.append(len(x))
        a = np.zeros_like(x)
        row = at.get((len(x), drift.calls.count(len(x))))
        if row is not None:
            a[row, -1] = np.inf
        return a

    drift.calls = []
    return drift


class TestEulerKernel:
    @pytest.mark.parametrize("case", list(EULER_CASES))
    def test_equals_the_kernel_with_states(self, case):
        spec, k, grid, n = EULER_CASES[case]
        got = euler_values(spec, k, SeedSpec(7).rng(), n, grid)
        want = _euler_with_states(spec, k, SeedSpec(7).rng(), n, grid)
        assert got.shape == (n, grid.size, spec.m)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "diffusion, m",
        [
            (AffineCoeff(0.2, 0.1).diffusion, 1),
            (AffineCoeff(0.2, 0.1).diffusion, 2),
            (ConstantCoeff(0.3).diffusion, 2),
            (lambda x: np.full((x.shape[0], 1, 1), 0.2), 1),
            (_coupled_noise, 2),
        ],
        ids=["affine-1", "affine-2", "constant-2", "custom-1", "custom-2"],
    )
    def test_nonfinite_state_located(self, diffusion, m):
        spec = DiffusionSpec(_blows_up_at(3, 5), diffusion, (1.0,) * m, m)
        with pytest.raises(NumericError) as got:
            euler_values(spec, 9, SeedSpec(8).rng(), 12, Grid.uniform(17))
        spec = DiffusionSpec(_blows_up_at(3, 5), diffusion, (1.0,) * m, m)
        with pytest.raises(NumericError) as want:
            _euler_with_states(spec, 9, SeedSpec(8).rng(), 12, Grid.uniform(17))
        assert (got.value.step, got.value.sample) == (3, 5)
        assert (want.value.step, want.value.sample) == (3, 5)

    @pytest.mark.parametrize(
        "coeff", [ConstantCoeff(0.3), AffineCoeff(0.2, -0.1)], ids=["constant", "affine"]
    )
    def test_diagonal_is_the_diffusion_diagonal(self, coeff):
        x = np.random.default_rng(9).standard_normal((6, 3))
        full = coeff.diffusion(x)
        assert np.array_equal(np.diagonal(full, axis1=1, axis2=2), coeff.diagonal(x))
        assert np.count_nonzero(full) == np.count_nonzero(coeff.diagonal(x))
        spec = DiffusionSpec(coeff.drift, coeff.diffusion, (1.0, 2.0, 3.0), 3)
        assert measures._diagonal_of(spec) == coeff.diagonal
        custom = DiffusionSpec(coeff.drift, _coupled_noise, (1.0, 2.0), 2)
        assert measures._diagonal_of(custom) is None

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_coefficient_rejected(self, bad):
        for make in (ConstantCoeff, LinearCoeff, lambda c: AffineCoeff(c, 0.1),
                     lambda c: AffineCoeff(0.1, c)):
            with pytest.raises(ConfigurationError, match="must be finite"):
                make(bad)

    def test_memory_is_increments_and_output(self):
        n, k, grid = 1000, 2049, Grid.uniform()
        rng = SeedSpec(10).rng()
        peak = traced_peak(lambda: euler_values(gbm_spec(0.1, 0.2), k, rng, n, grid))
        needed = 8 * n * ((k - 1) + grid.size)
        assert peak <= 1.1 * needed

    @pytest.mark.parametrize("coeff", [AffineCoeff(0.2, -0.1), AffineCoeff(-3.0, 1e300)])
    def test_into_writes_the_drift_bit_for_bit(self, coeff):
        x = np.random.default_rng(11).standard_normal((50, 2)) * 1e5
        x[0, 0], x[1, 1] = -0.0, np.inf
        out = np.empty_like(x)
        with np.errstate(over="ignore", invalid="ignore"):
            coeff.into(x, out)
            np.testing.assert_array_equal(out, coeff.drift(x))

    @pytest.mark.parametrize(
        "blow_ups, expected",
        [
            ({(129, 5): 3, (128, 2): 7}, (2, 129 + 7)),  # the second half's earlier step
            ({(129, 3): 100, (128, 3): 0}, (3, 100)),  # the same step: the lower row
            ({(129, 2): 5, (128, 6): 1}, (2, 5)),
            ({(129, 8): 128, (128, 8): 127}, (8, 128)),
        ],
        ids=["second-half-earlier", "same-step", "first-half-earlier", "last-step"],
    )
    def test_failure_across_halves(self, blow_ups, expected):
        # n = 257 runs as halves of 129 and 128 rows.
        spec = DiffusionSpec(_blows_up_in_calls(blow_ups), ConstantCoeff(0.2).diffusion, (1.0,))
        with pytest.raises(NumericError, match=f"at step {expected[0]}$") as info:
            euler_values(spec, 9, SeedSpec(8).rng(), 257, Grid.uniform(17))
        assert (info.value.step, info.value.sample) == expected

    @pytest.mark.parametrize(
        "raise_at, blow_up_at, raises", [(5, 3, False), (3, 5, True), (3, 3, True)]
    )
    def test_a_raising_coefficient_against_the_other_half(self, raise_at, blow_up_at, raises):
        # The first half's drift raises while computing step ``raise_at``; the
        # second half's state at step ``blow_up_at`` is not finite.  The
        # raise wins unless the state's step is earlier.
        blow_up = _blows_up_in_calls({(128, blow_up_at): 4})

        def drift(x):
            a = blow_up(x)
            if len(x) == 129 and len(blow_up.calls) == raise_at:
                raise ValueError("drift failed")
            return a

        spec = DiffusionSpec(drift, ConstantCoeff(0.2).diffusion, (1.0,))
        with pytest.raises(ValueError if raises else NumericError) as info:
            euler_values(spec, 9, SeedSpec(8).rng(), 257, Grid.uniform(17))
        if not raises:
            assert (info.value.step, info.value.sample) == (blow_up_at, 129 + 4)

    def test_a_nonfinite_state_comes_before_the_raise_it_causes(self):
        # States are checked when a tile of steps ends, so a coefficient can
        # see a non-finite state first; if it then raises, the state is still
        # what is reported, as when every step was checked.
        blow_up = _blows_up_in_calls({(12, 4): 2})

        def drift(x):
            if not np.isfinite(x).all():
                raise ValueError("non-finite input")
            return blow_up(x)

        spec = DiffusionSpec(drift, ConstantCoeff(0.2).diffusion, (1.0,))
        with pytest.raises(NumericError) as info:
            euler_values(spec, 9, SeedSpec(8).rng(), 12, Grid.uniform(17))
        assert (info.value.step, info.value.sample) == (4, 2)

    def test_overflow_is_reported_without_a_warning(self):
        spec = DiffusionSpec(LinearCoeff(1e300).drift, LinearCoeff(0.2).diffusion, (1.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="at step 2$") as info:
                euler_values(spec, 11, SeedSpec(8).rng(), 300, Grid.uniform())
        assert (info.value.step, info.value.sample) == (2, 0)


class TestReferenceValue:
    def test_zero_mean_coordinate(self, grid):
        f = path_coord_functional(1.0, grid)
        est = reference_value(f, BrownianKL(200, grid), 10**4, SeedSpec(21))
        assert abs(est.value) <= 3.0 * est.stderr

    def test_running_max_with_allowance(self, grid):
        f = running_max_functional()
        est = reference_value(f, BrownianKL(200, grid), 2 * 10**5, SeedSpec(22))
        assert abs(est.value - SQRT_2_OVER_PI) <= 3.0 * est.stderr + SUP_ALLOWANCE

    def test_uniform_mean(self):
        from quantquad.paths import vector_coord_functional

        f = vector_coord_functional(0)
        est = reference_value(f, UniformCube(1), 10**5, SeedSpec(23))
        assert abs(est.value - 0.5) <= 3.0 * est.stderr

    def test_small_budget_rejected(self):
        from quantquad.paths import vector_coord_functional

        with pytest.raises(ConfigurationError):
            reference_value(vector_coord_functional(0), UniformCube(1), 50, SeedSpec(0))

    def test_failure_carries_sample_index(self):
        from quantquad.paths import Functional

        def explode(batch):
            raise ValueError("boom")

        with pytest.raises(NumericError) as info:
            reference_value(Functional(explode), UniformCube(1), 200, SeedSpec(0))
        assert info.value.sample == 0

    def test_configuration_error_passes_through(self):
        from quantquad.paths import Functional

        # (n, 2) output for an (n, 2) batch: a shape mismatch, not a numeric failure
        wrong_shape = Functional(lambda v: v, name="identity")
        with pytest.raises(ConfigurationError, match="returned shape"):
            reference_value(wrong_shape, UniformCube(2), 200, SeedSpec(0))

    @pytest.mark.parametrize("shift", [0.0, 1e6, 1e8])
    def test_stderr_survives_a_large_mean(self, shift):
        # f = shift + 1e-3 Z: the stderr is 1e-3 / sqrt(M) whatever the shift
        from quantquad.paths import Functional

        f = Functional(lambda v: shift + 1e-3 * v[:, 0], name="shifted")
        M = 2 * 10**5
        est = reference_value(f, StdNormal(1), M, SeedSpec(24))
        assert est.stderr == pytest.approx(1e-3 / math.sqrt(M), rel=0.01)

    def test_stderr_matches_one_shot_across_chunks(self, monkeypatch):
        # Tiles of 65536 draws: 65536 + 37 draws of the one stream child(0)
        # span two tiles, whose moments are merged.
        from quantquad.paths import vector_coord_functional

        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * 65536)
        seed = SeedSpec(25)
        M = 65536 + 37
        est = reference_value(vector_coord_functional(0), UniformCube(1), M, seed)
        values = sample_batch(UniformCube(1), seed.child(0), M)[:, 0]
        assert est.value == pytest.approx(values.mean(), rel=1e-14)
        assert est.stderr == pytest.approx(
            values.std(ddof=1) / math.sqrt(M), rel=1e-12, abs=0.0
        )

    def test_constant_values_have_zero_stderr(self):
        from quantquad.paths import Functional

        f = Functional(lambda v: np.full(v.shape[0], 0.1), name="const")
        est = reference_value(f, UniformCube(1), 65536 + 37, SeedSpec(26))
        assert est.stderr == 0.0
        assert est.value == pytest.approx(0.1, rel=1e-14)


class TestSeedSpec:
    def test_children_are_independent_streams(self):
        base = SeedSpec(9)
        a = base.child(0).rng().random(4)
        b = base.child(1).rng().random(4)
        assert not np.array_equal(a, b)

    def test_invalid_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            SeedSpec(-1)
        with pytest.raises(ConfigurationError):
            SeedSpec(0, -2)

    def test_tag_roundtrip(self):
        assert SeedSpec(5, 2).child(3).tag() == "5:2:3"


def _affine_2d(k):
    drift, vol = AffineCoeff(0.1, -0.3), AffineCoeff(0.2, 0.1)
    spec = DiffusionSpec(drift.drift, vol.diffusion, (1.0, 0.5), 2)
    return Diffusion(spec, k, Grid.uniform(33))


def _joined_pieces(measure, seed, total):
    # (start, piece) over the pieces a stream is made in, counted from draw
    # 0 (Euler parts, or tiles of other draws): the tiles of _tiles joined.
    if isinstance(measure, Diffusion):
        sizes = measures._euler_parts(total, measure.k_steps, measure.spec.m, measure.grid.size)
        starts = np.cumsum([0] + sizes[:-1])
    else:
        floats = measures._draw_floats(measure)
        starts = np.arange(0, total, measures._block_rows(floats, measures._TILE_BYTES))
    pieces = {}
    for start, tile in measures._tiles(measure, seed, total):
        piece = int(starts[np.searchsorted(starts, start, side="right") - 1])
        pieces.setdefault(piece, []).append(tile)
    return [(start, np.concatenate(tiles)) for start, tiles in pieces.items()]


class TestBlocks:
    # Streamed estimates take draws 0 .. M of one stream in pieces counted
    # from draw 0; _BLOCK_BYTES and _TILE_BYTES bound them and move no draw.

    @pytest.mark.parametrize(
        "measure",
        [UniformCube(3), StdNormal(2), _affine_2d(9), BrownianKL(20, Grid.uniform(33))],
        ids=["uniform", "normal", "diffusion", "kl"],
    )
    def test_one_row_pieces_are_the_one_shot_batch(self, measure, monkeypatch):
        # One-row tiles, and Euler parts capped at one row by a block of one
        # draw's bytes: every piece is one row, and the stream is one call.
        seed = SeedSpec(40)
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8 * measures._draw_floats(measure))
        monkeypatch.setattr(measures, "_TILE_BYTES", 8)
        pieces = _joined_pieces(measure, seed, 50)
        assert [start for start, _ in pieces] == list(range(50))
        joined = np.concatenate([batch for _, batch in pieces])
        assert joined.tobytes() == sample_batch(measure, seed, 50).tobytes()

    @pytest.mark.parametrize("G, total", [(1025, 24569), (2049, 12299)])
    def test_kl_stream_is_one_call_on_grids_that_split_its_tiles(self, G, total):
        # At the default sizes tiles of 255 (1025 points) and 127 (2049
        # points) rows do not divide the 8184 and 4094 rows of _BLOCK_BYTES.
        # A tile's paths are one BLAS product, whose rounding moves with its
        # rows, so tiles that restarted at every 8184th or 4094th draw would
        # move 1836 and 1306 of these paths.
        measure, seed = BrownianKL(200, Grid.uniform(G)), SeedSpec(3)
        joined = np.concatenate([tile for _, tile in measures._tiles(measure, seed, total)])
        assert joined.tobytes() == sample_batch(measure, seed, total).tobytes()

    def test_every_site_ignores_the_block_size(self, monkeypatch):
        from quantquad.adversary import (
            event_probability,
            gap_identity_check,
            lipschitz_check,
        )
        from quantquad.experiments import (
            RateExperimentConfig,
            _resolve_reference,
            width_estimate,
        )
        from quantquad.paths import (
            l1_integral_functional,
            make_kl_subspace,
            sup_norm_functional,
        )
        from quantquad.quadrature import classical_mc_replicated
        from quantquad.quantize import (
            distortion,
            uniform_midpoint_codebook,
            voronoi_weights,
        )

        grid = Grid.uniform(17)
        kl = BrownianKL(8, grid)
        sup = sup_norm_functional()
        cube = UniformCube(2)
        seed = SeedSpec(41)
        euler = RateExperimentConfig(
            name="e", algorithm="euler", ladder=(100, 200, 400, 800), functional=sup,
            diffusion=gbm_spec(0.1, 0.2), reference=("euler", 9, 200),
            seed=seed, grid=grid,
        )

        def sites():
            cb = uniform_midpoint_codebook(2, 2)
            ref = reference_value(sup, _affine_2d(9), 200, seed)
            dist = distortion(cb, cube, 2.0, 300, seed)
            gap = gap_identity_check(cb, cube, 300, seed)
            width = width_estimate(kl, make_kl_subspace(2, grid), 2.0, 1000, seed)
            return np.concatenate([
                [ref.value, ref.stderr, dist.value, dist.stderr],
                voronoi_weights(cb, cube, 300, seed),
                [gap.difference, gap.combined_stderr, gap.mean_f_last],
                [event_probability(2, 1.0, 10_000, seed, 8, grid).estimate],
                [width.error, width.stderr],
                classical_mc_replicated(kl, sup, 16, 5, seed),
                [lipschitz_check(l1_integral_functional(grid), kl, 200, seed).max_ratio],
                _resolve_reference(euler),
            ])

        default = sites()
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8)
        np.testing.assert_array_equal(sites(), default)

    @pytest.mark.parametrize(
        "measure",
        [
            BrownianKL(200, Grid.uniform(1025)),
            Diffusion(gbm_spec(0.1, 0.2), 2049, Grid.uniform()),
        ],
        ids=["kl", "diffusion"],
    )
    def test_blocks_fit_the_byte_bound(self, measure, monkeypatch):
        # A small bound keeps the 2048-step recursion quick; k > G on the
        # diffusion and G > k on the expansion.  A KL stream's pieces are
        # tiles.  One 2049-step draw is over 1/128 of the bound, so the
        # part cap binds: 129 rows run as three parts of 43, not two of 65
        # and 64, and the draw-ahead buffer holds two parts of increments.
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 2**20)
        monkeypatch.setattr(measures, "_TILE_BYTES", 2**18)
        runs = []
        kernel = measures._euler_run

        def recorded(spec, k, rng, n, grid, out=None):
            runs.append((rng, n))
            return kernel(spec, k, rng, n, grid, out)

        monkeypatch.setattr(measures, "_euler_run", recorded)
        total = 2 * measures._block_rows(measures._draw_floats(measure)) + 3
        sizes = [batch.nbytes for _, batch in _joined_pieces(measure, SeedSpec(42), total)]
        assert len(sizes) >= 3
        assert max(sizes) <= measures._BLOCK_BYTES
        if isinstance(measure, BrownianKL):
            assert max(sizes) <= measures._TILE_BYTES
            return
        assert 128 * 8 * measures._draw_floats(measure) > measures._BLOCK_BYTES
        ((ahead, n),) = runs
        assert n == total == 129 and len(sizes) == 3
        assert ahead.buffer.shape == (2, 43, 2048, 1)
        assert ahead.buffer[0].nbytes <= measures._BLOCK_BYTES


def _explodes_above(level):
    # Paths of dX = a(X) dt + dW from 0 whose drift is infinite above ``level``.
    drift = lambda x: np.where(x > level, np.inf, 0.0)  # noqa: E731
    spec = DiffusionSpec(drift, ConstantCoeff(1.0).diffusion, (0.0,))
    return Diffusion(spec, 33, Grid.uniform(33))


def _sites():
    # Every streamed estimate as (minimum sample count, call taking a count).
    from quantquad.adversary import event_probability, gap_identity_check
    from quantquad.experiments import width_estimate
    from quantquad.paths import make_kl_subspace, vector_coord_functional
    from quantquad.quadrature import classical_mc, vr_mc
    from quantquad.quantize import distortion, uniform_midpoint_codebook, voronoi_weights

    cube, seed, f = UniformCube(1), SeedSpec(3), vector_coord_functional(0)
    grid = Grid.uniform(17)

    def weighted():
        cb = uniform_midpoint_codebook(1, 2)
        cb.weights = np.array([0.5, 0.5])
        return cb

    sites = {
        "reference_value": (100, lambda M: reference_value(f, cube, M, seed)),
        "distortion": (
            100,
            lambda M: distortion(uniform_midpoint_codebook(1, 2), cube, 2.0, M, seed),
        ),
        "voronoi_weights": (
            100, lambda M: voronoi_weights(uniform_midpoint_codebook(1, 2), cube, M, seed)
        ),
        "width_estimate": (
            1000,
            lambda M: width_estimate(
                BrownianKL(8, grid), make_kl_subspace(2, grid), 2.0, M, seed
            ),
        ),
        "gap_identity_check": (
            100, lambda M: gap_identity_check(uniform_midpoint_codebook(1, 2), cube, M, seed)
        ),
        "event_probability": (
            10_000, lambda M: event_probability(2, 1.0, M, seed, 8, grid)
        ),
        "classical_mc": (2, lambda n: classical_mc(cube, f, n, seed)),
        "vr_mc": (2, lambda n: vr_mc(weighted(), cube, f, n, seed)),
    }
    return [pytest.param(*site, id=name) for name, site in sites.items()]


class TestStream:
    # Every streamed estimate runs on measures._stream: one minimum-count
    # rule, failures located by their index in the stream, and non-finite
    # values rejected.

    @pytest.mark.parametrize("minimum, call", _sites())
    def test_minimum_count(self, minimum, call):
        with pytest.raises(ConfigurationError, match=f"at least {minimum} samples"):
            call(minimum - 1)
        call(minimum)

    @pytest.mark.parametrize("M", [0, 1, -3, 99])
    def test_gap_identity_needs_100_samples(self, M):
        # M = 0 and 1 would give NaN means and stderrs.
        from quantquad.adversary import gap_identity_check
        from quantquad.quantize import Codebook
        from quantquad.paths import NormKind

        cb = Codebook(np.array([[0.25], [0.75]]), 1.0, NormKind.EUCLIDEAN, "u")
        with pytest.raises(ConfigurationError):
            gap_identity_check(cb, UniformCube(1), M, SeedSpec(4))

    @pytest.mark.parametrize("site", ["reference_value", "distortion", "classical_mc"])
    def test_failed_draw_is_named_by_its_stream_index(self, site, monkeypatch):
        # reference_value and distortion read seed.child(0), whose 5000 paths
        # first blow up at step 17, in draw 2086; classical_mc reads the
        # seed's own stream, where the recursion fails at step 18 of draw
        # 911.  Each is what euler_values over all 5000 rows raises, in the
        # default layout (distortion replays one call), in 62-row parts of
        # 7-row tiles and in one-row parts and tiles.
        from quantquad.paths import sup_norm_functional
        from quantquad.quadrature import classical_mc
        from quantquad.quantize import distortion, product_quantizer_bm

        measure, sup, seed = _explodes_above(2.5), sup_norm_functional(), SeedSpec(1)
        codebook = product_quantizer_bm(4, 20, measure.grid)
        call, stream, expected = {
            "reference_value": (lambda: reference_value(sup, measure, 5000, seed),
                                seed.child(0), (2086, 17)),
            "distortion": (lambda: distortion(codebook, measure, 2.0, 5000, seed),
                           seed.child(0), (2086, 17)),
            "classical_mc": (lambda: classical_mc(measure, sup, 5000, seed), seed, (911, 18)),
        }[site]
        with pytest.raises(NumericError) as oracle:
            euler_values(measure.spec, 33, stream.rng(), 5000, measure.grid)
        assert (oracle.value.sample, oracle.value.step) == expected
        for layout in ((2**26, 2**21), (2**14, 8 * 33 * 7), (8 * 33, 8)):
            monkeypatch.setattr(measures, "_BLOCK_BYTES", layout[0])
            monkeypatch.setattr(measures, "_TILE_BYTES", layout[1])
            with pytest.raises(NumericError) as info:
                call()
            assert (info.value.sample, info.value.step) == expected

    @pytest.mark.parametrize("raises", [False, True], ids=["nan", "raises"])
    def test_monte_carlo_failure_is_named_by_its_draw(self, raises, monkeypatch):
        # classical_mc checks its values like every streamed estimate: a NaN
        # is named by its draw, a functional that raises by the first draw
        # of its tile.
        from quantquad.paths import Functional
        from quantquad.quadrature import classical_mc

        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * 10)  # 10-row tiles
        seed = SeedSpec(5)
        draws = sample_batch(UniformCube(1), seed, 1000)[:, 0]
        first = int(np.argmax(draws > 0.99))
        assert first % 10 != 0 and first > 10  # not in the first tile's first row

        def fn(v):
            high = v[:, 0] > 0.99
            if raises and high.any():
                return 1 / 0
            return np.where(high, np.nan, v[:, 0])

        match = "ZeroDivisionError" if raises else "non-finite"
        with pytest.raises(NumericError, match=match) as info:
            classical_mc(UniformCube(1), Functional(fn, name="high"), 1000, seed)
        assert info.value.sample == (first - first % 10 if raises else first)

    @pytest.mark.parametrize(
        "level, seed, stream, expected", [(2.5, 2, 0, 1129), (3.0, 3, 1, 2870)]
    )
    def test_lipschitz_failure_is_named_by_stream_and_index(
        self, level, seed, stream, expected, monkeypatch
    ):
        # lipschitz_check draws pairs from seed.child(0) and seed.child(1).
        # The stream whose first non-finite path lies in the earlier part
        # stops first and raises its own earliest failure: draw 1129 of the
        # first stream (step 16); and draw 2870 of the second (step 26),
        # whose path 487 blows up before the first stream's path 1164 does.
        # So in the default layout, in 62-row parts of 7-row tiles and in
        # one-row parts and tiles.
        from quantquad.adversary import lipschitz_check
        from quantquad.paths import sup_norm_functional

        measure = _explodes_above(level)
        for block_bytes, tile_bytes in ((2**26, 2**21), (2**14, 8 * 33 * 7), (8 * 33, 8)):
            monkeypatch.setattr(measures, "_BLOCK_BYTES", block_bytes)
            monkeypatch.setattr(measures, "_TILE_BYTES", tile_bytes)
            with pytest.raises(
                NumericError, match=rf"sample {expected} of seed\.child\({stream}\): "
            ) as info:
                lipschitz_check(sup_norm_functional(), measure, 5000, SeedSpec(seed))
            assert info.value.sample == expected
            assert info.value.step is not None

    @pytest.mark.parametrize(
        "failing_call, where", [(2, "sample 0 of seed.child(1)"), (4, "sample 10 of seed.child(0)")]
    )
    def test_lipschitz_raising_functional_is_a_numeric_error(
        self, failing_call, where, monkeypatch
    ):
        # Each tile evaluates f on the first stream, the second stream and
        # the bumped first stream, in that order; 10-row tiles.
        from quantquad.adversary import lipschitz_check
        from quantquad.paths import Functional

        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * 10)
        calls = []

        def fn(v):
            calls.append(1)
            if len(calls) == failing_call:
                raise RuntimeError("boom")
            return v[:, 0]

        with pytest.raises(NumericError) as info:
            lipschitz_check(Functional(fn, name="boom"), UniformCube(1), 100, SeedSpec(6))
        assert str(info.value) == f"{where}: RuntimeError: boom"
        assert info.value.sample == int(where.split()[1])

    @pytest.mark.parametrize(
        "failing_call, where",
        [
            (2, "sample 3 of seed.child(1)"),
            (4, "sample 13 of seed.child(0)"),
            (6, "sample 13 of seed.child(0), bumped"),
        ],
    )
    def test_lipschitz_nan_is_named_by_stream_and_index(
        self, failing_call, where, monkeypatch
    ):
        # A NaN in row 3 of one call (10-row tiles, calls ordered as
        # above) is named by its stream and its draw, not skipped.
        from quantquad.adversary import lipschitz_check
        from quantquad.paths import Functional

        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * 10)
        calls = []

        def fn(v):
            calls.append(1)
            out = v[:, 0].copy()
            if len(calls) == failing_call:
                out[3] = np.nan
            return out

        with pytest.raises(NumericError) as info:
            lipschitz_check(Functional(fn, name="nan"), UniformCube(1), 100, SeedSpec(6))
        assert str(info.value) == f"{where}: non-finite value"
        assert info.value.sample == int(where.split()[1])

    def test_lipschitz_nan_half_of_the_cube(self):
        # NaN above 0.5 used to leave max_ratio at 0.0, unflagged.
        from quantquad.adversary import lipschitz_check
        from quantquad.paths import Functional

        seed = SeedSpec(3)
        f = Functional(lambda v: np.where(v[:, 0] > 0.5, np.nan, v[:, 0]))
        first = int(np.argmax(sample_batch(UniformCube(1), seed.child(0), 1000)[:, 0] > 0.5))
        with pytest.raises(NumericError, match=rf"sample {first} of seed\.child\(0\): ") as info:
            lipschitz_check(f, UniformCube(1), 1000, seed)
        assert info.value.sample == first


class TestTiles:
    # _stream hands each piece to its evaluator in row tiles of _TILE_BYTES,
    # and sample_batch builds BrownianKL paths tile by tile.  Tiles move no
    # draw, no located failure and no seeded result; they bound memory.

    @pytest.mark.parametrize("site", ["reference_value", "gap_identity_check"])
    @pytest.mark.parametrize("raises", [False, True], ids=["nan", "raises"])
    def test_failure_in_a_later_tile_is_named_by_its_stream_index(
        self, site, raises, monkeypatch
    ):
        # 7-row tiles.  Draw 79 of seed.child(0) is the first above 0.99,
        # in the twelfth tile, from 77.  A NaN is named by its draw, a raise
        # by its tile's first.  40-row blocks replay no stream.
        from quantquad import adversary
        from quantquad.paths import Functional
        from quantquad.quantize import uniform_midpoint_codebook

        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8 * 40)
        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * 7)
        cube, seed = UniformCube(1), SeedSpec(6)
        draws = sample_batch(cube, seed.child(0), 1000)[:, 0]
        assert int(np.argmax(draws > 0.99)) == 79

        def fn(v):
            high = v[:, 0] > 0.99
            if raises and high.any():
                raise RuntimeError("boom")
            return np.where(high, np.nan, v[:, 0])

        if site == "reference_value":
            call = lambda: reference_value(Functional(fn), cube, 1000, seed)  # noqa: E731
        else:
            # The reduced codebook's distances fail, so the half-gap and
            # difference columns do and the fooling column does not.
            search = adversary.min_dist_batch

            def failing(batch, codebook):
                d, idx = search(batch, codebook)
                return (d + 0.0 * fn(batch) if codebook.n == 1 else d), idx

            monkeypatch.setattr(adversary, "min_dist_batch", failing)
            cb = uniform_midpoint_codebook(1, 2)
            call = lambda: adversary.gap_identity_check(cb, cube, 1000, seed)  # noqa: E731
        with pytest.raises(NumericError, match="RuntimeError" if raises else "non-finite") as info:
            call()
        assert info.value.sample == (77 if raises else 79)

    def test_one_row_tiles_move_no_result(self, monkeypatch):
        from quantquad.paths import NormKind, sup_norm_functional, vector_coord_functional
        from quantquad.quantize import (
            Codebook,
            distortion,
            product_quantizer_bm,
            uniform_midpoint_codebook,
            voronoi_weights,
        )

        grid, seed = Grid.uniform(17), SeedSpec(43)
        bm = DiffusionSpec(ConstantCoeff(0.0).drift, ConstantCoeff(1.0).diffusion, (0.0,))
        cube, euler = UniformCube(2), Diffusion(bm, 9, grid)
        searches = [
            (uniform_midpoint_codebook(2, 3), cube),
            (Codebook(sample_batch(cube, SeedSpec(44), 7), 2.0, NormKind.EUCLIDEAN, "u"), cube),
            (product_quantizer_bm(4, 8, grid), euler),
            (Codebook(sample_batch(euler, SeedSpec(45), 5), 2.0, NormKind.L2, "e", grid=grid),
             euler),
        ]

        def results():
            out = []
            for f, measure in ((sup_norm_functional(), _affine_2d(9)),
                               (vector_coord_functional(1), cube)):
                ref = reference_value(f, measure, 300, seed)
                out += [ref.value, ref.stderr]
            for cb, measure in searches:
                measures._held = None
                for _ in range(2):  # drawn, then replayed
                    est = distortion(cb, measure, 2.0, 300, seed)
                    out += [est.value, est.stderr, *voronoi_weights(cb, measure, 300, seed)]
            return out

        default = results()
        monkeypatch.setattr(measures, "_TILE_BYTES", 8)
        np.testing.assert_array_equal(results(), default)

    def test_a_vector_stream_holds_a_few_tiles_never_a_block(self, monkeypatch):
        # Four 8 MiB blocks' worth of StdNormal(8) draws are drawn tile by
        # tile, so the stream holds a 2 MiB tile and its values.
        from quantquad.paths import Functional

        monkeypatch.setattr(measures, "_BLOCK_BYTES", 2**23)
        measure, total = StdNormal(8), 4 * measures._block_rows(8)
        f = Functional(lambda v: v[:, 0])
        peak = traced_peak(lambda: reference_value(f, measure, total, SeedSpec(48)))
        assert peak <= 2 * measures._TILE_BYTES < measures._BLOCK_BYTES

    def test_kl_tiles_draw_the_coefficients_in_stream_order(self, monkeypatch):
        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * 3 * 33)  # 3-row tiles
        measure, n = BrownianKL(20, Grid.uniform(33)), 10
        rng, whole = SeedSpec(46).rng(), SeedSpec(46).rng()
        paths = sample_batch(measure, rng, n)
        coeff = whole.standard_normal((n, measure.k_terms))
        assert rng.bit_generator.state == whole.bit_generator.state
        expected = coeff @ measures._kl_matrix(measure)
        np.testing.assert_allclose(paths[:, :, 0], expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("site", ["width_estimate", "reference_value", "sample_batch"])
    def test_memory_is_one_path_block(self, site):
        # A block and a few tiles: no block-sized temporary of evaluation
        # and no (n, k_terms) coefficient array.
        from quantquad.experiments import width_estimate
        from quantquad.paths import make_kl_subspace, sup_norm_functional

        grid = Grid.uniform(1025) if site == "reference_value" else Grid.uniform()
        measure, seed = BrownianKL(200, grid), SeedSpec(47)
        M = measures._block_rows(grid.size) if site == "reference_value" else 20_000
        call = {
            "width_estimate": lambda: width_estimate(
                measure, make_kl_subspace(4, grid), 2.0, M, seed
            ),
            "reference_value": lambda: reference_value(sup_norm_functional(), measure, M, seed),
            "sample_batch": lambda: sample_batch(measure, seed, M),
        }[site]
        assert traced_peak(call) <= 1.25 * (8 * M * grid.size)


class _RecordedDraws:
    # A Generator whose standard_normal calls are logged as ("start" or
    # "end", thread id), each taking at least ``delay`` seconds.
    def __init__(self, rng, log, delay):
        self.rng, self.log, self.delay = rng, log, delay

    def standard_normal(self, *args, **kwargs):
        self.log.append(("start", threading.get_ident()))
        time.sleep(self.delay)
        try:
            return self.rng.standard_normal(*args, **kwargs)
        finally:
            self.log.append(("end", threading.get_ident()))


def _record_draws(monkeypatch, delay=0.0):
    log = []
    rng = SeedSpec.rng
    monkeypatch.setattr(SeedSpec, "rng", lambda seed: _RecordedDraws(rng(seed), log, delay))
    return log


class TestDrawAhead:
    # A Diffusion stream of two or more Euler parts draws each part's
    # increments on one worker thread while the part before it steps.  The
    # measures are 33-step paths on 33 grid points.

    @staticmethod
    def _measure(m):
        return Diffusion(gbm_spec(0.1, 0.2), 33, Grid.uniform(33)) if m == 1 else _affine_2d(33)

    @pytest.mark.parametrize("m", [1, 2])
    def test_joined_parts_are_the_one_shot_batch(self, m, monkeypatch):
        # Parts capped at 300 rows: 1000 rows run as four parts of 250, each
        # drawn on the worker, the last too.
        measure, total = self._measure(m), 1000
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8 * 33 * m * 300)
        assert measures._euler_parts(total, 33, m, 33) == [250] * 4
        log = _record_draws(monkeypatch)
        parts = _joined_pieces(measure, SeedSpec(49), total)
        assert [start for start, _ in parts] == [0, 250, 500, 750]
        assert len(log) == 2 * 4 and threading.get_ident() not in {t for _, t in log}
        joined = np.concatenate([batch for _, batch in parts])
        np.testing.assert_array_equal(joined, sample_batch(measure, SeedSpec(49), total))

    def test_failure_is_named_by_its_stream_index(self, monkeypatch):
        # Parts capped at 300 rows.  Over all 3000 paths of seed(23).child(0)
        # the earliest non-finite state comes at step 26, in draw 1837 (the
        # second part's paths blow up at step 28 first, in draw 558).  The
        # oracle is euler_values over all 3000 rows.
        from quantquad.paths import sup_norm_functional

        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8 * 33 * 300)
        measure, seed = _explodes_above(3.0), SeedSpec(23)
        with pytest.raises(NumericError) as info:
            reference_value(sup_norm_functional(), measure, 3000, seed)
        with pytest.raises(NumericError) as want:
            euler_values(measure.spec, 33, seed.child(0).rng(), 3000, measure.grid)
        assert (want.value.step, want.value.sample) == (26, 1837)
        assert (info.value.sample, info.value.step) == (want.value.sample, want.value.step)
        assert str(info.value).startswith("sample 1837: ")

    @pytest.mark.parametrize("how", ["kernel-error", "functional-error", "consumer-stops"])
    def test_a_closed_stream_leaves_no_draw_running(self, how, monkeypatch):
        # Each draw takes 50 ms, so a draw started ahead is still running
        # when the stream closes; closing cancels it or waits for it.  The
        # error's traceback is kept to the end, and with it the stream's frames.
        from quantquad.paths import Functional, sup_norm_functional

        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8 * 33 * 300)
        log = _record_draws(monkeypatch, delay=0.05)
        seed, sup = SeedSpec(23), sup_norm_functional()
        if how == "kernel-error":
            with pytest.raises(NumericError, match="non-finite state") as kept:
                reference_value(sup, _explodes_above(3.0), 3000, seed)
        elif how == "functional-error":
            rows = []

            def fail_second_part(batch):
                rows.append(len(batch))
                if sum(rows) > 300:
                    raise RuntimeError("boom")
                return batch[:, 0, 0]

            with pytest.raises(NumericError, match="sample 300: RuntimeError: boom") as kept:
                reference_value(Functional(fail_second_part), self._measure(1), 3000, seed)
        else:
            kept = measures._stream(self._measure(1), seed, 3000, sup, 100)
            next(kept)
            kept.close()
        events = [event for event, _ in log]
        assert events.count("start") == events.count("end") > 0
        time.sleep(0.15)
        assert len(log) == len(events)
        del kept

    def test_only_the_draws_leave_the_callers_thread(self, monkeypatch):
        # sample_batch, euler_values, the kernel's steps and the functional
        # run on the caller's thread, as the span tracer of bench/ assumes;
        # every draw of every stream runs on one other thread.
        from quantquad.paths import Functional

        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8 * 33 * 300)
        log = _record_draws(monkeypatch)
        threads = []

        def recorded(fn):
            def call(*args):
                threads.append(threading.get_ident())
                return fn(*args)

            return call

        monkeypatch.setattr(measures, "sample_batch", recorded(measures.sample_batch))
        monkeypatch.setattr(measures, "euler_values", recorded(measures.euler_values))
        f = Functional(recorded(lambda v: v[:, -1, 0]))
        spec = gbm_spec(0.1, 0.2)
        measure = Diffusion(DiffusionSpec(recorded(spec.drift), spec.diffusion, spec.u0), 33,
                            Grid.uniform(33))
        for seed in (SeedSpec(50), SeedSpec(51)):
            reference_value(f, measure, 1000, seed)
        assert set(threads) == {threading.get_ident()}
        # Per stream: 4 Euler parts (1000 rows in parts of at most 300) of
        # 32 steps, each one tile; a stream takes its parts from the kernel,
        # not through sample_batch or euler_values.
        assert len(threads) == 2 * (4 * 32 + 4)
        workers = {thread for _, thread in log}
        assert len(workers) == 1 and threading.get_ident() not in workers

    def test_a_forked_child_starts_its_own_worker(self):
        # A forked child has no worker thread.  Without the fork hook its
        # first draw-ahead stream waits for the parent's worker forever, so
        # the child is killed if it does not answer in time.
        from quantquad.paths import sup_norm_functional

        measure, seed, sup = self._measure(1), SeedSpec(52), sup_norm_functional()
        want = reference_value(sup, measure, 1000, seed).value
        assert measures._drawer is not None
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        child = context.Process(
            target=lambda: writer.send(reference_value(sup, measure, 1000, seed).value)
        )
        child.start()
        try:
            answered = reader.poll(30)
            assert answered, "the forked child's stream did not finish in 30 s"
            assert reader.recv() == want
        finally:
            child.join(5)
            if child.is_alive():
                child.kill()
                child.join()
            reader.close()
            writer.close()
        assert child.exitcode == 0


def _blows_up_in_parts(at):
    # A zero drift that is infinite on one row at a given step of a given
    # part: at[(part, step)] = row.  A part starts where every state is u0 = 1.
    seen = {"part": -1, "step": 0}

    def drift(x):
        if (x == 1.0).all():
            seen["part"], seen["step"] = seen["part"] + 1, 1
        else:
            seen["step"] += 1
        a = np.zeros_like(x)
        row = at.get((seen["part"], seen["step"]))
        if row is not None:
            a[row, -1] = np.inf
        return a

    return drift


class _LoggedSizes:
    # A Generator whose standard_normal sizes are logged.
    def __init__(self, rng, sizes):
        self.rng, self.sizes = rng, sizes

    def standard_normal(self, size):
        self.sizes.append(size)
        return self.rng.standard_normal(size)


class TestEulerParts:
    # From 2 _TILE rows the kernel runs n rows as parts of at most 16 _TILE
    # = 1024 rows, two halves up to 2048 rows, each part's increments drawn
    # in turn; every row is that of one run over all rows.  A part's
    # increments and output each fit _BLOCK_BYTES.

    @pytest.mark.parametrize(
        "n, k, m, points, parts",
        [
            (127, 33, 1, 257, [127]),
            (128, 33, 1, 257, [64, 64]),
            (257, 33, 1, 257, [129, 128]),
            (2047, 33, 1, 257, [1024, 1023]),
            (2048, 33, 1, 257, [1024, 1024]),
            (2049, 33, 1, 257, [683, 683, 683]),
            (4094, 33, 1, 257, [1024, 1024, 1023, 1023]),
            (100, 2**17, 1, 257, [50, 50]),  # 64-row cap: 1 MiB of increments a row
            (129, 2**17, 1, 257, [43, 43, 43]),
            (1000, 33, 2, 2**14, [250] * 4),  # 256-row cap: 256 KiB of output a row
        ],
    )
    def test_parts(self, n, k, m, points, parts):
        assert measures._euler_parts(n, k, m, points) == parts
        assert sum(parts) == n and max(parts) <= 16 * measures._TILE
        assert 8 * max(parts) * m * max(k - 1, points) <= measures._BLOCK_BYTES

    @pytest.mark.parametrize("m", [1, 2])
    def test_a_block_of_more_than_2048_rows_is_one_run(self, m):
        spec = gbm_spec(0.1, 0.2) if m == 1 else _affine_2d(9).spec
        sizes = []
        got = euler_values(spec, 9, _LoggedSizes(SeedSpec(60).rng(), sizes), 2100, Grid.uniform(17))
        assert sizes == [(700, 8, m)] * 3
        want = _euler_with_states(spec, 9, SeedSpec(60).rng(), 2100, Grid.uniform(17))
        np.testing.assert_array_equal(got, want)

    def test_a_stream_of_capped_parts_is_the_one_shot_batch(self, monkeypatch):
        # Parts of 33-step paths capped at 700 rows: 4500 rows run as seven
        # parts counted from row 0, each drawn ahead on the worker.
        measure = TestDrawAhead._measure(1)
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8 * 33 * 700)
        log = _record_draws(monkeypatch)
        parts = _joined_pieces(measure, SeedSpec(65), 4500)
        assert [len(part) for _, part in parts] == [643] * 6 + [642]
        assert len(log) == 2 * 7 and threading.get_ident() not in {t for _, t in log}
        joined = np.concatenate([batch for _, batch in parts])
        np.testing.assert_array_equal(joined, sample_batch(measure, SeedSpec(65), 4500))

    @pytest.mark.parametrize(
        "blow_ups, expected",
        [
            ({(0, 5): 3, (1, 2): 7, (2, 4): 1}, (2, 683 + 7)),  # a middle part's earlier step
            ({(1, 3): 100, (2, 3): 0}, (3, 683 + 100)),  # the same step: the lower row
            ({(0, 6): 5, (1, 4): 9, (2, 2): 50}, (2, 1366 + 50)),  # the last part's
            ({(0, 2): 5, (2, 2): 0}, (2, 5)),  # the first part's
        ],
        ids=["middle-earlier", "same-step", "last-earlier", "first-earlier"],
    )
    def test_failure_across_three_parts(self, blow_ups, expected):
        # n = 2049 runs as three parts of 683 rows.
        spec = DiffusionSpec(_blows_up_in_parts(blow_ups), ConstantCoeff(0.2).diffusion, (1.0,))
        with pytest.raises(NumericError, match=f"at step {expected[0]}$") as info:
            euler_values(spec, 9, SeedSpec(8).rng(), 2049, Grid.uniform(17))
        assert (info.value.step, info.value.sample) == expected

    @pytest.mark.parametrize("points, blocks", [(257, 3), (257, 2), (2049, 1)])
    def test_memory_is_two_parts_of_increments_and_one_part_of_output(self, points, blocks):
        # 2049-step paths, as many as fill ``blocks`` of _BLOCK_BYTES, run as
        # parts of at most 1024 rows: the stream holds the two-slot buffer
        # of increments and one part of output, never a block of either.
        from quantquad.paths import sup_norm_functional

        measure = Diffusion(gbm_spec(0.1, 0.2), 2049, Grid.uniform(points))
        total = blocks * measures._block_rows(2049)
        assert max(measures._euler_parts(total, 2049, 1, points)) == 1024
        increments, output = 8 * 2 * 1024 * 2048, 8 * 1024 * points
        peak = traced_peak(
            lambda: reference_value(sup_norm_functional(), measure, total, SeedSpec(48))
        )
        assert peak <= 1.1 * (increments + output + 2 * measures._TILE_BYTES)


class TestKLTiles:
    # A streamed BrownianKL estimate builds each tile when it needs it and
    # never holds a block.  Tiles have the rows, counted from draw 0, in
    # which one sample_batch call builds its paths, so every path, value and
    # moment is that of one call bit for bit.

    @pytest.mark.parametrize(
        "k_terms, G", [(20, 33), (40, 17)], ids=["k-below-grid", "k-above-grid"]
    )
    def test_tiles_are_one_sample_batch_call(self, k_terms, G, monkeypatch):
        # 3-row tiles from draw 0, whatever the 10-row blocks; 25 draws end
        # in a 1-row tile.
        from quantquad.paths import sup_norm_functional

        measure, seed, f = BrownianKL(k_terms, Grid.uniform(G)), SeedSpec(61), sup_norm_functional()
        width = max(k_terms, G)
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8 * width * 10)
        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * width * 3)
        tiles = list(measures._tiles(measure, seed, 25))
        assert [(s, len(t)) for s, t in tiles] == [(s, 3) for s in range(0, 24, 3)] + [(24, 1)]
        whole = sample_batch(measure, seed, 25)
        assert np.concatenate([t for _, t in tiles]).tobytes() == whole.tobytes()
        streamed = measures._Moments(measures._stream(measure, seed, 25, f, 2))
        built = measures._Moments([f(whole)])
        assert (streamed.mean(), streamed.stderr()) == (built.mean(), built.stderr())
        assert np.array_equal(streamed.m2, built.m2)

    def test_the_basis_is_computed_once_per_stream(self, monkeypatch):
        from quantquad import paths

        calls = []

        def counted(k, grid):
            calls.append(k)
            return paths.kl_basis_on_grid(k, grid)

        monkeypatch.setattr(measures, "kl_basis_on_grid", counted)
        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * 33 * 3)
        from quantquad.paths import sup_norm_functional

        reference_value(sup_norm_functional(), BrownianKL(20, Grid.uniform(33)), 300, SeedSpec(62))
        assert calls == [20]

    def test_tiles_are_drawn_and_built_on_the_callers_thread(self, monkeypatch):
        # Each 3-row tile is one sample_batch call, whose coefficients are
        # drawn on the caller's thread: the product is a BLAS call that
        # already keeps every core busy, so nothing is drawn ahead.
        from quantquad.paths import Functional

        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * 33 * 3)
        log = _record_draws(monkeypatch)
        threads = []
        batch = measures.sample_batch

        def recorded(*args):
            threads.append(threading.get_ident())
            return batch(*args)

        monkeypatch.setattr(measures, "sample_batch", recorded)
        f = Functional(lambda v: v[:, -1, 0])
        reference_value(f, BrownianKL(20, Grid.uniform(33)), 100, SeedSpec(63))
        assert threads == [threading.get_ident()] * 34
        assert log == [(event, threading.get_ident()) for _ in range(34) for event in ("start", "end")]

    def test_memory_is_a_few_tiles(self):
        # Three blocks' worth of 1025-point paths: a tile, its coefficients,
        # the basis and the functional's temporaries, never a block.
        from quantquad.paths import sup_norm_functional

        measure = BrownianKL(200, Grid.uniform(1025))
        rows = measures._block_rows(1025)
        peak = traced_peak(
            lambda: reference_value(sup_norm_functional(), measure, 3 * rows, SeedSpec(47))
        )
        assert peak <= 6 * measures._TILE_BYTES
