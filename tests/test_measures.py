import math

import numpy as np
import pytest

from quantquad.errors import ConfigurationError, NumericError
from quantquad.measures import (
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
from quantquad.paths import Grid, path_coord_functional, running_max_functional

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

    def test_stderr_matches_one_shot_across_chunks(self):
        # 65536 + 37 draws span two internal chunks (streams child(0), child(1))
        from quantquad.paths import vector_coord_functional

        seed = SeedSpec(25)
        M = 65536 + 37
        est = reference_value(vector_coord_functional(0), UniformCube(1), M, seed)
        values = np.concatenate([
            sample_batch(UniformCube(1), seed.child(0), 65536)[:, 0],
            sample_batch(UniformCube(1), seed.child(1), 37)[:, 0],
        ])
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
