import math
import re

import numpy as np
import pytest
from conftest import traced_peak

from quantquad.errors import ConfigurationError
from quantquad.experiments import (
    RateExperimentConfig,
    RatePoint,
    kl_tail_width,
    rate_fit,
    run_rate_experiment,
    width_estimate,
)
from quantquad.measures import BrownianKL, SeedSpec, UniformCube, _block_rows, _Moments
from quantquad.paths import Functional, Grid, make_kl_subspace, sup_norm_functional
from quantquad.quadrature import SmallBallProfile, classical_mc_replicated
from quantquad.quantize import uniform_midpoint_codebook


class TestRateFit:
    def test_exact_power_law(self):
        points = [RatePoint(10.0**j, 10.0**-j) for j in range(1, 5)]
        fit = rate_fit(points, "loglog")
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors(self):
        points = [RatePoint(2.0**j, 0.37) for j in range(2, 8)]
        fit = rate_fit(points, "loglog")
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_log_power_law_in_loglog_frame(self):
        # errors c (ln n)^(-1/2) at n = 2^j are an exact line against ln ln n
        points = [
            RatePoint(2.0**j, 3.1 * math.log(2.0**j) ** -0.5) for j in range(2, 12)
        ]
        fit = rate_fit(points, "loglog-in-log")
        assert fit.slope == pytest.approx(-0.5, abs=1e-6)

    def test_too_few_points(self):
        with pytest.raises(ConfigurationError):
            rate_fit([RatePoint(10, 0.1)] * 3, "loglog")

    def test_zero_errors_dropped_with_warning(self):
        points = [RatePoint(10.0**j, 10.0**-j) for j in range(1, 6)]
        points.append(RatePoint(10.0**6, 0.0))
        with pytest.warns(UserWarning, match="dropped"):
            fit = rate_fit(points, "loglog")
        assert fit.point_count == 5

    def test_unknown_transform(self):
        with pytest.raises(ConfigurationError):
            rate_fit([RatePoint(10, 0.1)] * 4, "semilog")


class TestKlTailWidth:
    def test_full_sum(self):
        # sum of all eigenvalues is the integrated variance of the motion
        assert kl_tail_width(0) == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_one_term_removed(self):
        assert kl_tail_width(1) == pytest.approx(
            math.sqrt(0.5 - 4.0 / math.pi**2), abs=1e-12
        )

    def test_tail_scaling(self):
        # k * width(k)^2 converges to 1/pi^2
        assert 64 * kl_tail_width(64) ** 2 == pytest.approx(
            1.0 / math.pi**2, rel=0.02
        )


class TestWidthEstimate:
    def test_matches_truncated_tail(self, grid):
        measure = BrownianKL(200, grid)
        for k in (1, 4):
            sub = make_kl_subspace(k, grid)
            point = width_estimate(measure, sub, 2.0, 10**4, SeedSpec(1).child(k))
            truncated = math.sqrt(kl_tail_width(k) ** 2 - kl_tail_width(200) ** 2)
            assert abs(point.error - truncated) <= 3.0 * point.stderr

    def test_support_inside_subspace_gives_zero(self, grid):
        measure = BrownianKL(5, grid)
        sub = make_kl_subspace(5, grid)
        point = width_estimate(measure, sub, 2.0, 1000, SeedSpec(2))
        assert point.error <= 1e-10

    def test_monotone_in_dimension(self, grid):
        measure = BrownianKL(100, grid)
        seed = SeedSpec(3)
        errors = []
        for k in (1, 2, 4, 8):
            sub = make_kl_subspace(k, grid)
            errors.append(width_estimate(measure, sub, 2.0, 4000, seed).error)
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_memory_is_three_path_blocks(self):
        # One block of 20 000 paths; its projection and residual are made
        # per tile (test_measures.TestTiles holds this peak to 1.25 blocks).
        grid = Grid.uniform()
        sub = make_kl_subspace(4, grid)
        M = 20_000
        peak = traced_peak(
            lambda: width_estimate(BrownianKL(200, grid), sub, 2.0, M, SeedSpec(4))
        )
        assert peak <= 3.2 * (8 * M * grid.size)

    def test_memory_over_three_blocks_is_three_path_blocks(self):
        # A block is freed before the next one is drawn, so three blocks
        # peak no higher than one.
        grid = Grid.uniform()
        sub = make_kl_subspace(4, grid)
        rows = _block_rows(grid.size)
        peak = traced_peak(
            lambda: width_estimate(BrownianKL(200, grid), sub, 2.0, 3 * rows, SeedSpec(4))
        )
        assert peak <= 3.2 * (8 * rows * grid.size)

    def test_vector_measure_rejected(self):
        sub = make_kl_subspace(2, Grid.uniform())
        with pytest.raises(ConfigurationError):
            width_estimate(UniformCube(1), sub, 2.0, 1000, SeedSpec(0))


class TestRunRateExperiment:
    def _config(self, **overrides):
        f = Functional(lambda v: np.abs(v[:, 0] - 1.0 / 3.0), 1.0, None, "f")
        ladder = (4, 8, 16, 32, 64)
        base = dict(
            name="mc-uniform",
            algorithm="mc",
            ladder=ladder,
            functional=f,
            measure=UniformCube(1),
            replications=100,
            reference=("analytic", 5.0 / 18.0),
            slope_bracket=(-0.6, -0.4),
            seed=SeedSpec(5),
        )
        base.update(overrides)
        return RateExperimentConfig(**base)

    def test_classical_mc_slope(self):
        report = run_rate_experiment(self._config(replications=400))
        assert report.passed
        assert -0.6 <= report.fit.slope <= -0.4

    def test_vrmc_with_midpoint_codebooks(self):
        ladder = (4, 8, 16, 32)
        codebooks = {n: uniform_midpoint_codebook(1, n) for n in ladder}
        report = run_rate_experiment(
            self._config(
                name="vrmc",
                algorithm="vrmc",
                ladder=ladder,
                codebooks=codebooks,
                slope_bracket=(-1.8, -1.2),
            )
        )
        assert report.passed

    def test_reference_noise_guard(self):
        ladder = (64, 128, 256, 512)
        codebooks = {n: uniform_midpoint_codebook(1, n) for n in ladder}
        with pytest.raises(ConfigurationError, match="reference too noisy"):
            run_rate_experiment(
                self._config(
                    name="noisy",
                    algorithm="vrmc",
                    ladder=ladder,
                    codebooks=codebooks,
                    reference=("mc", 1000),
                )
            )

    def test_rung_error_is_the_one_estimators_root(self):
        # Each rung's RMSE and its stderr are the square root of the mean
        # squared error and its delta-method stderr, from measures._Moments.
        config = self._config(replications=300)
        report = run_rate_experiment(config)
        for i, (size, point) in enumerate(zip(config.ladder, report.points)):
            estimates = classical_mc_replicated(
                config.measure, config.functional, size, 300, config.seed.child(i)
            )
            errs = estimates - 5.0 / 18.0
            assert (point.error, point.stderr) == _Moments([errs * errs]).root(2)

    def test_report_reproducible(self):
        a = run_rate_experiment(self._config(replications=50))
        b = run_rate_experiment(self._config(replications=50))
        assert a.points == b.points
        assert a.fit == b.fit

    def test_bad_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            self._config(algorithm="importance-sampling")

    @pytest.mark.parametrize("overrides, fragment", [
        (dict(reference=("euler", 9, 200)), "reference kind 'euler' needs the field 'diffusion'"),
        (dict(algorithm="gauss-sub", measure=None, profile=SmallBallProfile(2.0),
              reference=("mc", 1000)), "reference kind 'mc' needs the field 'measure'"),
        (dict(reference=("bogus", 1)), "unknown reference kind 'bogus'"),
        (dict(transform=3), "unknown transform 3"),
        (dict(transform="loglin"), "unknown transform 'loglin'"),
        (dict(slope_bracket="ab"), "slope_bracket must be two finite numbers lo <= hi"),
        (dict(slope_bracket=(1.0,)), "slope_bracket must be two finite numbers lo <= hi"),
        (dict(slope_bracket=(1, 2, 3)), "slope_bracket must be two finite numbers lo <= hi"),
        (dict(slope_bracket=(-0.4, -0.6)), "slope_bracket must be two finite numbers lo <= hi"),
        (dict(slope_bracket=(math.nan, 0.0)), "slope_bracket must be two finite numbers lo <= hi"),
        (dict(algorithm="vrmc", codebooks={4: uniform_midpoint_codebook(1, 4)}),
         "vrmc needs one codebook per ladder size"),
    ], ids=["euler-ref", "mc-ref", "bogus-ref", "int-transform", "transform", "str-bracket",
            "short-bracket", "long-bracket", "reversed-bracket", "nan-bracket", "codebooks"])
    def test_a_config_no_rung_can_use_is_refused_before_any_runs(self, overrides, fragment):
        with pytest.raises(ConfigurationError, match=re.escape(fragment)):
            self._config(**overrides)

    def test_gauss_sub_rung_beyond_the_grid_rejected(self):
        # The budget 3000 asks for 438 expansion terms; the grid has 257 points.
        config = self._config(
            algorithm="gauss-sub", ladder=(300, 3000), measure=None,
            functional=sup_norm_functional(), profile=SmallBallProfile(2.0),
            reference=("analytic", 1.0),
        )
        with pytest.raises(ConfigurationError, match="use a finer grid"):
            run_rate_experiment(config)
