import math

import numpy as np
import pytest
from conftest import dense_integral, running_max_functional, traced_peak

from quantquad import measures
from quantquad.errors import ConfigurationError
from quantquad.measures import (
    BrownianKL,
    Diffusion,
    SeedSpec,
    StdNormal,
    UniformCube,
    euler_values,
    gbm_spec,
)
from quantquad.paths import (
    Functional,
    Grid,
    NormKind,
    make_kl_subspace,
    path_coord_functional,
    sup_norm_functional,
    vector_coord_functional,
)
from quantquad.quadrature import (
    SmallBallProfile,
    classical_mc,
    classical_mc_replicated,
    euler_mc,
    euler_mc_schedule,
    gaussian_subspace_mc,
    subspace_mc_schedule,
    voronoi_quadrature,
    vr_mc,
    vr_mc_replicated,
)
from quantquad.quantize import Codebook, min_dist_batch, uniform_midpoint_codebook


def exact_two_point():
    return Codebook(
        np.array([[0.25], [0.75]]),
        1.0,
        NormKind.EUCLIDEAN,
        "uniform_cube:1",
        weights=np.array([0.5, 0.5]),
        oracle_dim=1,
    )


class TestVoronoiQuadrature:
    def test_linear_exact(self):
        f = vector_coord_functional(0)
        res = voronoi_quadrature(exact_two_point(), f)
        assert res.estimate == 0.5
        assert res.stderr == 0.0
        assert res.cardinality == 2

    def test_quadratic_error_is_analytic(self):
        f = Functional(lambda v: v[:, 0] ** 2 / 2.0, name="x^2/2")
        res = voronoi_quadrature(exact_two_point(), f)
        # (0.25^2 + 0.75^2) / 4 = 5/32; S(f) = 1/6; error exactly 1/96
        assert res.estimate == pytest.approx(5.0 / 32.0, abs=1e-15)
        assert abs(res.estimate - 1.0 / 6.0) == pytest.approx(1.0 / 96.0, abs=1e-12)

    def test_kink_functional_exact(self):
        f = Functional(lambda v: np.abs(v[:, 0] - 0.5), name="|x-1/2|")
        res = voronoi_quadrature(exact_two_point(), f)
        oracle = dense_integral(lambda x: np.abs(x - 0.5))
        assert oracle == pytest.approx(0.25, abs=1e-9)
        assert res.estimate == pytest.approx(0.25, abs=1e-15)

    def test_missing_weights_rejected(self):
        cb = Codebook(np.array([[0.25], [0.75]]), 1.0, NormKind.EUCLIDEAN, "u")
        with pytest.raises(ConfigurationError):
            voronoi_quadrature(cb, vector_coord_functional(0))


class TestClassicalMC:
    def test_constant_functional(self):
        f = Functional(lambda v: np.full(v.shape[0], 3.25), name="const")
        res = classical_mc(UniformCube(1), f, 100, SeedSpec(1))
        assert res.estimate == 3.25
        assert res.stderr == 0.0

    def test_determinism(self):
        f = vector_coord_functional(0)
        a = classical_mc(UniformCube(1), f, 500, SeedSpec(2))
        b = classical_mc(UniformCube(1), f, 500, SeedSpec(2))
        assert a.estimate == b.estimate and a.stderr == b.stderr

    def test_stderr_magnitude(self):
        # E(stderr) for n=12 samples of U(0,1) is about (1/sqrt 12)/sqrt(12);
        # average over many replications to beat the chi-square noise.
        f = vector_coord_functional(0)
        vals = [
            classical_mc(UniformCube(1), f, 12, SeedSpec(3).child(i)).stderr
            for i in range(1000)
        ]
        assert np.mean(vals) == pytest.approx(1.0 / 12.0, rel=0.05)

    def test_cost_ledger(self):
        f = vector_coord_functional(0)
        res = classical_mc(UniformCube(2), f, 50, SeedSpec(4))
        assert res.cost.oracle_cost == 100  # k = d = 2
        assert res.cost.rng_calls == 100

    def test_oracle_dim_restriction(self):
        f = vector_coord_functional(0)
        f.oracle_dim = 1
        with pytest.raises(ConfigurationError):
            classical_mc(UniformCube(2), f, 10, SeedSpec(5))


class TestVrMc:
    def test_interpolation_fixed_point(self):
        # f constant on each Voronoi cell: the residual vanishes sample-wise
        f = Functional(lambda v: (v[:, 0] < 0.5).astype(float), name="cell-ind")
        cb = exact_two_point()
        res = vr_mc(cb, UniformCube(1), f, 100, SeedSpec(6))
        det = voronoi_quadrature(cb, f)
        assert res.estimate == det.estimate
        assert res.stderr == 0.0
        assert res.cardinality == 100 + 2

    def test_variance_reduction_factor(self):
        # For f(x) = x with exact weights: Var(residual) = E dist^2 = 1/48
        # against Var(f) = 1/12, a factor-4 reduction at equal n.
        f = vector_coord_functional(0)
        cb = exact_two_point()
        n, reps = 8, 20000
        vr = vr_mc_replicated(cb, UniformCube(1), f, n, reps, SeedSpec(7))
        mc = classical_mc_replicated(UniformCube(1), f, n, reps, SeedSpec(8))
        ratio = mc.var(ddof=1) / vr.var(ddof=1)
        assert ratio == pytest.approx(4.0, rel=0.10)

    def test_unbiased(self):
        f = Functional(lambda v: np.abs(v[:, 0] - 1.0 / 3.0), name="f")
        cb = exact_two_point()
        reps = 10000
        estimates = vr_mc_replicated(cb, UniformCube(1), f, 16, reps, SeedSpec(9))
        exact = 5.0 / 18.0
        assert abs(estimates.mean() - exact) <= 3.0 * estimates.std(ddof=1) / math.sqrt(reps)

    def test_cost_ledger_counts_euler_steps(self, grid):
        # Same unit as classical_mc: one per Euler step per path, plus
        # one per codebook point.
        measure, f, cb = _measure_functional_codebook("diffusion", grid)
        res = vr_mc(cb, measure, f, 300, SeedSpec(12))
        assert res.cost.arithmetic_proxy == 300 * measure.k_steps + cb.n
        mc = classical_mc(measure, f, 300, SeedSpec(12))
        assert res.cost.arithmetic_proxy - cb.n == mc.cost.arithmetic_proxy

    @pytest.mark.parametrize("n", [2, 4])
    def test_error_bound_against_quantization_number(self, n):
        # RMSE <= 2 n^(-1/2) q_n^(2) + 3 se on the uniform cube
        from quantquad.quantize import distortion

        f = Functional(lambda v: np.abs(v[:, 0] - 1.0 / 3.0), name="f")
        cb = uniform_midpoint_codebook(1, n)
        q2 = distortion(cb, UniformCube(1), 2, 10**5, SeedSpec(10))
        est = vr_mc_replicated(cb, UniformCube(1), f, n, 10**4, SeedSpec(11))
        sq = (est - 5.0 / 18.0) ** 2
        rmse = math.sqrt(sq.mean())
        se_rmse = sq.std(ddof=1) / math.sqrt(sq.size) / (2.0 * rmse)
        bound = 2.0 * n**-0.5 * q2.value
        combined = math.sqrt(se_rmse**2 + (2.0 * n**-0.5 * q2.stderr) ** 2)
        assert rmse <= bound + 3.0 * combined


class TestEulerMC:
    def test_gbm_mean_and_bias(self):
        f = path_coord_functional(1.0, Grid.uniform())
        res = euler_mc(gbm_spec(0.1, 0.2), f, 11, 10**5, SeedSpec(12))
        exact_mean = 1.01**10
        assert abs(res.estimate - exact_mean) <= 3.0 * res.stderr
        # the scheme bias against e^0.1 is about 5.5e-4
        assert abs(exact_mean - math.exp(0.1)) == pytest.approx(5.488e-4, abs=1e-6)

    def test_noiseless_value_has_zero_stderr(self):
        f = path_coord_functional(1.0, Grid.uniform())
        res = euler_mc(gbm_spec(0.1, 0.0), f, 11, 100, SeedSpec(13))
        assert res.stderr == 0.0

    def test_cost_ledger(self):
        f = path_coord_functional(1.0, Grid.uniform())
        res = euler_mc(gbm_spec(0.1, 0.2), f, 83, 12, SeedSpec(14))
        assert res.cost.oracle_cost == 996
        assert res.cost.rng_calls == 12 * 82

    def test_small_k_and_n_rejected(self):
        f = path_coord_functional(1.0, Grid.uniform())
        with pytest.raises(ConfigurationError):
            euler_mc(gbm_spec(0.1, 0.2), f, 1, 10, SeedSpec(0))
        with pytest.raises(ConfigurationError):
            euler_mc(gbm_spec(0.1, 0.2), f, 5, 1, SeedSpec(0))


class TestSchedules:
    def test_euler_schedule_examples(self):
        assert euler_mc_schedule(1000) == (12, 83)
        assert euler_mc_schedule(10**4) == (32, 303)

    def test_euler_schedule_respects_budget_and_monotone(self):
        prev_n = prev_k = 0
        for exponent in range(2, 9):
            N = 10**exponent
            n, k = euler_mc_schedule(N)
            assert k * n <= N
            assert n >= prev_n and k >= prev_k
            prev_n, prev_k = n, k

    @staticmethod
    def _check_closed_form(schedule, closed_form, budgets):
        # The schedule is the closed form where both entries reach 2 and
        # raises where one does not.
        for N in budgets:
            want = closed_form(N, math.log(N))
            if min(want) >= 2:
                assert schedule(N) == want, N
            else:
                with pytest.raises(ConfigurationError, match="minimum feasible N"):
                    schedule(N)

    def test_euler_schedule_is_its_closed_form(self):
        # n = floor(sqrt(N / ln N)), k = floor(sqrt(N ln N)) at every budget
        # up to 10^5 and at a few near 10^12.
        self._check_closed_form(
            euler_mc_schedule,
            lambda N, log: (int(math.sqrt(N / log)), int(math.sqrt(N * log))),
            list(range(3, 10**5 + 1)) + [10**12 + d for d in range(-3, 4)],
        )

    def test_subspace_schedule_at_the_brownian_profile(self):
        # At (alpha, beta) = (2, 0): n = floor(sqrt(N) / ln N) and
        # k = floor(sqrt(N) ln N).
        bm = SmallBallProfile(2.0, 0.0)
        self._check_closed_form(
            lambda N: subspace_mc_schedule(N, bm),
            lambda N, log: (int(math.sqrt(N) / log), int(math.sqrt(N) * log)),
            list(range(3, 10**4)) + [10**12 + d for d in range(-3, 4)],
        )

    def test_euler_schedule_minimum_named(self):
        with pytest.raises(ConfigurationError, match="minimum feasible N is"):
            euler_mc_schedule(8)

    def test_subspace_schedule_examples(self):
        bm = SmallBallProfile(2.0, 0.0)
        assert subspace_mc_schedule(10**4, bm) == (10, 921)
        assert subspace_mc_schedule(10**6, bm) == (72, 13815)

    def test_subspace_schedule_budget(self):
        profile = SmallBallProfile(1.5, 1.0)
        prev_n = prev_k = 0
        for exponent in range(3, 9):
            n, k = subspace_mc_schedule(10**exponent, profile)
            assert k * n <= 10**exponent
            assert n >= prev_n and k >= prev_k
            prev_n, prev_k = n, k

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            SmallBallProfile(0.0)
        for alpha, beta in ((math.inf, 0.0), (math.nan, 0.0), (2.0, math.nan), (2.0, -math.inf)):
            with pytest.raises(ConfigurationError, match="finite"):
                SmallBallProfile(alpha, beta)


class TestGaussianSubspaceMC:
    def test_blind_functional_is_exactly_zero(self, grid):
        from quantquad.adversary import subspace_blind_functional

        sub = make_kl_subspace(8, grid)
        res = gaussian_subspace_mc(sub, subspace_blind_functional(sub), 50, SeedSpec(15))
        assert res.estimate == 0.0
        assert res.stderr == 0.0

    def test_terminal_value_zero_mean(self, grid):
        f = path_coord_functional(1.0, grid)
        res = gaussian_subspace_mc(make_kl_subspace(50, grid), f, 20000, SeedSpec(16))
        assert abs(res.estimate) <= 3.0 * res.stderr

    def test_running_max_with_allowance(self, grid):
        res = gaussian_subspace_mc(
            make_kl_subspace(200, grid), running_max_functional(), 10**5, SeedSpec(17)
        )
        # documented discretization allowance at G=257, 200 terms
        assert abs(res.estimate - 0.7978845608028654) <= 3.0 * res.stderr + 0.05

    def test_cost_ledger(self, grid):
        f = path_coord_functional(1.0, grid)
        res = gaussian_subspace_mc(make_kl_subspace(7, grid), f, 100, SeedSpec(18))
        assert res.cost.subspace_dim == 7
        assert res.cost.oracle_cost == 700
        assert res.cost.rng_calls == 700

    def test_requires_kl_subspace(self, grid):
        from quantquad.paths import make_pl_subspace

        sub = make_pl_subspace([0.0, 0.5, 1.0], grid)
        f = path_coord_functional(1.0, grid)
        with pytest.raises(ConfigurationError):
            gaussian_subspace_mc(sub, f, 10, SeedSpec(19))


def _measure_functional_codebook(kind, grid):
    """A measure, a functional on it, and a weighted two-point codebook."""
    if kind in ("uniform", "normal"):
        measure = UniformCube(2) if kind == "uniform" else StdNormal(3)
        d = measure.d
        f = Functional(lambda v: np.abs(v).sum(axis=1), name="l1")
        points = np.zeros((2, d))
        points[:, 0] = (0.25, 0.75)
        cb = Codebook(points, 2.0, NormKind.EUCLIDEAN, "v", weights=np.array([0.5, 0.5]))
        return measure, f, cb
    if kind == "kl":
        measure = BrownianKL(20, grid)
    else:
        measure = Diffusion(gbm_spec(0.1, 0.2), 11, grid)
    points = np.stack([0.5 * grid.points, 1.0 + grid.points])
    cb = Codebook(points, 2.0, NormKind.L2, "p", grid=grid, weights=np.array([0.5, 0.5]))
    return measure, sup_norm_functional(), cb


_KINDS = ["uniform", "normal", "kl", "diffusion"]


class TestReplicationRule:
    # Replication j of a *_replicated call uses draws j*n .. (j+1)*n of the
    # seed's single stream, so replication 0 is the single run.  For the
    # KL measure the (n*R, k) @ (k, G) product may be blocked differently
    # from the (n, k) one, hence the rounding-level allowance there.

    @pytest.mark.parametrize("n", [2, 16, 300])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_classical_mc_replication_zero_is_the_single_run(self, kind, n, grid):
        measure, f, _ = _measure_functional_codebook(kind, grid)
        seed = SeedSpec(30)
        reps = classical_mc_replicated(measure, f, n, 50, seed)
        single = classical_mc(measure, f, n, seed).estimate
        assert reps.shape == (50,)
        if kind == "kl":
            assert reps[0] == pytest.approx(single, rel=1e-15, abs=0.0)
        else:
            assert reps[0] == single

    @pytest.mark.parametrize("n", [2, 16, 300])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_vr_mc_replication_zero_is_the_single_run(self, kind, n, grid):
        measure, f, cb = _measure_functional_codebook(kind, grid)
        seed = SeedSpec(31)
        reps = vr_mc_replicated(cb, measure, f, n, 50, seed)
        single = vr_mc(cb, measure, f, n, seed).estimate
        if kind == "kl":
            assert reps[0] == pytest.approx(single, rel=1e-15, abs=0.0)
        else:
            assert reps[0] == single

    def test_euler_mc_is_classical_mc_on_the_diffusion(self, grid):
        spec = gbm_spec(0.1, 0.2)
        f = sup_norm_functional()
        res = euler_mc(spec, f, 21, 300, SeedSpec(32), grid)
        assert res == classical_mc(Diffusion(spec, 21, grid), f, 300, SeedSpec(32))
        assert res.cost.arithmetic_proxy == 300 * 21  # one unit per Euler step

    def test_gaussian_subspace_mc_is_classical_mc_on_the_expansion(self, grid):
        sub = make_kl_subspace(7, grid)
        f = sup_norm_functional()
        res = gaussian_subspace_mc(sub, f, 300, SeedSpec(33))
        assert res == classical_mc(BrownianKL(7, grid), f, 300, SeedSpec(33))

    def test_replicated_forms_check_like_single_runs(self):
        f = vector_coord_functional(0)
        with pytest.raises(ConfigurationError):
            classical_mc_replicated(UniformCube(1), f, 1, 10, SeedSpec(0))
        restricted = vector_coord_functional(0)
        restricted.oracle_dim = 1
        with pytest.raises(ConfigurationError):
            classical_mc_replicated(UniformCube(2), restricted, 10, 10, SeedSpec(0))
        unweighted = Codebook(np.array([[0.25], [0.75]]), 1.0, NormKind.EUCLIDEAN, "u")
        with pytest.raises(ConfigurationError):
            vr_mc_replicated(unweighted, UniformCube(1), f, 10, 10, SeedSpec(0))
        with pytest.raises(ConfigurationError):
            vr_mc_replicated(exact_two_point(), UniformCube(1), f, 1, 10, SeedSpec(0))

    @pytest.mark.parametrize("rows", [1, 37])
    def test_euler_blocks_keep_every_replication(self, rows, grid, monkeypatch):
        # Blocks of one, resp. 37, paths give the same estimates as one
        # recursion over all draws.
        measure, f, cb = _measure_functional_codebook("diffusion", grid)
        seed = SeedSpec(34)
        whole = classical_mc_replicated(measure, f, 16, 10, seed)
        whole_vr = vr_mc_replicated(cb, measure, f, 16, 10, seed)
        calls = []

        def counted(*args):
            calls.append(args[3])
            return euler_values(*args)

        # A draw's largest array is its path on the grid (G > k = 11).
        monkeypatch.setattr(measures, "_BLOCK_BYTES", rows * 8 * grid.size)
        monkeypatch.setattr(measures, "euler_values", counted)
        np.testing.assert_array_equal(
            classical_mc_replicated(measure, f, 16, 10, seed), whole
        )
        np.testing.assert_array_equal(
            vr_mc_replicated(cb, measure, f, 16, 10, seed), whole_vr
        )
        assert max(calls) == rows
        assert sum(calls) == 2 * 16 * 10


class TestChunkedEstimator:
    # Every streamed mean and stderr is folded by measures._Moments in
    # chunks of _CHUNK draws from each run's first draw, so no estimate
    # depends on the block or tile layout, and a run of one chunk has
    # numpy's mean and std(ddof=1) / sqrt(n).

    # (block bytes, tile bytes): the default, uneven tiles in blocks a
    # little over a chunk of 2-D draws, and tiles of a few rows.
    _LAYOUTS = [None, (8 * 2 * 4099, 8 * 2 * 777), (8 * 2 * 1000, 8 * 2 * 3)]

    @staticmethod
    def _estimates():
        from quantquad.adversary import gap_identity_check
        from quantquad.experiments import width_estimate
        from quantquad.quantize import distortion

        grid = Grid.uniform(17)
        cube, kl, seed = UniformCube(2), BrownianKL(8, grid), SeedSpec(70)
        f = Functional(lambda v: np.abs(v - 0.3).sum(axis=1), name="l1")
        cb = uniform_midpoint_codebook(2, 2)
        M = 2 * measures._CHUNK + 123
        ref = measures.reference_value(f, cube, M, seed)
        dist = distortion(cb, cube, 2.0, M, seed)
        width = width_estimate(kl, make_kl_subspace(2, grid), 2.0, 1500, seed)
        gap = gap_identity_check(cb, cube, M, seed)
        mc = classical_mc(cube, f, M, seed)
        vr = vr_mc(cb, cube, f, M, seed)
        return np.concatenate([
            [ref.value, ref.stderr, dist.value, dist.stderr, width.error, width.stderr],
            [gap.mean_f_last, gap.mean_f_last_stderr, gap.half_gap, gap.difference,
             gap.combined_stderr],
            [mc.estimate, mc.stderr, vr.estimate, vr.stderr],
            # Values that view their tile, one float in two.
            [classical_mc(cube, vector_coord_functional(1), M, seed).stderr],
            classical_mc_replicated(cube, f, measures._CHUNK + 7, 3, seed),
            classical_mc_replicated(cube, f, 300, 20, seed),
            vr_mc_replicated(cb, cube, f, 2 * measures._CHUNK, 2, seed),
            vr_mc_replicated(cb, cube, f, 50, 30, seed),
        ])

    @pytest.mark.parametrize("layout", _LAYOUTS[1:], ids=["uneven", "few-rows"])
    def test_layouts_move_no_estimate(self, layout, monkeypatch):
        default = self._estimates()
        monkeypatch.setattr(measures, "_BLOCK_BYTES", layout[0])
        monkeypatch.setattr(measures, "_TILE_BYTES", layout[1])
        measures._held = None
        np.testing.assert_array_equal(self._estimates(), default)

    @pytest.mark.parametrize("n", [100, measures._CHUNK, 3 * measures._CHUNK + 5])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_reference_value_is_classical_mc_on_the_first_child(self, kind, n):
        measure, f, _ = _measure_functional_codebook(kind, Grid.uniform(9))
        if kind == "diffusion" and n > 100:
            n //= 8  # the reference's 100 draws cross no chunk; these do
        seed = SeedSpec(71)
        ref = measures.reference_value(f, measure, n, seed)
        mc = classical_mc(measure, f, n, seed.child(0))
        assert (ref.value, ref.stderr, ref.n) == (mc.estimate, mc.stderr, mc.cardinality)

    @pytest.mark.parametrize("n", [2, 17, 1000, measures._CHUNK])
    @pytest.mark.parametrize("kind", ["uniform", "normal"])
    def test_one_chunk_is_numpys_mean_and_stderr(self, kind, n, monkeypatch):
        # The oracle is the one-shot formula: mean and std(ddof=1)/sqrt(n)
        # of every value at once.  Small tiles make runs cross tiles.
        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * 3 * 333)
        measure, f, cb = _measure_functional_codebook(kind, None)
        seed, reps = SeedSpec(72), 5
        draws = measures.sample_batch(measure, seed, n * reps)
        values = f(draws)
        residuals = values - f(cb.points)[min_dist_batch(draws, cb)[1]]
        voronoi = float(f(cb.points) @ cb.weights)
        mc, vr = classical_mc(measure, f, n, seed), vr_mc(cb, measure, f, n, seed)
        for got, first, shift in ((mc, values[:n], 0.0), (vr, residuals[:n], voronoi)):
            assert got.estimate == shift + float(first.mean())
            assert got.stderr == float(first.std(ddof=1) / math.sqrt(n))
        np.testing.assert_array_equal(
            classical_mc_replicated(measure, f, n, reps, seed),
            values.reshape(reps, n).mean(axis=1),
        )
        np.testing.assert_array_equal(
            vr_mc_replicated(cb, measure, f, n, reps, seed),
            voronoi + residuals.reshape(reps, n).mean(axis=1),
        )

    @pytest.mark.parametrize("site", ["classical_mc", "vr_mc", "classical_mc_replicated"])
    def test_memory_over_four_blocks_is_under_one_and_a_half_blocks(self, site, monkeypatch):
        # 32 MiB blocks of 2-D draws, and the temporaries of a 2 MiB tile
        # (a nearest search on one makes 9 MiB).  The values of a run used
        # to be joined into one array of 8 bytes a draw, then copied.
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 2**25)
        cube, seed = UniformCube(2), SeedSpec(73)
        n = 4 * measures._block_rows(2) + 1000
        f = vector_coord_functional(0)
        cb = Codebook(np.array([[0.25, 0.5], [0.75, 0.5]]), 2.0, NormKind.EUCLIDEAN, "u",
                      weights=np.array([0.5, 0.5]))
        call = {
            "classical_mc": lambda: classical_mc(cube, f, n, seed),
            "vr_mc": lambda: vr_mc(cb, cube, f, n, seed),
            "classical_mc_replicated": lambda: classical_mc_replicated(
                cube, f, 1000, n // 1000, seed),
        }[site]
        assert traced_peak(call) < 1.5 * measures._BLOCK_BYTES

    def test_reference_value_of_one_block_is_under_a_quarter_more(self, monkeypatch):
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 2**24)
        cube = UniformCube(2)
        M = measures._block_rows(2)
        peak = traced_peak(
            lambda: measures.reference_value(vector_coord_functional(1), cube, M, SeedSpec(74))
        )
        assert peak < 1.25 * measures._BLOCK_BYTES
