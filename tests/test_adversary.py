import math

import numpy as np
import pytest
from conftest import dense_integral, traced_peak

from quantquad.adversary import (
    _EVENTS_ALPHA,
    IncrementFamilySpec,
    _binomial_p_value,
    bakhvalov_lower_bound,
    event_probability,
    fooling_family,
    gap_identity_check,
    increment_functional,
    lipschitz_check,
    subspace_blind_functional,
)
from quantquad import measures
from quantquad.errors import ConfigurationError, NumericError
from quantquad.measures import (
    BrownianKL,
    Diffusion,
    SeedSpec,
    StdNormal,
    UniformCube,
    gbm_spec,
    reference_value,
    sample_batch,
)
from quantquad.paths import (
    Functional,
    Grid,
    NormKind,
    make_kl_subspace,
    sup_norm_functional,
)
from quantquad.quantize import (
    Codebook,
    _all_point_distances,
    product_quantizer_bm,
    uniform_midpoint_codebook,
)


def unit_pair_codebook():
    return Codebook(np.array([[0.0], [1.0]]), 1.0, NormKind.EUCLIDEAN, "u")


def _fooling_by_definition(codebook, i, batch):
    # f_i(x) = 1/2 max(0, min_{j != i} d_j - d_i) from the distances to
    # every point.
    d = _all_point_distances(batch, codebook)
    own = d[:, i].copy()
    d[:, i] = np.inf
    return 0.5 * np.maximum(0.0, d.min(axis=1) - own)


def _member_cases():
    # (codebook, samples) for every search: sup and L1 (direct), L2 and
    # euclidean (Gram), and product codebooks on paths and vectors.  Values
    # on a 0.5 lattice tie exactly and often; the midpoint samples include
    # the cell boundaries 1/3 and 2/3.
    rng = np.random.default_rng(23)
    grid, fine = Grid.uniform(5), Grid.uniform(65)
    lattice = np.arange(12.0)[:, None, None] * 0.5 + np.zeros((1, 5, 1))
    on_lattice = np.round(2.0 * rng.standard_normal((300, 5, 1))) / 2.0 + 2.75
    paths = sample_batch(BrownianKL(30, fine), SeedSpec(24), 212)
    ticks = np.arange(13) / 12.0
    square = np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)
    cases = {}
    for kind in (NormKind.SUP, NormKind.L1, NormKind.L2):
        cases[f"lattice-{kind.value}"] = (
            Codebook(lattice, 2.0, kind, "lattice", grid=grid), on_lattice
        )
        cases[f"paths-{kind.value}"] = (
            Codebook(paths[:12], 2.0, kind, "brownian_kl:30", grid=fine), paths[12:]
        )
    cases["gram-vectors"] = (
        Codebook(rng.standard_normal((9, 3)), 2.0, NormKind.EUCLIDEAN, "std_normal:3"),
        rng.standard_normal((500, 3)),
    )
    cases["product-paths"] = (product_quantizer_bm(16, 30, fine), paths[12:])
    cases["midpoint"] = (
        uniform_midpoint_codebook(2, 3), np.concatenate((square, rng.random((300, 2))))
    )
    return cases


class TestFoolingFamily:
    @pytest.mark.parametrize("block_bytes", [None, 8], ids=["blocks", "one-row-runs"])
    @pytest.mark.parametrize("case", sorted(_member_cases()))
    def test_members_match_the_definition_bit_for_bit(
        self, case, block_bytes, monkeypatch
    ):
        codebook, xs = _member_cases()[case]
        want = [_fooling_by_definition(codebook, i, xs) for i in range(codebook.n)]
        if block_bytes:
            monkeypatch.setattr(measures, "_BLOCK_BYTES", block_bytes)
        family = fooling_family(codebook)
        for i, member in enumerate(family):
            np.testing.assert_array_equal(member(xs), want[i])
        assert np.any(np.stack(want) > 0)

    def test_nan_sample_in_a_member_mean_is_named_by_its_draw(self, monkeypatch):
        # 10-row tiles; every draw above 0.99 becomes NaN.  The member's
        # nearest search fails at the first one, named by its stream index.
        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * 10)
        seed = SeedSpec(5)
        draws = sample_batch(UniformCube(1), seed.child(0), 1000)[:, 0]
        first = int(np.argmax(draws > 0.99))
        assert first % 10 != 0 and first > 10  # not in the first tile's first row
        draw = measures.sample_batch

        def with_nan(measure, rng, n):
            x = draw(measure, rng, n)
            x[x > 0.99] = np.nan
            return x

        monkeypatch.setattr(measures, "sample_batch", with_nan)
        member = fooling_family(unit_pair_codebook())[1]
        with pytest.raises(NumericError, match="distance to the codebook is not finite") as info:
            reference_value(member, UniformCube(1), 1000, seed)
        assert info.value.sample == first
        assert f"sample {first}:" in str(info.value)

    def test_formula_at_far_point(self):
        family = fooling_family(unit_pair_codebook())
        # f_1(0) = 1/2 max(0, |0-1| - |0-0|) = 1/2
        assert family[0](np.array([[0.0]]))[0] == 0.5

    def test_equidistant_point_vanishes(self):
        family = fooling_family(unit_pair_codebook())
        assert family[0](np.array([[0.5]]))[0] == 0.0

    def test_disjoint_supports(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((5, 2))
        cb = Codebook(points, 1.0, NormKind.EUCLIDEAN, "std_normal:2")
        family = fooling_family(cb)
        xs = rng.standard_normal((10**4, 2))
        values = np.stack([f(xs) for f in family])
        assert np.all((values > 0).sum(axis=0) <= 1)
        # pairwise products vanish identically
        assert np.all(values[0] * values[1] == 0.0)

    def test_signed_combinations_stay_lipschitz(self):
        cb = Codebook(
            np.array([[0.1], [0.4], [0.8]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1"
        )
        family = fooling_family(cb)
        rng = np.random.default_rng(2)
        for _ in range(10):
            signs = rng.choice([-1.0, 1.0], size=len(family))
            combo = Functional(
                lambda v, s=signs: sum(
                    si * fi(v) for si, fi in zip(s, family)
                ),
                1.0,
                None,
                "signed-combo",
            )
            report = lipschitz_check(combo, UniformCube(1), 2000, SeedSpec(3))
            assert not report.flagged

    def test_needs_two_points(self):
        cb = Codebook(np.array([[0.0]]), 1.0, NormKind.EUCLIDEAN, "u")
        with pytest.raises(ConfigurationError):
            fooling_family(cb)


class TestGapIdentity:
    def test_uniform_two_point_analytic(self):
        # S(f_2) = int_{1/2}^{3/4} (x - 1/2) dx + int_{3/4}^1 1/4 dx = 3/32,
        # and (q({1/4}) - q({1/4, 3/4})) / 2 = (5/16 - 1/8) / 2 = 3/32.
        lhs = dense_integral(
            lambda x: 0.5 * np.maximum(0.0, np.abs(x - 0.25) - np.abs(x - 0.75))
        )
        q1 = dense_integral(lambda x: np.abs(x - 0.25))
        q2 = dense_integral(lambda x: np.minimum(np.abs(x - 0.25), np.abs(x - 0.75)))
        assert lhs == pytest.approx(3.0 / 32.0, abs=1e-9)
        assert 0.5 * (q1 - q2) == pytest.approx(3.0 / 32.0, abs=1e-9)
        assert 0.5 * (5.0 / 16.0 - 1.0 / 8.0) == 3.0 / 32.0

        cb = Codebook(
            np.array([[0.25], [0.75]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1"
        )
        report = gap_identity_check(cb, UniformCube(1), 10**5, SeedSpec(4))
        assert report.passed
        assert abs(report.mean_f_last - 3.0 / 32.0) <= 3.0 * report.mean_f_last_stderr

    def test_near_duplicate_point_adds_nothing(self):
        cb = Codebook(
            np.array([[0.5], [0.5 + 1e-9]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1"
        )
        report = gap_identity_check(cb, UniformCube(1), 10**4, SeedSpec(5))
        assert report.passed
        assert abs(report.mean_f_last) <= 1e-9

    def test_random_normal_codebook(self):
        rng = np.random.default_rng(6)
        cb = Codebook(
            rng.standard_normal((5, 1)), 1.0, NormKind.EUCLIDEAN, "std_normal:1"
        )
        report = gap_identity_check(cb, StdNormal(1), 10**4, SeedSpec(7))
        assert report.passed


class TestIncrementFunctional:
    def test_linear_path(self, grid):
        spec = IncrementFamilySpec(2, 1.0, 0.0, (0, 0))
        f = increment_functional(spec, grid)
        line = grid.points[None, :, None]
        # increments (1/2, 1/2): f = min(1/2, 1/2) / 2 = 1/4
        assert f(line)[0] == 0.25

    def test_sign_violation_vanishes(self, grid):
        spec = IncrementFamilySpec(2, 1.0, 0.0, (0, 0))
        f = increment_functional(spec, grid)
        vee = np.abs(grid.points - 0.5)[None, :, None]
        assert f(vee)[0] == 0.0

    def test_nonnegative_and_vanishes_off_sign_set(self, grid):
        spec = IncrementFamilySpec(4, 1.0, 0.0, (0, 1, 0, 1))
        f = increment_functional(spec, grid)
        batch = sample_batch(BrownianKL(200, grid), SeedSpec(8), 4000)
        values = f(batch)
        assert np.all(values >= 0.0)
        idx = [grid.index_of(t) for t in spec.times()]
        increments = np.diff(batch[:, idx, 0], axis=1)
        sigma = np.array([1.0, -1.0, 1.0, -1.0])
        inside = np.all(increments * sigma >= 0.0, axis=1)
        assert np.all(values[~inside] == 0.0)

    def test_one_lipschitz_for_sup_norm(self, grid):
        spec = IncrementFamilySpec(2, 1.0, 0.0, (0, 0))
        f = increment_functional(spec, grid)
        report = lipschitz_check(f, BrownianKL(200, grid), 10**4, SeedSpec(9))
        assert not report.flagged

    def test_misaligned_subgrid_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            increment_functional(IncrementFamilySpec(3, 1.0), grid)


class TestEventProbability:
    def test_analytic_values(self):
        # p = 1 - Phi(1/l); the l increments are independent
        for segments, p in ((1, 0.15865525393145707), (2, 0.3085375387259869)):
            report = event_probability(segments, 1.0, 3 * 10**4, SeedSpec(10))
            assert report.analytic == pytest.approx(p**segments, abs=1e-12)
            assert abs(report.estimate - report.analytic) <= 3.0 * report.stderr
            assert report.passed

    def test_upper_bound_respected(self):
        report = event_probability(4, 1.0, 3 * 10**4, SeedSpec(11))
        assert report.estimate <= report.upper_bound + 3.0 * report.stderr

    def test_window_invariance(self):
        # the threshold scales with the window, so the law is unchanged
        a = event_probability(2, 1.0, 3 * 10**4, SeedSpec(12))
        b = event_probability(2, 0.5, 3 * 10**4, SeedSpec(12))
        assert a.analytic == b.analytic
        assert abs(a.estimate - b.estimate) <= 3.0 * (a.stderr + b.stderr)

    def test_small_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            event_probability(1, 1.0, 100, SeedSpec(0))

    def test_no_hit_has_exactly_zero_stderr_and_passes(self):
        # p^16 is about 6.7e-6: no path of 10^4 clears all 16 increments,
        # which has probability 0.935, so the exact test keeps p^16.
        report = event_probability(16, 1.0, 10**4, SeedSpec(0))
        assert (report.estimate, report.stderr) == (0.0, 0.0)
        assert report.p_value == 1.0
        assert report.passed

    @pytest.mark.parametrize("M, p", [(50, 0.1), (40, 0.5), (60, 0.013), (30, 0.97)])
    def test_p_value_is_twice_the_smaller_exact_tail(self, M, p):
        pmf = [math.comb(M, j) * p**j * (1 - p) ** (M - j) for j in range(M + 1)]
        for hits in range(M + 1):
            want = min(1.0, 2.0 * min(sum(pmf[: hits + 1]), sum(pmf[hits:])))
            got = _binomial_p_value(hits, M, math.log(p))
            assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_a_hit_count_off_the_analytic_value_fails(self):
        # 6 hits in 10^4 at p = 6.7e-6 (mean 0.067) is far in the upper tail.
        assert _binomial_p_value(6, 10**4, math.log(6.734448846180103e-6)) < _EVENTS_ALPHA
        assert _binomial_p_value(0, 10**4, math.log(6.734448846180103e-6)) == 1.0

    def test_stderr_is_the_one_estimators(self):
        # The hit indicators, in stream order, folded by measures._Moments:
        # sqrt(p(1 - p) / (M - 1)), not the plug-in sqrt(p(1 - p) / M).
        grid, M, seed = Grid.uniform(17), 3 * 10**4, SeedSpec(13)
        report = event_probability(2, 1.0, M, seed, k_terms=20, grid=grid)
        paths = sample_batch(BrownianKL(20, grid), seed.child(0), M)
        increments = np.diff(paths[:, [0, 8, 16], 0], axis=1)
        hits = np.all(increments >= report.threshold, axis=1).astype(float)
        moments = measures._Moments([hits])
        assert report.estimate == float(hits.mean()) == float(moments.mean())
        assert report.stderr == float(moments.stderr())
        p = report.estimate
        assert report.stderr == pytest.approx(math.sqrt(p * (1 - p) / (M - 1)), rel=1e-12)


class TestBakhvalovBound:
    def test_exact_uniform_case(self):
        # min S(f_i) = 3/32 with zero stderr: bound = (1/4) * sqrt(1) * 3/32
        means = [(3.0 / 32.0, 0.0)] * 4
        assert bakhvalov_lower_bound(1, means) == pytest.approx(3.0 / 128.0, abs=1e-15)

    def test_clamped_at_zero(self):
        means = [(0.001, 0.01)] * 4
        assert bakhvalov_lower_bound(1, means) == 0.0

    def test_sqrt_scaling(self):
        means = [(0.5, 0.0)] * 8
        assert bakhvalov_lower_bound(2, means) == pytest.approx(
            math.sqrt(2.0) * bakhvalov_lower_bound(1, means), rel=1e-12
        )

    def test_family_size_precondition(self):
        with pytest.raises(ConfigurationError, match="m >= 4n"):
            bakhvalov_lower_bound(2, [(0.1, 0.0)] * 7)


class TestSubspaceBlind:
    def test_members_map_to_zero(self, grid):
        sub = make_kl_subspace(3, grid)
        f0 = subspace_blind_functional(sub)
        member = (1.3 * sub.basis[0] - 0.2 * sub.basis[2])[None, :, None]
        assert f0(member)[0] == 0.0

    def test_positive_mean_below_l2_tail(self, grid):
        from quantquad.experiments import kl_tail_width

        sub = make_kl_subspace(1, grid)
        f0 = subspace_blind_functional(sub)
        est = reference_value(f0, BrownianKL(200, grid), 2 * 10**4, SeedSpec(13))
        assert est.value > 5.0 * est.stderr
        # mean residual is at most the RMS tail 0.30777
        assert est.value <= kl_tail_width(1) + 3.0 * est.stderr

    def test_one_lipschitz_for_sup_norm(self, grid):
        sub = make_kl_subspace(4, grid)
        report = lipschitz_check(
            subspace_blind_functional(sub), BrownianKL(50, grid), 2000, SeedSpec(14)
        )
        assert not report.flagged


class TestLipschitzCheck:
    def test_sup_norm_passes(self, grid):
        report = lipschitz_check(
            sup_norm_functional(), BrownianKL(50, grid), 2000, SeedSpec(15)
        )
        assert report.max_ratio <= 1.0 + 1e-12
        assert not report.flagged

    def test_planted_violation_flagged(self, grid):
        f = Functional(lambda v: 2.0 * v[:, -1, 0], 1.0, None, "2x(1)")
        report = lipschitz_check(f, BrownianKL(50, grid), 2000, SeedSpec(16))
        assert report.flagged
        assert report.max_ratio == pytest.approx(2.0, rel=0.05)

    def test_fooling_members_pass_at_claim_one(self):
        rng = np.random.default_rng(17)
        cb = Codebook(
            rng.random((4, 2)), 1.0, NormKind.EUCLIDEAN, "uniform_cube:2"
        )
        family = fooling_family(cb)
        for member in family:
            report = lipschitz_check(member, UniformCube(2), 2000, SeedSpec(18))
            assert not report.flagged

    def test_pair_minimum(self):
        with pytest.raises(ConfigurationError):
            lipschitz_check(sup_norm_functional(), BrownianKL(10), 10, SeedSpec(0))


class TestLipschitzTiles:
    # lipschitz_check walks its three streams (two draws and the bumps) in
    # aligned row tiles; the largest ratio does not depend on the walk.

    def test_the_largest_ratio_of_the_one_shot_pairs(self, monkeypatch):
        # 7-row tiles over 100 pairs against whole batches drawn at once.  f
        # is steep, so the largest ratio is a bumped pair's and reads the bumps.
        grid = Grid.uniform(33)
        measure, seed = BrownianKL(20, grid), SeedSpec(19)
        f = Functional(lambda v: np.sin(1e3 * v[:, -1, 0]), 1.0, None, "steep")
        monkeypatch.setattr(measures, "_TILE_BYTES", 8 * 33 * 7)
        got = lipschitz_check(f, measure, 100, seed).max_ratio
        xs = sample_batch(measure, seed.child(0), 100)
        ys = sample_batch(measure, seed.child(1), 100)
        bumped = xs + 1e-3 * seed.child(2).rng().standard_normal(xs.shape)
        want = max(
            float((np.abs(f(xs) - f(b)) / np.abs(xs - b).max(axis=(1, 2))).max())
            for b in (ys, bumped)
        )
        assert got == want

    @pytest.mark.parametrize(
        "measure",
        [BrownianKL(200), Diffusion(gbm_spec(0.1, 0.2), 2049)],
        ids=["kl", "diffusion-2049"],
    )
    def test_memory_is_under_one_and_a_half_path_blocks(self, measure):
        # 20000 pairs: KL tiles only; on the diffusion, per stream one output
        # block and two Euler parts of increments.
        peak = traced_peak(
            lambda: lipschitz_check(sup_norm_functional(), measure, 20000, SeedSpec(3))
        )
        assert peak <= 1.5 * measures._BLOCK_BYTES
