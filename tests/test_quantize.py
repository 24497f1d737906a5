import dataclasses
import functools
import itertools
import math
import os
import tracemalloc
from functools import reduce
from statistics import NormalDist

import numpy as np
import pytest
from conftest import (
    FullBlockSums,
    brute_nearest,
    dense_integral,
    normal_expectation,
    scalar_quantizer_distortion2,
    traced_peak,
)

from quantquad import measures, quantize
from quantquad.errors import ConfigurationError, NumericError
from quantquad.measures import BrownianKL, SeedSpec, StdNormal, UniformCube, sample_batch
from quantquad.paths import Grid, NormKind, batch_norm, kl_basis_on_grid, kl_eigenvalues
from quantquad.quantize import (
    Codebook,
    LloydOptions,
    ProductStructure,
    dist_to_codebook_functional,
    distortion,
    lloyd,
    min_dist_batch,
    product_quantizer_bm,
    scalar_gaussian_quantizer,
    uniform_midpoint_codebook,
    voronoi_weights,
)
from quantquad.storage import load_codebook, save_codebook

SQRT_2_OVER_PI = 0.7978845608028654
_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def two_point_uniform(r=1.0):
    return Codebook(
        np.array([[0.25], [0.75]]), r, NormKind.EUCLIDEAN, "uniform_cube:1"
    )


class TestCodebook:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ConfigurationError):
            Codebook(np.array([[0.5], [0.5]]), 1.0, NormKind.EUCLIDEAN, "u")

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]],  # equal, not neighbours
            [[0.0, 1.0, -2.0], [3.0, 3.0, 3.0], [-0.0, 1.0, -2.0]],  # only by -0.0
            [[-0.0, 0.0, 7.0], [0.0, -0.0, 7.0]],  # only by signs of zeros
        ],
        ids=["equal", "signed-zero", "signed-zeros"],
    )
    @pytest.mark.parametrize("grid", [None, Grid.uniform(3)], ids=["vectors", "paths"])
    def test_points_equal_as_floats_are_rejected(self, rows, grid):
        # As np.unique(axis=0) finds them: -0.0 equals +0.0.
        points = np.array(rows)
        assert np.unique(points, axis=0).shape[0] < len(rows)
        norm = NormKind.EUCLIDEAN if grid is None else NormKind.L2
        with pytest.raises(ConfigurationError, match="pairwise distinct"):
            Codebook(points if grid is None else points[:, :, None], 1.0, norm, "u", grid=grid)
        Codebook(points[:2] + np.arange(2)[:, None], 1.0, NormKind.EUCLIDEAN, "u")

    def test_distinct_points_load_no_masked_arrays(self):
        # np.unique(axis=0) imports numpy.ma on first use (10 ms, 1.6 MiB).
        import subprocess
        import sys

        code = ("import sys, numpy as np; from quantquad.quantize import Codebook; "
                "from quantquad.paths import NormKind; "
                "Codebook(np.random.default_rng(0).standard_normal((50, 2)), 2.0, "
                "NormKind.EUCLIDEAN, 'u'); print('numpy.ma' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": _SRC})
        assert out.stdout.strip() == "False"

    def test_weights_validation(self):
        with pytest.raises(ConfigurationError):
            Codebook(
                np.array([[0.0], [1.0]]),
                1.0,
                NormKind.EUCLIDEAN,
                "u",
                weights=np.array([0.6, 0.5]),
            )

    def test_norm_must_fit_the_space(self):
        with pytest.raises(ConfigurationError, match="applies to paths"):
            Codebook(np.array([[0.0], [1.0]]), 2.0, NormKind.SUP, "uniform_cube:1")
        grid = Grid.uniform(17)
        paths = sample_batch(BrownianKL(10, grid), SeedSpec(2), 3)
        with pytest.raises(ConfigurationError, match="applies to vectors"):
            Codebook(paths, 2.0, NormKind.EUCLIDEAN, "brownian_kl:10", grid=grid)

    def test_product_must_fit_the_points(self):
        two = np.array([[0.0], [1.0]])
        for points, levels in (
            (two, ([0.0, 1.0, 2.0],)),  # 3 combinations for 2 points
            (np.hstack([two, two]), ([0.0, 1.0],)),  # 1 axis for d = 2
        ):
            with pytest.raises(ConfigurationError, match="product"):
                Codebook(points, 2.0, NormKind.EUCLIDEAN, "u",
                         product=ProductStructure(levels))
        grid = Grid.uniform(3)
        row = np.ones((1, 3))  # unit norm under the trapezoid weights
        with pytest.raises(ConfigurationError, match="euclidean or L2"):
            Codebook(two[:, :, None] * row[:, :, None], 2.0, NormKind.SUP, "u",
                     grid=grid, product=ProductStructure(([0.0, 1.0],), row))

    @pytest.mark.parametrize("levels", [[1.0, 0.0], [0.0, 0.0], [0.0, np.nan]])
    def test_product_levels_strictly_increasing(self, levels):
        with pytest.raises(ConfigurationError, match="product levels"):
            ProductStructure((levels,))

    def test_product_basis_must_fit_the_space(self):
        grid = Grid.uniform(3)
        rows = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]])  # not orthogonal
        pts = np.array([[a * rows[0] + b * rows[1] for b in (0.0, 1.0)]
                        for a in (0.0, 1.0)]).reshape(4, 3, 1)
        for basis in (rows, rows[:1]):
            with pytest.raises(ConfigurationError, match="orthonormal"):
                Codebook(pts, 2.0, NormKind.L2, "u", grid=grid,
                         product=ProductStructure(([0.0, 1.0], [0.0, 1.0]), basis))
        with pytest.raises(ConfigurationError, match="identity on vectors"):
            Codebook(pts, 2.0, NormKind.L2, "u", grid=grid,
                     product=ProductStructure(([0.0, 1.0], [0.0, 1.0])))
        with pytest.raises(ConfigurationError, match="identity on vectors"):
            Codebook(np.array([[0.0], [1.0]]), 2.0, NormKind.EUCLIDEAN, "u",
                     product=ProductStructure(([0.0, 1.0],), np.ones((1, 1))))


class TestNearest:
    def test_basic(self):
        _, idx = min_dist_batch(np.array([[0.3], [0.8]]), two_point_uniform())
        assert idx.tolist() == [0, 1]

    def test_tie_breaks_low(self):
        _, idx = min_dist_batch(np.array([[0.5]]), two_point_uniform())
        assert idx[0] == 0

    def test_exact_hit(self):
        d, idx = min_dist_batch(np.array([[0.75]]), two_point_uniform())
        assert idx[0] == 1
        assert d[0] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        points = rng.standard_normal((17, 3))
        cb = Codebook(points, 2.0, NormKind.EUCLIDEAN, "std_normal:3")
        xs = rng.standard_normal((50, 3))
        d, idx = min_dist_batch(xs, cb)
        for row in range(50):
            bi, bd = brute_nearest(points, xs[row])
            assert idx[row] == bi
            assert d[row] == pytest.approx(bd, rel=1e-12)

    def test_path_norms_agree_with_direct(self, grid):
        pool = sample_batch(BrownianKL(10, grid), SeedSpec(3), 8)
        cb_pts = sample_batch(BrownianKL(10, grid), SeedSpec(4), 5)
        for kind in (NormKind.SUP, NormKind.L1, NormKind.L2):
            cb = Codebook(cb_pts, 2.0, kind, "brownian_kl:10", grid=grid)
            d, idx = min_dist_batch(pool, cb)
            for row in range(8):
                direct = min(
                    batch_norm(pool[row] - cb_pts[j], kind, grid) for j in range(5)
                )
                assert d[row] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("kind", [NormKind.SUP, NormKind.L1, NormKind.L2])
    def test_direct_path_ignores_the_block_size(self, kind, monkeypatch):
        # Per-pair distances and lowest-index ties must not depend on how
        # the pairs are chunked.  Values on a 0.5 lattice tie often, but
        # their sums are exact; Brownian paths on 257 points round.
        from quantquad.adversary import _all_point_distances

        rng = np.random.default_rng(6)
        grid = Grid.uniform(5)
        cb = Codebook(np.arange(12.0)[:, None, None] * 0.5 + np.zeros((1, 5, 1)),
                      2.0, kind, "lattice", grid=grid)
        values = np.round(2.0 * rng.standard_normal((300, 5, 1))) / 2.0 + 2.75
        fine = Grid.uniform(257)
        paths = sample_batch(BrownianKL(50, fine), SeedSpec(5), 340)
        brownian = Codebook(paths[:40], 2.0, kind, "brownian_kl:50", grid=fine)
        cases = [(values, cb), (paths[40:], brownian)]
        whole = [(min_dist_batch(x, c), _all_point_distances(x, c)) for x, c in cases]
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8)
        for (x, c), (nearest_whole, all_whole) in zip(cases, whole):
            for got, want in zip(min_dist_batch(x, c), nearest_whole):
                np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(_all_point_distances(x, c), all_whole)
        d = np.abs(values[:, :, 0, None] - cb.points[None, :, 0, 0]).max(axis=1)
        assert np.any(np.sum(d == d.min(axis=1, keepdims=True), axis=1) > 1)

    def test_empty_batch(self, grid):
        paths = sample_batch(BrownianKL(20, grid), SeedSpec(1), 3)
        for cb in (uniform_midpoint_codebook(2, 3), product_quantizer_bm(4, 20, grid),
                   Codebook(paths, 2.0, NormKind.L2, "b", grid=grid),
                   Codebook(paths, 2.0, NormKind.SUP, "b", grid=grid)):
            d, idx = min_dist_batch(np.zeros((0,) + cb.points.shape[1:]), cb)
            assert d.shape == idx.shape == (0,)

    def test_samples_must_fit_the_points(self, grid):
        cb = product_quantizer_bm(4, 20, Grid.uniform(33))
        paths = sample_batch(BrownianKL(20, grid), SeedSpec(1), 3)
        for codebook in (cb, dataclasses.replace(cb, product=None)):
            with pytest.raises(ConfigurationError, match="do not fit"):
                min_dist_batch(paths, codebook)
        with pytest.raises(ConfigurationError, match="do not fit"):
            min_dist_batch(np.zeros((3, 2)), uniform_midpoint_codebook(1, 4))


def _point_search(codebook, values):
    """The same points searched one by one, without their product structure."""
    plain = dataclasses.replace(codebook, product=None)
    assert plain.product is None and codebook.product is not None
    return min_dist_batch(values, plain)


class TestProductSearch:
    @pytest.mark.parametrize("d, per_axis", [(1, 64), (2, 16), (3, 8)])
    def test_cube_grid_matches_point_search(self, d, per_axis):
        cb = uniform_midpoint_codebook(d, per_axis)
        values = sample_batch(UniformCube(d), SeedSpec(30 + d), 2000)
        got = min_dist_batch(values, cb)
        want = _point_search(cb, values)
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[0], want[0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cube_ties_go_to_the_lowest_index(self, d):
        # Every combination of cell boundaries k/4 and midpoints (2k+1)/8,
        # all exact binary fractions, so boundary samples tie exactly.
        per_axis = 4
        cb = uniform_midpoint_codebook(d, per_axis)
        coords = np.unique(np.r_[np.arange(5) / 4.0, (2 * np.arange(4) + 1) / 8.0])
        values = np.array(list(itertools.product(coords, repeat=d)))
        got = min_dist_batch(values, cb)
        want = _point_search(cb, values)
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[0], want[0])
        for row, x in enumerate(values):
            assert got[1][row] == brute_nearest(cb.points, x)[0]
        on_boundary = np.any((values * per_axis) % 1 == 0, axis=1)
        assert np.any(on_boundary & (values > 0).all(axis=1) & (values < 1).all(axis=1))

    @pytest.mark.parametrize("n", [2, 16, 2**10])
    def test_brownian_matches_point_search(self, n, grid):
        cb = product_quantizer_bm(n, 200, grid)
        values = sample_batch(BrownianKL(200, grid), SeedSpec(40), 2000)
        got = min_dist_batch(values, cb)
        want = _point_search(cb, values)
        np.testing.assert_array_equal(got[1], want[1])
        np.testing.assert_array_equal(got[0], want[0])

    @pytest.mark.parametrize("make", [
        lambda grid: product_quantizer_bm(16, 200, grid),
        lambda grid: uniform_midpoint_codebook(2, 8),
    ], ids=["brownian", "cube"])
    def test_saved_codebook_drops_the_structure(self, make, grid, tmp_path):
        cb = make(grid)
        path = str(tmp_path / "cb.csv")
        save_codebook(cb, path)
        loaded = load_codebook(path)
        assert loaded.product is None
        measure = UniformCube(2) if cb.grid is None else BrownianKL(200, grid)
        values = sample_batch(measure, SeedSpec(41), 500)
        np.testing.assert_array_equal(
            min_dist_batch(values, loaded)[1], min_dist_batch(values, cb)[1]
        )

    def test_structure_only_on_orthonormal_rows(self):
        assert product_quantizer_bm(16, 20, Grid.uniform(33)).product is not None
        warped = Grid(np.linspace(0.0, 1.0, 65) ** 2)
        cb = product_quantizer_bm(16, 20, warped)
        assert cb.product is None
        assert cb.n == 16


# Difference entries (samples x points x flat) above which the search once
# switched from exact differences to the Gram identity.
_OLD_SWITCH = 2**24


def _brute_search(values, codebook):
    """Per-pair batch_norm of every exact difference; first minimum wins."""
    from quantquad.adversary import _all_point_distances

    d = _all_point_distances(values, codebook)
    idx = np.argmin(d, axis=1)
    return d[np.arange(d.shape[0]), idx], idx, d


def _lattice_cases(large):
    # Quarter-lattice samples around half-lattice points, all shifted into
    # [512, 1024): every value and difference is exact, so distances to two
    # points tie exactly and often, while the scores |c|^2 - 2<x, c> of a
    # Gram search round.
    rng = np.random.default_rng(17)
    shift = 700.1
    axis = np.arange(8) * 0.5 + shift
    square = Codebook(np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2),
                      2.0, NormKind.EUCLIDEAN, "lattice")
    grid = Grid.uniform(5)
    levels = Codebook(np.arange(12.0)[:, None, None] * 0.5 + np.zeros((1, 5, 1)) + shift,
                      2.0, NormKind.L2, "lattice", grid=grid)
    cases = []
    for cb in (square, levels):
        flat = math.prod(cb.points.shape[1:])
        b = _OLD_SWITCH // (cb.n * flat) + 1000 if large else 1000
        values = np.round(4.0 * rng.standard_normal((b,) + cb.points.shape[1:])) / 4.0
        cases.append((values + 1.75 + shift, cb))
    return cases


class TestGramSearch:
    def test_self_distance_is_exactly_zero(self, grid):
        paths = sample_batch(BrownianKL(200, grid), SeedSpec(50), 300)
        cb = Codebook(paths, 2.0, NormKind.L2, "brownian_kl:200", grid=grid)
        d, idx = min_dist_batch(paths, cb)
        np.testing.assert_array_equal(idx, np.arange(300))
        np.testing.assert_array_equal(d, np.zeros(300))

    def test_voronoi_quadrature_of_the_distance_vanishes(self, grid):
        from quantquad.quadrature import voronoi_quadrature

        paths = sample_batch(BrownianKL(200, grid), SeedSpec(50), 300)
        weights = np.full(300, 1.0 / 300)
        weights[0] += 1.0 - weights.sum()
        cb = Codebook(paths, 2.0, NormKind.L2, "brownian_kl:200", grid=grid,
                      weights=weights)
        assert voronoi_quadrature(cb, dist_to_codebook_functional(cb)).estimate == 0.0

    @pytest.mark.parametrize("large", [False, True], ids=["small", "above-old-switch"])
    def test_lattice_ties_match_brute_force(self, large):
        for values, cb in _lattice_cases(large):
            assert (values.shape[0] * cb.n * math.prod(values.shape[1:])
                    > _OLD_SWITCH) == large
            want_d, want_idx, all_d = _brute_search(values, cb)
            got_d, got_idx = min_dist_batch(values, cb)
            np.testing.assert_array_equal(got_idx, want_idx)
            np.testing.assert_array_equal(got_d, want_d)
            ties = np.sum(all_d == want_d[:, None], axis=1) > 1
            assert ties.sum() > values.shape[0] // 50

    def test_near_ties_match_brute_force(self):
        # Samples on and near segments between points, far from the origin
        # and at small spreads, where Gram scores round most; vectors and
        # paths with m = 1..3 on uniform and warped grids.
        rng = np.random.default_rng(19)
        for trial in range(60):
            offset, spread = 10.0 ** rng.uniform(-3, 6), 10.0 ** rng.uniform(-6, 1)
            grid = None
            shape = (int(rng.integers(1, 20)),)
            if trial % 3:
                shape = (int(rng.integers(2, 9)), int(rng.integers(1, 4)))
                inner = np.sort(rng.uniform(0.0, 1.0, shape[0] - 2))
                grid = Grid(np.r_[0.0, inner, 1.0]) if trial % 3 == 2 else Grid.uniform(shape[0])
            pts = rng.standard_normal((30,) + shape)
            if trial % 2:
                pts = np.round(2.0 * pts) / 2.0
            pts = np.unique(offset + spread * pts.reshape(30, -1), axis=0)
            pts = pts.reshape((-1,) + shape)
            i, j = rng.integers(pts.shape[0], size=(2, 400))
            lam = rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform()],
                             size=(400,) + (1,) * len(shape))
            values = pts[i] * lam + pts[j] * (1.0 - lam)
            values += rng.choice([0.0, 1e-16, 1e-12], size=values.shape) * offset
            norm = NormKind.EUCLIDEAN if grid is None else NormKind.L2
            cb = Codebook(pts, 2.0, norm, "near", grid=grid)
            want_d, want_idx, _ = _brute_search(values, cb)
            got_d, got_idx = min_dist_batch(values, cb)
            np.testing.assert_array_equal(got_idx, want_idx)
            np.testing.assert_array_equal(got_d, want_d)

    def test_tile_layout_does_not_matter(self, grid, monkeypatch):
        rng = np.random.default_rng(18)
        paths = sample_batch(BrownianKL(200, grid), SeedSpec(51), 2040)
        cases = [
            (paths[40:], Codebook(paths[:40], 2.0, NormKind.L2, "brownian_kl:200",
                                  grid=grid)),
            (rng.standard_normal((5000, 2)),
             Codebook(rng.standard_normal((64, 2)), 2.0, NormKind.EUCLIDEAN, "n:2")),
            *_lattice_cases(False),
        ]
        whole = [min_dist_batch(x, cb) for x, cb in cases]
        for (x, cb), want in zip(cases, whole):
            cuts = np.sort(rng.choice(np.arange(1, x.shape[0]), 7, replace=False))
            parts = [min_dist_batch(part, cb) for part in np.split(x, cuts)]
            for got, exp in zip(map(np.concatenate, zip(*parts)), want):
                np.testing.assert_array_equal(got, exp)
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 4096)
        for (x, cb), want in zip(cases, whole):
            for got, exp in zip(min_dist_batch(x, cb), want):
                np.testing.assert_array_equal(got, exp)


class TestNonFiniteDistances:
    # Every search raises NumericError at the first row whose distance is
    # not finite: a NaN or infinite sample, or an overflowing difference.
    def _raises_at(self, values, cb, row):
        with pytest.raises(NumericError, match="not finite") as info:
            min_dist_batch(values, cb)
        assert info.value.sample == row

    def test_product_search(self, grid):
        cb = uniform_midpoint_codebook(2, 4)
        values = sample_batch(UniformCube(2), SeedSpec(60), 50)
        values[7, 1] = np.nan
        values[9, 0] = np.inf
        self._raises_at(values, cb, 7)
        paths = sample_batch(BrownianKL(200, grid), SeedSpec(61), 20)
        paths[3, 100, 0] = np.nan
        self._raises_at(paths, product_quantizer_bm(16, 200, grid), 3)

    def test_gram_search(self, grid):
        rng = np.random.default_rng(62)
        cb = Codebook(rng.standard_normal((9, 3)), 2.0, NormKind.EUCLIDEAN, "n:3")
        for bad in (np.nan, np.inf, -np.inf, 1e300):
            values = rng.standard_normal((40, 3))
            values[11, 2] = bad
            self._raises_at(values, cb, 11)
        far = Codebook(np.array([[-1e300], [1e300]]), 2.0, NormKind.EUCLIDEAN, "u")
        self._raises_at(np.array([[0.5], [0.25]]), far, 0)
        paths = sample_batch(BrownianKL(200, grid), SeedSpec(63), 30)
        paths[21, 0, 0] = np.nan
        self._raises_at(paths, Codebook(paths[:5], 2.0, NormKind.L2, "b", grid=grid), 21)

    def test_direct_search(self, grid):
        paths = sample_batch(BrownianKL(200, grid), SeedSpec(64), 30)
        cb = Codebook(paths[:5], 2.0, NormKind.SUP, "brownian_kl:200", grid=grid)
        paths[17, 5, 0] = np.nan
        self._raises_at(paths, cb, 17)
        paths[17, 5, 0] = 0.0
        paths[23, 8, 0] = -np.inf
        self._raises_at(paths, dataclasses.replace(cb, norm=NormKind.L1), 23)


class TestDistortion:
    # Oracle: E min_i |X - c_i| over U(0,1) with cells around 0.25 and 0.75
    # is 2 * (2 * (1/8)^2 / 2) = 1/8; the r=2 version integrates to 1/48.
    def test_uniform_two_point_r1(self):
        oracle = dense_integral(
            lambda x: np.minimum(np.abs(x - 0.25), np.abs(x - 0.75))
        )
        assert oracle == pytest.approx(0.125, abs=1e-9)
        est = distortion(two_point_uniform(), UniformCube(1), 1, 10**5, SeedSpec(5))
        assert abs(est.value - 0.125) <= 3.0 * est.stderr

    def test_uniform_two_point_r2(self):
        oracle = dense_integral(
            lambda x: np.minimum(np.abs(x - 0.25), np.abs(x - 0.75)) ** 2
        )
        target = math.sqrt(oracle)
        assert target == pytest.approx(1.0 / (4.0 * math.sqrt(3.0)), abs=1e-9)
        est = distortion(two_point_uniform(2.0), UniformCube(1), 2, 10**5, SeedSpec(5))
        assert abs(est.value - target) <= 3.0 * est.stderr

    def test_normal_origin_r1(self):
        # E |Z| = sqrt(2/pi)
        oracle = normal_expectation(np.abs)
        assert oracle == pytest.approx(SQRT_2_OVER_PI, abs=1e-9)
        cb = Codebook(np.array([[0.0]]), 1.0, NormKind.EUCLIDEAN, "std_normal:1")
        est = distortion(cb, StdNormal(1), 1, 10**5, SeedSpec(6))
        assert abs(est.value - SQRT_2_OVER_PI) <= 3.0 * est.stderr

    def test_stderr_survives_a_distant_point(self):
        # d = 1e8 - U: the stderr of the mean distance is the stderr of U
        seed = SeedSpec(10)
        M = 2 * 10**5
        cb = Codebook(np.array([[1e8]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1")
        est = distortion(cb, UniformCube(1), 1, M, seed)
        draws = np.concatenate([
            sample_batch(UniformCube(1), seed.child(i), b)[:, 0]
            for i, b in enumerate((65536, 65536, 65536, M - 3 * 65536))
        ])
        oracle = draws.std(ddof=1) / math.sqrt(M)
        assert oracle == pytest.approx(math.sqrt(1.0 / 12.0 / M), rel=0.01)
        assert est.stderr == pytest.approx(oracle, rel=0.01)

    def test_stderr_scales_inverse_sqrt(self):
        cb = two_point_uniform()
        a = distortion(cb, UniformCube(1), 1, 10**4, SeedSpec(7))
        b = distortion(cb, UniformCube(1), 1, 4 * 10**4, SeedSpec(7))
        assert 1.6 <= a.stderr / b.stderr <= 2.4  # factor 2 within noise

    def test_extra_point_never_hurts(self):
        seed = SeedSpec(8)
        base = Codebook(
            np.array([[0.1], [0.6]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1"
        )
        bigger = Codebook(
            np.array([[0.1], [0.6], [0.9]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1"
        )
        qa = distortion(base, UniformCube(1), 1, 10**4, seed)
        qb = distortion(bigger, UniformCube(1), 1, 10**4, seed)
        # same pool: pointwise min over a superset cannot be larger
        assert qb.value <= qa.value + 1e-15

    def test_order_monotonicity(self):
        seed = SeedSpec(9)
        cb = two_point_uniform()
        q1 = distortion(cb, UniformCube(1), 1, 10**4, seed)
        q2 = distortion(cb, UniformCube(1), 2, 10**4, seed)
        assert q1.value <= q2.value + 1e-15  # power-mean inequality, same pool


class TestVoronoiWeights:
    def test_symmetric_split(self):
        cb = two_point_uniform()
        w = voronoi_weights(cb, UniformCube(1), 10**5, SeedSpec(10))
        se = math.sqrt(0.25 / 10**5)
        assert abs(w[0] - 0.5) <= 3.0 * se
        assert w.sum() == 1.0
        assert cb.weights is not None

    def test_asymmetric_cells(self):
        cb = Codebook(
            np.array([[0.0], [0.5]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1"
        )
        w = voronoi_weights(cb, UniformCube(1), 10**5, SeedSpec(11))
        se = math.sqrt(0.25 * 0.75 / 10**5)
        assert abs(w[0] - 0.25) <= 3.0 * se
        assert abs(w[1] - 0.75) <= 3.0 * se

    def test_single_point(self):
        cb = Codebook(np.array([[0.3]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1")
        w = voronoi_weights(cb, UniformCube(1), 1000, SeedSpec(12))
        assert w[0] == 1.0

    def test_empty_cell_flagged(self):
        cb = Codebook(
            np.array([[0.5], [50.0]]), 1.0, NormKind.EUCLIDEAN, "uniform_cube:1"
        )
        with pytest.warns(UserWarning, match="empty cell"):
            w = voronoi_weights(cb, UniformCube(1), 1000, SeedSpec(13))
        assert w[1] == 0.0
        assert w.sum() == 1.0


class TestReplay:
    # distortion and voronoi_weights hold a one-block stream, read-only, and
    # replay it for the next search on the same (measure, seed, M, block
    # rows); any draw drops it first.

    @staticmethod
    def _count_draws(monkeypatch):
        calls = []

        def counted(measure, seed, n):
            calls.append(n)
            return sample_batch(measure, seed, n)

        monkeypatch.setattr(measures, "sample_batch", counted)
        return calls

    def test_ladder_draws_once_and_matches_cold_calls(self, monkeypatch):
        grid = Grid.uniform(33)
        measure, seed, M = BrownianKL(20, grid), SeedSpec(70), 3000
        codebooks = [product_quantizer_bm(2**j, 20, grid) for j in range(1, 6)]

        def ladder(cold):
            out = []
            for cb in codebooks:
                if cold:
                    measures._held = None
                est = distortion(cb, measure, 2.0, M, seed)
                out += [est.value, est.stderr]
            if cold:
                measures._held = None
            return out + list(voronoi_weights(codebooks[-1], measure, M, seed))

        calls = self._count_draws(monkeypatch)
        cold = ladder(cold=True)
        assert calls == [M] * 6
        calls.clear()
        measures._held = None
        warm = ladder(cold=False)
        assert calls == [M]
        np.testing.assert_array_equal(warm, cold)

    def test_another_key_draws_afresh(self, monkeypatch):
        grid = Grid.uniform(17)
        kl, seed, M = BrownianKL(8, grid), SeedSpec(71), 500
        cube_cb, kl_cb = uniform_midpoint_codebook(2, 3), product_quantizer_bm(4, 8, grid)
        calls = self._count_draws(monkeypatch)

        def draws(*call):
            calls.clear()
            value = distortion(*call).value
            return len(calls), value

        assert draws(kl_cb, kl, 2.0, M, seed)[0] == 1
        assert draws(kl_cb, kl, 1.0, M, seed)[0] == 0  # same key, other order r
        assert draws(kl_cb, kl, 2.0, M, SeedSpec(72))[0] == 1  # seed
        assert draws(kl_cb, kl, 2.0, M + 1, SeedSpec(72))[0] == 1  # M
        # Vector measures compare by value: kl_cb's search reads the normals
        # StdNormal(8), which an equal but distinct BrownianKL shares.
        assert draws(kl_cb, BrownianKL(8, grid), 2.0, M + 1, SeedSpec(72))[0] == 0
        assert draws(cube_cb, UniformCube(2), 2.0, M, seed)[0] == 1
        assert draws(cube_cb, UniformCube(2), 2.0, M, seed)[0] == 0
        # Block rows: a smaller block that still holds M draws.
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8 * 2 * 4 * M)
        n, value = draws(cube_cb, UniformCube(2), 2.0, M, seed)
        assert n == 1
        assert value == distortion(cube_cb, UniformCube(2), 2.0, M, seed).value
        # A stream over more than one block is never held.
        monkeypatch.setattr(measures, "_BLOCK_BYTES", 8)
        distortion(cube_cb, UniformCube(2), 2.0, M, seed)
        assert measures._held is None

    def test_path_measures_compare_by_identity(self, monkeypatch):
        # On paths, an equal but distinct BrownianKL draws afresh.
        grid = Grid.uniform(17)
        kl, seed, M = BrownianKL(8, grid), SeedSpec(71), 500
        cb = product_quantizer_bm(4, 8, grid)
        _path_route(monkeypatch)
        calls = self._count_draws(monkeypatch)
        distortion(cb, kl, 2.0, M, seed)
        distortion(cb, kl, 1.0, M, seed)
        assert calls == [M]
        distortion(cb, BrownianKL(8, grid), 2.0, M, seed)
        assert calls == [M, M]

    def test_held_block_is_read_only_and_dropped_by_any_draw(self):
        cb, cube, seed = uniform_midpoint_codebook(2, 3), UniformCube(2), SeedSpec(73)
        distortion(cb, cube, 2.0, 400, seed)
        held = measures._held[1]
        assert held.shape == (400, 2)
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = 0.5
        sample_batch(cube, seed, 3)
        assert measures._held is None

    def test_held_block_never_meets_another_draw(self):
        # Three seeds peak no higher than one: each call drops the last
        # call's block before it draws its own.
        grid = Grid.uniform()
        measure, M = BrownianKL(200, grid), 4000
        cb = product_quantizer_bm(8, 200, grid)
        distortion(cb, measure, 2.0, M, SeedSpec(80))  # fills the caches

        def peak(seeds):
            measures._held = None
            return traced_peak(
                lambda: [distortion(cb, measure, 2.0, M, SeedSpec(s)) for s in seeds]
            )

        one = peak([81])
        assert one >= 8 * M * measure.k_terms  # the traced peak holds a block of normals
        assert peak([81, 82, 83]) <= one + 64 * 1024

    def test_width_after_distortion_meets_its_block_bound(self):
        # width_estimate's three path blocks do not meet a held one.
        from quantquad.experiments import width_estimate
        from quantquad.paths import make_kl_subspace

        grid = Grid.uniform()
        measure, seed, M = BrownianKL(200, grid), SeedSpec(4), 20_000
        sub = make_kl_subspace(4, grid)

        def run():
            distortion(product_quantizer_bm(8, 200, grid), measure, 2.0, M, seed)
            assert measures._held is not None
            tracemalloc.reset_peak()
            width_estimate(measure, sub, 2.0, M, seed)

        peak = traced_peak(run)
        assert peak <= 3.2 * (8 * M * grid.size)


def _path_route(monkeypatch):
    # Forces the nearest search onto paths, as before the coefficient route.
    monkeypatch.setattr(quantize, "_coefficient_route", lambda *args: False)


class TestCoefficientRoute:
    # A product codebook on a BrownianKL measure's first expansion rows,
    # orthonormal on its grid, is searched in the draws' expansion
    # coefficients: the same winners as the search on paths, and distances
    # equal to within the rows' orthonormality.

    def _estimates(self, codebooks, measure, M, seed):
        out, weights = [], []
        for cb in codebooks:
            measures._held = None
            est = distortion(cb, measure, 2.0, M, seed)
            out += [est.value, est.stderr]
            weights.append(voronoi_weights(cb, measure, M, seed))
        return np.array(out), weights

    def test_agrees_with_the_path_search(self, monkeypatch):
        grid = Grid.uniform()
        measure, seed, M = BrownianKL(200, grid), SeedSpec(7), 20_000
        codebooks = [product_quantizer_bm(2**j, 200, grid) for j in range(1, 7)]
        values, weights = self._estimates(codebooks, measure, M, seed)
        key, held = measures._held
        assert key[0] == StdNormal(200) and held.shape == (M, 200)  # the stream's normals
        _path_route(monkeypatch)
        paths, path_weights = self._estimates(codebooks, measure, M, seed)
        assert measures._held[1].shape == (M, grid.size, 1)
        np.testing.assert_allclose(values, paths, rtol=1e-12, atol=0)
        for w, want in zip(weights, path_weights):
            np.testing.assert_array_equal(w, want)  # the same counts

    @pytest.mark.parametrize("case", ["129-points", "non-uniform", "loaded"])
    def test_not_taken_where_the_rows_do_not_read_coefficients(self, case, tmp_path, monkeypatch):
        # 200 rows on 129 points are not orthonormal; nor are they on a
        # non-uniform grid; a loaded codebook has no product structure.
        # Each gives the path search's result bit for bit.
        grid = {"129-points": Grid.uniform(129), "non-uniform": Grid(np.linspace(0, 1, 257) ** 2),
                "loaded": Grid.uniform()}[case]
        measure, seed, M = BrownianKL(200, grid), SeedSpec(8), 2000
        cb = product_quantizer_bm(8, 200, grid)
        if case == "loaded":
            save_codebook(cb, str(tmp_path / "cb.csv"))
            cb = load_codebook(str(tmp_path / "cb.csv"))
        basis = None if cb.product is None else cb.product.basis
        assert not measures._coefficient_route(measure, NormKind.L2, grid, basis, kl_basis_on_grid)
        values, weights = self._estimates([cb], measure, M, seed)
        assert measures._held[0][0] is measure  # the paths, not the normals, are held
        _path_route(monkeypatch)
        paths, path_weights = self._estimates([cb], measure, M, seed)
        np.testing.assert_array_equal(values, paths)
        np.testing.assert_array_equal(weights[0], path_weights[0])

    def test_200_terms_on_129_points_keep_a_product_but_read_paths(self):
        # The codebook's 3 active rows are orthonormal on 129 points; the
        # measure's 200 are not (an off-diagonal Gram entry of 1.0).
        grid = Grid.uniform(129)
        cb = product_quantizer_bm(8, 200, grid)
        assert cb.product is not None
        route = functools.partial(measures._coefficient_route, norm=NormKind.L2, grid=grid,
                                  basis=cb.product.basis, rows=kl_basis_on_grid)
        assert not route(BrownianKL(200, grid))
        assert route(BrownianKL(20, grid))


class TestOrder:
    @pytest.mark.parametrize("r", [0.0, math.inf, math.nan])
    def test_order_must_be_positive_and_finite(self, r):
        # r = inf gave a distortion of exactly 1.0.
        cb = uniform_midpoint_codebook(1, 2)
        with pytest.raises(ConfigurationError, match="positive and finite"):
            distortion(cb, UniformCube(1), r, 1000, SeedSpec(5))
        with pytest.raises(ConfigurationError, match="positive and finite"):
            Codebook(cb.points, r, NormKind.EUCLIDEAN, "uniform_cube:1")


class TestLloyd:
    def test_uniform_midpoints(self):
        opts = LloydOptions(pool_size=4 * 10**6, restarts=2)
        cb = lloyd(UniformCube(1), 2, 1, opts, SeedSpec(14))
        assert np.abs(cb.points.ravel() - np.array([0.25, 0.75])).max() <= 1e-3

    def test_normal_single_point_is_mean(self):
        opts = LloydOptions(pool_size=4 * 10**6, restarts=1)
        cb = lloyd(StdNormal(1), 1, 2, opts, SeedSpec(15))
        assert abs(cb.points[0, 0]) <= 1e-3

    def test_normal_two_points(self):
        opts = LloydOptions(pool_size=10**6, restarts=2)
        cb = lloyd(StdNormal(1), 2, 2, opts, SeedSpec(16))
        target = np.array([-SQRT_2_OVER_PI, SQRT_2_OVER_PI])
        assert np.abs(cb.points.ravel() - target).max() <= 5e-3

    def test_history_non_increasing(self):
        for measure, r in (
            (UniformCube(2), 2),
            (UniformCube(2), 1),
            (StdNormal(1), 1),
            (BrownianKL(10), 2),
        ):
            opts = LloydOptions(pool_size=2000, restarts=2, iters=50)
            cb = lloyd(measure, 4, r, opts, SeedSpec(17))
            hist = cb.fit_history
            assert len(hist) >= 1
            assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        opts = LloydOptions(pool_size=5000, restarts=2)
        a = lloyd(UniformCube(2), 3, 2, opts, SeedSpec(18))
        b = lloyd(UniformCube(2), 3, 2, opts, SeedSpec(18))
        assert np.array_equal(a.points, b.points)

    def test_unsupported_order(self):
        with pytest.raises(ConfigurationError):
            lloyd(UniformCube(1), 2, 3, seed=SeedSpec(0))


def _run_both(pool_sorted, init, r, iters=50):
    # The d=1 fast path and the general path on one hand-built sorted pool.
    opts = LloydOptions(iters=iters, restarts=1)
    flat = np.asarray(pool_sorted, dtype=float)
    fast = quantize._lloyd_run_1d(
        flat, quantize._block_sums(flat), np.asarray(init, dtype=float), opts, r
    )
    codebook = functools.partial(
        Codebook, order_r=float(r), norm=NormKind.EUCLIDEAN, measure_tag="hand"
    )
    general = quantize._lloyd_run_general(
        flat[:, None], codebook, np.asarray(init, dtype=float)[:, None], opts, r
    )
    return fast, general


class TestLloydFastPath:
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize(
        "pool, init",
        [
            # Cell 2 is empty at iteration 0, so the farthest sample reseeds it.
            ([0.0, 0.1, 0.2, 10.0], [0.05, 0.06, 0.07, 10.0]),
            ([-3.0, -1.0, -0.5, 0.0, 0.25, 2.0, 2.5, 7.0], [-3.0, 0.0, 7.0]),
            ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.0, 1.0]),
            (
                np.sort(np.random.default_rng(4).standard_normal(700)),
                [-1.0, -0.2, 0.1, 0.3, 1.5],
            ),
            (
                np.sort(np.random.default_rng(5).random(1000) * 10.0 + 3.0),
                [3.5, 4.0, 12.0],
            ),
        ],
    )
    def test_matches_general_path(self, pool, init, r):
        fast, general = _run_both(pool, init, r)
        fast_pts, fast_hist, fast_stop, fast_reseeds = fast
        gen_pts, gen_hist, gen_stop, gen_reseeds = general
        assert np.abs(fast_pts[:, 0] - np.sort(gen_pts[:, 0])).max() <= 1e-12
        assert len(fast_hist) == len(gen_hist)
        # The fast r=2 centroid is a difference of prefix sums, so a
        # one-sample cell's center can sit an ulp off its sample: where the
        # general path scores exactly 0 the fast path may score ~1e-33.
        assert fast_hist == pytest.approx(gen_hist, rel=1e-12, abs=1e-30)
        assert (fast_stop, fast_reseeds) == (gen_stop, gen_reseeds)

    @pytest.mark.parametrize("r", [1, 2])
    def test_empty_cell_reseeded_at_farthest_sample(self, r):
        (pts, hist, _, reseeds), _ = _run_both(
            [0.0, 0.1, 0.2, 10.0], [0.05, 0.06, 0.07, 10.0], r
        )
        assert reseeds == 1
        assert np.abs(pts[:, 0] - [0.0, 0.1, 0.2, 10.0]).max() <= 1e-15
        assert hist[-1] <= 1e-30

    @pytest.mark.parametrize(
        "measure, n, r, pool_size",
        [(UniformCube(1), 256, 2, 10**6), (StdNormal(1), 64, 1, 200_000)],
    )
    def test_history_is_direct_pool_distortion(self, measure, n, r, pool_size):
        # The last history entry against an exact sum over the same pool;
        # a prefix of x^2 over the whole pool misses this by ~1e-8.
        seed = SeedSpec(19)
        opts = LloydOptions(pool_size=pool_size, restarts=1, iters=40)
        cb = lloyd(measure, n, r, opts, seed)
        x = sample_batch(measure, seed.child(0), pool_size)[:, 0]
        c = cb.points[:, 0]
        above = np.clip(np.searchsorted(c, x), 1, n - 1)
        d = np.minimum(np.abs(x - c[above - 1]), np.abs(x - c[above]))
        direct = math.fsum(d**r) / pool_size
        assert abs(cb.fit_history[-1] - direct) <= 1e-12 * direct


    @pytest.mark.parametrize("size", [1000, 10**5])
    def test_centroid_of_a_distant_pool(self, size):
        # One r=2 update on a pool far from 0, against exact cell means.
        flat = np.sort(1e6 + 1e3 * np.random.default_rng(5).random(size))
        init = np.quantile(flat, [0.1, 0.5, 0.9])
        pts = _run_both(flat, init, 2, iters=1)[0][0][:, 0]
        cuts = np.searchsorted(flat, (init[1:] + init[:-1]) / 2.0, side="right")
        exact = [math.fsum(cell) / cell.size for cell in np.split(flat, cuts)]
        assert np.all(np.abs(pts - exact) <= 4 * np.spacing(exact))


class TestBlockSums:
    # The d=1 fast path keeps each block's running sums at every
    # _CHECKPOINT-th sample and resumes the rest from there.
    @pytest.mark.parametrize("size", [1, 255, 256, 257, 513, 10**4 + 3])
    def test_every_prefix_matches_the_full_arrays(self, size):
        flat = np.sort(1e3 + np.random.default_rng(size).standard_normal(size))
        sums, full = quantize._block_sums(flat), FullBlockSums(flat)
        at = np.arange(size)
        assert np.array_equal(sums.pivots, full.pivots)
        for r in (1, 2):
            assert np.array_equal(sums.prefix(at, r), full.prefix(at, r))
            assert np.array_equal(sums.totals(r), full.totals(r))

    @pytest.mark.parametrize("r", [1, 2])
    def test_run_is_the_same_on_the_full_arrays(self, r):
        # Near-duplicate starting points leave a cell empty, so the run
        # reseeds as well.
        rng = np.random.default_rng(6)
        flat = np.sort(rng.standard_normal(10**4 + 3))
        init = np.concatenate([rng.choice(flat, 37, replace=False), 0.1 + 1e-13 * np.arange(3)])
        opts = LloydOptions(iters=40, restarts=1)
        fast = quantize._lloyd_run_1d(flat, quantize._block_sums(flat), init, opts, r)
        full = quantize._lloyd_run_1d(flat, FullBlockSums(flat), init, opts, r)
        assert np.array_equal(fast[0], full[0])
        assert fast[1:] == full[1:]
        assert fast[3] >= 1

    @pytest.mark.parametrize("r", [1, 2])
    def test_fit_holds_little_besides_its_pool(self, r):
        # The pool plus its checkpointed sums (17/128 of it) and tile-sized
        # temporaries; keeping every sample's sums held three pools.
        opts = LloydOptions(pool_size=10**6, restarts=2)
        peak = traced_peak(lambda: lloyd(UniformCube(1), 2, r, opts, SeedSpec(14)))
        assert peak <= 1.8 * 8 * 10**6


class TestReseed:
    @pytest.mark.parametrize("e", [1, 3, 7, 8, 50])
    def test_tiles_pick_as_one_stable_sort(self, monkeypatch, e):
        # Many ties, and tiles of 7 samples: each keeps its own first e.
        monkeypatch.setattr(quantize, "_POOL_TILE", 7)
        d = np.random.default_rng(8).integers(0, 5, 50).astype(float)
        got = quantize._farthest(d.size, e, lambda lo, hi: d[lo:hi])
        assert np.array_equal(got, np.argsort(-d, kind="stable")[:e])

    @pytest.mark.parametrize(
        "r, points",
        [
            (1, [0.13676089683148496, 0.3866834962544673, 0.6010989240423324,
                 0.7918085048960779, 0.9408047263500813]),
            (2, [0.13712384489167517, 0.3869952446372608, 0.6015015916480004,
                 0.7920112930363459, 0.9406883644712156]),
        ],
    )
    def test_fast_path_reseeds_without_pool_sized_temporaries(self, r, points):
        # The cell of 0.5 + 2e-12 is empty.  The points are those of the
        # pool-sized distance array and argsort this replaced; that held
        # 4 pools besides the pool and its sums.
        flat = np.sort(np.random.default_rng(23).random(10**6))
        sums = quantize._block_sums(flat)
        init = np.array([0.2, 0.5, 0.5 + 2e-12, 0.5 + 4e-12, 0.8])
        runs = []
        peak = traced_peak(
            lambda: runs.append(
                quantize._lloyd_run_1d(flat, sums, init, LloydOptions(iters=3), r)
            )
        )
        pts, _, _, reseeds = runs[0]
        assert reseeds == 1
        assert pts[:, 0].tolist() == points
        assert peak <= 0.5 * 8 * 10**6


class TestLloydMeta:
    def test_iteration_cap(self):
        opts = LloydOptions(iters=3, restarts=2, pool_size=10_000)
        cb = lloyd(UniformCube(1), 8, 2, opts, SeedSpec(20))
        assert cb.meta["stops"] == ["iters", "iters"]
        assert cb.meta["iterations"] == [4, 4]
        assert len(cb.fit_history) == 4

    def test_converged(self):
        opts = LloydOptions(restarts=3, pool_size=10_000)
        cb = lloyd(UniformCube(1), 2, 2, opts, SeedSpec(21))
        meta = cb.meta
        assert meta["stops"] == ["tol"] * 3
        assert all(1 < k <= 201 for k in meta["iterations"])
        assert meta["iterations"][meta["winner"]] == len(cb.fit_history)
        assert meta["reseeds"] == [0, 0, 0]

    def test_revert(self):
        # The coordinatewise median is only a surrogate for Euclidean r=1,
        # so an update can raise the pool distortion; it is undone.
        opts = LloydOptions(restarts=1, pool_size=300)
        cb = lloyd(UniformCube(2), 6, 1, opts, SeedSpec(0))
        assert cb.meta["stops"] == ["revert"]
        assert cb.meta["iterations"] == [len(cb.fit_history)]

    @pytest.mark.parametrize(
        "measure, n, r, pool_size, seed",
        [(UniformCube(1), 20, 2, 40, 28), (UniformCube(2), 5, 2, 12, 142)],
    )
    def test_reseeds_counted(self, measure, n, r, pool_size, seed):
        opts = LloydOptions(restarts=1, pool_size=pool_size)
        cb = lloyd(measure, n, r, opts, SeedSpec(seed))
        assert cb.meta["reseeds"] == [1]
        assert cb.meta["winner"] == 0


class TestLloydOptions:
    @pytest.mark.parametrize(
        "fields",
        [
            {"restarts": 0},
            {"iters": -1},
            {"tol": -1e-12},
            {"tol": math.nan},
            {"pool_size": 0},
        ],
    )
    def test_invalid_values_rejected(self, fields):
        with pytest.raises(ConfigurationError):
            LloydOptions(**fields)

    def test_edge_values_accepted(self):
        opts = LloydOptions(iters=0, tol=0.0, restarts=1, pool_size=1)
        cb = lloyd(UniformCube(1), 1, 2, opts, SeedSpec(3))
        assert cb.n == 1
        assert len(cb.fit_history) == 1


class TestScalarGaussianQuantizer:
    def test_single_level_is_origin(self):
        cb = scalar_gaussian_quantizer(1)
        assert cb.points[0, 0] == 0.0
        assert cb.weights[0] == 1.0

    def test_two_levels(self):
        cb = scalar_gaussian_quantizer(2)
        target = np.array([-SQRT_2_OVER_PI, SQRT_2_OVER_PI])
        assert np.abs(cb.points.ravel() - target).max() <= 5e-3

    def test_two_level_distortion(self):
        # E min_j (Z - c_j)^2 at c = +-sqrt(2/pi) is 1 - 2/pi
        oracle = normal_expectation(
            lambda z: np.minimum(
                (z - SQRT_2_OVER_PI) ** 2, (z + SQRT_2_OVER_PI) ** 2
            )
        )
        assert oracle == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-9)
        cb = scalar_gaussian_quantizer(2)
        est = distortion(cb, StdNormal(1), 2, 10**5, SeedSpec(19))
        assert abs(est.value**2 - oracle) <= 3.0 * (2 * est.value * est.stderr)

    def test_cached_distortions_decrease(self):
        values = [scalar_quantizer_distortion2(n) for n in range(1, 10)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_empty_quantizer(self):
        for build in (scalar_gaussian_quantizer, scalar_quantizer_distortion2):
            with pytest.raises(ConfigurationError):
                build(0)

    def test_returned_codebook_does_not_alias_the_cache(self):
        cb = scalar_gaussian_quantizer(1)
        cb.points[0, 0] = 5.0
        cb.weights[0] = 0.5
        again = scalar_gaussian_quantizer(1)
        assert again.points[0, 0] == 0.0
        assert again.weights[0] == 1.0


# Max (1960), Table I: minimum mean squared error of the optimal n-level
# quantizer of N(0,1).
MAX_TABLE_D2 = {3: 0.1902, 4: 0.1175, 5: 0.07994, 6: 0.05798, 7: 0.04400, 8: 0.03455}


def _normal_cells(points):
    """Mass and first moment of N(0,1) on each midpoint cell of sorted points."""
    nd = NormalDist()
    edges = np.concatenate(([-np.inf], (points[1:] + points[:-1]) / 2.0, [np.inf]))
    a, b = edges[:-1], edges[1:]
    mass = np.array([nd.cdf(hi) - nd.cdf(lo) for lo, hi in zip(a, b)])
    m1 = np.array([nd.pdf(lo) - nd.pdf(hi) for lo, hi in zip(a, b)])
    return mass, m1


class TestExactScalarQuantizer:
    # Closed-form oracles for the Lloyd-Max fixed point.

    def test_two_levels_closed_form(self):
        cb = scalar_gaussian_quantizer(2)
        target = np.array([-math.sqrt(2.0 / math.pi), math.sqrt(2.0 / math.pi)])
        assert np.abs(cb.points[:, 0] - target).max() <= 1e-12
        assert abs(scalar_quantizer_distortion2(2) - (1.0 - 2.0 / math.pi)) <= 1e-12

    @pytest.mark.parametrize("n", sorted(MAX_TABLE_D2))
    def test_distortion_matches_max_table(self, n):
        d2 = scalar_quantizer_distortion2(n)
        assert float(f"{d2:.4g}") == MAX_TABLE_D2[n]
        pts = scalar_gaussian_quantizer(n).points[:, 0]
        oracle = normal_expectation(
            lambda z: reduce(np.minimum, ((z - c) ** 2 for c in pts))
        )
        assert d2 == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("n", list(range(1, 17)) + [64])
    def test_points_are_symmetric_cell_centroids(self, n):
        cb = scalar_gaussian_quantizer(n)
        pts = cb.points[:, 0]
        mass, m1 = _normal_cells(pts)
        assert np.abs(pts * mass - m1).max() <= 1e-12
        assert np.array_equal(pts, -pts[::-1])
        assert np.all(np.diff(pts) > 0)
        assert np.abs(cb.weights - mass).max() <= 1e-12

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(quantize, "_LLOYD_MAX_ITERS", 5)
        with pytest.raises(NumericError):
            quantize._lloyd_max.__wrapped__(8)


class TestProductQuantizer:
    def test_budget_one_is_zero_path(self, grid):
        cb = product_quantizer_bm(1, 200, grid)
        assert cb.n == 1
        assert np.abs(cb.points).max() == 0.0

    def test_budget_two_levels_and_shape(self, grid):
        cb = product_quantizer_bm(2, 200, grid)
        assert cb.n == 2
        assert cb.meta["levels"][0] == 2
        # the points are sqrt(l_1) c_j e_1 for the two scalar levels c_j
        lam1 = kl_eigenvalues(1)[0]
        levels = scalar_gaussian_quantizer(2).points[:, 0]
        e1 = kl_basis_on_grid(1, grid)[0]
        expected = math.sqrt(lam1) * levels[:, None] * e1[None, :]
        got = cb.points[np.argsort(cb.points[:, -1, 0]), :, 0]
        assert np.abs(got - expected).max() <= 1e-12

    def test_weights_sum_to_one(self, grid):
        cb = product_quantizer_bm(64, 50, grid)
        assert cb.weights.sum() == 1.0
        assert np.all(cb.weights > 0)

    def test_distortion_matches_coordinate_oracle(self, grid):
        # Independent oracle: by orthonormality of the expansion basis on
        # the grid, the squared L2 distance to the product codebook splits
        # across coordinates into scalar quantizer distortions plus the
        # truncated tail of unallocated coordinates.
        k_terms = 50
        cb = product_quantizer_bm(64, k_terms, grid)
        levels = cb.meta["levels"]
        lam = kl_eigenvalues(k_terms)
        seed = SeedSpec(20)
        M = 20000
        coeffs = seed.child(0).rng().standard_normal((M, k_terms))
        per_coord = np.zeros(M)
        for ell in range(k_terms):
            n_ell = levels[ell] if ell < len(levels) else 1
            if n_ell > 1:
                pts = scalar_gaussian_quantizer(n_ell).points[:, 0]
                d2 = np.min(
                    (coeffs[:, ell][:, None] - pts[None, :]) ** 2, axis=1
                )
            else:
                d2 = coeffs[:, ell] ** 2
            per_coord += lam[ell] * d2
        oracle = math.sqrt(per_coord.mean())
        # same coefficient draws through the real sampler
        basis = np.sqrt(lam)[:, None] * kl_basis_on_grid(k_terms, grid)
        batch = (coeffs @ basis)[:, :, None]
        d, _ = min_dist_batch(batch, cb)
        assert math.sqrt(np.mean(d**2)) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("n", [2**4, 2**10, 2**14])
    def test_distortion_matches_closed_form(self, n, grid):
        # D^2 = sum over active l of lambda_l D2(n_l) plus the lambda_l of
        # every other term of the 200-term measure (criterion 10's seed).
        k_terms = 200
        cb = product_quantizer_bm(n, k_terms, grid)
        lam = kl_eigenvalues(k_terms)
        levels = cb.meta["levels"]
        d2 = lam.copy()
        for ell, n_ell in enumerate(levels):
            d2[ell] *= scalar_quantizer_distortion2(n_ell)
        exact = math.sqrt(math.fsum(d2))
        est = distortion(cb, BrownianKL(k_terms, grid), 2, 2 * 10**4, SeedSpec(110))
        assert abs(est.value - exact) <= 4.0 * est.stderr

    def test_nested_budgets_monotone(self, grid):
        seed = SeedSpec(21)
        measure = BrownianKL(50, grid)
        values = []
        for j in range(0, 8):
            cb = product_quantizer_bm(2**j, 50, grid)
            values.append(distortion(cb, measure, 2, 20000, seed).value)
        assert all(b < a for a, b in zip(values, values[1:]))


class TestMidpointCodebook:
    def test_exact_weights_and_points(self):
        cb = uniform_midpoint_codebook(2, 2)
        assert cb.n == 4
        assert cb.weights.sum() == 1.0
        assert np.all(cb.weights == 0.25)
        assert sorted(map(tuple, cb.points.tolist())) == [
            (0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75),
        ]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_distortion_matches_closed_form(self, d):
        # Each axis contributes the uniform cell variance 1 / (12 p^2).
        per_axis = 4
        cb = uniform_midpoint_codebook(d, per_axis)
        est = distortion(cb, UniformCube(d), 2, 10**5, SeedSpec(50 + d))
        exact = math.sqrt(d / (12.0 * per_axis**2))
        assert abs(est.value - exact) <= 4.0 * est.stderr


class TestDistToCodebookFunctional:
    def test_matches_min_dist(self):
        cb = two_point_uniform()
        f = dist_to_codebook_functional(cb)
        xs = np.array([[0.0], [0.5], [0.75]])
        assert np.allclose(f(xs), [0.25, 0.25, 0.0])
