import math

import numpy as np
import pytest

from quantquad.errors import ConfigurationError
from quantquad.measures import BrownianKL, SeedSpec, sample_batch
from quantquad.paths import (
    Functional,
    Grid,
    NormKind,
    Path,
    distance,
    make_kl_subspace,
    make_pl_subspace,
    norm,
    project,
)


class TestGrid:
    def test_uniform_endpoints(self):
        g = Grid.uniform(257)
        assert g.size == 257
        assert g.points[0] == 0.0 and g.points[-1] == 1.0
        assert g.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_invalid_grids(self):
        with pytest.raises(ConfigurationError):
            Grid(np.array([0.0, 0.5, 0.25, 1.0]))
        with pytest.raises(ConfigurationError):
            Grid(np.array([0.1, 1.0]))

    def test_index_of(self, grid):
        assert grid.index_of(0.0) == 0
        assert grid.index_of(1.0) == 256
        assert grid.index_of(0.5) == 128
        with pytest.raises(ConfigurationError):
            grid.index_of(1.0 / 3.0)


class TestNorms:
    def test_zero_path(self, grid):
        zero = Path(grid, np.zeros(grid.size))
        for kind in (NormKind.SUP, NormKind.L1, NormKind.L2):
            assert norm(zero, kind) == 0.0

    def test_linear_path(self, grid):
        # sup over the grid of t is 1; the trapezoid rule integrates t exactly
        line = Path(grid, grid.points.copy())
        assert norm(line, NormKind.SUP) == 1.0
        assert norm(line, NormKind.L1) == pytest.approx(0.5, abs=1e-15)

    def test_euclidean_three_four_five(self):
        assert norm(np.array([3.0, 4.0]), NormKind.EUCLIDEAN) == 5.0

    def test_space_mismatch(self, grid):
        line = Path(grid, grid.points.copy())
        with pytest.raises(ConfigurationError):
            norm(line, NormKind.EUCLIDEAN)
        with pytest.raises(ConfigurationError):
            norm(np.array([1.0, 2.0]), NormKind.SUP)

    def test_l2_and_l1_below_sup(self, grid):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = Path(grid, rng.standard_normal(grid.size))
            sup = norm(p, NormKind.SUP)
            assert norm(p, NormKind.L2) <= sup + 1e-12
            assert norm(p, NormKind.L1) <= sup + 1e-12

    def test_homogeneity_and_triangle(self, grid):
        from quantquad.paths import batch_path_norm

        rng = np.random.default_rng(1)
        triples = 10**4
        x = rng.standard_normal((triples, grid.size, 1))
        y = rng.standard_normal((triples, grid.size, 1))
        z = rng.standard_normal((triples, grid.size, 1))
        c = rng.standard_normal((triples, 1, 1))
        for kind in (NormKind.SUP, NormKind.L1, NormKind.L2):
            nx = batch_path_norm(x, kind, grid)
            scaled = batch_path_norm(c * x, kind, grid)
            assert np.allclose(scaled, np.abs(c[:, 0, 0]) * nx, rtol=1e-12, atol=0)
            dxz = batch_path_norm(x - z, kind, grid)
            dxy = batch_path_norm(x - y, kind, grid)
            dyz = batch_path_norm(y - z, kind, grid)
            assert np.all(dxz <= dxy + dyz + 1e-12)


class TestDistance:
    def test_self_distance_zero(self, grid):
        p = Path(grid, np.sin(grid.points))
        for kind in (NormKind.SUP, NormKind.L1, NormKind.L2):
            assert distance(p, p, kind) == 0.0

    def test_line_to_zero(self, grid):
        line = Path(grid, grid.points.copy())
        zero = Path(grid, np.zeros(grid.size))
        assert distance(line, zero, NormKind.SUP) == 1.0

    def test_grid_mismatch(self):
        a = Path(Grid.uniform(17), np.zeros(17))
        b = Path(Grid.uniform(33), np.zeros(33))
        with pytest.raises(ConfigurationError):
            distance(a, b, NormKind.SUP)

    def test_symmetry(self, grid):
        rng = np.random.default_rng(2)
        x = Path(grid, rng.standard_normal(grid.size))
        y = Path(grid, rng.standard_normal(grid.size))
        for kind in (NormKind.SUP, NormKind.L1, NormKind.L2):
            assert distance(x, y, kind) == distance(y, x, kind)


class TestSubspaces:
    def test_pl_dimension(self, grid):
        assert make_pl_subspace([0.0, 1.0], grid).dim == 2
        k = 5
        breaks = [ell / (k - 1) for ell in range(k)]
        assert make_pl_subspace(breaks, grid).dim == k

    def test_pl_off_grid_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            make_pl_subspace([0.0, 1.0 / 3.0, 1.0], grid)
        with pytest.raises(ConfigurationError):
            make_pl_subspace([0.25, 1.0], grid)

    def test_hat_projects_to_itself(self, grid):
        sub = make_pl_subspace([0.0, 0.25, 0.5, 1.0], grid)
        hat = Path(grid, np.interp(grid.points, [0.0, 0.25, 0.5], [0.0, 1.0, 0.0]))
        _, residuals = project(hat, sub)
        assert residuals[NormKind.L2] <= 1e-10

    def test_kl_dimension_and_gram(self, grid):
        sub = make_kl_subspace(5, grid)
        assert sub.dim == 5
        assert np.abs(sub.gram() - np.eye(5)).max() <= 1e-10

    def test_kl_first_basis_element(self, grid):
        sub = make_kl_subspace(1, grid)
        target = math.sqrt(2.0) * np.sin(0.5 * math.pi * grid.points)
        sign = np.sign(sub.basis[0] @ target)
        assert np.abs(sign * sub.basis[0] - target).max() <= 1e-6

    def test_zero_dim_rejected(self, grid):
        with pytest.raises(ConfigurationError):
            make_kl_subspace(0, grid)


class TestProject:
    def test_member_residual_zero(self, grid):
        sub = make_kl_subspace(4, grid)
        member = Path(grid, 0.3 * sub.basis[0] - 1.7 * sub.basis[3])
        _, residuals = project(member, sub)
        for kind in (NormKind.SUP, NormKind.L1, NormKind.L2):
            assert residuals[kind] <= 1e-10

    def test_line_in_pl_space(self, grid):
        line = Path(grid, grid.points.copy())
        _, residuals = project(line, make_pl_subspace([0.0, 1.0], grid))
        assert residuals[NormKind.L2] <= 1e-10

    def test_kl_path_onto_own_span(self, grid):
        w = sample_batch(BrownianKL(20, grid), SeedSpec(77), 1)
        path = Path(grid, w[0])
        _, residuals = project(path, make_kl_subspace(20, grid))
        assert residuals[NormKind.L2] <= 1e-10

    def test_idempotent(self, grid):
        sub = make_kl_subspace(6, grid)
        x = Path(grid, np.cos(3.0 * grid.points) * grid.points)
        proj, _ = project(x, sub)
        proj2, residuals2 = project(proj, sub)
        assert np.abs(proj2.values - proj.values).max() <= 1e-10

    def test_pythagoras(self, grid):
        rng = np.random.default_rng(4)
        sub = make_kl_subspace(8, grid)
        for _ in range(20):
            x = Path(grid, rng.standard_normal(grid.size))
            proj, residuals = project(x, sub)
            lhs = norm(x, NormKind.L2) ** 2
            rhs = norm(proj, NormKind.L2) ** 2 + residuals[NormKind.L2] ** 2
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_grid_mismatch(self):
        sub = make_kl_subspace(3, Grid.uniform(33))
        x = Path(Grid.uniform(17), np.zeros(17))
        with pytest.raises(ConfigurationError):
            project(x, sub)


class TestFunctional:
    def test_batch_convention(self, grid):
        f = Functional(lambda batch: batch[:, :, 0].max(axis=1), name="m")
        batch = np.zeros((3, grid.size, 1))
        batch[1, 5, 0] = 2.0
        out = f(batch)
        assert out.shape == (3,)
        assert out[1] == 2.0

    def test_shape_validation(self):
        f = Functional(lambda batch: np.zeros(7), name="bad")
        with pytest.raises(ConfigurationError):
            f(np.zeros((3, 2)))

    def test_eval_one_path(self, grid):
        from quantquad.paths import sup_norm_functional

        f = sup_norm_functional()
        p = Path(grid, grid.points.copy())
        assert f.eval_one(p) == 1.0
