import math

import numpy as np
import pytest

from quantquad.errors import ConfigurationError
from quantquad.measures import BrownianKL, SeedSpec, sample_batch
from quantquad.paths import (
    Functional,
    Grid,
    NormKind,
    batch_norm,
    batch_project,
    l1_integral_functional,
    make_kl_subspace,
    make_pl_subspace,
    sup_norm_functional,
)

PATH_NORMS = (NormKind.SUP, NormKind.L1, NormKind.L2)


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
        zero = np.zeros((grid.size, 1))
        for kind in PATH_NORMS:
            assert batch_norm(zero, kind, grid) == 0.0

    def test_linear_path(self, grid):
        # sup over the grid of t is 1; the trapezoid rule integrates t exactly
        line = grid.points[:, None]
        assert batch_norm(line, NormKind.SUP, grid) == 1.0
        assert batch_norm(line, NormKind.L1, grid) == pytest.approx(0.5, abs=1e-15)

    def test_euclidean_three_four_five(self):
        assert batch_norm(np.array([3.0, 4.0]), NormKind.EUCLIDEAN) == 5.0

    def test_space_mismatch(self, grid):
        line = grid.points[:, None]
        with pytest.raises(ConfigurationError):
            batch_norm(line, NormKind.EUCLIDEAN, grid)
        with pytest.raises(ConfigurationError):
            batch_norm(np.array([1.0, 2.0]), NormKind.SUP)

    def test_l2_and_l1_below_sup(self, grid):
        rng = np.random.default_rng(0)
        p = rng.standard_normal((200, grid.size, 1))
        sup = batch_norm(p, NormKind.SUP, grid)
        assert np.all(batch_norm(p, NormKind.L2, grid) <= sup + 1e-12)
        assert np.all(batch_norm(p, NormKind.L1, grid) <= sup + 1e-12)

    def test_homogeneity_and_triangle(self, grid):
        rng = np.random.default_rng(1)
        triples = 10**4
        x = rng.standard_normal((triples, grid.size, 1))
        y = rng.standard_normal((triples, grid.size, 1))
        z = rng.standard_normal((triples, grid.size, 1))
        c = rng.standard_normal((triples, 1, 1))
        for kind in PATH_NORMS:
            nx = batch_norm(x, kind, grid)
            scaled = batch_norm(c * x, kind, grid)
            assert np.allclose(scaled, np.abs(c[:, 0, 0]) * nx, rtol=1e-12, atol=0)
            dxz = batch_norm(x - z, kind, grid)
            dxy = batch_norm(x - y, kind, grid)
            dyz = batch_norm(y - z, kind, grid)
            assert np.all(dxz <= dxy + dyz + 1e-12)

    def test_rows_do_not_depend_on_the_batch(self):
        # A row's norm is the same whether it comes alone or with 3999
        # others, bit for bit.
        grid = Grid.uniform(257)
        rng = np.random.default_rng(7)
        brownian = sample_batch(BrownianKL(50, grid), SeedSpec(5), 4000)
        plane = rng.standard_normal((500, grid.size, 2))
        vectors = rng.standard_normal((500, 7))
        cases = [(brownian, kind, grid) for kind in PATH_NORMS]
        cases += [(plane, kind, grid) for kind in PATH_NORMS]
        cases.append((vectors, NormKind.EUCLIDEAN, None))
        for values, kind, g in cases:
            rows = np.array([batch_norm(row, kind, g) for row in values])
            np.testing.assert_array_equal(batch_norm(values, kind, g), rows)

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_scalar_sup_and_l2_are_those_of_abs(self, layout):
        # For m = 1 the sup norm is max(max x, -min x) + 0.0 and the L2 norm
        # sums x w x, with no |x| array; both equal the norms of |x| bit for
        # bit: on random rows, on rows of +-0.0 (the sup is +0.0) and on rows
        # holding NaN or infinities.
        grid = Grid.uniform(9)
        rng = np.random.default_rng(12)
        values = rng.standard_normal((40, 9)) * 10.0 ** rng.integers(-300, 300, (40, 1))
        values[:6] = rng.choice([0.0, -0.0], (6, 9))
        values[6:9, 3] = [np.nan, np.inf, -np.inf]
        values[9, [0, 8]] = [-np.nan, np.inf]
        values = values[:, :, None]
        if layout == "strided":
            values = np.repeat(values, 2, axis=1)[:, ::2]
            assert not values.flags.c_contiguous
        mag = np.abs(values[..., 0])
        want = {
            NormKind.SUP: mag.max(axis=-1),
            NormKind.L2: np.sqrt(np.einsum("...g,g,...g->...", mag, grid.weights, mag)),
        }
        for kind, expected in want.items():
            got = batch_norm(values, kind, grid)
            assert np.array_equal(got, expected, equal_nan=True)
            finite = ~np.isnan(expected)
            assert got[finite].tobytes() == expected[finite].tobytes()
        assert not np.signbit(want[NormKind.SUP][:6]).any()
        sup = sup_norm_functional()(values)
        assert sup[finite].tobytes() == want[NormKind.SUP][finite].tobytes()
        assert np.array_equal(sup, want[NormKind.SUP], equal_nan=True)


class TestDistance:
    def test_self_distance_zero(self, grid):
        p = np.sin(grid.points)[:, None]
        for kind in PATH_NORMS:
            assert batch_norm(p - p, kind, grid) == 0.0

    def test_line_to_zero(self, grid):
        line = grid.points[:, None]
        zero = np.zeros((grid.size, 1))
        assert batch_norm(line - zero, NormKind.SUP, grid) == 1.0

    def test_symmetry(self, grid):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((grid.size, 1))
        y = rng.standard_normal((grid.size, 1))
        for kind in PATH_NORMS:
            assert batch_norm(x - y, kind, grid) == batch_norm(y - x, kind, grid)


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
        hat = np.interp(grid.points, [0.0, 0.25, 0.5], [0.0, 1.0, 0.0])
        _, resid = batch_project(hat[None, :], sub)
        assert batch_norm(resid[0, :, None], NormKind.L2, grid) <= 1e-10

    def test_kl_dimension_and_gram(self, grid):
        sub = make_kl_subspace(5, grid)
        assert sub.dim == 5
        gram = (sub.basis * grid.weights[None, :]) @ sub.basis.T
        assert np.abs(gram - np.eye(5)).max() <= 1e-10

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
        member = 0.3 * sub.basis[0] - 1.7 * sub.basis[3]
        _, resid = batch_project(member[None, :], sub)
        for kind in PATH_NORMS:
            assert batch_norm(resid[0, :, None], kind, grid) <= 1e-10

    def test_line_in_pl_space(self, grid):
        sub = make_pl_subspace([0.0, 1.0], grid)
        _, resid = batch_project(grid.points[None, :], sub)
        assert batch_norm(resid[0, :, None], NormKind.L2, grid) <= 1e-10

    def test_kl_path_onto_own_span(self, grid):
        w = sample_batch(BrownianKL(20, grid), SeedSpec(77), 1)
        _, resid = batch_project(w[:, :, 0], make_kl_subspace(20, grid))
        assert batch_norm(resid[0, :, None], NormKind.L2, grid) <= 1e-10

    def test_idempotent(self, grid):
        sub = make_kl_subspace(6, grid)
        x = np.cos(3.0 * grid.points) * grid.points
        proj, _ = batch_project(x[None, :], sub)
        proj2, _ = batch_project(proj, sub)
        assert np.abs(proj2 - proj).max() <= 1e-10

    def test_pythagoras(self, grid):
        rng = np.random.default_rng(4)
        sub = make_kl_subspace(8, grid)
        x = rng.standard_normal((20, grid.size))
        proj, resid = batch_project(x, sub)
        lhs = batch_norm(x[:, :, None], NormKind.L2, grid) ** 2
        rhs = (
            batch_norm(proj[:, :, None], NormKind.L2, grid) ** 2
            + batch_norm(resid[:, :, None], NormKind.L2, grid) ** 2
        )
        assert lhs == pytest.approx(rhs, rel=1e-8)


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

    def test_one_path_batch(self, grid):
        f = sup_norm_functional()
        assert f(grid.points[None, :, None])[0] == 1.0

    def test_l1_integral_rows_do_not_depend_on_the_batch(self, grid):
        paths = sample_batch(BrownianKL(50, grid), SeedSpec(9), 300)
        f = l1_integral_functional(grid)
        rows = np.array([f(paths[i : i + 1])[0] for i in range(300)])
        np.testing.assert_array_equal(f(paths), rows)
