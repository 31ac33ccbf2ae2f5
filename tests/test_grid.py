import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ospde.errors import ConfigurationError
from ospde.grid import (Field, assemble_operator, build_grid, divergence, energy,
                        gradient_sq, node_gradient, sobolev_ratio)


def direct_gradient_sq_1d(grid, values):
    # independent oracle: cell differences and plain quadrature
    h = grid.spacing[0]
    d = np.diff(values) / h
    return float(np.sum(d * d) * h)


class TestBuildGrid:
    def test_1d_arithmetic(self):
        g = build_grid(1, (0.0, 1.0), 4)
        assert g.spacing == (0.25,)
        assert g.n_interior == 3
        assert g.cell_measure == 0.25

    def test_2d_interior_count(self):
        g = build_grid(2, [(0, 1), (0, 1)], (4, 4))
        assert g.n_interior == 9
        assert g.cell_measure == pytest.approx(0.0625)

    def test_counts_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(1, (0.0, 1.0), 2)

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(1, (1.0, 1.0), 8)

    def test_node_ordering_lexicographic(self):
        g = build_grid(2, [(0, 1), (0, 2)], (3, 3))
        # C-order: second axis varies fastest
        assert np.all(np.diff(g.coords[:4, 1]) > 0)
        assert g.coords[4, 0] > g.coords[3, 0]

    def test_partition_and_weights(self):
        g = build_grid(2, [(0, 1), (0, 1)], (5, 4))
        assert set(g.interior) | set(g.boundary) == set(range(g.n_nodes))
        assert not set(g.interior) & set(g.boundary)
        assert g.quad_weights.sum() == pytest.approx(1.0)

    @given(st.integers(min_value=3, max_value=40))
    @settings(max_examples=20, deadline=None)
    def test_spacing_times_counts_spans_extent(self, n):
        g = build_grid(1, (-1.5, 2.0), n)
        assert g.spacing[0] * n == pytest.approx(3.5)


class TestAssembleOperator:
    def test_1d_laplacian_stencil(self):
        g = build_grid(1, (0.0, 1.0), 8)
        op = assemble_operator(g, 1.0, 1.0, 1.0)
        h2 = g.spacing[0] ** 2
        K = op.stiffness.toarray() * h2
        assert np.allclose(np.diag(K), 2.0)
        assert np.allclose(np.diag(K, 1), -1.0)
        assert np.allclose(np.diag(K, -1), -1.0)

    def test_identity_coefficient_probe_passes(self):
        g = build_grid(2, [(0, 1), (0, 1)], (6, 6))
        assemble_operator(g, np.eye(2), 1.0, 1.0)

    def test_asymmetric_coefficient_rejected(self):
        g = build_grid(2, [(0, 1), (0, 1)], (4, 4))
        with pytest.raises(ConfigurationError, match="symmetric"):
            assemble_operator(g, np.array([[1.0, 0.3], [0.2, 1.0]]), 0.5, 2.0)

    def test_ellipticity_probe_failure_reports_cell(self):
        g = build_grid(1, (0.0, 1.0), 4)
        with pytest.raises(ConfigurationError, match="ellipticity"):
            assemble_operator(g, 0.5, 1.0, 1.0)  # declared lambda too big

    def test_cross_terms_assemble_m_matrix(self):
        g = build_grid(2, [(0, 1), (0, 1)], (8, 8))
        a = np.array([[1.0, 0.3], [0.3, 1.0]])
        op = assemble_operator(g, a, 0.7, 1.3)
        K = op.stiffness
        off = K - __import__("scipy.sparse", fromlist=["diags"]).diags(K.diagonal())
        assert off.nnz == 0 or off.data.max() <= 1e-12
        asym = (K - K.T)
        assert asym.nnz == 0 or np.abs(asym.data).max() <= 1e-12

    def test_cross_terms_energy_consistent(self):
        # smooth-field energy approaches the analytic integral
        a = np.array([[1.0, 0.3], [0.3, 1.0]])
        vals = []
        for n in (16, 32):
            g = build_grid(2, [(0, 1), (0, 1)], (n, n))
            op = assemble_operator(g, a, 0.7, 1.3)
            u = Field.from_function(
                g, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
            vals.append(energy(op, u, u))
        # integral of a grad u . grad u = (a11 + a22) pi^2 / 4; cross term is 0
        exact = 2.0 * np.pi ** 2 / 4.0
        assert vals[1] == pytest.approx(exact, rel=0.02)
        assert abs(vals[1] - exact) < abs(vals[0] - exact)

    def test_strongly_anisotropic_cross_rejected(self):
        g = build_grid(2, [(0, 1), (0, 1)], (4, 4))
        # elliptic (eigenvalues ~ 0.24, 2.36) but not diagonally dominant
        a = np.array([[2.0, 0.8], [0.8, 0.6]])
        with pytest.raises(ConfigurationError, match="M-matrix"):
            assemble_operator(g, a, 0.2, 2.4)

    def test_cross_terms_need_square_cells(self):
        g = build_grid(2, [(0, 1), (0, 2)], (4, 4))
        a = np.array([[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(ConfigurationError, match="square"):
            assemble_operator(g, a, 0.5, 1.5)

    def test_m_matrix_boundary_flux_structure(self):
        g = build_grid(2, [(0, 1), (0, 1)], (6, 6))
        op = assemble_operator(g, np.eye(2), 1.0, 1.0)
        flux = op.stiffness @ np.ones(g.n_interior)
        multi = np.indices(g.shape).reshape(2, -1)[:, g.interior]
        adjacent = ((multi == 1) | (multi[0] == g.shape[0] - 2)
                    | (multi[1] == g.shape[1] - 2)).any(axis=0)
        assert np.all(flux >= -1e-12)
        assert np.all(flux[~adjacent] <= 1e-12)
        assert np.all(flux[adjacent] > 0)


class TestEnergy:
    def test_zero_fields(self, grid64, op64):
        z = Field.zeros(grid64)
        assert energy(op64, z, z) == 0.0

    def test_single_hat(self):
        g = build_grid(1, (0.0, 1.0), 10)
        op = assemble_operator(g, 1.0, 1.0, 1.0)
        hat = np.zeros(g.n_nodes)
        hat[5] = 1.0
        assert energy(op, Field(g, hat), Field(g, hat)) == pytest.approx(2.0 / g.spacing[0])

    def test_symmetry_machine_precision(self, grid64, op64):
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = Field(grid64, rng.normal(size=grid64.n_nodes))
            v = Field(grid64, rng.normal(size=grid64.n_nodes))
            euv, evu = energy(op64, u, v), energy(op64, v, u)
            assert euv == pytest.approx(evu, abs=1e-12 * (1 + abs(euv)))

    def test_energy_vs_direct_gradient_oracle(self, grid64, op64):
        rng = np.random.default_rng(11)
        u = Field(grid64, rng.normal(size=grid64.n_nodes))
        # for a = 1 the edge assembly must reproduce the direct quadrature
        assert energy(op64, u, u) == pytest.approx(
            direct_gradient_sq_1d(grid64, u.values), rel=1e-12)

    def test_ellipticity_sandwich_200_fields(self):
        g = build_grid(1, (0.0, 1.0), 48)
        lam, Lam = 0.5, 2.0

        def a(centers):
            return (1.25 + 0.75 * np.sin(2 * np.pi * centers[:, 0])).reshape(-1, 1, 1)

        op = assemble_operator(g, a, lam, Lam)
        rng = np.random.default_rng(23)
        for _ in range(200):
            u = Field(g, rng.normal(size=g.n_nodes))
            grad_sq = gradient_sq(g, u.values)
            e = energy(op, u, u)
            assert lam * grad_sq <= e * (1 + 1e-12)
            assert e <= Lam * grad_sq * (1 + 1e-12)

    def test_grid_mismatch_rejected(self, op64):
        other = build_grid(1, (0.0, 1.0), 32)
        with pytest.raises(ConfigurationError, match="grid"):
            energy(op64, Field.zeros(other), Field.zeros(other))


class TestManufacturedSolution:
    def test_variable_coefficient_second_order(self):
        # -( (1+x) u' )' = f with u = sin(pi x):
        # f = -pi cos(pi x) + (1+x) pi^2 sin(pi x); direct sparse solve
        import scipy.sparse.linalg as spla

        def err(cells):
            g = build_grid(1, (0.0, 1.0), cells)
            op = assemble_operator(g, lambda c: (1.0 + c[:, 0]).reshape(-1, 1, 1),
                                   1.0, 2.0)
            x = g.coords[g.interior, 0]
            f = -np.pi * np.cos(np.pi * x) + (1 + x) * np.pi ** 2 * np.sin(np.pi * x)
            u = spla.spsolve(op.stiffness.tocsc(), f)
            return np.abs(u - np.sin(np.pi * x)).max()

        errs = [err(c) for c in (16, 32, 64)]
        assert errs[-1] < 3e-4
        for a, b in zip(errs, errs[1:]):
            assert 3.0 <= a / b <= 5.0


class TestDiscreteCalculus:
    def test_divergence_is_negative_adjoint_of_gradient(self):
        for dim, counts in ((1, 16), (2, (7, 9))):
            extent = (0.0, 1.0) if dim == 1 else [(0, 1), (0, 2)]
            g = build_grid(dim, extent, counts)
            rng = np.random.default_rng(dim)
            u = g.extend(rng.normal(size=g.n_interior))
            w = rng.normal(size=(g.n_nodes, g.dim))
            w[g.boundary] = 0.0
            lhs = g.cell_measure * np.dot(g.restrict(divergence(g, w)), g.restrict(u))
            rhs = -g.cell_measure * np.sum(w[g.interior] * node_gradient(g, u)[g.interior])
            assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_node_gradient_boundary_rows_zero(self, grid64):
        rng = np.random.default_rng(5)
        grad = node_gradient(grid64, rng.normal(size=grid64.n_nodes))
        assert np.all(grad[grid64.boundary] == 0.0)

    @pytest.mark.parametrize("dim, counts", [(1, 16), (2, (7, 9))])
    def test_batch_axis_matches_each_sample(self, dim, counts):
        extent = (0.0, 1.0) if dim == 1 else [(0, 1), (0, 2)]
        g = build_grid(dim, extent, counts)
        rng = np.random.default_rng(7)
        u = rng.normal(size=(2, 3, g.n_nodes))
        w = rng.normal(size=(5, g.n_nodes, g.dim))
        grad = node_gradient(g, u)
        div = divergence(g, w)
        assert grad.shape == (2, 3, g.n_nodes, g.dim) and div.shape == (5, g.n_nodes)
        for idx in np.ndindex(2, 3):
            assert grad[idx].tobytes() == node_gradient(g, u[idx]).tobytes()
        for s in range(5):
            assert div[s].tobytes() == divergence(g, w[s]).tobytes()


class TestSobolevRatio:
    def test_d1_bound_200_random_fields(self):
        rng = np.random.default_rng(41)
        for trial in range(200):
            n = int(rng.integers(8, 128))
            g = build_grid(1, (0.0, 1.0), n)
            u = Field(g, rng.normal(size=g.n_nodes))
            assert sobolev_ratio(g, u) <= 0.5 * (1 + 1e-6)

    def test_hat_ratio_hand_quadrature(self):
        g = build_grid(1, (0.0, 1.0), 16)
        hat = np.zeros(g.n_nodes)
        hat[8] = 1.0
        h = g.spacing[0]
        # sup = 1, |grad|_2 = sqrt(2/h) by hand
        assert sobolev_ratio(g, Field(g, hat)) == pytest.approx(np.sqrt(h / 2.0))

    def test_scaling_invariance(self, grid64):
        rng = np.random.default_rng(9)
        u = rng.normal(size=grid64.n_nodes)
        r1 = sobolev_ratio(grid64, Field(grid64, u))
        r2 = sobolev_ratio(grid64, Field(grid64, -3.7 * u))
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_zero_field_rejected(self, grid64):
        with pytest.raises(ConfigurationError, match="zero"):
            sobolev_ratio(grid64, Field.zeros(grid64))

    def test_d2_finite_exponent(self):
        g = build_grid(2, [(0, 1), (0, 1)], (12, 12))
        u = Field.from_function(
            g, lambda x: np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1]))
        assert 0 < sobolev_ratio(g, u) < 1.0


class TestField:
    def test_boundary_forced_to_zero(self):
        g = build_grid(1, (0.0, 1.0), 8)
        f = Field(g, np.ones(g.n_nodes))
        assert np.all(f.values[g.boundary] == 0.0)
        assert np.all(f.values[g.interior] == 1.0)

    def test_values_read_only(self, grid64):
        f = Field.zeros(grid64)
        with pytest.raises(ValueError):
            f.values[0] = 1.0
