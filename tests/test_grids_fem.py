"""Grid bookkeeping and the bilinear-element kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shifted_eigs
from homlab.coefficients import make_preset
from homlab.domain import EpsProblem
from homlab.errors import (
    AssemblyError,
    ConfigurationError,
    SolverError,
    SpectralError,
    UsageError,
)
from homlab.fem import (
    QUAD_W,
    QUAD_XI,
    apply_tensor,
    assemble_mass,
    assemble_stiffness,
    boundary_flux,
    cell_gradients,
    cell_values,
    cg_solve,
    factorize,
    integrate,
    interior_operator,
    l2_norm,
    recover_gradient,
    torus_laplace_solver,
)
from homlab.grids import (
    DirichletGrid,
    GridFunction,
    PeriodicGrid,
    gauss_rule,
    interpolate,
    nested_dissection,
    shape_gradients,
    shape_values,
)
from homlab.spectral import eps_sigma_bound, shift_spectrum


def identity_a(x1, x2):
    out = np.zeros(np.shape(x1) + (2, 2))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    return out


def test_grid_counts_and_spacing():
    pg = PeriodicGrid(8)
    assert pg.nnodes == 64
    assert pg.h == 1.0 / 8.0
    dg = DirichletGrid(8)
    assert dg.nnodes == 81
    assert dg.ndof == 49


def test_gauss_rule_integrates_cubics_exactly():
    # piecewise-cubic integrand is exact per cell for the order-3 rule
    grid = PeriodicGrid(4)
    xi, wq = gauss_rule(3)
    pts = grid.quad_points(xi)
    vals = pts[..., 0] ** 3 * pts[..., 1] ** 2
    total = grid.h ** 2 * np.einsum("q,cq->", wq, vals)
    assert abs(total - 1.0 / 12.0) < 1e-14


def test_assembly_rule_weights_sum_to_cell_area():
    assert abs(QUAD_W.sum() - 1.0) < 1e-15
    assert QUAD_XI.shape == (4, 2)


def test_mass_total_is_domain_area():
    grid = DirichletGrid(16)
    m = assemble_mass(grid)
    ones = np.ones(grid.nnodes)
    assert abs(ones @ (m @ ones) - 1.0) < 1e-13


def test_stiffness_symmetric_with_constants_in_kernel():
    grid = PeriodicGrid(8)
    k = assemble_stiffness(grid, identity_a)
    dense = k.toarray()
    assert np.max(np.abs(dense - dense.T)) < 1e-14
    assert np.max(np.abs(dense.sum(axis=1))) < 1e-13


def test_interpolated_sine_l2_norm():
    # ||sin(2 pi x) sin(2 pi y)||_{L2} = 1/2; Q1 interpolation is O(h^2)
    grid = DirichletGrid(64)
    gf = interpolate(grid, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    assert abs(l2_norm(gf) - 0.5) < 1e-3  # measured 8.03e-4 at n=64


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_l2_norm_of_constant(c):
    grid = DirichletGrid(6)
    gf = GridFunction(grid, np.full(grid.nnodes, c))
    assert abs(l2_norm(gf) - abs(c)) <= 1e-12 * max(1.0, abs(c))


def test_cg_matches_direct_solve():
    import scipy.sparse.linalg as spla

    grid = DirichletGrid(8)
    op = interior_operator(grid, assemble_stiffness(grid, identity_a))
    rhs = np.random.default_rng(3).standard_normal(grid.ndof)
    x = cg_solve(op, rhs, tol=1e-12)
    x_ref = spla.spsolve(op.tocsc(), rhs)
    assert np.max(np.abs(x - x_ref)) < 1e-8


def test_cg_breakdown_on_negative_definite_operator():
    grid = DirichletGrid(8)
    op = interior_operator(grid, assemble_stiffness(grid, identity_a))
    neg = -op
    with pytest.raises(SolverError) as exc:
        cg_solve(neg, np.ones(grid.ndof), tol=1e-10)
    assert exc.value.breakdown


@pytest.mark.parametrize("m", [1, 2, 3, 7, 17, 255])
def test_nested_dissection_is_a_permutation(m):
    perm = nested_dissection(m)
    assert np.array_equal(np.sort(perm), np.arange(m * m))


@pytest.mark.parametrize("n", [2, 5, 18])
def test_interior_dof_come_in_nested_dissection_order(n):
    grid = DirichletGrid(n)
    row_major = np.flatnonzero(grid.is_interior)
    assert np.array_equal(grid.interior, row_major[nested_dissection(n - 1)])
    rng = np.random.default_rng(n)
    full = np.where(grid.is_interior, rng.standard_normal(grid.nnodes), 0.0)
    assert np.array_equal(grid.extend(grid.restrict(full)), full)
    inner = rng.standard_normal(grid.ndof)
    assert np.array_equal(grid.restrict(grid.extend(inner)), inner)


def test_first_separator_decouples_the_halves():
    """n = 18: the grid numbers the middle interior column (17 nodes at
    x = 1/2) last, so its interior operator splits into two 17 x 8 halves
    with no coupling between them."""
    grid = DirichletGrid(18)
    op = interior_operator(grid, assemble_stiffness(grid, identity_a))
    separator = grid.node_coords()[grid.interior[-17:]]
    assert np.array_equal(separator[:, 0], np.full(17, 0.5))
    half = 17 * 8
    assert op[:half, half:2 * half].nnz == 0
    assert op[:2 * half, 2 * half:].nnz > 0


def test_factor_solves_match_a_dense_solve():
    model = make_preset("smooth-iso", "sine1")
    p = EpsProblem(model, 0.5, DirichletGrid(32))
    mat = p.operator - eps_sigma_bound(p) * p.mass_interior()
    lu = factorize(mat)
    rng = np.random.default_rng(8)
    for rhs in (rng.standard_normal(p.grid.ndof),
                rng.standard_normal((p.grid.ndof, 3))):
        ref = np.linalg.solve(mat.toarray(), rhs)
        x = lu.solve(rhs)
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_factorize_rejects_exactly_singular_operator():
    grid = DirichletGrid(8)
    flat = interior_operator(grid, assemble_stiffness(
        grid, lambda x1, x2: np.zeros(np.shape(x1) + (2, 2))))
    with pytest.raises(SolverError) as exc:
        factorize(flat)
    assert "singular" in str(exc.value)


def test_deflated_cg_keeps_zero_mean():
    grid = PeriodicGrid(16)
    k = assemble_stiffness(grid, identity_a)
    coords = grid.node_coords()
    rhs_field = np.sin(2 * np.pi * coords[:, 0])
    m = assemble_mass(grid)
    rhs = m @ rhs_field
    rhs -= rhs.mean()
    x = cg_solve(k, rhs, deflate_constants=True, tol=1e-11)
    assert abs(x.mean()) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 17])
def test_fft_laplace_solve_inverts_the_assembled_laplacian(n):
    grid = PeriodicGrid(n)
    lap = assemble_stiffness(grid, identity_a)
    r = np.random.default_rng(n).standard_normal(grid.nnodes)
    u = torus_laplace_solver(grid)(r)
    assert np.max(np.abs(lap @ u - (r - r.mean()))) < 1e-12
    assert abs(u.mean()) < 1e-12


@pytest.mark.parametrize("xi", [None, gauss_rule(3)[0]], ids=["assembly", "order3"])
def test_cell_kernels_exact_on_a_bilinear_field(xi):
    c0, c1, c2, c3 = 0.3, -1.7, 2.2, 0.9
    grid = DirichletGrid(7)
    gf = interpolate(grid, lambda x, y: c0 + c1 * x + c2 * y + c3 * x * y)
    pts = grid.quad_points(QUAD_XI if xi is None else xi)
    x, y = pts[..., 0], pts[..., 1]
    vals = cell_values(grid, gf.values, xi)
    grads = cell_gradients(grid, gf.values, xi)
    assert np.max(np.abs(vals - (c0 + c1 * x + c2 * y + c3 * x * y))) < 1e-13
    assert np.max(np.abs(grads[..., 0] - (c1 + c3 * y))) < 1e-13
    assert np.max(np.abs(grads[..., 1] - (c2 + c3 * x))) < 1e-13


def test_quadrature_kernels_match_einsum_references_on_the_torus():
    grid = PeriodicGrid(12)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.nnodes)
    corner = u[grid.conn]
    for xi, wq in (gauss_rule(2), gauss_rule(3)):
        ref_g = np.einsum("ca,qai->cqi", corner, shape_gradients(xi)) / grid.h
        ref_v = np.einsum("ca,qa->cq", corner, shape_values(xi))
        g = cell_gradients(grid, u, xi)
        v = cell_values(grid, u, xi)
        assert np.max(np.abs(g - ref_g)) <= 1e-14 * np.max(np.abs(ref_g))
        assert np.max(np.abs(v - ref_v)) <= 1e-14 * np.max(np.abs(ref_v))

        a = rng.standard_normal(g.shape + (2,))
        ag = apply_tensor(a, g)
        assert np.max(np.abs(ag - np.einsum("cqij,cqj->cqi", a, g))) <= (
            1e-14 * np.max(np.abs(ag)))
        ref_int = grid.h ** 2 * np.einsum("q,cqij->ij", wq, a)
        assert np.max(np.abs(integrate(grid, a, wq) - ref_int)) <= (
            1e-13 * np.max(np.abs(ref_int)))
        assert float(integrate(grid, v * v, wq)) == pytest.approx(
            grid.h ** 2 * np.einsum("q,cq,cq->", wq, v, v), rel=1e-13)


def test_integrate_rejects_weights_of_another_rule():
    grid = PeriodicGrid(4)
    xi3, _ = gauss_rule(3)
    _, wq2 = gauss_rule(2)
    # A field at the 9 points of the order-3 rule with the 4 order-2 weights:
    # the sum must raise rather than return a mis-weighted integral.
    a = np.ones((grid.ncells, xi3.shape[0], 2, 2))
    with pytest.raises(ValueError):
        integrate(grid, a, wq2)


def test_recovered_gradient_exact_on_affine_fields():
    grid = DirichletGrid(12)
    coords = grid.node_coords()
    gf = GridFunction(grid, coords[:, 0] + 2.0 * coords[:, 1])
    gx, gy = recover_gradient(gf)
    assert np.max(np.abs(gx.values - 1.0)) < 1e-12
    assert np.max(np.abs(gy.values - 2.0)) < 1e-12


def test_boundary_flux_of_bubble():
    # u = x(1-x)y(1-y): integral of |grad u|^2 over the four walls is 2/15.
    # One-sided normal differences converge at first order; values frozen.
    vals = {}
    for n in (64, 128):
        grid = DirichletGrid(n)
        c = grid.node_coords()
        gf = GridFunction(grid, c[:, 0] * (1 - c[:, 0]) * c[:, 1] * (1 - c[:, 1]))
        vals[n] = boundary_flux(gf)
    assert abs(vals[64] - 0.12914665) < 1e-7
    assert abs(vals[128] - 0.13124479) < 1e-7
    err64 = abs(vals[64] - 2.0 / 15.0)
    err128 = abs(vals[128] - 2.0 / 15.0)
    assert 1.7 < err64 / err128 < 2.3


# Error branches that no pipeline run reaches.

def laplace_pair(n):
    grid = DirichletGrid(n)
    return (interior_operator(grid, assemble_stiffness(grid, identity_a)),
            interior_operator(grid, assemble_mass(grid)))


def restrict_periodic():
    grid = PeriodicGrid(4)
    interior_operator(grid, assemble_mass(grid))


def assemble_nan_diffusion():
    def a_eval(x1, x2):
        out = identity_a(x1, x2)
        out[x1 > 0.75] = np.nan  # cells are numbered row by row: cell 3 first
        return out

    assemble_stiffness(DirichletGrid(4), a_eval)


def eigs_pencil_within_the_basis():
    k, m = laplace_pair(6)  # 25 interior DOF, the basis of k = 12
    shifted_eigs(k, m, 12, sigma=-1.0, tag="hom_prime")


def shift_checked_against_unshifted_operator():
    k, m = laplace_pair(8)
    shift_spectrum(shifted_eigs(k, m, 3, sigma=-1.0), 5.0, k, m)  # not k + 5 m


def flux_on_the_torus():
    grid = PeriodicGrid(4)
    boundary_flux(GridFunction(grid, np.zeros(grid.nnodes)))


ERROR_CASES = [
    (restrict_periodic, UsageError, "DirichletGrid"),
    (assemble_nan_diffusion, AssemblyError,
     "non-finite diffusion sample in cell 3$"),
    (eigs_pencil_within_the_basis, ConfigurationError,
     r"a 25-DOF pencil is not larger than the 25-vector Lanczos basis for "
     r"k=12 \(hom_prime\)$"),
    (shift_checked_against_unshifted_operator, SpectralError,
     r"residual .* \(hom, 49 DOF\)$"),
    (flux_on_the_torus, UsageError, "DirichletGrid"),
]


@pytest.mark.parametrize("call, error, match", ERROR_CASES,
                         ids=[case[0].__name__ for case in ERROR_CASES])
def test_error_branch_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
