"""Generalized eigensolves: the Lanczos path, its invariants, and the
comparison tables built from spectra."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import factor, shifted_eigs
from homlab.coefficients import CoefficientModel, make_preset
from homlab.domain import EpsProblem, constant_matrix
from homlab.errors import ConfigurationError, SpectralError
from homlab.fem import QUAD_XI, assemble_mass, assemble_stiffness, interior_operator
from homlab.grids import DirichletGrid
from homlab.spectral import (
    MAX_RESTARTS,
    Spectrum,
    _lanczos,
    _orthonormalize,
    _relative_residuals,
    cluster_projection,
    eigenvalue_gap_rows,
    eigs,
    eps_sigma_bound,
    first_eigenvalue_comparison,
    rayleigh_quadrature_defect,
    shift_spectrum,
)


def identity_a(x1, x2):
    out = np.zeros(np.shape(x1) + (2, 2))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    return out


def laplace_pair(n):
    grid = DirichletGrid(n)
    k = interior_operator(grid, assemble_stiffness(grid, identity_a))
    m = interior_operator(grid, assemble_mass(grid))
    return grid, k, m


def exact_laplace_eigs(count):
    vals = sorted(np.pi ** 2 * (p ** 2 + q ** 2)
                  for p in range(1, 12) for q in range(1, 12))
    return np.array(vals[:count])


def exact_q1_laplace_eigs(n, count):
    """The Q1 pencil is a Kronecker sum of 1D pencils: mu_i + mu_j."""
    h = 1.0 / n
    c = np.cos(np.arange(1, n) * np.pi * h)
    mu = (6.0 / h ** 2) * (1.0 - c) / (2.0 + c)
    return np.sort((mu[:, None] + mu[None, :]).ravel())[:count]


def test_smallest_pencil_matches_separation_of_variables():
    _, k, m = laplace_pair(16)  # 225 dof, the smallest grid a config allows
    spec = shifted_eigs(k, m, 5, sigma=-1.0)
    exact = exact_q1_laplace_eigs(16, 5)
    assert np.max(np.abs(spec.eigenvalues - exact) / exact) < 1e-10


def test_lanczos_path_matches_separation_of_variables():
    _, k, m = laplace_pair(80)  # 6241 dof
    spec = shifted_eigs(k, m, 5, sigma=-1.0)
    rel = np.abs(spec.eigenvalues - exact_laplace_eigs(5)) / exact_laplace_eigs(5)
    assert np.max(rel) < 0.01


def test_same_seed_is_bitwise_deterministic():
    _, k, m = laplace_pair(80)
    a = shifted_eigs(k, m, 4, seed=11, sigma=-1.0)
    b = shifted_eigs(k, m, 4, seed=11, sigma=-1.0)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eigensolves_on_two_threads_match_one_after_the_other():
    """The Lanczos path shares no state between calls, so running two at
    once changes no bit of either result."""
    pencils = [laplace_pair(64)[1:], laplace_pair(72)[1:]]
    lus = [factor(k, m, -1.0) for k, m in pencils]

    def solve(i):
        k, m = pencils[i]
        return eigs(k, m, 6, seed=i, sigma=-1.0, lu=lus[i])

    serial = [solve(0), solve(1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(solve, (0, 1)))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        assert a.solves == b.solves > 0


def test_lanczos_returns_both_members_of_an_exact_pair():
    """Isotropic a_hat makes the hom_prime pencil a Kronecker sum with
    lambda_2 = lambda_3; a one-vector Krylov space holds a single direction
    of that plane until rounding seeds the other, and both must come back
    before the iteration stops."""
    grid = DirichletGrid(64)
    a_hat = 1.7 * np.eye(2)
    k = interior_operator(grid, assemble_stiffness(grid, constant_matrix(a_hat)))
    m = interior_operator(grid, assemble_mass(grid))
    spec = shifted_eigs(k, m, 5, sigma=-1.0)
    exact = 1.7 * exact_q1_laplace_eigs(64, 5)
    assert exact[1] == pytest.approx(exact[2], rel=1e-14)
    assert np.max(np.abs(spec.eigenvalues - exact) / exact) < 1e-10
    gram = spec.eigenvectors.T @ (m @ spec.eigenvectors)
    assert np.max(np.abs(gram - np.eye(5))) < 1e-12


def test_lanczos_breakdown_raises():
    """A start vector inside a 3-dimensional invariant subspace exhausts the
    Krylov space before k = 5 pairs exist."""
    n = 289
    op = sp.diags(np.arange(1.0, n + 1.0), format="csr")
    mass = sp.identity(n, format="csr")
    v0 = np.zeros(n)
    v0[:3] = 1.0
    with pytest.raises(SpectralError, match=(
            r"broke down on an invariant subspace after 3 solves "
            r"\(eps at epsilon=0.25, 289 DOF, k=5, sigma=-1\)")):
        _lanczos(op, mass, 5, -1.0, v0, factor(op, mass, -1.0), 1e-9,
                 "eps at epsilon=0.25")


def test_lanczos_gives_up_after_the_restart_cap():
    _, k, m = laplace_pair(18)  # 289 dof
    with pytest.raises(SpectralError, match=(
            rf"did not converge in {MAX_RESTARTS} restarts after \d+ solves "
            r"\(eps_prime at epsilon=0.125, 289 DOF, k=2, sigma=-1\)")):
        shifted_eigs(k, m, 2, sigma=-1.0, tol=1e-30, tag="eps_prime",
                     epsilon=0.125)


@pytest.mark.parametrize("k", [1, 7, 8, 9, 32, 64])
@pytest.mark.parametrize("order", ["C", "F"])
def test_blocked_residuals_match_the_one_shot_formula(k, order):
    """A block boundary inside and at the end of the columns keeps the bits
    of ``||op V - lam M V|| / (|lam| ||M V||)`` formed in one go."""
    grid = DirichletGrid(32)
    op = EpsProblem(make_preset("smooth-iso", "sine1"), 0.5, grid).operator
    mass = interior_operator(grid, assemble_mass(grid))
    rng = np.random.default_rng(k)
    lam = rng.uniform(-5.0, 500.0, k)
    vecs = np.asarray(rng.standard_normal((op.shape[0], k)), order=order)
    mv = mass.dot(vecs)
    one_shot = (np.linalg.norm(op.dot(vecs) - lam[None, :] * mv, axis=0)
                / (np.maximum(np.abs(lam), 1e-30)
                   * np.linalg.norm(mv, axis=0)))
    assert np.array_equal(_relative_residuals(op, mass, lam, vecs), one_shot)


def test_orthonormalize_gives_an_m_orthonormal_basis_of_the_same_span():
    rng = np.random.default_rng(6)
    mixing = np.triu(rng.uniform(0.5, 3.0, (5, 5)))  # far from orthonormal
    vecs = rng.standard_normal((200, 5)) @ mixing
    mass = sp.diags(rng.uniform(0.5, 2.0, 200), format="csr")
    basis = _orthonormalize(vecs, mass)
    assert np.max(np.abs(basis.T @ mass.dot(basis) - np.eye(5))) < 1e-12
    coef = np.linalg.lstsq(vecs, basis, rcond=None)[0]
    assert np.max(np.abs(vecs @ coef - basis)) < 1e-12


def test_orthonormality_and_residual_invariants():
    _, k, m = laplace_pair(48)
    spec = shifted_eigs(k, m, 6, sigma=-1.0)
    gram = spec.eigenvectors.T @ (m @ spec.eigenvectors)
    assert np.max(np.abs(gram - np.eye(6))) < 1e-8
    assert np.max(spec.residuals) < 1e-8
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)


def test_reciprocal_eigenvalues_decrease():
    _, k, m = laplace_pair(48)
    spec = shifted_eigs(k, m, 6, sigma=-1.0)
    mu = 1.0 / spec.eigenvalues
    # the 5 pi^2 pair is exactly degenerate on a square grid, so non-strict
    assert np.all(np.diff(mu) <= 1e-15)


def test_k_validation():
    _, k, m = laplace_pair(48)
    with pytest.raises(ConfigurationError):
        shifted_eigs(k, m, 0, sigma=-1.0)
    with pytest.raises(ConfigurationError):
        shifted_eigs(k, m, 65, sigma=-1.0)


def test_eigs_needs_an_explicit_shift():
    # No default shift: -1 lies above lambda_1 for strong negative
    # potentials, where shift-invert silently returns the wrong pairs.
    _, k, m = laplace_pair(48)
    with pytest.raises(TypeError, match="sigma"):
        eigs(k, m, 4)


def test_constant_shift_moves_spectrum_exactly():
    _, k, m = laplace_pair(48)
    c = 7.5
    shifted = k + c * m
    a = shifted_eigs(k, m, 4, sigma=-1.0)
    b = shifted_eigs(shifted, m, 4, sigma=c - 1.0)
    assert np.max(np.abs(b.eigenvalues - (a.eigenvalues + c))) < 1e-9


def minmax_probe(op, mass, trials=20, seed=0):
    """Smallest Rayleigh quotient over random trial vectors.

    By the variational principle this can never undercut the true first
    eigenvalue.
    """
    rng = np.random.default_rng(seed)
    n = op.shape[0]
    best = np.inf
    for _ in range(trials):
        v = rng.standard_normal(n)
        best = min(best, float((v @ op.dot(v)) / (v @ mass.dot(v))))
    return best


def test_minmax_probe_never_beats_lowest_eigenvalue():
    _, k, m = laplace_pair(48)
    spec = shifted_eigs(k, m, 1, sigma=-1.0)
    probe = minmax_probe(k, m, trials=20, seed=4)
    assert probe >= spec.eigenvalues[0] - 1e-9


def test_zero_potential_makes_both_operators_identical():
    model = make_preset("identity", "zero")
    p = EpsProblem(model, 0.25, DirichletGrid(64))
    assert p.operator is p.diffusion


def test_eps_sigma_bound_is_the_quadrature_minimum():
    for preset, eps, n in (("sine1", 0.25, 64), ("sine-mix", 0.5, 48),
                           ("zero", 0.25, 64)):
        p = EpsProblem(make_preset("identity", preset), eps, DirichletGrid(n))
        pts = p.grid.quad_points(QUAD_XI)
        w_q = p.model.w_eval(pts[..., 0] / eps, pts[..., 1] / eps)
        assert eps_sigma_bound(p) == min(0.0, float(np.min(w_q))) / eps - 1.0


def test_eps_sigma_bound_sees_a_minimum_between_lattice_points():
    """W is zero except for a deep spike narrower than 1e-4 around one
    quadrature point, which no point of a regular 256^2 sample lattice
    offset by 0.31 spacings comes near; the shift must still undercut
    lambda_1."""
    grid = DirichletGrid(32)
    eps = 0.5
    spike = grid.quad_points(QUAD_XI)[5 * 32 + 5, 3] / eps  # in cell units
    width = 1e-4

    def w_eval(y1, y2):
        d1 = np.abs((y1 - spike[0] + 0.5) % 1.0 - 0.5)
        d2 = np.abs((y2 - spike[1] + 0.5) % 1.0 - 0.5)
        return -1e5 * (np.maximum(0.0, 1.0 - d1 / width)
                       * np.maximum(0.0, 1.0 - d2 / width))

    base = make_preset("identity", "zero")
    model = CoefficientModel(a_eval=base.a_eval, w_eval=w_eval,
                             f_eval=base.f_eval, kappa=base.kappa)
    p = EpsProblem(model, eps, grid)
    lam_1 = scipy.linalg.eigh(p.operator.toarray(),
                              p.mass_interior().toarray(), eigvals_only=True,
                              subset_by_index=(0, 0))[0]
    assert lam_1 < -1.0  # the lattice minimum, zero, would give -1
    assert eps_sigma_bound(p) < lam_1


def test_rayleigh_quotients_match_direct_quadrature():
    model = make_preset("smooth-iso", "sine1")
    p = EpsProblem(model, 0.25, DirichletGrid(64))
    spec = shifted_eigs(p.operator, p.mass_interior(), 3,
                        sigma=eps_sigma_bound(p), epsilon=0.25)
    defect = rayleigh_quadrature_defect(p, spec)
    assert np.max(defect) < 1e-10


def test_first_eigenvalue_comparison_arithmetic():
    rec = first_eigenvalue_comparison(0.25, 20.0, 19.5, 19.4, -0.1)
    assert rec["d7"] == pytest.approx(abs(20.0 - (19.5 - 0.1)))
    assert rec["d8"] == pytest.approx(abs(20.0 - (19.4 - 0.1)))


def test_a_failed_check_names_the_operator_and_its_scale():
    p = EpsProblem(make_preset("smooth-iso", "sine1"), 0.5, DirichletGrid(32))
    mass = p.mass_interior()
    spec = shifted_eigs(p.diffusion, mass, 3, sigma=0.0, tag="eps_prime",
                        epsilon=0.5)
    with pytest.raises(SpectralError,
                       match=r"\(eps_prime at epsilon=0\.5, 961 DOF\)$"):
        shift_spectrum(spec, 1.0, p.diffusion, mass, tag="eps_prime")


def test_gap_rows_normalization():
    sa = Spectrum(eigenvalues=np.array([4.0, 9.0]),
                  eigenvectors=np.zeros((1, 2)), residuals=np.zeros(2),
                  epsilon=0.5)
    sb = Spectrum(eigenvalues=np.array([4.5, 8.0]),
                  eigenvectors=np.zeros((1, 2)), residuals=np.zeros(2))
    rows = eigenvalue_gap_rows(0.5, sa, sb)
    assert [r["k"] for r in rows] == [1, 2]
    assert rows[0]["gap"] == pytest.approx(0.5)
    assert rows[0]["normalized_const"] == pytest.approx(0.5 / (0.5 * 4.0 ** 1.5))
    assert rows[1]["normalized_const"] == pytest.approx(1.0 / (0.5 * 27.0))


@pytest.fixture(scope="module")
def spec():
    _, k, m = laplace_pair(48)
    return shifted_eigs(k, m, 8, sigma=-1.0), k, m


class TestClusterProjection:
    def test_first_mode_projects_onto_itself(self, spec):
        s, k, m = spec
        f = s.eigenvectors[:, 0].copy()
        lam = float(s.eigenvalues[0])
        cp = cluster_projection(s, lam, f, k, m)
        assert cp.members == [1]
        assert np.max(np.abs(cp.s - f)) < 1e-12
        assert np.max(np.abs(cp.r)) < 1e-10
        assert not cp.truncated

    def test_degenerate_pair_shares_a_window(self, spec):
        s, k, m = spec
        lam = float(s.eigenvalues[1])  # 5 pi^2 pair
        f = s.eigenvectors[:, 1] + 0.3 * s.eigenvectors[:, 2]
        cp = cluster_projection(s, lam, f, k, m)
        assert cp.members == [2, 3]
        assert cp.s_norm <= cp.f_norm + 1e-12
        assert cp.residual_constant < 1e-8  # both members sit at lam

    def test_projection_is_idempotent(self, spec):
        s, k, m = spec
        lam = float(s.eigenvalues[0])
        f = np.sum(s.eigenvectors[:, :4], axis=1)
        cp = cluster_projection(s, lam, f, k, m)
        cp2 = cluster_projection(s, lam, cp.s.copy(), k, m)
        assert np.max(np.abs(cp2.s - cp.s)) < 1e-10

    def test_orthogonal_data_projects_to_zero(self, spec):
        s, k, m = spec
        lam = float(s.eigenvalues[0])
        f = s.eigenvectors[:, 5].copy()  # far outside the window
        cp = cluster_projection(s, lam, f, k, m)
        assert cp.s_norm < 1e-12

    def test_lambda_below_one_rejected(self, spec):
        s, k, m = spec
        with pytest.raises(ConfigurationError):
            cluster_projection(s, 0.5, s.eigenvectors[:, 0], k, m)

    def test_zero_data_rejected(self, spec):
        s, k, m = spec
        with pytest.raises(SpectralError):
            cluster_projection(s, float(s.eigenvalues[0]),
                               np.zeros(s.eigenvectors.shape[0]), k, m)
