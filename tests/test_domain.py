"""Boundary-value solves on the unit square and their guard rails."""

import numpy as np
import pytest
import scipy.sparse as sp

import homlab.domain
from conftest import (
    effective_factor,
    eps_factor_and_report,
    eps_problem,
    factor,
    interior_load,
    oracle_elements,
    oracle_matrix,
)
from homlab.analysis import jacobian_check
from homlab.coefficients import CoefficientModel, make_preset
from homlab.domain import (
    DiffusionProblem,
    EpsProblem,
    coercivity_check,
    constant_matrix,
    effective_eigenpairs,
    galerkin_energy_defect,
    homogenized_lower_bound,
    solve_dirichlet_correctors,
    solve_eps,
    solve_homogenized,
)
from homlab.errors import CoercivityError, ConfigurationError, SolverError
from homlab.fem import (
    assemble_mass,
    assemble_stiffness,
    cg_solve,
    l2_norm,
    quad_samples,
)
from homlab.grids import DirichletGrid, GridFunction
from homlab.spectral import eigs


def full_stiffness(p):
    """Stiffness of ``p``'s diffusion on every node of its grid, by the COO
    oracle."""
    elem = oracle_elements(p.grid, a=quad_samples(
        p.grid, lambda x1, x2: p.model.a_eval(x1 / p.epsilon, x2 / p.epsilon)))
    return oracle_matrix(p.grid, elem, full=True)


def eps_spectrum(p, k=1):
    """The spectrum at shift -300 and the factor it used."""
    op, mass = p.operator, p.mass_interior()
    lu = factor(op, mass, -300.0)
    return eigs(op, mass, k, sigma=-300.0, lu=lu, epsilon=p.epsilon), lu


def f_load(p):
    """The interior load of ``p``'s f, which the pipeline samples once per
    run and hands to every solve."""
    return interior_load(p.grid, p.model.f_eval)


def solved_eps(p):
    """u_eps as the pipeline's ``eps`` task solves it."""
    lu, report = eps_factor_and_report(p)
    return solve_eps(p, report, f_load(p), lu=lu)


def correctors(d):
    """The Dirichlet correctors with the factor of the diffusion matrix."""
    return solve_dirichlet_correctors(d, lu=factor(d.stiffness))


def test_resolution_guard():
    model = make_preset("identity")
    with pytest.raises(ConfigurationError) as exc:
        eps_problem(model, 1.0 / 16.0, DirichletGrid(64))
    assert "too coarse" in str(exc.value)
    eps_problem(model, 1.0 / 4.0, DirichletGrid(64))  # h = eps/16 exactly: fine


def test_epsilon_must_be_positive():
    with pytest.raises(ConfigurationError):
        eps_problem(make_preset("identity"), 0.0, DirichletGrid(64))


def test_identity_solution_is_scale_free():
    """With constant coefficients the oscillatory operator does not depend
    on the scale at all, so solves at different eps agree bitwise."""
    model = make_preset("identity", "zero", "sine-sine")
    grid = DirichletGrid(128)
    sols = []
    for eps in (0.25, 0.125):
        p = eps_problem(model, eps, grid)
        sols.append(solved_eps(p).values)
    assert np.array_equal(sols[0], sols[1])


def test_poisson_solve_second_order():
    # -lap u = 2 pi^2 sin(pi x) sin(pi y), u = sin(pi x) sin(pi y)
    def f(x, y):
        return 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)

    errs = {}
    for n in (32, 64):
        grid = DirichletGrid(n)
        u = solve_homogenized(np.eye(2), 0.0, grid, interior_load(grid, f))
        c = grid.node_coords()
        exact = np.sin(np.pi * c[:, 0]) * np.sin(np.pi * c[:, 1])
        errs[n] = l2_norm(GridFunction(grid, u.values - exact))
    assert errs[32] < 4.1e-4           # measured 4.011e-4
    assert errs[32] / errs[64] > 3.7   # measured 3.997


def test_identity_homogenized_equals_eps_solve():
    """With identity diffusion and no potential the oscillatory operator
    is, bit for bit, the effective one with a_hat = I and m = 0, so both
    problems are the same linear system."""
    grid = DirichletGrid(64)
    p = eps_problem(make_preset("identity", "zero", "sine-sine"), 0.25, grid)
    op = p.operator
    k_hat = assemble_stiffness(grid, quad_samples(grid, constant_matrix(np.eye(2))))
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(op, part), getattr(k_hat, part))


def test_galerkin_energy_defect_small():
    model = make_preset("smooth-iso", "sine1", "sine-sine")
    p = eps_problem(model, 0.25, DirichletGrid(64))
    u = solved_eps(p)
    assert galerkin_energy_defect(p, u) < 1e-10


def test_quadrature_energies_match_the_assembled_forms():
    # galerkin_energy_defect compares exactly these two routes: u^T L u and
    # u^T M u against direct quadrature of the fields.
    p = eps_problem(make_preset("smooth-iso", "sine1"), 0.25, DirichletGrid(64))
    inner = np.random.default_rng(5).standard_normal(p.grid.ndof)
    energy, mass = p.quadrature_energies([p.grid.extend(inner)])[0]
    assert energy == pytest.approx(
        inner @ p.operator.dot(inner), rel=1e-12)
    assert mass == pytest.approx(inner @ p.mass_interior().dot(inner), rel=1e-12)


def test_coercivity_flag_goes_false_without_raising():
    base = make_preset("identity", "sine1")
    strong = CoefficientModel(
        a_eval=base.a_eval,
        w_eval=lambda y1, y2: 100.0 * base.w_eval(y1, y2),
        f_eval=base.f_eval, kappa=0.999)
    p = eps_problem(strong, 0.5, DirichletGrid(32))
    spectrum, lu = eps_spectrum(p)
    report = coercivity_check(spectrum)
    assert not report.coercive
    assert report.lambda_eps_1 == pytest.approx(-74.718, abs=0.5)
    with pytest.raises(CoercivityError):
        solve_eps(p, report, f_load(p), lu=lu)


def test_coercivity_report_on_sound_problem():
    model = make_preset("smooth-iso", "sine1")
    p = eps_problem(model, 0.25, DirichletGrid(64))
    spectrum, lu = eps_spectrum(p, k=3)
    report = coercivity_check(spectrum)
    assert report.coercive
    assert report.lambda_eps_1 == spectrum.eigenvalues[0] > 0
    u = solve_eps(p, report, f_load(p), lu=lu)
    assert np.isfinite(u.values).all()


def test_homogenized_lower_bound_identity():
    assert homogenized_lower_bound(np.eye(2)) == pytest.approx(2 * np.pi ** 2)


def test_homogenized_sign_hypothesis_guard():
    grid = DirichletGrid(32)
    bad_m = -(2 * np.pi ** 2) - 1.0
    with pytest.raises(ConfigurationError) as exc:
        solve_homogenized(np.eye(2), bad_m, grid,
                          interior_load(grid, lambda x, y: np.ones_like(x)))
    assert "sign hypothesis" in str(exc.value)


def dense_pencil_pairs(grid, a_hat):
    """Every eigenpair of the assembled K v = lambda M v by a dense solve:
    M = L L^T, then ``np.linalg.eigh`` of L^-1 K L^-T; the vectors are
    returned as L^T v, orthonormal in the Euclidean sense, with L."""
    k = assemble_stiffness(grid, quad_samples(
        grid, constant_matrix(a_hat))).toarray()
    chol = np.linalg.cholesky(assemble_mass(grid).toarray())
    half = np.linalg.solve(chol, np.linalg.solve(chol, k).T)  # L^-1 K L^-T
    lam, vecs = np.linalg.eigh(0.5 * (half + half.T))
    return lam, vecs, chol


@pytest.mark.parametrize("n", [12, 13])
@pytest.mark.parametrize("a_hat", [np.diag([np.sqrt(3.0), 2.0]),
                                   1.7 * np.eye(2)])
def test_effective_eigenpairs_match_a_dense_eigensolve(n, a_hat):
    """All (n-1)^2 closed-form pairs against the dense generalized
    eigensolve of the assembled pencil: the eigenvalues to 1e-13 relative,
    and the plane of each exact pair among the lowest 32 (sin p x sin q y
    and sin q x sin p y, for isotropic a_hat) to a largest principal angle
    of 1e-12.  Higher up, pairs sit within 2 of their neighbours while
    ||L^-1 K L^-T|| is about 6600, so the dense eigenvectors themselves
    are only good to about 1e-16 * 6600 / 2 (measured 8e-13)."""
    grid = DirichletGrid(n)
    lam, vecs = effective_eigenpairs(a_hat, grid, grid.ndof)
    ref, ref_vecs, chol = dense_pencil_pairs(grid, a_hat)
    assert np.max(np.abs(lam - ref) / ref) <= 1e-13
    ortho = chol.T @ vecs  # L^T v: M-orthonormal becomes orthonormal
    assert np.max(np.abs(ortho.T @ ortho - np.eye(grid.ndof))) < 1e-13
    pairs = np.flatnonzero(np.diff(lam[:32]) <= 1e-12 * lam[1:32])
    assert pairs.size > 0 if a_hat[0, 0] == a_hat[1, 1] else pairs.size == 0
    for j in pairs:
        mine, theirs = ortho[:, j:j + 2], ref_vecs[:, j:j + 2]
        away = mine - theirs @ (theirs.T @ mine)
        assert np.linalg.norm(away, 2) <= 1e-12, j


def test_homogenized_solve_matches_the_factor():
    """u_0 by sine products against the Cholesky solve of K + m M."""
    grid = DirichletGrid(64)
    a_hat = np.diag([np.sqrt(3.0), 2.0])
    rhs = interior_load(grid, make_preset("identity", f_preset="sine-sine")
                        .f_eval)
    for m in (3.0, -20.0):
        u = solve_homogenized(a_hat, m, grid, rhs).values
        ref = grid.extend(effective_factor(grid, a_hat, m).solve(rhs))
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref)), m


@pytest.mark.parametrize("entry, index", [("a_hat_12", (0, 1)),
                                          ("a_hat_21", (1, 0))])
def test_closed_forms_refuse_an_off_diagonal_a_hat(entry, index):
    """Both closed forms need a diagonal a_hat: an off-diagonal entry of
    1e-6 raises ConfigurationError naming it, while 1e-13 passes."""
    grid = DirichletGrid(16)
    rhs = interior_load(grid, lambda x, y: np.ones_like(x))
    a_hat = np.eye(2)
    a_hat[index] = 1e-6
    with pytest.raises(ConfigurationError, match=f"^{entry} = 1e-06 "):
        effective_eigenpairs(a_hat, grid, 3)
    with pytest.raises(ConfigurationError, match=f"^{entry} = 1e-06 "):
        solve_homogenized(a_hat, 0.0, grid, rhs)
    a_hat[index] = 1e-13
    assert np.array_equal(effective_eigenpairs(a_hat, grid, 3)[0],
                          effective_eigenpairs(np.eye(2), grid, 3)[0])


def test_identity_boundary_correctors_are_coordinates():
    dc = correctors(DiffusionProblem(make_preset("identity"), 0.25,
                                     DirichletGrid(64)))
    assert dc.sup_deviation() < 1e-12
    assert jacobian_check(dc) > 1.0 - 1e-9


def test_layered_boundary_correctors_scale_linearly():
    model = make_preset("layered")
    grid = DirichletGrid(128)
    sup = {}
    for eps in (0.25, 0.125):
        dc = correctors(DiffusionProblem(model, eps, grid))
        sup[eps] = dc.sup_deviation()
        assert jacobian_check(dc) > 0.2  # frozen floor, measured ~0.56
    assert sup[0.25] == pytest.approx(3.8937884e-2, rel=1e-5)
    assert sup[0.125] == pytest.approx(2.0158834e-2, rel=1e-5)
    assert 1.6 < sup[0.25] / sup[0.125] < 2.4


def test_corrector_boundary_values_pin_to_coordinates():
    d = DiffusionProblem(make_preset("layered"), 0.25, DirichletGrid(64))
    dc = correctors(d)
    grid = d.grid
    coords = grid.node_coords()
    wall = ~grid.is_interior
    for j in range(2):
        assert np.array_equal(dc.phi[j].values[wall], coords[wall, j])


def test_problem_keeps_lifts_instead_of_the_full_stiffness():
    """Assembly leaves only interior matrices behind, plus the corrector
    loads -(K x_j) of the full stiffness K.  The problem forms them as the
    loads (A e_j, grad N_a), without K, so they match K x_j up to round-off
    in its sum: 1e-13 of the largest row of |K| |x_j|."""
    d = DiffusionProblem(make_preset("layered", "sine1"), 0.25,
                         DirichletGrid(64))
    grid = d.grid
    held = [v for obj in (d, EpsProblem(d)) for v in vars(obj).values()
            if sp.issparse(v)]
    assert len(held) == 2
    assert all(m.shape == (grid.ndof, grid.ndof) for m in held)
    k_full = full_stiffness(d)
    coords = grid.node_coords()
    lifts = d.lifts
    assert len(lifts) == 2
    for j in 0, 1:
        ref = -grid.restrict(k_full @ coords[:, j])
        scale = np.max(abs(k_full) @ np.abs(coords[:, j]))
        assert np.max(np.abs(lifts[j] - ref)) <= 1e-13 * scale


def test_problem_is_assembled_once_on_construction(monkeypatch):
    """After construction nothing assembles: reading the operators, solving
    the correctors and the energy probe use what the problem holds."""
    d = DiffusionProblem(make_preset("layered", "sine1"), 0.25,
                         DirichletGrid(64))
    p = EpsProblem(d)

    def refuse(*args, **kwargs):
        raise AssertionError("assembled after construction")

    for name in ("assemble_stiffness", "assemble_weighted_mass",
                 "assemble_mass"):
        monkeypatch.setattr(homlab.domain, name, refuse)
    ndof = p.grid.ndof
    assert p.operator.shape == d.stiffness.shape == (ndof, ndof)
    assert p.operator is not d.stiffness  # W is not zero
    assert [lift.shape for lift in d.lifts] == [(ndof,), (ndof,)]
    dc = correctors(d)
    assert galerkin_energy_defect(p, dc.deviation[0]) < 1e-10


def test_direct_solves_match_a_tight_cg_reference():
    model = make_preset("smooth-iso", "sine1", "sine-sine")
    d = DiffusionProblem(model, 0.25, DirichletGrid(64))
    p = EpsProblem(d)
    grid = p.grid

    def close(x, ref):
        return np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    u = solved_eps(p)
    rhs = f_load(p)
    ref = cg_solve(p.operator, rhs, tol=1e-13)
    assert close(grid.restrict(u.values), ref)

    dc = correctors(d)
    coords = grid.node_coords()
    for j in 0, 1:
        load = -grid.restrict(full_stiffness(d).dot(coords[:, j]))
        ref = cg_solve(d.stiffness, load, tol=1e-13)
        assert close(grid.restrict(dc.deviation[j].values), ref)


def counting_cg(monkeypatch, **fixed):
    calls = []

    def cg(*args, **kwargs):
        calls.append(kwargs)
        return cg_solve(*args, **{**kwargs, **fixed})

    monkeypatch.setattr(homlab.domain, "cg_solve", cg)
    return calls


def test_pcg_with_the_shifted_factor_matches_the_direct_solve(monkeypatch):
    p = eps_problem(make_preset("smooth-iso", "sine1", "sine-sine"), 0.25,
                   DirichletGrid(64))
    lu, report = eps_factor_and_report(p)
    assert report.coercive
    rhs = f_load(p)
    direct = p.grid.extend(factor(p.operator).solve(rhs))
    calls = counting_cg(monkeypatch)
    pcg = solve_eps(p, report, rhs, lu=lu).values
    assert len(calls) == 1 and calls[0]["precond"] == lu.solve
    assert np.max(np.abs(pcg - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_pcg_failure_names_epsilon(monkeypatch):
    p = eps_problem(make_preset("smooth-iso", "sine1", "sine-sine"), 0.25,
                   DirichletGrid(64))
    lu, report = eps_factor_and_report(p)
    counting_cg(monkeypatch, max_iter=1)
    with pytest.raises(SolverError, match="epsilon=0.25") as exc:
        solve_eps(p, report, f_load(p), lu=lu)
    assert exc.value.iterations == 1


def test_noncoercive_report_stops_the_solve_before_cg(monkeypatch):
    base = make_preset("identity", "sine1")
    strong = CoefficientModel(
        a_eval=base.a_eval,
        w_eval=lambda y1, y2: 100.0 * base.w_eval(y1, y2),
        f_eval=base.f_eval, kappa=0.999)
    p = eps_problem(strong, 0.5, DirichletGrid(32))
    lu, report = eps_factor_and_report(p)
    assert not report.coercive
    calls = counting_cg(monkeypatch)
    with pytest.raises(CoercivityError):
        solve_eps(p, report, f_load(p), lu=lu)
    assert calls == []
