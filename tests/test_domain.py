"""Boundary-value solves on the unit square and their guard rails."""

import numpy as np
import pytest
import scipy.sparse as sp

import homlab.domain
from conftest import effective_factor, eps_factor_and_report, factor
from homlab.analysis import jacobian_check
from homlab.coefficients import CoefficientModel, make_preset
from homlab.domain import (
    EpsProblem,
    coercivity_check,
    constant_matrix,
    galerkin_energy_defect,
    homogenized_lower_bound,
    solve_dirichlet_correctors,
    solve_eps,
    solve_homogenized,
)
from homlab.errors import CoercivityError, ConfigurationError, SolverError
from homlab.fem import (
    assemble_load,
    assemble_stiffness,
    cg_solve,
    interior_operator,
    l2_norm,
)
from homlab.grids import DirichletGrid, GridFunction
from homlab.spectral import eigs


def full_stiffness(p):
    """Stiffness of ``p``'s diffusion on every node of its grid."""
    return assemble_stiffness(p.grid, lambda x1, x2: p.model.a_eval(
        x1 / p.epsilon, x2 / p.epsilon))


def eps_spectrum(p, k=1):
    """The spectrum at shift -300 and the factor it used."""
    op, mass = p.operator, p.mass_interior()
    lu = factor(op, mass, -300.0)
    return eigs(op, mass, k, sigma=-300.0, lu=lu, epsilon=p.epsilon), lu


def solved_eps(p):
    """u_eps as the pipeline's ``eps`` task solves it."""
    lu, report = eps_factor_and_report(p)
    return solve_eps(p, coercivity=report, lu=lu)


def correctors(p):
    """The Dirichlet correctors with the factor of the diffusion matrix."""
    return solve_dirichlet_correctors(p, lu=factor(p.diffusion))


def test_resolution_guard():
    model = make_preset("identity")
    with pytest.raises(ConfigurationError) as exc:
        EpsProblem(model, 1.0 / 16.0, DirichletGrid(64))
    assert "too coarse" in str(exc.value)
    EpsProblem(model, 1.0 / 4.0, DirichletGrid(64))  # h = eps/16 exactly: fine


def test_epsilon_must_be_positive():
    with pytest.raises(ConfigurationError):
        EpsProblem(make_preset("identity"), 0.0, DirichletGrid(64))


def test_identity_solution_is_scale_free():
    """With constant coefficients the oscillatory operator does not depend
    on the scale at all, so solves at different eps agree bitwise."""
    model = make_preset("identity", "zero", "sine-sine")
    grid = DirichletGrid(128)
    sols = []
    for eps in (0.25, 0.125):
        p = EpsProblem(model, eps, grid)
        sols.append(solved_eps(p).values)
    assert np.array_equal(sols[0], sols[1])


def test_poisson_solve_second_order():
    # -lap u = 2 pi^2 sin(pi x) sin(pi y), u = sin(pi x) sin(pi y)
    def f(x, y):
        return 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y)

    errs = {}
    for n in (32, 64):
        grid = DirichletGrid(n)
        u = solve_homogenized(np.eye(2), 0.0, grid, f,
                              lu=effective_factor(grid, np.eye(2)))
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
    p = EpsProblem(make_preset("identity", "zero", "sine-sine"), 0.25, grid)
    op = p.operator
    k_hat = interior_operator(grid, assemble_stiffness(
        grid, constant_matrix(np.eye(2))))
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(op, part), getattr(k_hat, part))


def test_galerkin_energy_defect_small():
    model = make_preset("smooth-iso", "sine1", "sine-sine")
    p = EpsProblem(model, 0.25, DirichletGrid(64))
    u = solved_eps(p)
    assert galerkin_energy_defect(p, u) < 1e-10


def test_quadrature_energies_match_the_assembled_forms():
    # galerkin_energy_defect compares exactly these two routes: u^T L u and
    # u^T M u against direct quadrature of the fields.
    p = EpsProblem(make_preset("smooth-iso", "sine1"), 0.25, DirichletGrid(64))
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
    p = EpsProblem(strong, 0.5, DirichletGrid(32))
    spectrum, lu = eps_spectrum(p)
    report = coercivity_check(spectrum, 0.0)
    assert not report.coercive
    assert report.epsilon == 0.5
    assert report.lambda_eps_1 == pytest.approx(-74.718, abs=0.5)
    with pytest.raises(CoercivityError):
        solve_eps(p, coercivity=report, lu=lu)


def test_coercivity_report_on_sound_problem():
    model = make_preset("smooth-iso", "sine1")
    p = EpsProblem(model, 0.25, DirichletGrid(64))
    spectrum, lu = eps_spectrum(p, k=3)
    report = coercivity_check(spectrum, -0.006)
    assert report.coercive
    assert report.epsilon == 0.25
    assert report.lambda_eps_1 == spectrum.eigenvalues[0] > 0
    assert report.m_w_chi_w == -0.006
    u = solve_eps(p, coercivity=report, lu=lu)
    assert np.isfinite(u.values).all()


def test_homogenized_lower_bound_identity():
    assert homogenized_lower_bound(np.eye(2)) == pytest.approx(2 * np.pi ** 2)


def test_homogenized_sign_hypothesis_guard():
    grid = DirichletGrid(32)
    bad_m = -(2 * np.pi ** 2) - 1.0
    # the factor the pipeline holds then: K + M, from its fallback shift -1
    with pytest.raises(ConfigurationError) as exc:
        solve_homogenized(np.eye(2), bad_m, grid, lambda x, y: np.ones_like(x),
                          lu=effective_factor(grid, np.eye(2), 1.0))
    assert "sign hypothesis" in str(exc.value)


def test_identity_boundary_correctors_are_coordinates():
    p = EpsProblem(make_preset("identity"), 0.25, DirichletGrid(64))
    dc = correctors(p)
    assert dc.sup_deviation() < 1e-12
    assert jacobian_check(dc) > 1.0 - 1e-9


def test_layered_boundary_correctors_scale_linearly():
    model = make_preset("layered")
    grid = DirichletGrid(128)
    sup = {}
    for eps in (0.25, 0.125):
        dc = correctors(EpsProblem(model, eps, grid))
        sup[eps] = dc.sup_deviation()
        assert jacobian_check(dc) > 0.2  # frozen floor, measured ~0.56
    assert sup[0.25] == pytest.approx(3.8937884e-2, rel=1e-5)
    assert sup[0.125] == pytest.approx(2.0158834e-2, rel=1e-5)
    assert 1.6 < sup[0.25] / sup[0.125] < 2.4


def test_corrector_boundary_values_pin_to_coordinates():
    p = EpsProblem(make_preset("layered"), 0.25, DirichletGrid(64))
    dc = correctors(p)
    grid = p.grid
    coords = grid.node_coords()
    wall = ~grid.is_interior
    for j in range(2):
        assert np.array_equal(dc.phi[j].values[wall], coords[wall, j])


def test_problem_keeps_lifts_instead_of_the_full_stiffness():
    """Assembly leaves only interior matrices behind, plus the corrector
    loads -(K x_j), equal bit for bit to those of the full stiffness K."""
    p = EpsProblem(make_preset("layered", "sine1"), 0.25, DirichletGrid(64))
    grid = p.grid
    held = [v for v in vars(p).values() if sp.issparse(v)]
    assert held
    assert all(m.shape == (grid.ndof, grid.ndof) for m in held)
    k_full = full_stiffness(p)
    coords = grid.node_coords()
    lifts = p.lifts
    assert len(lifts) == 2
    for j in 0, 1:
        assert np.array_equal(lifts[j], -grid.restrict(k_full @ coords[:, j]))


def test_problem_is_assembled_once_on_construction(monkeypatch):
    """After construction nothing assembles: reading the operators, solving
    the correctors and the energy probe use what the problem holds."""
    p = EpsProblem(make_preset("layered", "sine1"), 0.25, DirichletGrid(64))

    def refuse(*args, **kwargs):
        raise AssertionError("assembled after construction")

    for name in ("assemble_stiffness", "assemble_weighted_mass",
                 "assemble_mass"):
        monkeypatch.setattr(homlab.domain, name, refuse)
    ndof = p.grid.ndof
    assert p.operator.shape == p.diffusion.shape == (ndof, ndof)
    assert p.operator is not p.diffusion  # W is not zero
    assert [lift.shape for lift in p.lifts] == [(ndof,), (ndof,)]
    dc = correctors(p)
    assert galerkin_energy_defect(p, dc.deviation[0]) < 1e-10


def test_direct_solves_match_a_tight_cg_reference():
    model = make_preset("smooth-iso", "sine1", "sine-sine")
    p = EpsProblem(model, 0.25, DirichletGrid(64))
    grid = p.grid

    def close(x, ref):
        return np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    u = solved_eps(p)
    rhs = grid.restrict(assemble_load(grid, model.f_eval))
    ref = cg_solve(p.operator, rhs, tol=1e-13)
    assert close(grid.restrict(u.values), ref)

    dc = correctors(p)
    coords = grid.node_coords()
    for j in 0, 1:
        load = -grid.restrict(full_stiffness(p).dot(coords[:, j]))
        ref = cg_solve(p.diffusion, load, tol=1e-13)
        assert close(grid.restrict(dc.deviation[j].values), ref)


def counting_cg(monkeypatch, **fixed):
    calls = []

    def cg(*args, **kwargs):
        calls.append(kwargs)
        return cg_solve(*args, **{**kwargs, **fixed})

    monkeypatch.setattr(homlab.domain, "cg_solve", cg)
    return calls


def test_pcg_with_the_shifted_factor_matches_the_direct_solve(monkeypatch):
    p = EpsProblem(make_preset("smooth-iso", "sine1", "sine-sine"), 0.25,
                   DirichletGrid(64))
    lu, report = eps_factor_and_report(p)
    assert report.coercive
    rhs = p.grid.restrict(assemble_load(p.grid, p.model.f_eval))
    direct = p.grid.extend(factor(p.operator).solve(rhs))
    calls = counting_cg(monkeypatch)
    pcg = solve_eps(p, coercivity=report, lu=lu).values
    assert len(calls) == 1 and calls[0]["precond"] == lu.solve
    assert np.max(np.abs(pcg - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_pcg_failure_names_epsilon(monkeypatch):
    p = EpsProblem(make_preset("smooth-iso", "sine1", "sine-sine"), 0.25,
                   DirichletGrid(64))
    lu, report = eps_factor_and_report(p)
    counting_cg(monkeypatch, max_iter=1)
    with pytest.raises(SolverError, match="epsilon=0.25") as exc:
        solve_eps(p, coercivity=report, lu=lu)
    assert exc.value.iterations == 1


def test_noncoercive_report_stops_the_solve_before_cg(monkeypatch):
    base = make_preset("identity", "sine1")
    strong = CoefficientModel(
        a_eval=base.a_eval,
        w_eval=lambda y1, y2: 100.0 * base.w_eval(y1, y2),
        f_eval=base.f_eval, kappa=0.999)
    p = EpsProblem(strong, 0.5, DirichletGrid(32))
    lu, report = eps_factor_and_report(p)
    assert not report.coercive
    calls = counting_cg(monkeypatch)
    with pytest.raises(CoercivityError):
        solve_eps(p, coercivity=report, lu=lu)
    assert calls == []
