"""Boundary-value solves on the unit square and their guard rails."""

import numpy as np
import pytest

from conftest import effective_factor
from homlab.coefficients import CoefficientModel, make_preset
from homlab.domain import (
    EpsProblem,
    coercivity_check,
    galerkin_energy_defect,
    homogenized_lower_bound,
    solve_dirichlet_correctors,
    solve_eps,
    solve_homogenized,
)
from homlab.errors import CoercivityError, ConfigurationError
from homlab.fem import assemble_load, cg_solve, l2_norm
from homlab.grids import DirichletGrid, GridFunction
from homlab.spectral import eigs


def eps_spectrum(p, k=1):
    return eigs(p.operator_interior(), p.mass_interior(), k, sigma=-300.0,
                epsilon=p.epsilon)


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
        sols.append(solve_eps(p, allow_noncoercive=True).values)
    assert np.array_equal(sols[0], sols[1])


def test_solve_requires_report_or_override():
    p = EpsProblem(make_preset("identity"), 0.25, DirichletGrid(64))
    with pytest.raises(ConfigurationError):
        solve_eps(p)


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
    model = make_preset("identity", "zero", "sine-sine")
    grid = DirichletGrid(64)
    p = EpsProblem(model, 0.25, grid)
    u_eps = solve_eps(p, allow_noncoercive=True)
    u_0 = solve_homogenized(np.eye(2), 0.0, grid, model.f_eval,
                            lu=effective_factor(grid, np.eye(2)))
    assert np.array_equal(u_eps.values, u_0.values)


def test_galerkin_energy_defect_small():
    model = make_preset("smooth-iso", "sine1", "sine-sine")
    p = EpsProblem(model, 0.25, DirichletGrid(64))
    u = solve_eps(p, allow_noncoercive=True)
    assert galerkin_energy_defect(p, u) < 1e-10


def test_coercivity_flag_goes_false_without_raising():
    base = make_preset("identity", "sine1")
    strong = CoefficientModel(
        a_eval=base.a_eval,
        w_eval=lambda y1, y2: 100.0 * base.w_eval(y1, y2),
        f_eval=base.f_eval, kappa=0.999)
    p = EpsProblem(strong, 0.5, DirichletGrid(32))
    report = coercivity_check(eps_spectrum(p), 0.0)
    assert not report.coercive
    assert report.epsilon == 0.5
    assert report.lambda_eps_1 == pytest.approx(-74.718, abs=0.5)
    with pytest.raises(CoercivityError):
        solve_eps(p, coercivity=report)


def test_coercivity_report_on_sound_problem():
    model = make_preset("smooth-iso", "sine1")
    p = EpsProblem(model, 0.25, DirichletGrid(64))
    spectrum = eps_spectrum(p, k=3)
    report = coercivity_check(spectrum, -0.006)
    assert report.coercive
    assert report.epsilon == 0.25
    assert report.lambda_eps_1 == spectrum.eigenvalues[0] > 0
    assert report.m_w_chi_w == -0.006
    u = solve_eps(p, coercivity=report)
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
    dc = solve_dirichlet_correctors(p)
    assert dc.sup_deviation() < 1e-12
    assert dc.min_jacobian() > 1.0 - 1e-9


def test_layered_boundary_correctors_scale_linearly():
    model = make_preset("layered")
    grid = DirichletGrid(128)
    sup = {}
    for eps in (0.25, 0.125):
        dc = solve_dirichlet_correctors(EpsProblem(model, eps, grid))
        sup[eps] = dc.sup_deviation()
        assert dc.min_jacobian() > 0.2  # frozen floor, measured ~0.56
    assert sup[0.25] == pytest.approx(3.8937884e-2, rel=1e-5)
    assert sup[0.125] == pytest.approx(2.0158834e-2, rel=1e-5)
    assert 1.6 < sup[0.25] / sup[0.125] < 2.4


def test_correctors_with_zero_load_skip_the_solve():
    """A zero diffusion field makes both corrector loads exactly zero."""
    base = make_preset("identity")
    flat = CoefficientModel(
        a_eval=lambda y1, y2: np.zeros(np.shape(y1) + (2, 2)),
        w_eval=base.w_eval, f_eval=base.f_eval, kappa=base.kappa)
    p = EpsProblem(flat, 0.25, DirichletGrid(64))
    dc = solve_dirichlet_correctors(p)
    assert dc.sup_deviation() == 0.0
    coords = p.grid.node_coords()
    for j in range(2):
        assert np.array_equal(dc.phi[j].values, coords[:, j])


def test_corrector_boundary_values_pin_to_coordinates():
    p = EpsProblem(make_preset("layered"), 0.25, DirichletGrid(64))
    dc = solve_dirichlet_correctors(p)
    grid = p.grid
    coords = grid.node_coords()
    wall = ~grid.is_interior
    for j in range(2):
        assert np.array_equal(dc.phi[j].values[wall], coords[wall, j])


def test_direct_solves_match_a_tight_cg_reference():
    model = make_preset("smooth-iso", "sine1", "sine-sine")
    p = EpsProblem(model, 0.25, DirichletGrid(64))
    grid = p.grid

    def close(x, ref):
        return np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    u = solve_eps(p, allow_noncoercive=True)
    rhs = grid.restrict(assemble_load(grid, model.f_eval))
    ref = cg_solve(p.operator_interior(), rhs, tol=1e-13)
    assert close(grid.restrict(u.values), ref)

    dc = solve_dirichlet_correctors(p)
    coords = grid.node_coords()
    for j in 0, 1:
        load = -grid.restrict(p.stiffness_full().dot(coords[:, j]))
        ref = cg_solve(p.diffusion_interior(), load, tol=1e-13)
        assert close(grid.restrict(dc.deviation[j].values), ref)
