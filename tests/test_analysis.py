from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    eps_factor_and_report,
    eps_problem,
    factor,
    interior_load,
    shifted_eigs,
)
from homlab.analysis import (
    build_expansion,
    flux_table,
    jacobian_check,
    rate_fit,
    sample_cell_field,
)
from homlab.cell import solve_cell
from homlab.coefficients import make_preset
from homlab.domain import (DiffusionProblem, EpsProblem,
                           rayleigh_quadrature_defect,
                           solve_dirichlet_correctors, solve_eps,
                           solve_homogenized)
from homlab.errors import InsufficientDataError, UsageError
from homlab.grids import DirichletGrid, GridFunction, PeriodicGrid, interpolate
from homlab.spectral import cluster_projection


# ---------------------------------------------------------------- rate_fit

@settings(max_examples=40, deadline=None)
@given(slope=st.floats(min_value=-3, max_value=3).filter(lambda s: abs(s) > 1e-3),
       logc=st.floats(min_value=-5, max_value=5))
def test_rate_fit_recovers_exact_power_laws(slope, logc):
    eps = [0.25, 0.125, 0.0625, 0.03125]
    pts = [(e, np.exp(logc) * e ** slope) for e in eps]
    rep = rate_fit(pts, "probe")
    assert rep.slope == pytest.approx(slope, abs=1e-9)
    assert rep.intercept == pytest.approx(logc, abs=1e-8)
    assert rep.r2 == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_excludes_nonpositive_values():
    pts = [(0.25, 1.0), (0.125, 0.5), (0.0625, 0.25), (0.03125, 0.0)]
    rep = rate_fit(pts, "probe")
    assert rep.excluded == [(0.03125, 0.0)]
    assert len(rep.points) == 3
    assert rep.slope == pytest.approx(1.0, abs=1e-12)


def test_rate_fit_needs_three_usable_points():
    with pytest.raises(InsufficientDataError) as exc:
        rate_fit([(0.25, 1.0), (0.125, -1.0), (0.0625, 0.0)], "gap_k3")
    assert "gap_k3" in str(exc.value)
    with pytest.raises(InsufficientDataError):
        rate_fit([(0.25, 1.0), (0.125, 0.5)])


def test_rate_fit_flat_data_keeps_r2_defined():
    rep = rate_fit([(0.25, 2.0), (0.125, 2.0), (0.0625, 2.0)])
    assert rep.slope == pytest.approx(0.0, abs=1e-12)
    assert rep.r2 == 1.0


# ------------------------------------------------------- corrector expansion

@pytest.fixture(scope="module")
def identity_pieces():
    model = make_preset("identity", "zero", "sine-sine")
    grid = DirichletGrid(64)
    d = DiffusionProblem(model, 0.25, grid)
    p = EpsProblem(d)
    lu, report = eps_factor_and_report(p)
    u_eps = solve_eps(p, report, interior_load(grid, model.f_eval), lu=lu)
    u_0 = solve_homogenized(np.eye(2), 0.0, grid,
                            interior_load(grid, model.f_eval))
    dc = solve_dirichlet_correctors(d, lu=factor(d.stiffness))
    cs = solve_cell(model, 16)
    chi_w_s = sample_cell_field(cs.chi_w, grid, 0.25)
    return model, grid, p, u_eps, u_0, dc, chi_w_s


def test_expansion_vanishes_for_constant_coefficients(identity_pieces):
    _, _, _, u_eps, u_0, dc, chi_w_s = identity_pieces
    ex = build_expansion(u_eps, u_0, dc, chi_w_s, 0.25)
    assert np.max(np.abs(ex.w.values)) < 1e-10
    assert ex.h1_w < 1e-9


def test_expansion_rejects_nonzero_trace(identity_pieces):
    _, grid, _, u_eps, u_0, dc, chi_w_s = identity_pieces
    shifted = GridFunction(grid, u_eps.values + 1.0)
    with pytest.raises(UsageError) as exc:
        build_expansion(shifted, u_0, dc, chi_w_s, 0.25)
    assert "boundary trace" in str(exc.value)


def test_expansion_rejects_grid_mismatch(identity_pieces):
    model, grid, p, u_eps, u_0, dc, chi_w_s = identity_pieces
    other = DirichletGrid(32)
    u0_other = solve_homogenized(np.eye(2), 0.0, other,
                                 interior_load(other, model.f_eval))
    with pytest.raises(UsageError):
        build_expansion(u_eps, u0_other, dc, chi_w_s, 0.25)


def test_sample_cell_field_constant_passthrough():
    grid = DirichletGrid(32)
    cell_grid = PeriodicGrid(8)
    const = GridFunction(cell_grid, np.full(cell_grid.nnodes, 2.5))
    sampled = sample_cell_field(const, grid, 0.125)
    assert sampled.grid is grid
    assert np.max(np.abs(sampled.values - 2.5)) < 1e-13


def point_sampler(gf, x1, x2, epsilon):
    """The bilinear periodic sampler at flat arrays of points
    ``x / epsilon`` that :func:`sample_cell_field` used before it sampled
    on node axes."""
    n = gf.grid.n
    y1 = np.asarray(x1, dtype=float) / epsilon
    y2 = np.asarray(x2, dtype=float) / epsilon
    s = y1 * n
    t = y2 * n
    j1 = np.floor(s).astype(np.int64)
    j2 = np.floor(t).astype(np.int64)
    f1 = s - j1
    f2 = t - j2
    j1 %= n
    j2 %= n
    k1 = (j1 + 1) % n
    k2 = (j2 + 1) % n
    v = gf.values.reshape(n, n)  # v[iy, ix]
    return ((1 - f1) * (1 - f2) * v[j2, j1] + f1 * (1 - f2) * v[j2, k1]
            + f1 * f2 * v[k2, k1] + (1 - f1) * f2 * v[k2, j1])


@pytest.mark.parametrize("cell_n", [16, 128])
@pytest.mark.parametrize("domain_n", [64, 72, 256])
def test_sample_cell_field_keeps_the_point_sampler_bits(cell_n, domain_n):
    """Sampling on the node axes gives every node the point sampler's
    float operations, so the bits too, also where 1/epsilon is not an
    integer and the period does not divide the domain."""
    cell_grid = PeriodicGrid(cell_n)
    rng = np.random.default_rng(cell_n)
    field = GridFunction(cell_grid, rng.standard_normal(cell_grid.nnodes))
    grid = DirichletGrid(domain_n)
    coords = grid.node_coords()
    for epsilon in (1 / 2, 1 / 4, 1 / 16, 4 / 33, 2 / 17):
        expected = point_sampler(field, coords[:, 0], coords[:, 1], epsilon)
        sampled = sample_cell_field(field, grid, epsilon)
        assert np.array_equal(sampled.values, expected), epsilon


# ------------------------------------------------------------------- flux

def test_identity_flux_ratio_near_four():
    model = make_preset("identity", "zero")
    p = eps_problem(model, 0.25, DirichletGrid(128))
    spec = shifted_eigs(p.operator, p.mass_interior(), 1,
                        sigma=-1.0, epsilon=0.25)
    records = flux_table(p, spec)
    assert len(records) == 1
    assert records[0].ratio_lower == pytest.approx(4.0, rel=0.02)
    assert records[0].k == 1


@pytest.mark.parametrize("a_preset, w_preset", [
    ("smooth-iso", "sine1"), ("layered", "sine-mix"), ("identity", "zero")])
def test_no_eigenvector_reader_sees_a_sign(a_preset, w_preset):
    """Negating every eigenvector leaves the flux table, the cluster
    projection and the Rayleigh defects bitwise equal: each is quadratic
    in an eigenvector or reads it as c phi with c = <phi, f>_M, so the
    spectral layer needs no sign convention."""
    model = make_preset(a_preset, w_preset)
    p = eps_problem(model, 0.25, DirichletGrid(64))
    mass = p.mass_interior()
    spec = shifted_eigs(p.operator, mass, 6, sigma=p.sigma, epsilon=0.25)
    flipped = replace(spec, eigenvectors=-spec.eigenvectors)
    f = p.grid.restrict(interpolate(p.grid, model.f_eval).values)

    def outputs(s):
        cp = cluster_projection(s, float(s.eigenvalues[0]), f, p.operator,
                                mass)
        return ([np.asarray(astuple(r)).tobytes() for r in flux_table(p, s)],
                [np.asarray(getattr(cp, fld.name)).tobytes()
                 for fld in fields(cp)],
                rayleigh_quadrature_defect(p, s).tobytes())

    assert outputs(flipped) == outputs(spec)


def test_flux_regime_flags():
    model = make_preset("identity", "zero")
    p = eps_problem(model, 0.25, DirichletGrid(64))
    spec = shifted_eigs(p.operator, p.mass_interior(), 2,
                        sigma=-1.0)
    records = flux_table(p, spec)
    assert len(records) == 2
    for r in records:
        assert r.in_upper_regime == (0.0625 * r.lam < 1.0)
        assert r.ratio_upper <= r.ratio_lower  # denominator only grows


# --------------------------------------------------------------- jacobian

def test_jacobian_check_wraps_correctors():
    d = DiffusionProblem(make_preset("layered"), 0.25, DirichletGrid(64))
    dc = solve_dirichlet_correctors(d, lu=factor(d.stiffness))
    assert jacobian_check(dc) > 0.2
