"""Cell problems against analytic effective constants.

The layered diffusion 2 + sin(2 pi y1) has a closed-form effective matrix:
harmonic mean sqrt(3) across the layers, arithmetic mean 2 along them.  The
identity diffusion with W = sin(2 pi y1) gives chi_w = -sin(2 pi y1)/(4 pi^2)
and effective potential -1/(8 pi^2); the sine-mix potential doubles it.
"""

import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import quad_points
from homlab import cell, fem
from homlab.cell import solve_aux_potentials, solve_cell
from homlab.coefficients import A_PRESETS, W_PRESETS, make_preset
from homlab.errors import ConsistencyError
from homlab.grids import PeriodicGrid, gauss_rule


def desymmetrized_model():
    """Layered A with a phase-shifted potential, so the cross-flux identity
    has genuinely nonzero sides (the builtin presets pair an even A with an
    odd W and both sides vanish by parity)."""
    return replace(make_preset("layered"), w_eval=lambda y1, y2: np.sin(
        2 * np.pi * np.asarray(y1, dtype=float) + 0.7))


def test_identity_correctors_vanish():
    cs = solve_cell(make_preset("identity"), 32)
    for j in range(2):
        assert np.max(np.abs(cs.chi[j].values)) < 1e-10
    assert np.max(np.abs(cs.a_hat - np.eye(2))) < 1e-12


def test_layered_effective_matrix_analytic():
    cs = solve_cell(make_preset("layered"), 64)
    assert cs.a_hat[0, 0] == pytest.approx(np.sqrt(3.0), abs=2e-3)
    assert cs.a_hat[1, 1] == pytest.approx(2.0, abs=1e-9)
    assert abs(cs.a_hat[0, 1]) < 1e-12
    assert abs(cs.a_hat[1, 0]) < 1e-12


def test_smooth_iso_effective_matrix_is_isotropic_and_bounded():
    cs = solve_cell(make_preset("smooth-iso"), 64)
    assert cs.a_hat[0, 0] == pytest.approx(cs.a_hat[1, 1], rel=1e-10)
    assert abs(cs.a_hat[0, 1]) < 1e-12
    # Voigt/Reuss: between harmonic and arithmetic means of 2 + sin*sin
    assert 1.5 < cs.a_hat[0, 0] < 2.0


@pytest.mark.parametrize("a_preset", A_PRESETS)
def test_a_hat_is_diagonal_on_even_cell_grids_only(a_preset):
    """Why RunConfig demands an even cell_grid_n: there every preset's
    a_hat is diagonal to round-off, as the effective closed forms need,
    while on an odd grid smooth-iso's a_hat_12 is of discretization size,
    since the reflection y1 -> 1/2 - y1 that forces it to zero no longer
    maps nodes onto nodes."""
    for n in (4, 6, 10, 16):
        a_hat = solve_cell(make_preset(a_preset), n, tol=1e-12).a_hat
        scale = max(abs(a_hat[0, 0]), abs(a_hat[1, 1]))
        assert max(abs(a_hat[0, 1]), abs(a_hat[1, 0])) < 1e-15 * scale, n
    if a_preset == "smooth-iso":
        for n in (5, 7):
            a_hat = solve_cell(make_preset(a_preset), n, tol=1e-12).a_hat
            assert abs(a_hat[0, 1]) > 1e-7 * abs(a_hat[0, 0]), n


def test_effective_potential_identity_sine1():
    cs = solve_cell(make_preset("identity", "sine1"), 64)
    # frozen numeric value at n=64 plus the analytic target
    assert cs.m_w_chi_w == pytest.approx(-0.012654980330495329, rel=1e-9)
    assert cs.m_w_chi_w == pytest.approx(-1.0 / (8 * np.pi ** 2), abs=1.1e-5)
    assert cs.m_w_chi_w < 0.0


def test_effective_potential_identity_sine_mix():
    cs = solve_cell(make_preset("identity", "sine-mix"), 64)
    assert cs.m_w_chi_w == pytest.approx(-1.0 / (4 * np.pi ** 2), abs=3e-5)


@pytest.mark.parametrize("a", A_PRESETS)
@pytest.mark.parametrize("w", W_PRESETS)
def test_energy_identity_residual_tiny_everywhere(a, w):
    cs = solve_cell(make_preset(a, w), 32)
    assert cs.energy_identity_residual < 1e-12


def test_cross_flux_identity_desymmetrized_decay():
    model = desymmetrized_model()
    defects = {}
    for n in (64, 128):
        defects[n] = np.max(solve_cell(model, n, tol=1e-12).cross_flux_defect)
    assert defects[64] < 3e-9          # measured 2.362e-9
    assert defects[64] / defects[128] > 8.0  # measured ratio 16 (fourth order)


def full_size_cross_flux_defect(model, grid, chi, chi_w):
    """The cross-flux defect with every finer-rule array at full size: the
    reference for the banded check."""
    xi, wq = gauss_rule(3)
    w = fem.quad_samples(grid, model.w_eval, xi)
    pot_avg = np.array([
        fem.integrate(grid, w * fem.cell_values(grid, chi[i].values, xi), wq)
        for i in range(2)])
    a = fem.quad_samples(grid, model.a_eval, xi)
    gw = fem.cell_gradients(grid, chi_w.values, xi)
    flux_avg = fem.integrate(grid, fem.apply_tensor(a, gw), wq)
    return np.abs(flux_avg - pot_avg)


@pytest.mark.parametrize("n", [64, 128])
def test_banded_cross_flux_check_matches_the_full_size_formula(n,
                                                               monkeypatch):
    monkeypatch.setattr(cell, "CROSS_FLUX_BAND_ROWS", 24)  # divides no n
    model = desymmetrized_model()
    cs = solve_cell(model, n, tol=1e-12)
    reference = full_size_cross_flux_defect(model, cs.grid, cs.chi, cs.chi_w)
    # only the summation order differs (measured up to 4.5e-16)
    np.testing.assert_allclose(cs.cross_flux_defect, reference, rtol=0.0,
                               atol=1e-15)


def full_size_cell_numbers(model, cs):
    """a_hat, m, the energy residual and the aux defects from full-size
    samples of A and W at the assembly rule: the reference for the
    band-filled integrands."""
    grid = cs.grid
    a = fem.quad_samples(grid, model.a_eval)
    w = fem.quad_samples(grid, model.w_eval)
    a_hat = fem.integrate(grid, a)
    for j in range(2):
        g = fem.cell_gradients(grid, cs.chi[j].values)
        a_hat[:, j] += fem.integrate(grid, fem.apply_tensor(a, g))
    m = float(fem.integrate(grid, w * fem.cell_values(grid, cs.chi_w.values)))
    gw = fem.cell_gradients(grid, cs.chi_w.values)
    flux_w = fem.apply_tensor(a, gw)
    energy = float(fem.integrate(grid, flux_w * gw).sum())
    resid = float(abs(m + energy) / (1.0 + abs(m)))
    sources = [flux_w[..., i] - w * fem.cell_values(grid, cs.chi[i].values)
               for i in range(2)]
    sources += [m - w * fem.cell_values(grid, cs.chi_w.values), w]
    defects = [abs(float(fem.integrate(grid, g))) for g in sources]
    return [a_hat, m, resid, np.array(defects)]


@pytest.mark.parametrize("a_preset", ["layered", "smooth-iso"])
@pytest.mark.parametrize("n", [64, 128])
def test_band_filled_cell_numbers_keep_the_full_size_bits(n, a_preset,
                                                          monkeypatch):
    monkeypatch.setattr(cell, "CROSS_FLUX_BAND_ROWS", 24)  # divides no n
    model = make_preset(a_preset, "sine-mix")
    cs = solve_cell(model, n)
    got = [cs.a_hat, cs.m_w_chi_w, cs.energy_identity_residual,
           cs.aux_compat_defects]
    for x, y in zip(got, full_size_cell_numbers(model, cs)):
        np.testing.assert_array_equal(x, y)


def test_cell_stage_reads_a_in_two_band_passes_and_the_finer_check(
        monkeypatch):
    """At n = 64 in bands of 24 rows (3 bands), A is evaluated twice at
    full size (the assembly's samples; a_hat's mean term and the chi
    loads), once a band in each of the two passes at the assembly rule
    (a_hat's corrector term; everything that reads A grad chi_w) and once
    a band in the finer-rule cross-flux check: 2 + 2 * 3 + 3 = 11."""
    monkeypatch.setattr(cell, "CROSS_FLUX_BAND_ROWS", 24)
    model = make_preset("layered", "sine-mix")
    calls = []

    def a_eval(y1, y2):
        calls.append(np.shape(y1))
        return model.a_eval(y1, y2)

    solve_cell(replace(model, a_eval=a_eval), 64)
    assert len(calls) == 11, calls


@pytest.mark.parametrize("workers", [1, 2])
def test_no_full_size_sample_of_a_lives_through_the_solves(workers,
                                                           monkeypatch):
    """Every full-size sample of A that the cell stage makes, and the array
    it views, is dead by the time a corrector solve starts."""
    grid = PeriodicGrid(32)
    refs = []
    quad_samples, cg_solve = fem.quad_samples, fem.cg_solve

    def sampled(grid_, func, *args, **kwargs):
        out = quad_samples(grid_, func, *args, **kwargs)
        if out.ndim == 4 and len(out) == grid.ncells:
            refs.extend(weakref.ref(x) for x in (out, out.base)
                        if x is not None)
        return out

    def solve(*args, **kwargs):
        assert refs and all(ref() is None for ref in refs)
        return cg_solve(*args, **kwargs)

    monkeypatch.setattr(fem, "quad_samples", sampled)
    monkeypatch.setattr(fem, "cg_solve", solve)
    solve_cell(make_preset("layered", "sine-mix"), grid.n, workers=workers)
    assert len(refs) >= 2


def cell_outputs(cs):
    return [cs.chi[0].values, cs.chi[1].values, cs.chi_w.values, cs.a_hat,
            cs.m_w_chi_w, cs.energy_identity_residual, cs.cross_flux_defect,
            cs.aux_compat_defects]


def test_two_workers_give_the_bits_of_one():
    model = desymmetrized_model()
    one = cell_outputs(solve_cell(model, 48, workers=1))
    two = cell_outputs(solve_cell(model, 48, workers=2))
    for x, y in zip(one, two):
        np.testing.assert_array_equal(x, y)


def test_cell_solves_start_one_helper_thread_at_most(monkeypatch):
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    model = make_preset("layered", "sine-mix")
    solve_cell(model, 16, workers=1)
    assert started == []
    solve_cell(model, 16, workers=4)
    assert len(started) == 1
    started[0].join(timeout=10.0)
    assert not started[0].is_alive()


# Battery of periodic test functions (value, gradient_x, gradient_y) used to
# probe the weak divergence.  The phases are deliberately incommensurate with
# the preset symmetries: pure sin/cos modes pair to exactly zero against the
# symmetric presets by parity, which would test nothing.
def _battery():
    two_pi = 2.0 * np.pi

    def shifted(kx, ky, px, py):
        def f(x, y):
            return np.sin(two_pi * kx * x + px) * np.sin(two_pi * ky * y + py)

        def gx(x, y):
            return two_pi * kx * np.cos(two_pi * kx * x + px) * np.sin(two_pi * ky * y + py)

        def gy(x, y):
            return two_pi * ky * np.sin(two_pi * kx * x + px) * np.cos(two_pi * ky * y + py)

        return (f, gx, gy)

    return [
        shifted(1, 0, 0.7, 0.5 * np.pi),
        shifted(0, 1, 0.5 * np.pi, 1.3),
        shifted(1, 1, 0.4, 2.1),
        shifted(2, 1, 1.1, 0.6),
    ]


def divergence_residual(cs, order=3):
    """Worst normalized pairing |(b_.j, grad v)| over a smooth periodic battery.

    b = a_hat - A - A grad chi is weakly divergence-free in the limit;
    against analytic test gradients sampled on an independent Gauss rule the
    pairing decays with the corrector discretization error.
    """
    grid = cs.grid
    xi, wq = gauss_rule(order)
    pts = quad_points(grid, xi)
    a = fem.quad_samples(grid, cs.model.a_eval, xi)
    b = cs.a_hat - a
    for j in range(2):
        b[..., :, j] -= fem.apply_tensor(
            a, fem.cell_gradients(grid, cs.chi[j].values, xi))
    worst = np.zeros(2)
    for f, gx, gy in _battery():
        gv = np.stack([gx(pts[..., 0], pts[..., 1]),
                       gy(pts[..., 0], pts[..., 1])], axis=-1)
        norm = np.sqrt(fem.integrate(grid, gv * gv, wq).sum())
        for j in range(2):
            pair = fem.integrate(grid, b[..., :, j] * gv, wq).sum()
            worst[j] = max(worst[j], abs(pair) / norm)
    return worst


def test_divergence_residual_decays_with_grid():
    model = make_preset("smooth-iso", "sine1")
    res = {}
    for n in (32, 64):
        cs = solve_cell(model, n)
        res[n] = np.max(divergence_residual(cs))
    # halving h should at least halve the residual; measured ratio 4.0
    assert res[32] / res[64] >= 1.7


def test_aux_potentials_compatibility():
    cs = solve_cell(make_preset("smooth-iso", "sine1"), 32)
    assert cs.aux_compat_defects.shape == (4,)
    assert np.max(np.abs(cs.aux_compat_defects)) < 1e-12


def _chi_w_of_shifted_w(grid):
    """solve_cell, through solve_chi_w, on a W whose cell mean is 0.1."""
    solve_cell(replace(make_preset("identity"), w_eval=lambda y1, y2: np.sin(
        2 * np.pi * np.asarray(y1, dtype=float)) + 0.1), grid.n)


def _aux_check(grid, m_shift=0.0, w_shift=0.0):
    """solve_aux_potentials on the psi2 and psi3 sources of the
    desymmetrized correctors, with the effective potential or the sampled W
    moved off its true value."""
    model = desymmetrized_model()
    cs = solve_cell(model, grid.n)
    w = fem.quad_samples(cs.grid, model.w_eval) + w_shift
    w_chi_w = w * fem.cell_values(cs.grid, cs.chi_w.values)
    solve_aux_potentials(cs.grid, {"psi2": cs.m_w_chi_w + m_shift - w_chi_w,
                                   "psi3": w}, 1e-10)


@pytest.mark.parametrize("trigger, message", [
    (_chi_w_of_shifted_w, r"mean-zero W: \|mean\| = 1\.000e-01"),
    (lambda grid: _aux_check(grid, m_shift=1e-3), r"psi2 has nonzero mean"),
    (lambda grid: _aux_check(grid, w_shift=0.1), r"psi3 has nonzero mean"),
], ids=["chi_w", "psi2", "psi3"])
def test_mean_zero_checks_raise_consistency_error(trigger, message):
    with pytest.raises(ConsistencyError, match=message):
        trigger(PeriodicGrid(16))


def corrector_systems(model, grid):
    """The A-stiffness and the chi_1, chi_2, chi_w right-hand sides."""
    a = fem.quad_samples(grid, model.a_eval)
    stiff = fem.assemble_stiffness(grid, a)
    rhs = [-fem.flux_load_from_quad_values(grid, a[..., :, k]) for k in range(2)]
    rhs.append(-fem.load_from_quad_values(
        grid, fem.quad_samples(grid, model.w_eval)))
    return stiff, rhs


def test_laplace_preconditioned_cg_matches_plain_cg():
    grid = PeriodicGrid(64)
    stiff, rhs = corrector_systems(make_preset("layered", "sine-mix"), grid)
    lap_solve = fem.torus_laplace_solver(grid)
    for b in rhs:
        ref = fem.cg_solve(stiff, b, deflate_constants=True, tol=1e-13)
        x = fem.cg_solve(stiff, b, deflate_constants=True, tol=1e-12,
                         precond=lap_solve)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_preconditioned_iterations_do_not_grow_with_the_grid():
    model = make_preset("layered", "sine-mix")
    for n in (32, 128):
        grid = PeriodicGrid(n)
        stiff, rhs = corrector_systems(model, grid)
        lap_solve = fem.torus_laplace_solver(grid)
        for b in rhs:
            calls = []

            def counting(r):
                calls.append(1)
                return lap_solve(r)

            fem.cg_solve(stiff, b, deflate_constants=True, tol=1e-10,
                         precond=counting)
            assert 0 < len(calls) <= 40, (n, len(calls))
