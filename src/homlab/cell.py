"""Cell problems on the unit torus.

Solves the periodic corrector problems

    -div(A (grad chi_k + e_k)) = 0          (one per coordinate)
     div(A grad chi_w)         = W          (potential corrector)

with zero-mean solutions, and derives the effective diffusion matrix, the
effective potential constant, flux correctors, and the auxiliary periodic
potentials used by the corrector expansion.  All right-hand sides are
quadrature-sampled; compatibility (zero mean) is enforced before solving.

The correctors are solved by conjugate gradients on the A-stiffness,
preconditioned by the exact FFT solve of the Laplacian on the torus
(``fem.torus_laplace_solver``), so the iteration count is bounded by the
contrast of A and does not grow with the grid.  The auxiliary potentials are
Laplace problems and take that FFT solve directly, with no iteration.
:func:`solve_cell` assembles the A-stiffness and builds the FFT solve once,
samples A and W at the assembly rule once, and shares them between the
layers; :func:`solve_chi` and :func:`solve_chi_w` called on their own make
and sample what they need.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .errors import ConsistencyError
from .grids import GridFunction, PeriodicGrid, gauss_rule


def _cell_operators(model, grid, stiff, lap_solve):
    """The A-stiffness and FFT Laplace solve of ``grid``, made where not given."""
    if stiff is None:
        stiff = fem.assemble_stiffness(grid, model.a_eval)
    if lap_solve is None:
        lap_solve = fem.torus_laplace_solver(grid)
    return stiff, lap_solve


def solve_chi(model, grid, tol=1e-10, stiff=None, lap_solve=None, a=None):
    """Coordinate correctors chi_1, chi_2 as zero-mean periodic GridFunctions.

    ``stiff`` (the A-stiffness on ``grid``), ``lap_solve`` (its
    ``fem.torus_laplace_solver``) and ``a`` (A at the assembly rule,
    ``fem.quad_samples``) are made here unless the caller shares them.
    """
    stiff, lap_solve = _cell_operators(model, grid, stiff, lap_solve)
    if a is None:
        a = fem.quad_samples(grid, model.a_eval)  # (ncells, nq, 2, 2)
    out = []
    for k in range(2):
        # weak form: (A grad chi_k, grad v) = -(A e_k, grad v)
        rhs = -fem.flux_load_from_quad_values(grid, a[..., :, k])
        sol = fem.cg_solve(stiff, rhs, deflate_constants=True, tol=tol,
                           precond=lap_solve)
        out.append(GridFunction(grid, sol))
    return out


def effective_matrix(grid, chi, a):
    """Homogenized diffusion matrix from the corrector gradients.

    a_hat[i, j] = cell average of a_ij + (A grad chi_j)_i, with ``a`` the
    samples of A at the assembly rule (``fem.quad_samples``).
    """
    a_hat = fem.integrate(grid, a)
    for j in range(2):
        g = fem.cell_gradients(grid, chi[j].values)
        a_hat[:, j] += fem.integrate(grid, fem.apply_tensor(a, g))
    return a_hat


def solve_chi_w(model, grid, tol=1e-10, stiff=None, lap_solve=None, w=None):
    """Potential corrector: div(A grad chi_w) = W, zero mean.

    Weak form: (A grad chi_w, grad v) = -(W, v).  Raises ConsistencyError when
    the quadrature mean of W exceeds 1e-10 or is not finite (incompatible
    right-hand side).  ``stiff`` and ``lap_solve`` are as in
    :func:`solve_chi`; ``w`` is W at the assembly rule, sampled here unless
    the caller shares it.
    """
    if w is None:
        w = fem.quad_samples(grid, model.w_eval)
    wmean = abs(float(fem.integrate(grid, w)))
    if not np.isfinite(wmean) or wmean > 1e-10:
        raise ConsistencyError(
            f"potential corrector needs a mean-zero W: |mean| = {wmean:.3e}")
    stiff, lap_solve = _cell_operators(model, grid, stiff, lap_solve)
    rhs = -fem.load_from_quad_values(grid, w)
    sol = fem.cg_solve(stiff, rhs, deflate_constants=True, tol=tol,
                       precond=lap_solve)
    return GridFunction(grid, sol)


def effective_potential(grid, chi_w, w):
    """Cell average of W * chi_w (a nonpositive constant); ``w`` is W at the
    assembly rule."""
    vals = fem.cell_values(grid, chi_w.values)
    return float(fem.integrate(grid, w * vals))


def potential_energy_identity_residual(grid, chi_w, m_w_chi_w, a):
    """Relative defect of m = -(A grad chi_w, grad chi_w); ``a`` is A at the
    assembly rule."""
    g = fem.cell_gradients(grid, chi_w.values)
    energy = float(fem.integrate(grid, fem.apply_tensor(a, g) * g).sum())
    return float(abs(m_w_chi_w + energy) / (1.0 + abs(m_w_chi_w)))


def cross_flux_identity_defect(model, grid, chi, chi_w, order=3):
    """Defect of the compatibility identity between corrector fluxes.

    Measures |cell-avg of (A grad chi_w)_i - cell-avg of chi_i W| for i = 1, 2
    with an independent Gauss rule (finer than the assembly rule), so the
    number reflects genuine discretization error rather than the algebraic
    identity satisfied by the discrete solutions.
    """
    xi, wq = gauss_rule(order)
    pts = grid.quad_points(xi)
    # One finer-rule sample lives at a time: they are the largest arrays of
    # the cell stage.
    w = model.w_eval(pts[..., 0], pts[..., 1])
    pot_avg = np.array([
        fem.integrate(grid, w * fem.cell_values(grid, chi[i].values, xi), wq)
        for i in range(2)])
    del w
    a = model.a_eval(pts[..., 0], pts[..., 1])
    del pts
    gw = fem.cell_gradients(grid, chi_w.values, xi)
    flux_avg = fem.integrate(grid, fem.apply_tensor(a, gw), wq)
    return np.abs(flux_avg - pot_avg)


@dataclass
class FluxCorrectors:
    """Mean-zero matrix field b = a_hat - A - A grad chi at quadrature points."""

    grid: object
    values: np.ndarray        # (ncells, nq, 2, 2) at the assembly rule
    model: object
    chi: list
    a_hat: np.ndarray

    def mean(self):
        return fem.integrate(self.grid, self.values)

    def at(self, xi):
        """Evaluate the corrector field at an arbitrary reference rule."""
        a = fem.quad_samples(self.grid, self.model.a_eval, xi)
        return _flux_field(self.grid, self.chi, self.a_hat, xi, a)


def _flux_field(grid, chi, a_hat, xi, a):
    """b = a_hat - A - A grad chi at the reference rule xi, where ``a`` is A
    sampled at that rule."""
    out = a_hat - a
    for j in range(2):
        g = fem.cell_gradients(grid, chi[j].values, xi)
        out[..., :, j] -= fem.apply_tensor(a, g)
    return out


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


def divergence_residual(bflux, order=3):
    """Worst normalized pairing |(b_.j, grad v)| over a smooth periodic battery.

    The correctors are weakly divergence-free in the limit; against analytic
    test gradients sampled on an independent Gauss rule the pairing decays
    with the corrector discretization error.
    """
    grid = bflux.grid
    xi, wq = gauss_rule(order)
    pts = grid.quad_points(xi)
    b = bflux.at(xi)
    worst = np.zeros(2)
    for f, gx, gy in _battery():
        gv = np.stack([gx(pts[..., 0], pts[..., 1]),
                       gy(pts[..., 0], pts[..., 1])], axis=-1)
        norm = np.sqrt(fem.integrate(grid, gv * gv, wq).sum())
        for j in range(2):
            pair = fem.integrate(grid, b[..., :, j] * gv, wq).sum()
            worst[j] = max(worst[j], abs(pair) / norm)
    return worst


def flux_correctors(model, grid, chi, a_hat, a):
    """Flux corrector field at the assembly quadrature points; ``a`` is A at
    the assembly rule."""
    values = _flux_field(grid, chi, a_hat, fem.QUAD_XI, a)
    return FluxCorrectors(grid=grid, values=values, model=model, chi=chi,
                          a_hat=a_hat)


@dataclass
class AuxPotentials:
    """Periodic potentials whose Laplacians reproduce corrector source terms."""

    psi1: list          # pair of GridFunctions, one per coordinate
    psi2: GridFunction
    psi3: GridFunction
    compat_defects: np.ndarray


def solve_aux_potentials(grid, chi, chi_w, m_w_chi_w, compat_tol, a, w,
                         lap_solve=None):
    """Solve the three Laplace problems feeding the corrector expansion.

        lap psi1_i = (A grad chi_w)_i - W chi_i
        lap psi2   = m_w_chi_w - W chi_w
        lap psi3   = W

    Compatibility (zero quadrature mean of each right-hand side, at most
    ``compat_tol``; :func:`solve_cell` passes ten times the cross-flux
    identity defect, floored at 1e-10) is checked before solving.  Each
    problem is one exact FFT solve (``lap_solve``, made here if not given).
    ``a`` and ``w`` are A and W at the assembly rule.
    """
    if lap_solve is None:
        lap_solve = fem.torus_laplace_solver(grid)
    flux_w = fem.apply_tensor(a, fem.cell_gradients(grid, chi_w.values))
    chi_w_q = fem.cell_values(grid, chi_w.values)

    sources = []
    labels = []
    for i in range(2):
        chi_i_q = fem.cell_values(grid, chi[i].values)
        g = flux_w[..., i] - w * chi_i_q
        sources.append(g)
        labels.append(f"psi1[{i}]")
    sources.append(m_w_chi_w - w * chi_w_q)
    labels.append("psi2")
    sources.append(w)
    labels.append("psi3")

    defects = np.empty(len(sources))
    sols = []
    for idx, (g, lab) in enumerate(zip(sources, labels)):
        mean = float(fem.integrate(grid, g))
        defects[idx] = abs(mean)
        if abs(mean) > compat_tol:
            raise ConsistencyError(
                f"right-hand side for {lab} has nonzero mean {mean:.3e} "
                f"(tolerance {compat_tol:.3e})")
        rhs = -fem.load_from_quad_values(grid, g)
        sols.append(GridFunction(grid, lap_solve(rhs)))

    return AuxPotentials(psi1=sols[:2], psi2=sols[2], psi3=sols[3],
                         compat_defects=defects)


@dataclass
class CellSolution:
    """Everything the downstream stages need from the unit cell."""

    model: object
    grid: PeriodicGrid
    chi: list
    chi_w: GridFunction
    a_hat: np.ndarray
    m_w_chi_w: float
    energy_identity_residual: float
    cross_flux_defect: np.ndarray
    aux: AuxPotentials = None
    flux: FluxCorrectors = None
    mean_abs: dict = field(default_factory=dict)


def solve_cell(model, n, tol=1e-10, with_aux=True):
    """Run the full cell stage on an n-by-n periodic grid.

    ``tol`` is the relative residual tolerance of the corrector CG solves.
    """
    grid = PeriodicGrid(n)
    stiff = fem.assemble_stiffness(grid, model.a_eval)
    lap_solve = fem.torus_laplace_solver(grid)
    # A and W are sampled only after the assembly, whose scatter is the
    # stage's memory peak.
    a = fem.quad_samples(grid, model.a_eval)
    chi = solve_chi(model, grid, tol=tol, stiff=stiff, lap_solve=lap_solve,
                    a=a)
    a_hat = effective_matrix(grid, chi, a)
    w = fem.quad_samples(grid, model.w_eval)
    chi_w = solve_chi_w(model, grid, tol=tol, stiff=stiff, lap_solve=lap_solve,
                        w=w)
    del stiff  # freed before the finer-rule checks below allocate
    m_w = effective_potential(grid, chi_w, w)
    resid = potential_energy_identity_residual(grid, chi_w, m_w, a)
    defect = cross_flux_identity_defect(model, grid, chi, chi_w)
    sol = CellSolution(
        model=model, grid=grid, chi=chi, chi_w=chi_w, a_hat=a_hat,
        m_w_chi_w=m_w, energy_identity_residual=resid, cross_flux_defect=defect,
        mean_abs={
            "chi1": abs(float(np.mean(chi[0].values))),
            "chi2": abs(float(np.mean(chi[1].values))),
            "chi_w": abs(float(np.mean(chi_w.values))),
        })
    sol.flux = flux_correctors(model, grid, chi, a_hat, a)
    if with_aux:
        compat_tol = max(10.0 * float(defect.max()), 1e-10)
        sol.aux = solve_aux_potentials(grid, chi, chi_w, m_w, compat_tol, a,
                                       w, lap_solve=lap_solve)
    return sol


def sample_periodic(gf, x1, x2, epsilon=1.0):
    """Evaluate a periodic GridFunction at points x/epsilon (bilinear, wrapped)."""
    grid = gf.grid
    if not grid.periodic:
        raise ValueError("sample_periodic needs a field on a PeriodicGrid")
    n = grid.n
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
