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
:func:`solve_cell` assembles the A-stiffness and builds the FFT solve once
and shares them between the layers.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fem
from .coefficients import quadrature_mean_w
from .errors import ConsistencyError
from .grids import GridFunction, PeriodicGrid, gauss_rule

_EYE = np.eye(2)


def _quad_coeffs(model, grid, xi):
    pts = grid.quad_points(xi)
    a = model.a_eval(pts[..., 0], pts[..., 1])
    w = model.w_eval(pts[..., 0], pts[..., 1])
    return a, w


def _cell_operators(model, grid, stiff, lap_solve):
    """The A-stiffness and FFT Laplace solve of ``grid``, made where not given."""
    if stiff is None:
        stiff = fem.assemble_stiffness(grid, model.a_eval)
    if lap_solve is None:
        lap_solve = fem.torus_laplace_solver(grid)
    return stiff, lap_solve


def solve_chi(model, grid, tol=1e-10, stiff=None, lap_solve=None):
    """Coordinate correctors chi_1, chi_2 as zero-mean periodic GridFunctions.

    ``stiff`` (the A-stiffness on ``grid``) and ``lap_solve`` (its
    ``fem.torus_laplace_solver``) are made here unless the caller shares them.
    """
    stiff, lap_solve = _cell_operators(model, grid, stiff, lap_solve)
    pts = grid.quad_points(fem.QUAD_XI)
    a = model.a_eval(pts[..., 0], pts[..., 1])  # (ncells, nq, 2, 2)
    out = []
    for k in range(2):
        # weak form: (A grad chi_k, grad v) = -(A e_k, grad v)
        rhs = -fem.flux_load_from_quad_values(grid, a[..., :, k])
        sol = fem.cg_solve(stiff, rhs, deflate_constants=True, tol=tol,
                           precond=lap_solve)
        out.append(GridFunction(grid, sol))
    return out


def effective_matrix(model, grid, chi):
    """Homogenized diffusion matrix from the corrector gradients.

    a_hat[i, j] = cell average of a_ij + (A grad chi_j)_i.
    """
    pts = grid.quad_points(fem.QUAD_XI)
    a = model.a_eval(pts[..., 0], pts[..., 1])
    a_hat = np.einsum("q,cqij->ij", fem.QUAD_W, a) * grid.h ** 2
    for j in range(2):
        g = fem.cell_gradients(grid, chi[j].values)
        a_hat[:, j] += grid.h ** 2 * np.einsum("q,cqij,cqj->i", fem.QUAD_W, a, g)
    return a_hat


def solve_chi_w(model, grid, tol=1e-10, stiff=None, lap_solve=None):
    """Potential corrector: div(A grad chi_w) = W, zero mean.

    Weak form: (A grad chi_w, grad v) = -(W, v).  Raises ConsistencyError when
    the quadrature mean of W exceeds 1e-10 (incompatible right-hand side).
    ``stiff`` and ``lap_solve`` are as in :func:`solve_chi`.
    """
    wmean = abs(quadrature_mean_w(model, grid.n))
    if wmean > 1e-10:
        raise ConsistencyError(
            f"potential corrector needs a mean-zero W: |mean| = {wmean:.3e}")
    stiff, lap_solve = _cell_operators(model, grid, stiff, lap_solve)
    rhs = -fem.assemble_load(grid, model.w_eval)
    sol = fem.cg_solve(stiff, rhs, deflate_constants=True, tol=tol,
                       precond=lap_solve)
    return GridFunction(grid, sol)


def effective_potential(model, grid, chi_w):
    """Cell average of W * chi_w (a nonpositive constant)."""
    pts = grid.quad_points(fem.QUAD_XI)
    w = model.w_eval(pts[..., 0], pts[..., 1])
    vals = fem.cell_values(grid, chi_w.values)
    return float(grid.h ** 2 * np.einsum("q,cq,cq->", fem.QUAD_W, w, vals))


def potential_energy_identity_residual(model, grid, chi_w, m_w_chi_w):
    """Relative defect of m = -(A grad chi_w, grad chi_w)."""
    pts = grid.quad_points(fem.QUAD_XI)
    a = model.a_eval(pts[..., 0], pts[..., 1])
    g = fem.cell_gradients(grid, chi_w.values)
    energy = grid.h ** 2 * np.einsum("q,cqij,cqj,cqi->", fem.QUAD_W, a, g, g)
    return float(abs(m_w_chi_w + energy) / (1.0 + abs(m_w_chi_w)))


def cross_flux_identity_defect(model, grid, chi, chi_w, order=3):
    """Defect of the compatibility identity between corrector fluxes.

    Measures |cell-avg of (A grad chi_w)_i - cell-avg of chi_i W| for i = 1, 2
    with an independent Gauss rule (finer than the assembly rule), so the
    number reflects genuine discretization error rather than the algebraic
    identity satisfied by the discrete solutions.
    """
    xi, wq = gauss_rule(order)
    a, w = _quad_coeffs(model, grid, xi)
    gw = fem.cell_gradients(grid, chi_w.values, xi)
    flux_avg = grid.h ** 2 * np.einsum("q,cqij,cqj->i", wq, a, gw)
    out = np.empty(2)
    for i in range(2):
        vals = fem.cell_values(grid, chi[i].values, xi)
        pot_avg = grid.h ** 2 * np.einsum("q,cq,cq->", wq, w, vals)
        out[i] = abs(flux_avg[i] - pot_avg)
    return out


@dataclass
class FluxCorrectors:
    """Mean-zero matrix field b = a_hat - A - A grad chi at quadrature points."""

    grid: object
    values: np.ndarray        # (ncells, nq, 2, 2) at the assembly rule
    model: object
    chi: list
    a_hat: np.ndarray

    def mean(self):
        return self.grid.h ** 2 * np.einsum("q,cqij->ij", fem.QUAD_W, self.values)

    def at(self, xi):
        """Evaluate the corrector field at an arbitrary reference rule."""
        pts = self.grid.quad_points(xi)
        a = self.model.a_eval(pts[..., 0], pts[..., 1])
        out = np.empty(a.shape)
        for j in range(2):
            g = fem.cell_gradients(self.grid, self.chi[j].values, xi)
            out[..., :, j] = (self.a_hat[:, j] - a[..., :, j]
                              - np.einsum("cqik,cqk->cqi", a, g))
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
        norm = np.sqrt(grid.h ** 2 * np.einsum("q,cqi,cqi->", wq, gv, gv))
        for j in range(2):
            pair = grid.h ** 2 * np.einsum("q,cqi,cqi->", wq, b[..., :, j], gv)
            worst[j] = max(worst[j], abs(pair) / norm)
    return worst


def flux_correctors(model, grid, chi, a_hat):
    """Flux corrector field at the assembly quadrature points."""
    pts = grid.quad_points(fem.QUAD_XI)
    a = model.a_eval(pts[..., 0], pts[..., 1])
    values = np.empty(a.shape)
    for j in range(2):
        g = fem.cell_gradients(grid, chi[j].values)
        values[..., :, j] = (a_hat[:, j] - a[..., :, j]
                             - np.einsum("cqik,cqk->cqi", a, g))
    return FluxCorrectors(grid=grid, values=values, model=model, chi=chi, a_hat=a_hat)


@dataclass
class AuxPotentials:
    """Periodic potentials whose Laplacians reproduce corrector source terms."""

    psi1: list          # pair of GridFunctions, one per coordinate
    psi2: GridFunction
    psi3: GridFunction
    compat_defects: np.ndarray


def solve_aux_potentials(model, grid, chi, chi_w, m_w_chi_w, compat_tol,
                         lap_solve=None):
    """Solve the three Laplace problems feeding the corrector expansion.

        lap psi1_i = (A grad chi_w)_i - W chi_i
        lap psi2   = m_w_chi_w - W chi_w
        lap psi3   = W

    Compatibility (zero quadrature mean of each right-hand side, at most
    ``compat_tol``; :func:`solve_cell` passes ten times the cross-flux
    identity defect, floored at 1e-10) is checked before solving.  Each
    problem is one exact FFT solve (``lap_solve``, made here if not given).
    """
    if lap_solve is None:
        lap_solve = fem.torus_laplace_solver(grid)
    pts = grid.quad_points(fem.QUAD_XI)
    a = model.a_eval(pts[..., 0], pts[..., 1])
    w = model.w_eval(pts[..., 0], pts[..., 1])
    gw = fem.cell_gradients(grid, chi_w.values)
    chi_w_q = fem.cell_values(grid, chi_w.values)

    sources = []
    labels = []
    for i in range(2):
        chi_i_q = fem.cell_values(grid, chi[i].values)
        g = np.einsum("cqij,cqj->cqi", a, gw)[..., i] - w * chi_i_q
        sources.append(g)
        labels.append(f"psi1[{i}]")
    sources.append(m_w_chi_w - w * chi_w_q)
    labels.append("psi2")
    sources.append(w)
    labels.append("psi3")

    defects = np.empty(len(sources))
    sols = []
    for idx, (g, lab) in enumerate(zip(sources, labels)):
        mean = grid.h ** 2 * np.einsum("q,cq->", fem.QUAD_W, g)
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
    chi = solve_chi(model, grid, tol=tol, stiff=stiff, lap_solve=lap_solve)
    a_hat = effective_matrix(model, grid, chi)
    chi_w = solve_chi_w(model, grid, tol=tol, stiff=stiff, lap_solve=lap_solve)
    del stiff  # freed before the finer-rule checks below allocate
    m_w = effective_potential(model, grid, chi_w)
    resid = potential_energy_identity_residual(model, grid, chi_w, m_w)
    defect = cross_flux_identity_defect(model, grid, chi, chi_w)
    sol = CellSolution(
        model=model, grid=grid, chi=chi, chi_w=chi_w, a_hat=a_hat,
        m_w_chi_w=m_w, energy_identity_residual=resid, cross_flux_defect=defect,
        mean_abs={
            "chi1": abs(float(np.mean(chi[0].values))),
            "chi2": abs(float(np.mean(chi[1].values))),
            "chi_w": abs(float(np.mean(chi_w.values))),
        })
    sol.flux = flux_correctors(model, grid, chi, a_hat)
    if with_aux:
        compat_tol = max(10.0 * float(defect.max()), 1e-10)
        sol.aux = solve_aux_potentials(model, grid, chi, chi_w, m_w,
                                       compat_tol, lap_solve=lap_solve)
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
