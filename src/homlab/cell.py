"""Cell problems on the unit torus.

Solves the periodic corrector problems

    -div(A (grad chi_k + e_k)) = 0          (one per coordinate)
     div(A grad chi_w)         = W          (potential corrector)

with zero-mean solutions, and derives the effective diffusion matrix and the
effective potential constant.  Two consistency numbers go with them: the
cell mean of the flux corrector b = a_hat - A - A grad chi, and the
compatibility (zero-mean) defects of the right-hand sides of the auxiliary
Laplace problems the paper builds from the correctors.  All right-hand sides
are quadrature-sampled; compatibility (zero mean) is enforced before solving.

The correctors are solved by conjugate gradients on the A-stiffness,
preconditioned by the exact FFT solve of the Laplacian on the torus
(``fem.torus_laplace_solver``), so the iteration count is bounded by the
contrast of A and does not grow with the grid.  :func:`solve_cell` is the
one route to the cell operators: it assembles the A-stiffness and builds the
FFT solve once, samples A and W at the assembly rule once, and hands them to
:func:`solve_chi` and :func:`solve_chi_w`.
"""

from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import ConsistencyError
from .grids import GridFunction, PeriodicGrid, gauss_rule


def solve_chi(grid, stiff, lap_solve, a, tol):
    """Coordinate correctors chi_1, chi_2 as zero-mean periodic GridFunctions.

    ``stiff`` is the A-stiffness on ``grid``, ``lap_solve`` its
    ``fem.torus_laplace_solver``, ``a`` A at the assembly rule
    (``fem.quad_samples``) and ``tol`` the relative residual tolerance of
    the CG solves; :func:`solve_cell` makes them.
    """
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


def solve_chi_w(grid, stiff, lap_solve, w, tol):
    """Potential corrector: div(A grad chi_w) = W, zero mean.

    Weak form: (A grad chi_w, grad v) = -(W, v).  Raises ConsistencyError when
    the quadrature mean of W exceeds 1e-10 or is not finite (incompatible
    right-hand side).  ``w`` is W at the assembly rule; ``stiff``,
    ``lap_solve`` and ``tol`` are as in :func:`solve_chi`.
    """
    wmean = abs(float(fem.integrate(grid, w)))
    if not np.isfinite(wmean) or wmean > 1e-10:
        raise ConsistencyError(
            f"potential corrector needs a mean-zero W: |mean| = {wmean:.3e}")
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


def cross_flux_identity_defect(model, grid, chi, chi_w):
    """Defect of the compatibility identity between corrector fluxes.

    Measures |cell-avg of (A grad chi_w)_i - cell-avg of chi_i W| for i = 1, 2
    with an independent 3x3 Gauss rule (finer than the 2x2 assembly rule), so
    the number reflects genuine discretization error rather than the
    algebraic identity satisfied by the discrete solutions.
    """
    xi, wq = gauss_rule(3)
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


def _flux_field(grid, chi, a_hat, xi, a):
    """b = a_hat - A - A grad chi at the reference rule xi, where ``a`` is A
    sampled at that rule."""
    out = a_hat - a
    for j in range(2):
        g = fem.cell_gradients(grid, chi[j].values, xi)
        out[..., :, j] -= fem.apply_tensor(a, g)
    return out


def solve_aux_potentials(grid, chi, chi_w, m_w_chi_w, compat_tol, a, w):
    """Compatibility check of the three auxiliary Laplace problems

        lap psi1_i = (A grad chi_w)_i - W chi_i
        lap psi2   = m_w_chi_w - W chi_w
        lap psi3   = W

    Returns the absolute quadrature mean of each right-hand side (psi1[0],
    psi1[1], psi2, psi3) and raises ConsistencyError, naming the problem,
    when one exceeds ``compat_tol`` (:func:`solve_cell` passes ten times the
    cross-flux identity defect, floored at 1e-10).  The potentials
    themselves are not solved: nothing downstream reads them.  ``a`` and
    ``w`` are A and W at the assembly rule.
    """
    flux_w = fem.apply_tensor(a, fem.cell_gradients(grid, chi_w.values))
    sources = {f"psi1[{i}]": flux_w[..., i]
               - w * fem.cell_values(grid, chi[i].values) for i in range(2)}
    sources["psi2"] = m_w_chi_w - w * fem.cell_values(grid, chi_w.values)
    sources["psi3"] = w

    defects = np.empty(len(sources))
    for idx, (lab, g) in enumerate(sources.items()):
        mean = float(fem.integrate(grid, g))
        defects[idx] = abs(mean)
        if abs(mean) > compat_tol:
            raise ConsistencyError(
                f"right-hand side for {lab} has nonzero mean {mean:.3e} "
                f"(tolerance {compat_tol:.3e})")
    return defects


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
    flux_corrector_mean_abs: float  # max |cell mean| of the entries of b
    aux_compat_defects: np.ndarray
    mean_abs: dict


def solve_cell(model, n, tol=1e-10):
    """Run the full cell stage on an n-by-n periodic grid.

    ``tol`` is the relative residual tolerance of the corrector CG solves.
    """
    grid = PeriodicGrid(n)
    stiff = fem.assemble_stiffness(grid, model.a_eval)
    lap_solve = fem.torus_laplace_solver(grid)
    # A and W are sampled only after the assembly, whose scatter is the
    # stage's memory peak.
    a = fem.quad_samples(grid, model.a_eval)
    chi = solve_chi(grid, stiff, lap_solve, a, tol)
    a_hat = effective_matrix(grid, chi, a)
    w = fem.quad_samples(grid, model.w_eval)
    chi_w = solve_chi_w(grid, stiff, lap_solve, w, tol)
    del stiff  # freed before the finer-rule checks below allocate
    m_w = effective_potential(grid, chi_w, w)
    resid = potential_energy_identity_residual(grid, chi_w, m_w, a)
    defect = cross_flux_identity_defect(model, grid, chi, chi_w)
    flux_mean = float(np.abs(fem.integrate(
        grid, _flux_field(grid, chi, a_hat, fem.QUAD_XI, a))).max())
    compat_tol = max(10.0 * float(defect.max()), 1e-10)
    return CellSolution(
        model=model, grid=grid, chi=chi, chi_w=chi_w, a_hat=a_hat,
        m_w_chi_w=m_w, energy_identity_residual=resid, cross_flux_defect=defect,
        flux_corrector_mean_abs=flux_mean,
        aux_compat_defects=solve_aux_potentials(grid, chi, chi_w, m_w,
                                                compat_tol, a, w),
        mean_abs={
            "chi1": abs(float(np.mean(chi[0].values))),
            "chi2": abs(float(np.mean(chi[1].values))),
            "chi_w": abs(float(np.mean(chi_w.values))),
        })


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
