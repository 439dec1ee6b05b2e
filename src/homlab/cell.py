"""Cell problems on the unit torus.

Solves the periodic corrector problems

    -div(A (grad chi_k + e_k)) = 0          (one per coordinate)
     div(A grad chi_w)         = W          (potential corrector)

with zero-mean solutions, and derives the effective diffusion matrix and the
effective potential constant.  Consistency numbers go with them: the
potential energy identity, the cross-flux identity at a finer rule, and the
compatibility (zero-mean) defects of the right-hand sides of the auxiliary
Laplace problems the paper builds from the correctors.  All right-hand sides
are quadrature-sampled; compatibility (zero mean) is enforced before solving.

The correctors are solved by conjugate gradients on the A-stiffness,
preconditioned by the exact FFT solve of the Laplacian on the torus
(``fem.torus_laplace_solver``), so the iteration count is bounded by the
contrast of A and does not grow with the grid.  :func:`solve_cell` is the
one route to the cell operators: it assembles the A-stiffness and builds the
FFT solve once, samples W at the assembly rule once, for :func:`solve_chi_w`,
and A once more, for a_hat's mean term and the two loads that
:func:`solve_chi` takes; the two solvers run at once on two threads when it
is given two workers.  No sample of A is held through the solves: what reads
A after them samples it one band of ``CROSS_FLUX_BAND_ROWS`` cell rows at a
time, in two passes at the assembly rule (a_hat's corrector term, then
everything that reads A grad chi_w: the energy identity and the psi1
sources) and the finer-rule cross-flux check.  Each full-size integrand is
filled band by band and integrated in one call, so the numbers keep the bits
of full-size samples.  At n = 384 (layered + sine-mix, 2-core VM) this took
``homlab cell``'s peak RSS from 135 to 110 MB.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import ConsistencyError
from .grids import GridFunction, PeriodicGrid, gauss_rule

#: Cell rows per band of the arrays made after the corrector solves: the
#: integrands of :func:`effective_matrix` and :func:`_chi_w_integrands`,
#: and the finer-rule samples of :func:`cross_flux_identity_defect`.
CROSS_FLUX_BAND_ROWS = 32


def _bands(grid):
    """The bands of ``CROSS_FLUX_BAND_ROWS`` cell rows that tile ``grid``:
    (slice of cell rows, slice of their cells), in row order."""
    for lo in range(0, grid.n, CROSS_FLUX_BAND_ROWS):
        hi = min(lo + CROSS_FLUX_BAND_ROWS, grid.n)
        yield slice(lo, hi), slice(lo * grid.n, hi * grid.n)


def _fill_by_bands(grid, model, shapes, fill):
    """Full-size integrands at the assembly rule, (ncells, nq, *shape) for
    each of ``shapes``, filled one band (:func:`_bands`) at a time:
    ``fill(a, rows, cells)`` returns the band's part of each, given ``a``,
    A sampled on the band alone (``fem.quad_samples(..., rows=rows)``).

    No sample of A is ever full size.  The band samples, gradients and
    values are bitwise the rows of the full-size ones, and the integrands
    are elementwise, so each has the bits of its full-size formula and
    one ``fem.integrate`` of it the bits of the full-size sum.
    """
    nq = len(fem.QUAD_W)
    outs = [np.empty((grid.ncells, nq) + shape) for shape in shapes]
    for rows, cells in _bands(grid):
        a = fem.quad_samples(grid, model.a_eval, rows=rows)
        for out, part in zip(outs, fill(a, rows, cells)):
            out[cells] = part
    return outs


def solve_chi(grid, stiff, lap_solve, loads, tol):
    """Coordinate correctors chi_1, chi_2 as zero-mean periodic GridFunctions.

    ``stiff`` is the A-stiffness on ``grid``, ``lap_solve`` its
    ``fem.torus_laplace_solver``, ``loads`` the two right-hand sides
    -(A e_k, grad v) and ``tol`` the relative residual tolerance of the CG
    solves; :func:`solve_cell` makes them.
    """
    # weak form: (A grad chi_k, grad v) = -(A e_k, grad v)
    return [GridFunction(grid, fem.cg_solve(
        stiff, rhs, deflate_constants=True, tol=tol, precond=lap_solve))
        for rhs in loads]


def effective_matrix(grid, model, chi, a_mean):
    """Homogenized diffusion matrix from the corrector gradients.

    a_hat[i, j] = cell average of a_ij + (A grad chi_j)_i, with ``a_mean``
    the first term, the integral of A's samples at the assembly rule.  The
    second is integrated from A grad chi_j, filled band by band
    (:func:`_fill_by_bands`).
    """
    def fill(a, rows, cells):
        return [fem.apply_tensor(a, fem.cell_gradients(grid, c.values,
                                                       rows=rows))
                for c in chi]

    a_hat = np.array(a_mean)
    for j, flux in enumerate(_fill_by_bands(grid, model, [(2,)] * 2, fill)):
        a_hat[:, j] += fem.integrate(grid, flux)
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


def cross_flux_identity_defect(model, grid, chi, chi_w):
    """Defect of the compatibility identity between corrector fluxes.

    Measures |cell-avg of (A grad chi_w)_i - cell-avg of chi_i W| for i = 1, 2
    with an independent 3x3 Gauss rule (finer than the 2x2 assembly rule), so
    the number reflects genuine discretization error rather than the
    algebraic identity satisfied by the discrete solutions.

    The finer-rule samples are made and integrated one band
    (:func:`_bands`) at a time, and the band integrals are summed in band
    order, so none of them is full size: A alone would be 42 MB at
    n = 384.
    """
    xi, wq = gauss_rule(3)
    pot_avg = np.zeros(2)
    flux_avg = np.zeros(2)
    for rows, _ in _bands(grid):
        w = fem.quad_samples(grid, model.w_eval, xi, rows)
        pot_avg += [fem.integrate(grid, w * fem.cell_values(
            grid, chi[i].values, xi, rows), wq) for i in range(2)]
        a = fem.quad_samples(grid, model.a_eval, xi, rows)
        gw = fem.cell_gradients(grid, chi_w.values, xi, rows)
        flux_avg += fem.integrate(grid, fem.apply_tensor(a, gw), wq)
    return np.abs(flux_avg - pot_avg)


def _chi_w_integrands(grid, model, chi, chi_w, w):
    """Everything that reads A grad chi_w, filled band by band
    (:func:`_fill_by_bands`) in one pass: the energy integrand
    (A grad chi_w) . grad chi_w, (ncells, nq, 2), and the psi1 sources
    (A grad chi_w)_i - W chi_i of :func:`solve_aux_potentials`,
    (ncells, nq) each.  ``w`` is W at the assembly rule."""
    def fill(a, rows, cells):
        g = fem.cell_gradients(grid, chi_w.values, rows=rows)
        flux_w = fem.apply_tensor(a, g)
        return [flux_w * g] + [flux_w[..., i] - w[cells] * fem.cell_values(
            grid, chi[i].values, rows=rows) for i in range(2)]

    return _fill_by_bands(grid, model, [(2,), (), ()], fill)


def solve_aux_potentials(grid, sources, compat_tol):
    """Compatibility check of the auxiliary Laplace problems

        lap psi1_i = (A grad chi_w)_i - W chi_i
        lap psi2   = m_w_chi_w - W chi_w
        lap psi3   = W

    ``sources`` maps each problem's name to its right-hand side at the
    assembly rule.  Returns the absolute quadrature mean of each, in order,
    and raises ConsistencyError, naming the problem, when one exceeds
    ``compat_tol`` (:func:`solve_cell` passes ten times the cross-flux
    identity defect, floored at 1e-10).  The potentials themselves are not
    solved: nothing downstream reads them.
    """
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

    grid: PeriodicGrid
    chi: list
    chi_w: GridFunction
    a_hat: np.ndarray
    m_w_chi_w: float
    energy_identity_residual: float
    cross_flux_defect: np.ndarray
    aux_compat_defects: np.ndarray


def solve_cell(model, n, tol=1e-10, workers=1):
    """Run the full cell stage on an n-by-n periodic grid.

    ``tol`` is the relative residual tolerance of the corrector CG solves.
    With ``workers`` > 1, one helper thread solves chi_w while the calling
    thread solves chi_1 and chi_2 (the same bits as one after the other);
    with 1 no thread is started.  One helper only: each further thread's
    glibc arena kept memory of its own and raised the stage's peak RSS.

    No sample of A is held through the solves.  A is sampled at the
    assembly rule for the stiffness, and once more for the two things that
    need the whole array, a_hat's mean term and the chi loads; then the
    samples go and the freed heap is handed back (``fem.release_heap``)
    before the first solve.  What reads A after the solves samples it
    band by band: :func:`effective_matrix`, the finer-rule cross-flux check
    and :func:`_chi_w_integrands`, in that order, so no psi1 source is held
    through the finer check.
    """
    grid = PeriodicGrid(n)
    # The assembly gets samples of A of its own, freed before its scatter:
    # holding one sample through it raised the stage's peak RSS by 0.6 MB
    # at n = 384 (layered + sine-mix).
    stiff = fem.assemble_stiffness(grid, fem.quad_samples(grid, model.a_eval))
    lap_solve = fem.torus_laplace_solver(grid)
    a = fem.quad_samples(grid, model.a_eval)
    a_mean = fem.integrate(grid, a)
    loads = [-fem.flux_load_from_quad_values(grid, a[..., :, k])
             for k in range(2)]
    del a
    w = fem.quad_samples(grid, model.w_eval)
    fem.release_heap()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=1) as helper:
            pending = helper.submit(solve_chi_w, grid, stiff, lap_solve, w,
                                    tol)
            chi = solve_chi(grid, stiff, lap_solve, loads, tol)
            chi_w = pending.result()
    else:
        chi = solve_chi(grid, stiff, lap_solve, loads, tol)
        chi_w = solve_chi_w(grid, stiff, lap_solve, w, tol)
    del stiff, loads  # freed before the checks below allocate
    a_hat = effective_matrix(grid, model, chi, a_mean)
    defect = cross_flux_identity_defect(model, grid, chi, chi_w)
    energy, *psi1 = _chi_w_integrands(grid, model, chi, chi_w, w)
    energy = float(fem.integrate(grid, energy).sum())
    w_chi_w = w * fem.cell_values(grid, chi_w.values)
    m_w = float(fem.integrate(grid, w_chi_w))
    aux = solve_aux_potentials(grid, {
        "psi1[0]": psi1[0], "psi1[1]": psi1[1], "psi2": m_w - w_chi_w,
        "psi3": w}, max(10.0 * float(defect.max()), 1e-10))
    return CellSolution(
        grid=grid, chi=chi, chi_w=chi_w, a_hat=a_hat,
        m_w_chi_w=m_w, energy_identity_residual=float(
            abs(m_w + energy) / (1.0 + abs(m_w))),
        cross_flux_defect=defect, aux_compat_defects=aux)


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
