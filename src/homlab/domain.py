"""Boundary-value solves on the unit square.

This module owns everything that lives on the physical domain (0,1)^2 with
homogeneous Dirichlet conditions: the oscillatory operator at a given scale
``epsilon``, its constant-coefficient effective counterpart, and the
boundary-adapted correctors that repair the mismatch between periodic cell
data and the Dirichlet wall.

Scale separation is written as ``x / epsilon``: coefficient fields from
:mod:`homlab.coefficients` are unit-periodic, so the oscillatory operator
samples them at ``y = x / epsilon``.

Each scale's operators are assembled once and kept as plain attributes:
the diffusion ``K_eps`` and the corrector loads when its
:class:`DiffusionProblem` is built, ``L_eps`` when the :class:`EpsProblem`
is built on it.  Reading them assembles nothing, so threads can share a
problem, and each matrix has one owner: the problem does not keep the
diffusion problem, so a caller that drops it frees ``K_eps`` and the loads.
They are interior matrices on the grid's one shared sparsity pattern
(:attr:`homlab.grids.DirichletGrid.pattern`), so ``L_eps`` is a sum of
their data vectors (:func:`homlab.fem.add_scaled`); no full-grid matrix is
built.

Nothing here factors a matrix.  Every oscillatory solve takes the caller's
Cholesky factor (:func:`homlab.fem.factorize`), the one the pipeline's
operator task made for that operator's shift-invert eigensolve:
:func:`solve_dirichlet_correctors` solves with the factor of ``K_eps``,
shared by both corrector problems, and :func:`solve_eps`
preconditions conjugate gradients on ``L_eps`` with the factor of
``L_eps - sigma M``.  The effective operator needs none: with constant
diagonal ``a_hat`` its Q1 pencil is a Kronecker sum of 1-D pencils, so its
eigenpairs (:func:`effective_eigenpairs`) and its solve
(:func:`solve_homogenized`) are closed forms in the 1-D sine vectors (fast
diagonalization: Lynch, Rice & Thomas, Numer. Math. 1964).

No iterative eigensolve happens here.  The sign hypothesis is read off a
spectrum the caller already has (:func:`coercivity_check`), so each
oscillatory operator's spectrum is computed once, by
:mod:`homlab.spectral`, at the problem's own shift (``EpsProblem.sigma``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .coefficients import CoefficientModel
from .config import MIN_CELLS_PER_PERIOD
from .errors import CoercivityError, ConfigurationError, SolverError
from .fem import (
    add_scaled,
    apply_tensor,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    cell_gradients,
    cell_values,
    cg_solve,
    flux_load_from_quad_values,
    integrate,
    quad_samples,
)
from .grids import DirichletGrid, GridFunction
from .spectral import Spectrum

__all__ = [
    "DiffusionProblem",
    "EpsProblem",
    "DirichletCorrectors",
    "CoercivityReport",
    "solve_eps",
    "solve_homogenized",
    "effective_eigenpairs",
    "solve_dirichlet_correctors",
    "coercivity_check",
    "constant_matrix",
    "homogenized_lower_bound",
    "galerkin_energy_defect",
    "rayleigh_quadrature_defect",
]


def _scaled(field: Callable[..., np.ndarray], epsilon: float):
    """The unit-periodic ``field`` read at ``y = x / epsilon``."""
    def scaled(x1, x2):
        return field(x1 / epsilon, x2 / epsilon)

    return scaled


class DiffusionProblem:
    """Oscillatory diffusion ``-div(A(x/eps) grad .)`` with Dirichlet data
    at a fixed scale, assembled on construction:

    - ``stiffness``: its interior stiffness ``K_eps``, the matrix of the
      ``eps_prime`` pencil and of both corrector problems;
    - ``lifts``: interior loads ``-(K x_j)`` of the two corrector problems
      (:func:`solve_dirichlet_correctors`), ``x_j`` the nodal coordinate
      ``j`` (j = 1, 2), ``K`` the stiffness on every node.

    ``A`` is sampled once at the quadrature points; the stiffness and the
    lifts both read those samples.  Since ``grad x_j = e_j``, ``K x_j`` is
    the load ``(A e_j, grad N_a)``, so the lifts need no full-grid ``K``.
    Construction first enforces the resolution rule ``h <= epsilon / 16``;
    everything downstream may then assume the oscillation is resolved.
    """

    def __init__(self, model: CoefficientModel, epsilon: float, grid: DirichletGrid):
        if epsilon <= 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        if grid.periodic:
            raise ConfigurationError("DiffusionProblem needs a Dirichlet grid")
        if grid.h > epsilon / MIN_CELLS_PER_PERIOD + 1e-14:
            raise ConfigurationError(
                f"grid too coarse for epsilon={epsilon}: h={grid.h:.6g} exceeds "
                f"epsilon/{MIN_CELLS_PER_PERIOD}="
                f"{epsilon / MIN_CELLS_PER_PERIOD:.6g}; "
                f"use n >= {int(np.ceil(MIN_CELLS_PER_PERIOD / epsilon))}")
        self.model = model
        self.epsilon = float(epsilon)
        self.grid = grid
        a = quad_samples(grid, _scaled(model.a_eval, self.epsilon))
        self.stiffness = assemble_stiffness(grid, a)
        self.lifts: Tuple[np.ndarray, np.ndarray] = tuple(
            -grid.restrict(flux_load_from_quad_values(grid, a[..., :, j]))
            for j in (0, 1))


class EpsProblem:
    """Oscillatory Dirichlet problem at ``diffusion``'s scale and grid,
    assembled on construction:

    - ``operator``: interior matrix of ``-div(A(x/eps) grad .) + (1/eps)
      W(x/eps)``, i.e. ``diffusion.stiffness + (1/eps) M_W``;
    - ``sigma``: ``min(0, min_q W_q) / eps - 1`` over the samples ``M_W``
      is assembled from, strictly below the spectrum of ``operator``: the
      diffusion part is nonnegative and ``M_W - (min_q W_q) M`` is
      positive semidefinite, since ``M_W`` has the mass's positive
      quadrature weights.

    The problem keeps ``diffusion``'s model, scale and grid but not
    ``diffusion`` itself: ``K_eps`` and the corrector loads live as long as
    their :class:`DiffusionProblem`.
    """

    def __init__(self, diffusion: DiffusionProblem):
        model, grid = diffusion.model, diffusion.grid
        self.model = model
        self.epsilon = diffusion.epsilon
        self.grid = grid
        w = quad_samples(grid, _scaled(model.w_eval, self.epsilon))
        self.operator = add_scaled(diffusion.stiffness, 1.0 / self.epsilon,
                                   assemble_weighted_mass(grid, w))
        self.sigma = min(0.0, float(np.min(w))) / self.epsilon - 1.0
        self._mass_int: Optional[sp.csr_matrix] = None

    def mass_interior(self) -> sp.csr_matrix:
        if self._mass_int is None:
            self._mass_int = assemble_mass(self.grid)
        return self._mass_int

    # --- energy by quadrature ----------------------------------------

    def quadrature_energies(self, fields: Iterable[np.ndarray]
                            ) -> List[Tuple[float, float]]:
        """Energy ``int A(x/eps) grad u . grad u + (1/eps) W(x/eps) u^2``
        and mass ``int u^2`` of each full nodal field in ``fields``.

        Integrates the fields directly with the assembly rule on
        coefficients sampled once per call, one field at a time so the
        temporaries stay one field in size.
        """
        grid = self.grid
        a = quad_samples(grid, _scaled(self.model.a_eval, self.epsilon))
        w = quad_samples(grid, _scaled(self.model.w_eval, self.epsilon))
        out = []
        for u in fields:
            grads = cell_gradients(grid, u)  # (ncells, nq, 2)
            vals = cell_values(grid, u)  # (ncells, nq)
            energy = integrate(grid, apply_tensor(a, grads) * grads).sum()
            sq = vals * vals
            energy += integrate(grid, w * sq) / self.epsilon
            out.append((float(energy), float(integrate(grid, sq))))
        return out


@dataclass
class CoercivityReport:
    """Outcome of the sign check on the oscillatory form.

    ``lambda_eps_1`` is the first Dirichlet eigenvalue of the full operator
    (diffusion plus scaled potential), read from its spectrum; the form is
    coercive iff it is positive.
    """

    lambda_eps_1: float
    coercive: bool


def coercivity_check(spectrum: Spectrum) -> CoercivityReport:
    """Decide the sign hypothesis from the oscillatory operator's spectrum
    (tag ``eps``), already computed; only its first eigenvalue is read.

    No exception is raised on a negative finding — the report carries it,
    and :func:`solve_eps` refuses to solve.
    """
    lam_eps = float(spectrum.eigenvalues[0])
    return CoercivityReport(lambda_eps_1=lam_eps, coercive=lam_eps > 0.0)


def constant_matrix(a_hat: np.ndarray):
    """Coefficient field equal to the constant 2x2 matrix ``a_hat``."""
    a_hat = np.asarray(a_hat, dtype=float)

    def a_eval(x1, x2):
        out = np.empty(np.shape(x1) + (2, 2))
        out[...] = a_hat
        return out

    return a_eval


def solve_eps(problem: EpsProblem, coercivity: CoercivityReport,
              rhs: np.ndarray, *, lu) -> GridFunction:
    """Solve the oscillatory Dirichlet problem with the interior load
    ``rhs``; returns the full nodal field.

    ``coercivity`` is the report of :func:`coercivity_check`.  A report with
    ``coercive=False`` stops the solve with :class:`CoercivityError`: the
    estimates this solution feeds assume the sign hypothesis.

    ``lu`` is the caller's factor of ``L_eps - sigma M`` for a shift sigma
    below the spectrum, the one the ``eps`` eigensolve used.  On a coercive
    form ``L_eps`` is SPD and the solve is conjugate gradients
    preconditioned by ``lu`` to a relative residual of 1e-13: the
    preconditioned spectrum ``lambda / (lambda - sigma)`` lies in
    ``[lambda_1 / (lambda_1 - sigma), 1)``, so a few iterations suffice.  A
    PCG failure raises :class:`SolverError` naming epsilon.
    """
    if not coercivity.coercive:
        raise CoercivityError(
            f"first eigenvalue {coercivity.lambda_eps_1:.6g} <= 0 at "
            f"epsilon={problem.epsilon}: the bilinear form is not coercive",
            lambda_1=coercivity.lambda_eps_1)
    try:
        inner = cg_solve(problem.operator, rhs, tol=1e-13,
                         precond=lu.solve)
    except SolverError as err:
        raise SolverError(
            f"u_eps at epsilon={problem.epsilon}: {err}",
            residual=err.residual, iterations=err.iterations,
            breakdown=err.breakdown) from err
    return GridFunction(problem.grid, problem.grid.extend(inner))


def homogenized_lower_bound(a_hat: np.ndarray) -> float:
    """Rigorous lower bound on the first Dirichlet eigenvalue of
    ``-div(a_hat grad .)`` on the unit square: ``2 pi^2 lambda_min(a_hat)``.

    For constant SPD ``a_hat`` the Rayleigh quotient is bounded below by
    ``lambda_min(a_hat) |grad v|^2 / |v|^2 >= lambda_min(a_hat) * 2 pi^2``.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    sym = 0.5 * (a_hat + a_hat.T)
    lam_min = float(np.linalg.eigvalsh(sym)[0])
    return 2.0 * np.pi ** 2 * lam_min


#: Largest |a_hat_12| or |a_hat_21|, relative to max |a_hat_ii|, that the
#: closed forms treat as zero; every preset's a_hat is diagonal to round-off
#: on the even cell grids that :class:`homlab.config.RunConfig` accepts.
_OFF_DIAGONAL_TOL = 1e-12


def _sine_pencil(a_hat: np.ndarray, grid: DirichletGrid
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """The effective pencil ``K v = lambda M v`` in the 1-D sine basis.

    ``K`` is the interior Q1 stiffness of the constant diagonal ``a_hat``
    on ``grid`` and ``M`` the interior mass.  Both are Kronecker products
    of the 1-D matrices ``K_1 = tridiag(-1, 2, -1) / h`` and
    ``M_1 = h tridiag(1, 4, 1) / 6``, whose common eigenvectors are
    ``sin(p pi x_i)``, p = 1..n-1, with eigenvalues
    ``r_p = (12 / h^2) sin^2(p pi h / 2) / (2 + cos(p pi h))``.  The sin^2
    form keeps full relative accuracy at small p, where
    ``1 - cos(p pi h)`` cancels.

    Returns ``lam`` with ``lam[q, p] = a_11 r_p + a_22 r_q`` (p the x_1
    mode, q the x_2 mode) and the ``(n-1, n-1)`` matrix ``s`` whose column
    p - 1 is ``sin(p pi x_i)`` normalized in ``M_1`` (its squared norm is
    ``(2 + cos(p pi h)) / 6``).  An off-diagonal entry of ``a_hat`` above
    :data:`_OFF_DIAGONAL_TOL` times ``max |a_hat_ii|`` raises
    :class:`ConfigurationError` naming it.
    """
    a_hat = np.asarray(a_hat, dtype=float)
    scale = max(abs(a_hat[0, 0]), abs(a_hat[1, 1]))
    for i, j in ((0, 1), (1, 0)):
        if abs(a_hat[i, j]) > _OFF_DIAGONAL_TOL * scale:
            raise ConfigurationError(
                f"a_hat_{i + 1}{j + 1} = {a_hat[i, j]:.6g} exceeds "
                f"{_OFF_DIAGONAL_TOL:g} max |a_hat_ii|: the effective "
                "operator's closed form needs a diagonal a_hat")
    n, h = grid.n, grid.h
    p = np.arange(1, n)
    cos = np.cos(np.pi * h * p)
    r = (12.0 / h ** 2) * np.sin(0.5 * np.pi * h * p) ** 2 / (2.0 + cos)
    # sin(pi i p / n), with i p reduced modulo 2n in exact integers
    s = np.sin(np.pi * h * (np.outer(p, p) % (2 * n))) * np.sqrt(
        6.0 / (2.0 + cos))
    return a_hat[1, 1] * r[:, None] + a_hat[0, 0] * r[None, :], s


def effective_eigenpairs(a_hat: np.ndarray, grid: DirichletGrid,
                         k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Lowest ``k`` Dirichlet eigenpairs of ``-div(a_hat grad .)`` on
    ``grid``'s Q1 space, in closed form (:func:`_sine_pencil`).

    Returns the eigenvalues ascending, as ``(k,)``, and the M-orthonormal
    eigenvectors ``sin(p pi x_1) sin(q pi x_2)``, scaled, as ``(ndof, k)``
    columns in the grid's DOF order.  Equal eigenvalues keep the order of
    ``lam.ravel()``, so the pairs are the same on every run.
    """
    lam, s = _sine_pencil(a_hat, grid)
    order = np.argsort(lam, axis=None, kind="stable")[:k]
    q, p = np.unravel_index(order, lam.shape)
    full = np.zeros((order.size, grid.n + 1, grid.n + 1))
    full[:, 1:-1, 1:-1] = s[:, q].T[:, :, None] * s[:, p].T[:, None, :]
    return lam.ravel()[order], grid.restrict(
        full.reshape(order.size, grid.nnodes)).T


def solve_homogenized(a_hat: np.ndarray,
                      m_w_chi_w: float,
                      grid: DirichletGrid,
                      rhs: np.ndarray) -> GridFunction:
    """Solve the effective problem  -div(a_hat grad u) + m u = f,  u = 0 on
    the boundary, with constant diagonal ``a_hat`` and constant
    zeroth-order ``m``; ``rhs`` is the interior load ``(f, N_a)`` on
    ``grid``.

    The interior matrix ``K + m M`` is diagonal in the M-orthonormal sine
    basis ``S`` (:func:`_sine_pencil`), so ``u = S (S^T b S / (lam + m))
    S^T`` on the interior nodes, ``b`` the load as an array: four dense
    products of ``(n-1)``-square matrices.  The sign hypothesis is enforced
    up front: ``m`` must exceed the negative of the first diffusion
    eigenvalue, for which the rigorous bound ``2 pi^2 lambda_min(a_hat)``
    stands in.  Violations raise :class:`ConfigurationError`.
    """
    m = float(m_w_chi_w)
    bound = homogenized_lower_bound(a_hat)
    if m <= -bound:
        raise ConfigurationError(
            f"effective potential m={m:.6g} does not satisfy the sign "
            f"hypothesis m > -lambda_1 (rigorous bound -{bound:.6g}); "
            "the effective operator may be singular or indefinite")
    if grid.periodic:
        raise ConfigurationError("solve_homogenized needs a Dirichlet grid")
    lam, s = _sine_pencil(a_hat, grid)
    full = grid.extend(rhs).reshape(grid.n + 1, grid.n + 1)
    full[1:-1, 1:-1] = s @ ((s.T @ full[1:-1, 1:-1] @ s) / (lam + m)) @ s.T
    return GridFunction(grid, full.ravel())


@dataclass
class DirichletCorrectors:
    """Boundary-adapted corrector fields ``Phi_j`` for one ``epsilon``.

    ``phi[j]`` solves the oscillatory diffusion equation with boundary data
    ``x_{j+1}`` (stored as a full nodal field so the trace is exact by
    construction), and ``deviation[j] = phi[j] - x_{j+1}`` is the part that
    vanishes on the wall.  No potential term enters: the corrector repairs
    the gradient line of the expansion only.
    """

    epsilon: float
    phi: List[GridFunction]
    deviation: List[GridFunction]

    def sup_deviation(self) -> float:
        return max(float(np.max(np.abs(d.values))) for d in self.deviation)


def solve_dirichlet_correctors(problem: DiffusionProblem,
                               lu) -> DirichletCorrectors:
    """Solve the two corrector problems for ``problem``'s scale and grid.

    The ansatz ``Phi_j = x_j + phi`` turns the boundary data into homogeneous
    Dirichlet data for ``phi`` with load ``-(K x_j)`` restricted to the
    interior (``problem.lifts``); the boundary nodes of the returned field
    therefore carry ``x_j`` exactly (bit for bit), not merely up to solver
    tolerance.  Both problems solve with ``lu``, the caller's factor of
    ``problem.stiffness``.
    """
    grid = problem.grid
    coords = grid.node_coords()
    phi = []
    deviation = []
    for j, rhs in enumerate(problem.lifts):
        dev = grid.extend(lu.solve(rhs))
        phi.append(GridFunction(grid, coords[:, j] + dev))
        deviation.append(GridFunction(grid, dev))
    return DirichletCorrectors(epsilon=problem.epsilon, phi=phi,
                               deviation=deviation)


def galerkin_energy_defect(problem: EpsProblem, u: GridFunction) -> float:
    """Relative gap between the operator energy ``u^T L u`` and the same
    energy recomputed by direct quadrature of the integrand.

    Both routes use the assembly quadrature rule, so for an exactly
    assembled matrix the gap is rounding noise; it is the cheap end-to-end
    consistency probe for the oscillatory solve path.
    """
    inner = problem.grid.restrict(u.values)
    op_energy = float(inner @ problem.operator.dot(inner))
    quad = problem.quadrature_energies([u.values])[0][0]
    scale = max(abs(quad), abs(op_energy), 1e-300)
    return abs(op_energy - quad) / scale


def rayleigh_quadrature_defect(problem: EpsProblem,
                               spectrum: Spectrum) -> np.ndarray:
    """Relative gap between each eigenvalue and its Rayleigh quotient
    recomputed by direct quadrature of the fields.

    Uses the assembly rule on the assembled coefficients, so this is a
    route-consistency probe (matrix algebra vs. field integration), not a
    discretization-error estimate; a finer rule would differ at O(h^2).
    ``problem``'s :meth:`EpsProblem.quadrature_energies` does the
    integration.
    """
    grid = problem.grid
    integrals = problem.quadrature_energies(
        grid.extend(spectrum.eigenvectors[:, j]) for j in range(spectrum.k))
    defects = np.empty(spectrum.k)
    for j, (energy, mass) in enumerate(integrals):
        lam = spectrum.eigenvalues[j]
        defects[j] = abs(energy / mass - lam) / max(abs(lam), 1e-30)
    return defects
