"""Boundary-value solves on the unit square.

This module owns everything that lives on the physical domain (0,1)^2 with
homogeneous Dirichlet conditions: the oscillatory operator at a given scale
``epsilon``, its constant-coefficient effective counterpart, and the
boundary-adapted correctors that repair the mismatch between periodic cell
data and the Dirichlet wall.

Scale separation is written as ``x / epsilon``: coefficient fields from
:mod:`homlab.coefficients` are unit-periodic, so the oscillatory operator
samples them at ``y = x / epsilon``.

Every linear system here is solved directly with a sparse LU factor
(:func:`homlab.fem.factorize`).  :func:`solve_homogenized` takes the
caller's factor of the effective operator, and
:func:`solve_dirichlet_correctors` may take one of the diffusion matrix, so
a caller that factors an operator for its shift-invert eigensolve solves
with the same factor.  :func:`solve_eps` makes its own; the two corrector
problems share one factor either way.

No eigensolve happens here.  The sign hypothesis is read off a spectrum the
caller already has (:func:`coercivity_check`), so each operator's spectrum
is computed once, by :mod:`homlab.spectral`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from .coefficients import CoefficientModel
from .config import MIN_CELLS_PER_PERIOD
from .errors import CoercivityError, ConfigurationError
from .fem import (
    QUAD_XI,
    QUAD_W,
    SparseOperator,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    cell_gradients,
    cell_values,
    factorize,
    interior_operator,
    recover_gradient,
)
from .grids import DirichletGrid, GridFunction
from .spectral import Spectrum

__all__ = [
    "EpsProblem",
    "DirichletCorrectors",
    "CoercivityReport",
    "solve_eps",
    "solve_homogenized",
    "solve_dirichlet_correctors",
    "coercivity_check",
    "constant_matrix",
    "homogenized_lower_bound",
    "galerkin_energy_defect",
]


def _scaled_a(model: CoefficientModel, epsilon: float):
    def a_eval(x1, x2):
        return model.a_eval(x1 / epsilon, x2 / epsilon)

    return a_eval


def _scaled_w(model: CoefficientModel, epsilon: float):
    def w_eval(x1, x2):
        return model.w_eval(x1 / epsilon, x2 / epsilon)

    return w_eval


class EpsProblem:
    """Oscillatory Dirichlet problem at a fixed scale.

    Bundles the coefficient model, the scale ``epsilon`` and the domain grid,
    and caches the assembled interior operators.  Construction enforces the
    resolution rule ``h <= epsilon / 16``; everything downstream may then
    assume the oscillation is resolved.
    """

    def __init__(self, model: CoefficientModel, epsilon: float, grid: DirichletGrid):
        if epsilon <= 0.0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        if grid.periodic:
            raise ConfigurationError("EpsProblem needs a Dirichlet grid")
        if grid.h > epsilon / MIN_CELLS_PER_PERIOD + 1e-14:
            raise ConfigurationError(
                f"grid too coarse for epsilon={epsilon}: h={grid.h:.6g} exceeds "
                f"epsilon/{MIN_CELLS_PER_PERIOD}="
                f"{epsilon / MIN_CELLS_PER_PERIOD:.6g}; "
                f"use n >= {int(np.ceil(MIN_CELLS_PER_PERIOD / epsilon))}")
        self.model = model
        self.epsilon = float(epsilon)
        self.grid = grid
        self._stiffness_full: Optional[SparseOperator] = None
        self._wmass_full: Optional[SparseOperator] = None
        self._mass_int: Optional[SparseOperator] = None
        self._op_int: Optional[SparseOperator] = None
        self._diff_int: Optional[SparseOperator] = None

    # --- assembly (lazy, cached) -------------------------------------

    def stiffness_full(self) -> SparseOperator:
        if self._stiffness_full is None:
            self._stiffness_full = assemble_stiffness(
                self.grid, _scaled_a(self.model, self.epsilon))
        return self._stiffness_full

    def weighted_mass_full(self) -> SparseOperator:
        if self._wmass_full is None:
            self._wmass_full = assemble_weighted_mass(
                self.grid, _scaled_w(self.model, self.epsilon))
        return self._wmass_full

    def mass_interior(self) -> SparseOperator:
        if self._mass_int is None:
            self._mass_int = interior_operator(self.grid, assemble_mass(self.grid))
        return self._mass_int

    def operator_interior(self) -> SparseOperator:
        """Interior matrix of  -div(A(x/eps) grad .) + (1/eps) W(x/eps)."""
        if self._op_int is None:
            k = self.diffusion_interior()
            if self.model.w_preset == "zero":
                self._op_int = k
            else:
                mw = interior_operator(self.grid, self.weighted_mass_full())
                combined = k.mat + (1.0 / self.epsilon) * mw.mat
                self._op_int = SparseOperator(combined.tocsr())
        return self._op_int

    def diffusion_interior(self) -> SparseOperator:
        """Interior stiffness alone (no potential term)."""
        if self._diff_int is None:
            self._diff_int = interior_operator(self.grid, self.stiffness_full())
        return self._diff_int

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
        pts = grid.quad_points(QUAD_XI)
        a = self.model.a_eval(pts[..., 0] / self.epsilon,
                              pts[..., 1] / self.epsilon)
        has_w = self.model.w_preset != "zero"
        if has_w:
            w = self.model.w_eval(pts[..., 0] / self.epsilon,
                                  pts[..., 1] / self.epsilon)
        out = []
        for u in fields:
            grads = cell_gradients(grid, u)  # (ncells, nq, 2)
            vals = cell_values(grid, u)  # (ncells, nq)
            energy = grid.h ** 2 * np.einsum(
                "q,cqi,cqij,cqj->", QUAD_W, grads, a, grads)
            if has_w:
                energy += (grid.h ** 2 / self.epsilon) * np.einsum(
                    "q,cq,cq->", QUAD_W, w, vals ** 2)
            mass = grid.h ** 2 * np.einsum("q,cq,cq->", QUAD_W, vals, vals)
            out.append((float(energy), float(mass)))
        return out


@dataclass
class CoercivityReport:
    """Outcome of the sign check on the oscillatory form.

    ``lambda_eps_1`` is the first Dirichlet eigenvalue of the full operator
    (diffusion plus scaled potential), read from its spectrum; the form is
    coercive iff it is positive.  The effective potential constant is kept
    for context.
    """

    epsilon: float
    lambda_eps_1: float
    m_w_chi_w: float
    coercive: bool


def coercivity_check(spectrum: Spectrum,
                     m_w_chi_w: float) -> CoercivityReport:
    """Decide the sign hypothesis from the oscillatory operator's spectrum
    (tag ``eps``), already computed; only its first eigenvalue is read.

    No exception is raised on a negative finding — the report carries it,
    and :func:`solve_eps` decides what to do.
    """
    lam_eps = float(spectrum.eigenvalues[0])
    return CoercivityReport(
        epsilon=spectrum.epsilon,
        lambda_eps_1=lam_eps,
        m_w_chi_w=float(m_w_chi_w),
        coercive=lam_eps > 0.0,
    )


def constant_matrix(a_hat: np.ndarray):
    """Coefficient field equal to the constant 2x2 matrix ``a_hat``."""
    a_hat = np.asarray(a_hat, dtype=float)

    def a_eval(x1, x2):
        out = np.empty(np.shape(x1) + (2, 2))
        out[...] = a_hat
        return out

    return a_eval


def solve_eps(problem: EpsProblem,
              coercivity: Optional[CoercivityReport] = None,
              allow_noncoercive: bool = False) -> GridFunction:
    """Solve the oscillatory Dirichlet problem; returns the full nodal field.

    Callers are expected to establish coercivity first — pass the report from
    :func:`coercivity_check`, or set ``allow_noncoercive=True`` to take
    responsibility themselves.  A report with ``coercive=False`` stops the
    solve with :class:`CoercivityError` unless overridden; that report is the
    only sign gate, because the direct solve succeeds on any nonsingular
    operator, definite or not.
    """
    if coercivity is not None and not coercivity.coercive and not allow_noncoercive:
        raise CoercivityError(
            f"first eigenvalue {coercivity.lambda_eps_1:.6g} <= 0 at "
            f"epsilon={problem.epsilon}: the bilinear form is not coercive "
            "(pass allow_noncoercive=True to attempt the solve regardless)",
            lambda_1=coercivity.lambda_eps_1)
    if coercivity is None and not allow_noncoercive:
        raise ConfigurationError(
            "solve_eps needs a coercivity report (or allow_noncoercive=True)")
    rhs_full = assemble_load(problem.grid, problem.model.f_eval)
    rhs = problem.grid.restrict(rhs_full)
    inner = factorize(problem.operator_interior()).solve(rhs)
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


def solve_homogenized(a_hat: np.ndarray,
                      m_w_chi_w: float,
                      grid: DirichletGrid,
                      f_eval: Callable[..., np.ndarray],
                      *, lu) -> GridFunction:
    """Solve the effective problem  -div(a_hat grad u) + m u = f,  u = 0 on
    the boundary, with constant ``a_hat`` and constant zeroth-order ``m``.

    ``lu`` is the caller's :func:`homlab.fem.factorize` factor of the
    interior matrix ``K + m M`` on ``grid``, ``K`` the stiffness of
    ``a_hat`` and ``M`` the mass.  The sign hypothesis is enforced up front:
    ``m`` must exceed the negative of the first diffusion eigenvalue, for
    which the rigorous bound ``2 pi^2 lambda_min(a_hat)`` stands in.
    Violations raise :class:`ConfigurationError` before ``lu`` is used.
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
    rhs = grid.restrict(assemble_load(grid, f_eval))
    return GridFunction(grid, grid.extend(lu.solve(rhs)))


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

    def min_jacobian(self, layer_width_factor: float = 1.0) -> float:
        """Smallest determinant of the corrector Jacobian near the wall.

        The map ``x -> (phi_1, phi_2)`` is probed on every cell whose center
        lies within ``layer_width_factor * epsilon`` of the boundary; its
        Jacobian is evaluated from recovered nodal gradients interpolated to
        the quadrature points of each such cell.
        """
        grid = self.phi[0].grid
        n = grid.n
        h = grid.h
        width = layer_width_factor * self.epsilon
        centers = (np.arange(n) + 0.5) * h
        near = (centers < width) | (centers > 1.0 - width)
        mask2d = near[:, None] | near[None, :]  # index [iy, ix]
        cells = np.flatnonzero(mask2d.ravel())
        if cells.size == 0:
            cells = np.arange(grid.ncells)  # layer thinner than one cell row
        jac = np.empty((cells.size, QUAD_W.size, 2, 2))
        for j in 0, 1:
            gx, gy = recover_gradient(self.phi[j])
            jac[:, :, 0, j] = cell_values(grid, gx.values)[cells]
            jac[:, :, 1, j] = cell_values(grid, gy.values)[cells]
        dets = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        return float(dets.min())


def solve_dirichlet_correctors(problem: EpsProblem,
                               lu=None) -> DirichletCorrectors:
    """Solve the two corrector problems for ``problem``'s scale and grid.

    The ansatz ``Phi_j = x_j + phi`` turns the boundary data into homogeneous
    Dirichlet data for ``phi`` with load ``-(K x_j)`` restricted to the
    interior; the boundary nodes of the returned field therefore carry
    ``x_j`` exactly (bit for bit), not merely up to solver tolerance.  Both
    problems share one factor of the diffusion matrix: ``lu`` if the caller
    passes its factor of ``problem.diffusion_interior()``, else one made
    here only if a load is nonzero.
    """
    grid = problem.grid
    k_full = problem.stiffness_full()
    coords = grid.node_coords()
    phi = []
    deviation = []
    for j in 0, 1:
        x_j = coords[:, j].copy()
        rhs = -grid.restrict(k_full.dot(x_j))
        if np.linalg.norm(rhs) == 0.0:
            inner = np.zeros(grid.ndof)
        else:
            if lu is None:
                lu = factorize(problem.diffusion_interior())
            inner = lu.solve(rhs)
        dev = grid.extend(inner)
        phi.append(GridFunction(grid, x_j + dev))
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
    op_energy = float(inner @ problem.operator_interior().dot(inner))
    quad = problem.quadrature_energies([u.values])[0][0]
    scale = max(abs(quad), abs(op_energy), 1e-300)
    return abs(op_energy - quad) / scale
