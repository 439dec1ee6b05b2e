"""Boundary-value solves on the unit square.

This module owns everything that lives on the physical domain (0,1)^2 with
homogeneous Dirichlet conditions: the oscillatory operator at a given scale
``epsilon``, its constant-coefficient effective counterpart, and the
boundary-adapted correctors that repair the mismatch between periodic cell
data and the Dirichlet wall.

Scale separation is written as ``x / epsilon``: coefficient fields from
:mod:`homlab.coefficients` are unit-periodic, so the oscillatory operator
samples them at ``y = x / epsilon``.

Each scale's operators are assembled once, when its :class:`EpsProblem` is
built, and kept as plain attributes; reading them assembles nothing, so
threads can share a problem.

Nothing here factors a matrix.  Every solve takes the caller's sparse LU
factor (:func:`homlab.fem.factorize`), the one the pipeline's operator task
made for that operator's shift-invert eigensolve:
:func:`solve_homogenized` solves with the factor of the effective
operator, :func:`solve_dirichlet_correctors` with the factor of the
diffusion matrix, shared by both corrector problems, and :func:`solve_eps`
preconditions conjugate gradients on ``L_eps`` with the factor of
``L_eps - sigma M``.

No eigensolve happens here.  The sign hypothesis is read off a spectrum the
caller already has (:func:`coercivity_check`), so each operator's spectrum
is computed once, by :mod:`homlab.spectral`.
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
    apply_tensor,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    cell_gradients,
    cell_values,
    cg_solve,
    integrate,
    interior_operator,
    quad_samples,
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
    """Oscillatory Dirichlet problem at a fixed scale, assembled on
    construction:

    - ``diffusion``: interior stiffness ``K_eps`` of ``-div(A(x/eps) grad .)``;
    - ``operator``: interior matrix of ``-div(A(x/eps) grad .) + (1/eps)
      W(x/eps)``, i.e. ``diffusion + (1/eps) M_W``, or ``diffusion`` itself
      when ``W`` is zero;
    - ``lifts``: interior loads ``-(K x_j)`` of the two corrector problems,
      ``x_j`` the nodal coordinate ``j`` (j = 1, 2).

    The full-grid stiffness ``K`` is assembled once and not kept.
    Construction first enforces the resolution rule ``h <= epsilon / 16``;
    everything downstream may then assume the oscillation is resolved.
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
        k_full = assemble_stiffness(grid, _scaled_a(model, self.epsilon))
        coords = grid.node_coords()
        self.lifts: Tuple[np.ndarray, np.ndarray] = tuple(
            -grid.restrict(k_full.dot(coords[:, j].copy())) for j in (0, 1))
        self.diffusion = interior_operator(grid, k_full)
        del k_full, coords  # freed before M_W is assembled
        if model.w_preset == "zero":
            self.operator = self.diffusion
        else:
            mw = interior_operator(grid, assemble_weighted_mass(
                grid, _scaled_w(model, self.epsilon)))
            self.operator = self.diffusion + (1.0 / self.epsilon) * mw
        self._mass_int: Optional[sp.csr_matrix] = None

    def mass_interior(self) -> sp.csr_matrix:
        if self._mass_int is None:
            self._mass_int = interior_operator(self.grid, assemble_mass(self.grid))
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
        a = quad_samples(grid, _scaled_a(self.model, self.epsilon))
        has_w = self.model.w_preset != "zero"
        if has_w:
            w = quad_samples(grid, _scaled_w(self.model, self.epsilon))
        out = []
        for u in fields:
            grads = cell_gradients(grid, u)  # (ncells, nq, 2)
            vals = cell_values(grid, u)  # (ncells, nq)
            energy = integrate(grid, apply_tensor(a, grads) * grads).sum()
            sq = vals * vals
            if has_w:
                energy += integrate(grid, w * sq) / self.epsilon
            out.append((float(energy), float(integrate(grid, sq))))
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
    and :func:`solve_eps` refuses to solve.
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


def solve_eps(problem: EpsProblem, coercivity: CoercivityReport,
              lu) -> GridFunction:
    """Solve the oscillatory Dirichlet problem; returns the full nodal field.

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
    rhs = problem.grid.restrict(
        assemble_load(problem.grid, problem.model.f_eval))
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


def solve_dirichlet_correctors(problem: EpsProblem,
                               lu) -> DirichletCorrectors:
    """Solve the two corrector problems for ``problem``'s scale and grid.

    The ansatz ``Phi_j = x_j + phi`` turns the boundary data into homogeneous
    Dirichlet data for ``phi`` with load ``-(K x_j)`` restricted to the
    interior (``problem.lifts``); the boundary nodes of the returned field
    therefore carry ``x_j`` exactly (bit for bit), not merely up to solver
    tolerance.  Both problems solve with ``lu``, the caller's factor of
    ``problem.diffusion``.
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
