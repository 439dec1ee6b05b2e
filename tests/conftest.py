"""Shared pytest plumbing: the acceptance-criterion scoreboard, the
factors and loads that ``eigs`` and the domain solves take, and an
independent COO oracle for the assembled matrices.

Each acceptance test records one line before asserting, so the summary block
at the end of every run lists PASS/FAIL for all criteria regardless of where
pytest stops printing captured output.
"""

import numpy as np
import scipy.sparse as sp

from homlab.domain import (
    DiffusionProblem,
    EpsProblem,
    coercivity_check,
    constant_matrix,
)
from homlab.fem import (
    QUAD_W,
    QUAD_XI,
    add_scaled,
    assemble_mass,
    assemble_stiffness,
    factorize,
    load_from_quad_values,
    quad_axes,
    quad_samples,
)
from homlab.grids import shape_gradients, shape_values
from homlab.spectral import eigs

_ACCEPTANCE_LINES = {}


def factor(op, mass=None, sigma=0.0):
    """Cholesky factor of ``op - sigma * mass`` (of ``op`` alone without
    ``mass``), formed as the pipeline's operator tasks form it, so a test
    solves with the same factor a run would."""
    return factorize(op if mass is None else add_scaled(op, -sigma, mass))


def shifted_eigs(op, mass, k, *, sigma, **kwargs):
    """:func:`eigs` with its factor of ``op - sigma * mass``."""
    return eigs(op, mass, k, sigma=sigma, lu=factor(op, mass, sigma),
                **kwargs)


def effective_factor(grid, a_hat, m=0.0):
    """Factor of the interior effective operator K + m M."""
    k = assemble_stiffness(grid, quad_samples(grid, constant_matrix(a_hat)))
    return factor(k, assemble_mass(grid), -m)


def interior_load(grid, f_eval):
    """The interior load ``(f, N_a)`` of ``f_eval`` on a DirichletGrid, as
    the pipeline hands it to the domain solves."""
    return grid.restrict(load_from_quad_values(grid,
                                               quad_samples(grid, f_eval)))


def eps_problem(model, epsilon, grid):
    """The :class:`EpsProblem` at ``epsilon`` on ``grid``, without its
    :class:`DiffusionProblem`, which only the correctors and the
    ``eps_prime`` pencil read."""
    return EpsProblem(DiffusionProblem(model, epsilon, grid))


def eps_factor_and_report(p):
    """What the pipeline's ``eps`` task hands :func:`solve_eps`: the factor
    of ``L_eps - sigma M`` at the problem's own shift ``p.sigma``, and the
    coercivity report read from the first eigenvalue it finds."""
    op = p.operator
    lu = factor(op, p.mass_interior(), p.sigma)
    spectrum = eigs(op, p.mass_interior(), 1, sigma=p.sigma, lu=lu,
                    epsilon=p.epsilon)
    return lu, coercivity_check(spectrum, 0.0)


def quad_points(grid, xi=QUAD_XI):
    """Coordinates of the reference points xi in every cell, (ncells, nq, 2):
    the pair of :func:`homlab.fem.quad_axes` broadcast to full size."""
    pair = np.broadcast_arrays(*quad_axes(grid, xi))
    return np.stack(pair, axis=-1).reshape(grid.ncells, len(xi), 2)


def oracle_elements(grid, a=None, w=None):
    """(4, 4, ncells) element matrices by the assembly rule, plane-major as
    the assembly's: the stiffness of the samples ``a`` of A, else the mass
    weighted by the samples ``w``, else the mass.  Each is the
    four-operand contraction of weights, shape functions and samples,
    independent of the assembly's precomputed kernels."""
    n_q, g_q = shape_values(QUAD_XI), shape_gradients(QUAD_XI)
    if a is not None:
        return np.einsum("q,qai,cqij,qbj->abc", QUAD_W, g_q, a, g_q,
                         optimize=True)
    if w is not None:
        return grid.h ** 2 * np.einsum("q,cq,qa,qb->abc", QUAD_W, w, n_q,
                                       n_q, optimize=True)
    elem = grid.h ** 2 * np.einsum("q,qa,qb->ab", QUAD_W, n_q, n_q)
    return np.broadcast_to(elem[:, :, None], (4, 4, grid.ncells))


def oracle_matrix(grid, elem, full=False):
    """COO assembly of the (4, 4, ncells) element matrices ``elem`` on
    every node of ``grid``, its triplets in cell order; without ``full``,
    its interior block in the grid's DOF order, with sorted columns."""
    rows = np.repeat(grid.conn, 4, axis=1).ravel()
    cols = np.tile(grid.conn, (1, 4)).ravel()
    mat = sp.coo_matrix((np.moveaxis(elem, -1, 0).ravel(), (rows, cols)),
                        shape=(grid.nnodes, grid.nnodes)).tocsr()
    if full:
        return mat
    inner = mat[np.ix_(grid.interior, grid.interior)]
    inner.sort_indices()
    return inner


def record_criterion(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    _ACCEPTANCE_LINES[num] = f"[criterion {num:02d}] {verdict} — {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[num])
