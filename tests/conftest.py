"""Shared pytest plumbing: the acceptance-criterion scoreboard, the raise
guard, the factors and loads that ``eigs`` and the domain solves take, and
an independent COO oracle for the assembled matrices.

Each acceptance test records one line before asserting, so the summary block
at the end of every run lists PASS/FAIL for all criteria regardless of where
pytest stops printing captured output.

The raise guard keeps every error branch of the package under test.  It
finds each ``raise`` statement in ``homlab`` with :mod:`ast` and, from
``pytest_configure`` on, records with a tracer (``sys.settrace`` and
``threading.settrace``, so the pipeline's worker threads count) which of them
run: a raise ran when an exception event fires on one of its lines.  A run that ran every test of every ``tests/test_*.py`` fails and names
the file:line of each raise that never ran.  Runs of a subset (``-k``, one
file, ``-x`` stopping early) give no verdict, and neither does a run under
another tracer (a debugger or coverage), which the guard leaves alone.
"""

import ast
import glob
import os
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

import homlab
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

_PACKAGE = os.path.dirname(homlab.__file__)
_TESTS = os.path.dirname(os.path.abspath(__file__))
# file -> {line of a raise statement -> ("homlab/<file>", its first line)}
_RAISE_LINES = {}
_RAISES_RUN = set()
_GUARD = {"deselected": False, "unreached": None, "total": 0}


def _raise_lines():
    """Each line of each ``raise`` statement in the package, by file."""
    table = {}
    for path in sorted(glob.glob(os.path.join(_PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        name = "homlab/" + os.path.basename(path)
        table[path] = {
            line: (name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}
    return table


def _trace_raises(frame, event, arg):
    if event == "exception":
        key = _RAISE_LINES[frame.f_code.co_filename].get(frame.f_lineno)
        if key is not None:
            _RAISES_RUN.add(key)
    return _trace_raises


def _trace_calls(frame, event, arg):
    """Trace the package's frames for exception events only: line events
    in its loops would cost the suite seconds."""
    if frame.f_code.co_filename not in _RAISE_LINES:
        return None
    frame.f_trace_lines = False
    return _trace_raises


def pytest_configure(config):
    if sys.gettrace() is not None:
        return
    _RAISE_LINES.update(_raise_lines())
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)


def pytest_deselected(items):
    _GUARD["deselected"] = True


def pytest_sessionfinish(session, exitstatus):
    if not _RAISE_LINES:
        return
    traced = sys.gettrace() is _trace_calls
    sys.settrace(None)
    threading.settrace(None)
    ran = {os.path.realpath(item.path) for item in session.items}
    every = {os.path.realpath(path) for path
             in glob.glob(os.path.join(_TESTS, "test_*.py"))}
    if (not traced or _GUARD["deselected"] or session.shouldstop
            or session.shouldfail or not every <= ran):
        return
    raises = {key for lines in _RAISE_LINES.values()
              for key in lines.values()}
    _GUARD["unreached"] = [f"{name}:{line}" for name, line
                           in sorted(raises - _RAISES_RUN)]
    _GUARD["total"] = len(raises)
    if _GUARD["unreached"]:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


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
    return lu, coercivity_check(spectrum)


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
    unreached = _GUARD["unreached"]
    if unreached is not None:
        terminalreporter.section("raise guard")
        terminalreporter.write_line(
            f"FAIL — {len(unreached)} of {_GUARD['total']} raise statements "
            "in homlab never ran: " + ", ".join(unreached) if unreached else
            f"PASS — all {_GUARD['total']} raise statements in homlab ran")
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[num])
