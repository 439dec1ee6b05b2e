"""Bilinear FEM on structured grids: assembly, solvers, norms, flux.

Three solvers.  :func:`torus_laplace_solver` solves the Q1 Laplacian on the
periodic grid exactly with a 2-D FFT: the operator is block-circulant, so the
FFT of its stencil is its spectrum (the idea behind FFT-based homogenization,
Moulinec & Suquet 1998).  :func:`cg_solve` (conjugate gradients,
constant-deflated on the torus, optionally preconditioned) solves the
variable-coefficient cell problems with that Laplace solve as preconditioner.
:func:`factorize` (sparse LU that keeps the matrix's own order, the
nested-dissection order in which a :class:`~homlab.grids.DirichletGrid`
numbers its interior DOF) serves the Dirichlet systems and the shift-invert
eigensolves; a factor of the shifted oscillatory operator also
preconditions :func:`cg_solve` for the unshifted one.

Assembly uses a fixed 2x2 Gauss rule per cell with coefficients sampled
pointwise at the quadrature points.  On the reference square the physical
element integrals reduce to

    stiffness:  sum_q w_q  G_a . A(x_q) . G_b          (h-independent in 2D)
    mass:       h^2 sum_q w_q  N_a N_b
    load:       h^2 sum_q w_q  f(x_q) N_a

with N, G the shape values/reference gradients and physical gradients G/h.

Fields tabulated at the points of a rule are arrays (ncells, nq, ...).  The
kernels that make and reduce them avoid per-element loops in ``np.einsum``:
:func:`cell_values` and :func:`cell_gradients` are one matrix product of the
gathered corner values with the tabulated shape functions,
:func:`apply_tensor` is the 2x2 product ``A g`` written out, and
:func:`integrate` sums over cells with a matrix-vector product before it
applies the weights.  The element matrices of the assembly keep their
``einsum(..., optimize=True)`` contractions, which already go to BLAS.

:func:`integrate` also runs on the pipeline's pool threads, so its cell
sum, a vector times a tall matrix, is ``np.dot``, not ``@``: numpy's
``matmul`` keeps the GIL through a single matrix-vector product, while
``np.dot`` releases it and gives the same bits.
"""

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, SolverError, UsageError
from .grids import (
    DirichletGrid,
    GridFunction,
    PeriodicGrid,
    gauss_rule,
    shape_gradients,
    shape_values,
)

QUAD_XI, QUAD_W = gauss_rule(2)
_N = shape_values(QUAD_XI)          # (4, 4)
_G = shape_gradients(QUAD_XI)       # (4, 4, 2)


def _check_finite(vals, what):
    if np.isfinite(vals).all():
        return
    bad = np.argwhere(~np.isfinite(np.asarray(vals)))
    cell = int(bad[0][0])
    raise AssemblyError(f"non-finite {what} sample in cell {cell}")


def _scatter(grid, element_mats):
    """Accumulate (ncells,4,4) element matrices into a global CSR matrix."""
    conn = grid.conn
    rows = np.repeat(conn, 4, axis=1).ravel()
    cols = np.tile(conn, (1, 4)).ravel()
    mat = sp.coo_matrix((element_mats.ravel(), (rows, cols)),
                        shape=(grid.nnodes, grid.nnodes))
    return mat.tocsr()


def quad_samples(grid, func, xi=QUAD_XI):
    """``func(x1, x2)`` at the reference points xi of every cell: (ncells, nq, ...)."""
    pts = grid.quad_points(xi)
    return func(pts[..., 0], pts[..., 1])


def assemble_stiffness(grid, a_eval):
    """Stiffness matrix for -div(A grad .) with A sampled at quadrature points."""
    a = quad_samples(grid, a_eval)                  # (ncells, nq, 2, 2)
    _check_finite(a, "diffusion")
    elem = np.einsum("q,qai,cqij,qbj->cab", QUAD_W, _G, a, _G, optimize=True)
    return _scatter(grid, elem)


def assemble_mass(grid):
    """Consistent mass matrix."""
    elem = grid.h ** 2 * np.einsum("q,qa,qb->ab", QUAD_W, _N, _N)
    return _scatter(grid, np.broadcast_to(elem, (grid.ncells, 4, 4)))


def assemble_weighted_mass(grid, w_eval):
    """Mass matrix weighted by a scalar field sampled at quadrature points."""
    w = quad_samples(grid, w_eval)                  # (ncells, nq)
    _check_finite(w, "weight")
    elem = grid.h ** 2 * np.einsum("q,cq,qa,qb->cab", QUAD_W, w, _N, _N, optimize=True)
    return _scatter(grid, elem)


def _scatter_vector(grid, element_vecs):
    out = np.zeros(grid.nnodes)
    np.add.at(out, grid.conn.ravel(), element_vecs.ravel())
    return out


def assemble_load(grid, f_eval):
    """Load vector (f, N_a) with f sampled at quadrature points."""
    f = quad_samples(grid, f_eval)
    _check_finite(f, "load")
    return load_from_quad_values(grid, f)


def load_from_quad_values(grid, qvals):
    """Load vector (g, N_a) from values g already tabulated at quadrature points."""
    elem = grid.h ** 2 * np.einsum("q,cq,qa->ca", QUAD_W, qvals, _N, optimize=True)
    return _scatter_vector(grid, elem)


def flux_load_from_quad_values(grid, qvecs):
    """Load vector (g, grad N_a) from a vector field tabulated at quadrature points."""
    elem = grid.h * np.einsum("q,cqi,qai->ca", QUAD_W, qvecs, _G, optimize=True)
    return _scatter_vector(grid, elem)


def cell_values(grid, nodal, xi=None):
    """Evaluate a nodal field at reference points xi in every cell: (ncells, nq)."""
    n = _N if xi is None else shape_values(xi)
    return nodal[grid.conn] @ n.T


def cell_gradients(grid, nodal, xi=None):
    """Physical gradients of a nodal field at reference points: (ncells, nq, 2)."""
    g = _G if xi is None else shape_gradients(xi)
    nq = g.shape[0]
    # (ncells, 4) corner values times (4, nq * 2) gradients: one GEMM.
    grads = nodal[grid.conn] @ g.transpose(1, 0, 2).reshape(4, 2 * nq)
    return grads.reshape(grid.ncells, nq, 2) / grid.h


def apply_tensor(a, g):
    """Pointwise matrix-vector product ``A g``: a (..., 2, 2), g (..., 2)."""
    out = a[..., :, 0] * g[..., 0, None]
    out += a[..., :, 1] * g[..., 1, None]
    return out


def integrate(grid, vals, wq=QUAD_W):
    """Quadrature integral ``h^2 sum_c sum_q wq[q] vals[c, q, ...]``.

    ``vals`` is a field tabulated at the points of the rule with weights
    ``wq`` in every cell of ``grid``, shape (ncells, nq, ...); the result has
    the trailing shape ``...`` (a 0-d array for a scalar field).
    """
    # np.dot, not @: matmul keeps the GIL on a vector-matrix product
    cell_sums = np.dot(np.ones(grid.ncells), vals.reshape(grid.ncells, -1))
    return grid.h ** 2 * (wq @ cell_sums.reshape(vals.shape[1], -1)).reshape(vals.shape[2:])


def cg_solve(op, rhs, deflate_constants=False, tol=1e-10, max_iter=None,
             precond=None):
    """Conjugate gradients for SPD systems, preconditioned by ``precond``.

    With ``deflate_constants`` the right-hand side, all iterates and the
    preconditioned residuals are kept orthogonal to the constant vector, which
    turns the singular periodic operators into well-posed zero-mean problems.
    ``precond(r)`` applies an SPD approximate inverse (None: the identity).
    Convergence is tested on the unpreconditioned residual, with or without
    ``precond``: ||r|| <= tol * ||b||.  Raises SolverError on stagnation or
    breakdown.
    """
    b = np.array(rhs, dtype=float)
    n = b.shape[0]
    if max_iter is None:
        max_iter = max(1000, 50 * int(np.sqrt(n) + 1))

    def project(v):
        v -= v.mean()
        return v

    def apply_precond(r):
        if precond is None:
            return r
        z = precond(r)
        return z - z.mean() if deflate_constants else z

    if deflate_constants:
        b = project(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n)

    x = np.zeros(n)
    r = b.copy()
    z = apply_precond(r)
    p = z.copy()
    rr = r @ r
    rz = r @ z
    for it in range(1, max_iter + 1):
        ap = op.dot(p)
        if deflate_constants:
            ap = project(ap)
        pap = p @ ap
        if pap <= 0.0:
            raise SolverError(
                f"CG breakdown at iteration {it}: curvature {pap:.3e} "
                "(operator not positive definite on the search space)",
                residual=float(np.sqrt(rr) / bnorm), iterations=it,
                breakdown=True)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if deflate_constants:
            r = project(r)
        rr = r @ r
        if np.sqrt(rr) <= tol * bnorm:
            if deflate_constants:
                x = project(x)
            return x
        z = apply_precond(r)
        rz_new = rr if precond is None else r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG did not converge in {max_iter} iterations: "
        f"relative residual {np.sqrt(rr) / bnorm:.3e} > {tol:.1e}",
        residual=float(np.sqrt(rr) / bnorm), iterations=max_iter)


def torus_laplace_solver(grid):
    """Exact zero-mean solve of the Q1 Laplacian on a PeriodicGrid by FFT.

    Returns ``solve(r)``, the zero-mean nodal u with ``K u = r - mean(r)``
    for the stiffness K of the identity tensor on ``grid``.  K is a circular
    convolution with its 3x3 stencil, which does not depend on h in 2D, so
    the stencil comes from the assembled stiffness of a 3x3 torus and K itself
    is never assembled.  Stencil offsets -1 and +1 coincide when n = 2, hence
    the accumulation.  The inverse symbol is zero on the constant mode.
    """
    n = grid.n
    col = assemble_stiffness(PeriodicGrid(3), lambda x1, x2: np.broadcast_to(
        np.eye(2), np.shape(x1) + (2, 2)))[:, 0]
    stencil = col.toarray().reshape(3, 3)          # [dy % 3, dx % 3]
    kernel = np.zeros((n, n))
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            kernel[dy % n, dx % n] += stencil[dy % 3, dx % 3]
    symbol = np.fft.rfft2(kernel).real
    symbol[0, 0] = 1.0
    inverse = 1.0 / symbol
    inverse[0, 0] = 0.0

    def solve(r):
        r_hat = np.fft.rfft2(np.reshape(r, (n, n)))
        return np.fft.irfft2(r_hat * inverse, s=(n, n)).ravel()

    return solve


def factorize(op):
    """Sparse LU factor of ``op`` for repeated direct solves (``.solve``).

    Every factored operator is an interior matrix of a
    :class:`~homlab.grids.DirichletGrid`, already in the grid's
    nested-dissection order, so SuperLU keeps that order (``NATURAL``) with
    its default threshold pivoting.  An exactly singular matrix raises
    SolverError.
    """
    try:
        return sp.linalg.splu(sp.csc_matrix(op), permc_spec="NATURAL")
    except RuntimeError as err:
        if "singular" not in str(err):
            raise
        raise SolverError(f"sparse LU failed: {err} "
                          f"({op.shape[0]} unknowns)") from err


def h1_seminorm(gf):
    """Broken H1 seminorm via the assembly quadrature (exact for Q1 fields)."""
    grads = cell_gradients(gf.grid, gf.values)
    return float(np.sqrt(integrate(gf.grid, grads * grads).sum()))


def l2_norm(gf):
    """L2 norm via the assembly quadrature (exact for Q1 fields)."""
    vals = cell_values(gf.grid, gf.values)
    return float(np.sqrt(integrate(gf.grid, vals * vals)))


def recover_gradient(gf):
    """Nodal gradient of a field on a DirichletGrid by averaging the Q1
    corner gradients of adjacent cells.

    On a uniform grid this reduces to central differences at interior nodes
    (O(h^2)) and one-sided differences on the boundary; exact for globally
    (bi)linear fields.
    """
    grid, u = gf.grid, gf.values
    m = grid.n + 1
    v = u.reshape(m, m)
    gx = np.gradient(v, grid.h, axis=1, edge_order=1)
    gy = np.gradient(v, grid.h, axis=0, edge_order=1)
    return (GridFunction(grid, gx.ravel()), GridFunction(grid, gy.ravel()))


# Reference points of the two Gauss nodes on each local edge (0..3 = bottom,
# right, top, left), plus the tangential shape machinery they need.
_EDGE_T = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def _edge_ref_points(local):
    t = _EDGE_T
    if local == 0:
        return np.column_stack([t, np.zeros(2)])
    if local == 1:
        return np.column_stack([np.ones(2), t])
    if local == 2:
        return np.column_stack([t, np.ones(2)])
    return np.column_stack([np.zeros(2), t])


def boundary_flux(gf):
    """Squared-gradient boundary integral with one-sided element gradients.

    Integrates |grad u|^2 over the boundary of a DirichletGrid with a 2-point
    Gauss rule per edge, the gradient taken from the single adjacent cell.
    """
    grid = gf.grid
    if grid.periodic:
        raise UsageError("boundary_flux needs a DirichletGrid; the unit cell has no boundary")
    total = 0.0
    u = gf.values
    n = grid.n
    # The wall cells in row-major cell numbering, by local edge.
    walls = (slice(0, n), slice(n - 1, None, n), slice(n * (n - 1), None),
             slice(0, None, n))
    for local, cells in enumerate(walls):
        xi = _edge_ref_points(local)
        g = shape_gradients(xi)                       # (2,4,2)
        vals = u[grid.conn[cells]]                    # (ne,4)
        grads = np.einsum("ea,qai->eqi", vals, g) / grid.h
        total += 0.5 * grid.h * np.einsum("eqi,eqi->", grads, grads)
    return float(total)


def interior_operator(grid, op):
    """Restrict an operator on the full nodal set to the interior DOF, in
    the grid's nested-dissection order."""
    if not isinstance(grid, DirichletGrid):
        raise UsageError("interior restriction only applies to DirichletGrid")
    return op[np.ix_(grid.interior, grid.interior)]
