"""Bilinear FEM on structured grids: assembly, solvers, norms, flux.

Three solvers.  :func:`torus_laplace_solver` solves the Q1 Laplacian on the
periodic grid exactly with a 2-D FFT: the operator is block-circulant, so the
FFT of its stencil is its spectrum (the idea behind FFT-based homogenization,
Moulinec & Suquet 1998).  :func:`cg_solve` (conjugate gradients,
constant-deflated on the torus, optionally preconditioned) solves the
variable-coefficient cell problems with that Laplace solve as preconditioner.
:func:`factorize` (a multifrontal Cholesky on the nested-dissection tree in
whose order a :class:`~homlab.grids.DirichletGrid` numbers its interior
DOF, :mod:`homlab.cholesky`) serves the Dirichlet systems and the
shift-invert eigensolves; a factor of the shifted oscillatory operator also
preconditions :func:`cg_solve` for the unshifted one.

Assembly uses a fixed 2x2 Gauss rule per cell with coefficients sampled
pointwise at the quadrature points.  On the reference square the physical
element integrals reduce to

    stiffness:  sum_q w_q  G_a . A(x_q) . G_b          (h-independent in 2D)
    mass:       h^2 sum_q w_q  N_a N_b
    load:       h^2 sum_q w_q  f(x_q) N_a

with N, G the shape values/reference gradients and physical gradients G/h.

Coefficients reach the assembly one way, as samples made by
:func:`quad_samples`.  It calls a model callable once, on the cells'
tensor-product axes (:func:`quad_axes`): on a structured grid x1 depends
only on the cell column and the point's first coordinate, and x2 only on
the cell row and its second, so ``x1 = ix h + xi_qx h`` has shape
(1, n, o, 1) and ``x2 = iy h + eta_qy h`` shape (n, 1, 1, o), in the layout
(iy, ix, qx, qy) of row-major cells and the qx-major rule.  A field of one
coordinate then costs n o evaluations of its sines, not n^2 o^2, and the
result is made full size once, by ``np.broadcast_to`` and a reshape to
(ncells, nq, ...).  Each sample is the same float operations on the same
inputs as on full per-point coordinate arrays, so its bits are too.  (The
same idea, applied to whole operators, is the sum factorization of
tensor-product spectral elements; Orszag, J. Comput. Phys. 1980.)
:func:`stiffness_elements`, :func:`weighted_mass_elements`, the
assemblies built on them and the load vectors all take samples.

Every matrix is assembled from the 9-point stencil (:func:`_offset_sums`).
Element matrices are plane-major, (4, 4, ncells), and node (y, x) is
corner a of cell (y - oy_a, x - ox_a), so each local pair (a, b) is one
plane shifted by o_a, and the coupling at offset o_b - o_a sums its pairs.
On a DirichletGrid the shifts are plain slices, and the interior matrix's
data are the stencil entries that the grid's read-only CSR pattern
(:class:`~homlab.grids.InteriorPattern`) takes.  All interior matrices of
a grid share its index arrays, so :func:`add_scaled` forms ``L_eps``, the
shifted operators and ``K + mM`` as sums of data vectors, and no full-grid
matrix is built.  On a PeriodicGrid the shifts wrap round, and the matrix
is the stencil made node-major, with int32 columns and ``indptr = 9 i``
and no cached pattern (the cell stage builds one stiffness per run, and a
cached slot map made ``homlab cell`` at n = 384 slower and raised its peak
RSS while it stayed alive).  No triplets are made and nothing is sorted.
The bits are those of a COO assembly converted to CSR: the diagonal sums
its four terms in ascending cell index, and each row lists its columns in
ascending order, which sets the bits of a product with the matrix (scipy
sums a row in stored order); on the torus that order differs from the
stencil's at the first and last node of a grid line.  Every load vector
is a ``np.bincount`` over the connectivity (``np.add.at`` sums in the same
order, but keeps the GIL: at n = 384 on a 2-core VM two threads ran it at
0.5-0.9 times the serial rate, and ``np.bincount`` at 1.2 times).

Fields tabulated at the points of a rule are arrays (ncells, nq, ...).  The
kernels that make and reduce them avoid per-element loops in ``np.einsum``:
:func:`cell_values` and :func:`cell_gradients` are one matrix product of the
gathered corner values with the tabulated shape functions,
:func:`apply_tensor` is the 2x2 product ``A g`` written out, and
:func:`integrate` sums over cells with a matrix-vector product before it
applies the weights.  The element matrices and load vectors of the
assembly are one GEMM each of the samples, one row of ``nq`` (or ``4 nq``,
``2 nq``) values per cell, and a precomputed kernel that holds the
weights and shape functions, such as ``K[qij, ab] = w_q G_qai G_qbj`` for
the stiffness; an element matrix GEMM puts the kernel first, so that its
result is plane-major.

:func:`integrate` also runs on the pipeline's pool threads, so its cell
sum, a vector times a tall matrix, is ``np.dot``, not ``@``: numpy's
``matmul`` keeps the GIL through a single matrix-vector product, while
``np.dot`` releases it and gives the same bits.
"""

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, SolverError, UsageError
from .grids import (
    GridFunction,
    full_size,
    gauss_rule,
    on_pattern,
    shape_gradients,
    shape_values,
)

QUAD_XI, QUAD_W = gauss_rule(2)
_N = shape_values(QUAD_XI)          # (4, 4)
_G = shape_gradients(QUAD_XI)       # (4, 4, 2)
# Element kernels: stacked element vectors are the samples at the quadrature
# points, one row per cell, times these; plane-major element matrices are
# these, transposed, times the samples, one column per cell.
_STIFFNESS = np.einsum("q,qai,qbj->qijab", QUAD_W, _G, _G).reshape(16, 16)
_MASS = np.einsum("q,qa,qb->qab", QUAD_W, _N, _N).reshape(4, 16)
_LOAD = QUAD_W[:, None] * _N                                    # (4, 4)
_FLUX = np.einsum("q,qai->qia", QUAD_W, _G).reshape(8, 4)


def _check_finite(vals, what):
    if np.isfinite(vals).all():
        return
    bad = np.argwhere(~np.isfinite(np.asarray(vals)))
    cell = int(bad[0][0])
    raise AssemblyError(f"non-finite {what} sample in cell {cell}")


# The (row, column) position of each local corner in its cell.
_CORNER_OFFSETS = ((0, 0), (0, 1), (1, 1), (1, 0))
# Where the offsets -1, 0, +1 go in a sorted row at the first and the last
# node of a grid line, where one neighbour wraps round.
_WRAP_ORDER = ((0, [1, 2, 0]), (-1, [2, 0, 1]))


def _shifted(oy, ox, n, periodic):
    """(dst, src) pairs of 2-D slices that give each node its cell at shift
    (oy, ox) in {0, 1}^2: ``dst[y, x] = src[y - oy, x - ox]`` mod n on the
    torus, and on a Dirichlet grid cells ``[1 - o : n - o]`` per axis."""
    if periodic:
        by_axis = {0: [(slice(None), slice(None))],
                   1: [(slice(1, None), slice(None, -1)),
                       (slice(0, 1), slice(-1, None))]}
    else:
        by_axis = {o: [(slice(None), slice(1 - o, n - o))] for o in (0, 1)}
    return [((dy, dx), (sy, sx)) for dy, sy in by_axis[oy]
            for dx, sx in by_axis[ox]]


def _offset_sums(elem, periodic):
    """The 9-point stencil, (3, 3, N, N) indexed ``[dy + 1, dx + 1, y, x]``,
    of the N^2 nodes of a torus (``periodic``, N = n) or the interior nodes
    of a Dirichlet grid (N = n - 1), from element matrices ``elem``,
    (4, 4, n, n) indexed ``[a, b, cell row, cell column]``.

    Node (y, x) is corner a of cell (y - oy_a, x - ox_a), so the entry
    (a, b) of that cell couples it to its neighbour at offset o_b - o_a:
    each local pair is one plane of ``elem``, shifted by o_a in slice
    copies (:func:`_shifted`).  An offset off the diagonal sums one or two
    pairs, in any order; the diagonal sums its four in ascending cell
    index, the order in which COO's conversion to CSR sums them.
    """
    n = elem.shape[-1]
    size = n if periodic else n - 1
    out = np.empty((3, 3, size, size))
    # the diagonal's terms [r, c, y, x], from cell (y - 1 + r, x - 1 + c)
    diag = np.empty((2, 2, size, size))
    filled = set()
    for a, (ay, ax) in enumerate(_CORNER_OFFSETS):
        for b, (by, bx) in enumerate(_CORNER_OFFSETS):
            if a == b:
                dst, add = diag[1 - ay, 1 - ax], False
            else:
                slot = (by - ay + 1, bx - ax + 1)
                dst, add = out[slot], slot in filled
                filled.add(slot)
            for to, fro in _shifted(ay, ax, n, periodic):
                if add:
                    dst[to] += elem[a, b][fro]
                else:
                    dst[to] = elem[a, b][fro]
    if periodic:
        # In the first row (column) the cells above (left of) a node wrap
        # round to the last, so they come second.
        diag[:, :, 0] = diag[::-1, :, 0]
        diag[:, :, :, 0] = diag[:, ::-1, :, 0]
    center = out[1, 1]
    np.add(diag[0, 0], diag[0, 1], out=center)
    center += diag[1, 0]
    center += diag[1, 1]
    return out


def _scatter(grid, element_mats):
    """Sum (4, 4, ncells) element matrices into a sparse matrix through
    their stencil (:func:`_offset_sums`).

    On a DirichletGrid the result is the interior matrix on the grid's
    shared read-only pattern (:attr:`~homlab.grids.DirichletGrid.pattern`),
    its data the stencil entries that ``pattern.take`` picks.  On a
    PeriodicGrid it is the full matrix, the stencil made node-major, 9
    entries a row; its columns are put in ascending order by reordering the
    rows and columns of the first and last node of each grid line, so its
    bits are those of COO's conversion to CSR (module docstring).  At n = 2
    offsets -1 and +1 name the same node, and their entries are summed.
    """
    n = grid.n
    stencil = _offset_sums(element_mats.reshape(4, 4, n, n), grid.periodic)
    if not grid.periodic:
        pattern = grid.pattern
        return sp.csr_matrix(
            (np.take(stencil, pattern.take), pattern.indices, pattern.indptr),
            shape=(grid.ndof, grid.ndof))
    data = np.ascontiguousarray(stencil.transpose(2, 3, 0, 1))
    del stencil
    lines = (np.arange(n)[:, None] + np.arange(-1, 2)) % n
    for t, order in _WRAP_ORDER:
        data[t] = data[t][:, order]
        data[:, t] = data[:, t][:, :, order]
        lines[t] = lines[t][order]
    lines = lines.astype(np.int32)
    cols = lines[:, None, :, None] * np.int32(n) + lines[None, :, None, :]
    mat = sp.csr_matrix(
        (data.ravel(), cols.ravel(),
         np.arange(0, 9 * grid.nnodes + 1, 9, dtype=np.int32)),
        shape=(grid.nnodes, grid.nnodes))
    if n == 2:
        mat.sum_duplicates()
    return mat


def add_scaled(a, beta, b):
    """``a + beta * b`` for two interior matrices on one grid's pattern.

    The sum is arithmetic on their ``data`` vectors, on the same shared
    index arrays, with the bits of scipy's sparse sum.  Unlike scipy's sum
    it keeps an entry that cancels to zero as a stored zero; nothing here
    relies on such entries being dropped.  Matrices on different index
    arrays raise UsageError.
    """
    if not on_pattern(b, a.indptr, a.indices):
        raise UsageError("add_scaled needs two interior matrices on the "
                         "same DirichletGrid pattern")
    n = a.shape[0]
    return sp.csr_matrix((a.data + beta * b.data, a.indices, a.indptr),
                         shape=(n, n))


def quad_axes(grid, xi=QUAD_XI):
    """The coordinates of the reference points xi of every cell as a pair
    of broadcastable arrays in the layout (iy, ix, qx, qy):
    ``x1 = ix h + xi_qx h``, shape (1, n, o, 1), and ``x2 = iy h + eta_qy
    h``, shape (n, 1, 1, o).

    ``xi`` is the o-by-o tensor rule of :func:`gauss_rule`, qx-major;
    cells are row-major, so the pair broadcast to (n, n, o, o) and reshaped
    to (ncells, nq) lists every cell's points in rule order.
    """
    o = int(round(np.sqrt(len(xi))))
    t1, t2 = xi[::o, 0], xi[:o, 1]
    origin = np.arange(grid.n) * grid.h
    x1 = origin[None, :, None, None] + (t1 * grid.h)[None, None, :, None]
    x2 = origin[:, None, None, None] + (t2 * grid.h)[None, None, None, :]
    return x1, x2


def quad_samples(grid, func, xi=QUAD_XI, rows=slice(None)):
    """``func(x1, x2)`` at the reference points xi of every cell:
    (ncells, nq, ...).

    ``func`` is called once, on the pair of :func:`quad_axes`, so it must be
    elementwise numpy on broadcastable arrays: its result must broadcast to
    the grid's (n, n, o, o) (:func:`~homlab.grids.full_size`), and it is
    made full size once.  The samples may be a read-only view of it.
    ``rows``, a slice of cell rows, restricts the samples to that band's
    cells (x2 is sliced before ``func`` sees it).
    """
    x1, x2 = quad_axes(grid, xi)
    x2 = x2[rows]
    lead = np.broadcast_shapes(x1.shape, x2.shape)
    full = full_size(func(x1, x2), lead)
    return full.reshape((-1, len(xi)) + full.shape[len(lead):])


def assemble_stiffness(grid, a):
    """Stiffness matrix for -div(A grad .) from ``a``, the samples of A at
    the quadrature points of every cell (:func:`quad_samples`),
    (ncells, nq, 2, 2)."""
    elem = stiffness_elements(grid, a)
    # A caller that passes the samples as a temporary frees them here,
    # before the scatter.
    del a
    return _scatter(grid, elem)


def stiffness_elements(grid, a):
    """The (4, 4, ncells) element matrices of :func:`assemble_stiffness`:
    the kernel ``K[qij, ab] = w_q G_qai G_qbj``, transposed, times the
    samples ``a`` of A, one column of ``4 nq`` values per cell."""
    _check_finite(a, "diffusion")
    return (_STIFFNESS.T @ a.reshape(len(a), -1).T).reshape(4, 4, -1)


def assemble_mass(grid):
    """Consistent mass matrix."""
    elem = grid.h ** 2 * np.einsum("q,qa,qb->ab", QUAD_W, _N, _N)
    return _scatter(grid, np.broadcast_to(elem[:, :, None],
                                          (4, 4, grid.ncells)))


def assemble_weighted_mass(grid, w):
    """Mass matrix weighted by a scalar field from ``w``, its samples at the
    quadrature points of every cell (:func:`quad_samples`), (ncells, nq)."""
    return _scatter(grid, weighted_mass_elements(grid, w))


def weighted_mass_elements(grid, w):
    """The (4, 4, ncells) element matrices of
    :func:`assemble_weighted_mass`: ``h^2`` times the kernel
    ``K[q, ab] = w_q N_qa N_qb``, transposed, times the samples ``w`` of
    the weight, one column of ``nq`` values per cell."""
    _check_finite(w, "weight")
    return (grid.h ** 2 * (_MASS.T @ w.T)).reshape(4, 4, -1)


def _scatter_vector(grid, element_vecs):
    return np.bincount(grid.conn.ravel(), weights=element_vecs.ravel(),
                       minlength=grid.nnodes)


def load_from_quad_values(grid, qvals):
    """Load vector (g, N_a) from values g already tabulated at quadrature
    points; a non-finite value raises AssemblyError naming its cell."""
    _check_finite(qvals, "load")
    return _scatter_vector(grid, grid.h ** 2 * (qvals @ _LOAD))


def flux_load_from_quad_values(grid, qvecs):
    """Load vector (g, grad N_a) from a vector field tabulated at quadrature points."""
    elem = qvecs.reshape(len(qvecs), -1) @ _FLUX
    return _scatter_vector(grid, grid.h * elem)


def _band_conn(grid, rows):
    """The connectivity of the cells in the slice ``rows`` of cell rows (a
    view: cells are row-major)."""
    lo, hi, _ = rows.indices(grid.n)
    return grid.conn[lo * grid.n:hi * grid.n]


def cell_values(grid, nodal, xi=None, rows=slice(None)):
    """Evaluate a nodal field at reference points xi in every cell of the
    cell rows ``rows``: (ncells, nq)."""
    n = _N if xi is None else shape_values(xi)
    return nodal[_band_conn(grid, rows)] @ n.T


def cell_gradients(grid, nodal, xi=None, rows=slice(None)):
    """Physical gradients of a nodal field at reference points in every cell
    of the cell rows ``rows``: (ncells, nq, 2)."""
    g = _G if xi is None else shape_gradients(xi)
    nq = g.shape[0]
    # (ncells, 4) corner values times (4, nq * 2) gradients: one GEMM.
    grads = nodal[_band_conn(grid, rows)] @ g.transpose(1, 0, 2).reshape(
        4, 2 * nq)
    return grads.reshape(-1, nq, 2) / grid.h


def apply_tensor(a, g):
    """Pointwise matrix-vector product ``A g``: a (..., 2, 2), g (..., 2)."""
    out = a[..., :, 0] * g[..., 0, None]
    out += a[..., :, 1] * g[..., 1, None]
    return out


def integrate(grid, vals, wq=QUAD_W):
    """Quadrature integral ``h^2 sum_c sum_q wq[q] vals[c, q, ...]``.

    ``vals`` is a field tabulated at the points of the rule with weights
    ``wq`` in every cell of ``grid``, or of a band of its cell rows, shape
    (ncells, nq, ...); the result has the trailing shape ``...`` (a 0-d
    array for a scalar field).
    """
    ncells = len(vals)
    # np.dot, not @: matmul keeps the GIL on a vector-matrix product
    cell_sums = np.dot(np.ones(ncells), vals.reshape(ncells, -1))
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
                iterations=it, breakdown=True)
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
        iterations=max_iter)


def torus_laplace_solver(grid):
    """Exact zero-mean solve of the Q1 Laplacian on a PeriodicGrid by FFT.

    Returns ``solve(r)``, the zero-mean nodal u with ``K u = r - mean(r)``
    for the stiffness K of the identity tensor on ``grid``.  K is a circular
    convolution with its 3x3 stencil, which does not depend on h in 2D, so
    the stencil is the per-offset sums (:func:`_offset_sums`) of one
    identity element matrix, and K itself is never assembled.  Stencil
    offsets -1 and +1 coincide when n = 2, hence the accumulation.  The
    inverse symbol is zero on the constant mode.
    """
    n = grid.n
    # The stencil of a node of a 2x2 torus.  Its four element matrices are
    # one product, as the assembly's are: a product of one row takes
    # another BLAS path, whose bits differ.
    identity = np.broadcast_to(np.eye(2), (4, len(QUAD_W), 2, 2))
    elem = stiffness_elements(grid, identity).reshape(4, 4, 2, 2)
    stencil = _offset_sums(elem, periodic=True)[:, :, 0, 0]  # [dy+1, dx+1]
    # the convolution kernel at d is the coupling to the neighbour at -d
    kernel = np.zeros((n, n))
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            kernel[dy % n, dx % n] += stencil[1 - dy, 1 - dx]
    symbol = np.fft.rfft2(kernel).real
    symbol[0, 0] = 1.0
    inverse = 1.0 / symbol
    inverse[0, 0] = 0.0

    def solve(r):
        r_hat = np.fft.rfft2(np.reshape(r, (n, n)))
        return np.fft.irfft2(r_hat * inverse, s=(n, n)).ravel()

    return solve


def factorize(op):
    """Cholesky factor of ``op`` for repeated direct solves (``.solve``).

    Every factored operator is an SPD interior matrix of a
    :class:`~homlab.grids.DirichletGrid`, already in the grid's
    nested-dissection order, so the factor is the multifrontal Cholesky on
    that dissection's tree (:func:`homlab.cholesky.cholesky`).  It takes
    the grid's assembled matrices and their :func:`add_scaled` sums, which
    share the grid's pattern arrays; any other matrix raises UsageError.
    One that is not positive definite, an exactly singular one included,
    raises SolverError.
    """
    # imported on first use: ``import homlab.cli`` compiles or loads every
    # module it reaches, and no stage before the first factor needs this one
    from .cholesky import cholesky

    return cholesky(op)


def release_heap():
    """Hand the C heap's free pages back to the OS: glibc's
    ``malloc_trim(0)``, and nothing where the C library lacks it.

    glibc keeps freed blocks below its (dynamic) mmap threshold resident, so
    the memory of finished samples, assemblies, factors and eigensolves
    would otherwise stack under the next peak; the cell stage and the
    pipeline's tasks call it once such memory is freed.  ``ctypes`` is
    imported here, not at module top, to keep it out of the CLI's start-up.
    """
    import ctypes

    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    trim(0)


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
