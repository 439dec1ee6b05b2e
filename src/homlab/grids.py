"""Uniform structured grids with bilinear elements.

Two grid flavours share one cell layout: ``PeriodicGrid`` identifies opposite
faces of the unit cell (n^2 nodes, n^2 cells), ``DirichletGrid`` keeps the full
(n+1)^2 nodal set on the closed unit square and tracks which nodes are
interior.  Nodes are ordered row-major with x fastest; interior DOF come in
the fill-reducing nested-dissection order of their block.  Cell corners
follow the usual counterclockwise convention (0,0), (1,0), (1,1), (0,1).
Cells are row-major too, cell ``iy n + ix`` at origin ``(ix h, iy h)``.  A
grid keeps no coordinate arrays: a coordinate of a node or of a point in a
cell depends on one axis index only, so fields are evaluated on
broadcastable axes (:func:`interpolate`; :func:`homlab.fem.quad_axes` for
the points of a quadrature rule).

A ``DirichletGrid`` also owns the sparsity pattern that every interior
matrix of a Q1 form on it shares (:class:`InteriorPattern`), built from
grid arithmetic with the grid.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UsageError


def gauss_rule(order=2):
    """Tensor Gauss-Legendre rule on the reference square [0,1]^2.

    Returns (points (nq,2), weights (nq,)), weights summing to 1.
    """
    t, w = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    xi, eta = np.meshgrid(t, t, indexing="ij")
    wx, wy = np.meshgrid(w, w, indexing="ij")
    return (np.column_stack([xi.ravel(), eta.ravel()]),
            (wx * wy).ravel())


def shape_values(xi):
    """Bilinear shape functions at reference points xi (nq,2) -> (nq,4)."""
    x, e = xi[:, 0], xi[:, 1]
    return np.column_stack([(1 - x) * (1 - e), x * (1 - e), x * e, (1 - x) * e])


def shape_gradients(xi):
    """Reference-cell gradients of the bilinear shape functions: (nq,4,2)."""
    x, e = xi[:, 0], xi[:, 1]
    g = np.empty((len(xi), 4, 2))
    g[:, 0, 0] = -(1 - e); g[:, 0, 1] = -(1 - x)
    g[:, 1, 0] = (1 - e);  g[:, 1, 1] = -x
    g[:, 2, 0] = e;        g[:, 2, 1] = x
    g[:, 3, 0] = -e;       g[:, 3, 1] = 1 - x
    return g


class PeriodicGrid:
    """n-by-n cell grid on the unit torus; n^2 nodes, n^2 cells."""

    periodic = True

    def __init__(self, n):
        if n < 2:
            raise ValueError("PeriodicGrid needs n >= 2")
        self.n = int(n)
        self.h = 1.0 / self.n
        self.ncells = self.n * self.n
        self.nnodes = self.n * self.n
        self.ndof = self.nnodes

        ix, iy = np.meshgrid(np.arange(self.n), np.arange(self.n), indexing="xy")
        ix, iy = ix.ravel(), iy.ravel()
        xp = (ix + 1) % self.n
        yp = (iy + 1) % self.n
        self.conn = np.column_stack([iy * self.n + ix,
                                     iy * self.n + xp,
                                     yp * self.n + xp,
                                     yp * self.n + ix])

    def node_coords(self):
        t = np.arange(self.n) * self.h
        x, y = np.meshgrid(t, t, indexing="xy")
        return np.column_stack([x.ravel(), y.ravel()])


class DirichletGrid:
    """n-by-n cell grid on the closed unit square with (n+1)^2 nodes.

    ``interior`` lists the (n-1)^2 nodes strictly inside, in the
    :func:`nested_dissection` order of their row-major block, and
    ``pattern`` is the :class:`InteriorPattern` of their couplings.
    """

    periodic = False

    def __init__(self, n):
        if n < 2:
            raise ValueError("DirichletGrid needs n >= 2")
        self.n = int(n)
        self.h = 1.0 / self.n
        self.ncells = self.n * self.n
        m = self.n + 1
        self.nnodes = m * m

        ix, iy = np.meshgrid(np.arange(self.n), np.arange(self.n), indexing="xy")
        ix, iy = ix.ravel(), iy.ravel()
        self.conn = np.column_stack([iy * m + ix,
                                     iy * m + ix + 1,
                                     (iy + 1) * m + ix + 1,
                                     (iy + 1) * m + ix])

        jx, jy = np.meshgrid(np.arange(m), np.arange(m), indexing="xy")
        inner = (jx > 0) & (jx < self.n) & (jy > 0) & (jy < self.n)
        self.is_interior = inner.ravel()
        self.interior = np.flatnonzero(self.is_interior)[
            nested_dissection(self.n - 1)]
        self.ndof = self.interior.size
        self.pattern = _interior_pattern(self)

    def node_coords(self):
        t = np.arange(self.n + 1) * self.h
        x, y = np.meshgrid(t, t, indexing="xy")
        return np.column_stack([x.ravel(), y.ravel()])

    def restrict(self, full):
        """Full nodal vector -> interior DOF vector."""
        return np.asarray(full)[..., self.interior]

    def extend(self, inner):
        """Interior DOF vector -> full nodal vector with zero boundary trace."""
        inner = np.asarray(inner)
        full = np.zeros(inner.shape[:-1] + (self.nnodes,))
        full[..., self.interior] = inner
        return full


@dataclass(frozen=True)
class InteriorPattern:
    """Read-only CSR pattern of the interior Q1 couplings of a DirichletGrid.

    Row and column ``i`` are interior DOF ``i`` (``grid.interior[i]``); row
    ``i`` lists the DOF of the up to nine interior nodes of the 3x3 block
    around it, in increasing order, so every CSR matrix built on
    ``indptr``/``indices`` is canonical.  ``take`` maps each position in
    ``data`` to the entry of the interior nodes' flattened 9-point
    stencil, (3, 3, m, m) indexed ``[dy + 1, dx + 1, y, x]`` over the
    row-major m-by-m interior block, that holds its value, so
    ``np.take(stencil, take)`` is the matrix's ``data``
    (:func:`homlab.fem._scatter`).
    """

    indptr: np.ndarray   # (ndof + 1,) int32
    indices: np.ndarray  # (nnz,) int32
    take: np.ndarray     # (nnz,) int32


# (indptr, indices) per block size, shared by every grid and factor of it;
# coupling_table's ``start`` is not kept, its one reader being the grid's
# ``take`` (:func:`_interior_pattern`)
_PATTERNS = {}


def coupling_table(m):
    """Where the couplings of an m-by-m interior block go in its CSR pattern.

    The candidate columns of a DOF are the DOF of its nine neighbours at
    offsets (dy, dx), or ``ndof`` for a neighbour off the block; returns
    ``(indptr, indices, start)`` with ``start[t, i]`` the slot in ``data``
    of DOF ``i``'s coupling at offset ``t = 3 (dy + 1) + dx + 1``, or
    ``nnz`` off the block.  A neighbour's position in its row is the
    number of candidates below it, so no sort is needed.  The arrays are
    read-only; ``indptr`` and ``indices`` are the block's shared ones
    (:func:`coupling_pattern`), while ``start`` is made anew on every call
    and kept by nobody: its one reader, the grid's ``take``
    (:func:`_interior_pattern`), needs it once per grid.
    """
    ndof = m * m
    perm = nested_dissection(m)
    dof = np.empty(ndof, dtype=np.int32)     # row-major block index -> DOF
    dof[perm] = np.arange(ndof, dtype=np.int32)
    padded = np.full((m + 2, m + 2), ndof, dtype=np.int32)
    padded[1:-1, 1:-1] = dof.reshape(m, m)
    # candidates[t, i]: DOF of neighbour t = 3 (dy + 1) + (dx + 1) of DOF i
    candidates = np.stack([padded[1 + dy:m + 1 + dy, 1 + dx:m + 1 + dx]
                           for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
                          ).reshape(9, ndof)[:, perm]
    inside = candidates < ndof
    indptr = np.zeros(ndof + 1, dtype=np.int32)
    np.cumsum(inside.sum(axis=0), out=indptr[1:])
    nnz = int(indptr[-1])
    # Candidates on the block are distinct, so each pair is compared once.
    start = np.empty((9, ndof), dtype=np.int32)
    start[:] = indptr[:-1]
    for t in range(9):
        for u in range(t + 1, 9):
            below = candidates[u] < candidates[t]
            start[t] += below
            start[u] += ~below
    start[~inside] = nnz
    indices = np.empty(nnz + 1, dtype=np.int32)
    indices[start] = candidates
    indices = indices[:nnz]
    for arr in (indptr, indices, start):
        arr.flags.writeable = False
    return _PATTERNS.setdefault(m, (indptr, indices)) + (start,)


def coupling_pattern(m):
    """The read-only ``(indptr, indices)`` of :func:`coupling_table`,
    shared by every grid and factor of an m-by-m block."""
    shared = _PATTERNS.get(m)
    return shared if shared is not None else coupling_table(m)[:2]


def on_pattern(mat, indptr, indices):
    """Whether the CSR matrix ``mat`` is stored on the arrays ``indptr`` and
    ``indices`` themselves.  scipy's constructors wrap such arrays in new
    views, so identity is not kept: this compares the memory they view."""
    return all(x.shape == y.shape and x.ctypes.data == y.ctypes.data
               for x, y in ((mat.indptr, indptr), (mat.indices, indices)))


def _interior_pattern(grid):
    """Build the :class:`InteriorPattern` of ``grid`` from grid arithmetic
    (:func:`coupling_table` of its m-by-m interior block, m = n - 1): the
    coupling of DOF ``i`` at offset ``t`` sits at ``start[t, i]`` in
    ``data`` and at ``t m^2 + perm[i]`` in the flattened stencil, ``perm``
    the block's :func:`nested_dissection` order.
    """
    m = grid.n - 1
    indptr, indices, start = coupling_table(m)
    # one spare position takes the couplings off the block, as in indices
    take = np.empty(indices.size + 1, dtype=np.int32)
    take[start] = np.arange(9)[:, None] * (m * m) + nested_dissection(m)
    take = take[:-1]
    take.flags.writeable = False
    return InteriorPattern(indptr=indptr, indices=indices, take=take)


@dataclass(frozen=True)
class DissectionLevel:
    """The nodes at one depth of the nested-dissection tree of a block.

    Rectangles are (first row, first column, rows, columns) of the m-by-m
    row-major block, one row per node.  ``block`` is the part of the grid
    the node's subtree numbers, ``own`` the nodes the node itself numbers:
    the whole block for a leaf, else its separator line.  ``own`` comes
    row-major as DOF ``start`` to ``start + rows * columns - 1``.  Nodes
    ``2 i`` and ``2 i + 1`` of the next level are the two halves of node
    ``split[i]``, the separators of this level, the one numbered first
    first.
    """

    block: np.ndarray   # (nf, 4)
    own: np.ndarray     # (nf, 4)
    start: np.ndarray   # (nf,)
    split: np.ndarray   # (k,) indices of the nodes with children


@lru_cache(maxsize=None)
def dissection_tree(m):
    """Geometric nested dissection of an m-by-m row-major node block, one
    :class:`DissectionLevel` per depth, root first.

    Each block is split across its longer side (columns on a tie) by the
    middle line of nodes; that line separates the two halves for the Q1
    9-point stencil, so it is numbered after both halves, which are split
    the same way in turn.  Blocks of at most 16 nodes or with a side below
    3 are leaves.  This is the fill-reducing order for factoring a grid
    operator (George, SIAM J. Numer. Anal. 10, 1973).
    """
    levels = []
    r0 = c0 = start = np.zeros(1, dtype=np.int64)
    rows = cols = np.full(1, m, dtype=np.int64)
    while r0.size:
        size = rows * cols
        leaf = (size <= 16) | (np.minimum(rows, cols) < 3)
        by_col = ~leaf & (cols >= rows)
        by_row = ~leaf & ~by_col
        mid = np.where(by_col, cols // 2, rows // 2)
        own_rows = np.where(by_row, 1, rows)
        own_cols = np.where(by_col, 1, cols)
        own = np.column_stack([np.where(by_row, r0 + mid, r0),
                               np.where(by_col, c0 + mid, c0),
                               own_rows, own_cols])
        split = np.flatnonzero(~leaf)
        levels.append(DissectionLevel(
            block=np.column_stack([r0, c0, rows, cols]), own=own,
            start=start + size - own_rows * own_cols, split=split))
        first_rows = np.where(by_row, mid, rows)[split]
        first_cols = np.where(by_col, mid, cols)[split]
        r0, c0, rows, cols, start = (
            np.stack(pair, axis=1).ravel() for pair in (
                (r0[split], np.where(by_row, r0 + mid + 1, r0)[split]),
                (c0[split], np.where(by_col, c0 + mid + 1, c0)[split]),
                (first_rows, rows[split] - by_row[split] * (mid[split] + 1)),
                (first_cols, cols[split] - by_col[split] * (mid[split] + 1)),
                (start[split], start[split] + first_rows * first_cols)))
    return tuple(levels)


def own_positions(level, m):
    """Row-major block indices of each node's own DOF at ``level``, one
    row per node, padded with -1 to the level's largest node: (nf, s)."""
    r0, c0, rows, cols = level.own.T
    size = rows * cols
    k = np.arange(size.max())
    valid = k < size[:, None]
    pos = ((r0[:, None] + k // cols[:, None]) * m
           + c0[:, None] + k % cols[:, None])
    return np.where(valid, pos, -1)


@lru_cache(maxsize=None)
def nested_dissection(m):
    """Nested-dissection order of an m-by-m row-major node block.

    Returns ``perm`` (read-only) with ``perm[new] = old``: each node of
    :func:`dissection_tree` numbers its own nodes row-major after its
    subtree's halves.
    """
    perm = np.empty(m * m, dtype=np.int64)
    for level in dissection_tree(m):
        pos = own_positions(level, m)
        dof = level.start[:, None] + np.arange(pos.shape[1])
        perm[dof[pos >= 0]] = pos[pos >= 0]
    perm.flags.writeable = False
    return perm


@dataclass
class GridFunction:
    """Nodal field on a grid.  ``values`` always covers the full nodal set."""

    grid: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.nnodes,):
            raise ValueError(
                f"GridFunction values shape {self.values.shape} does not match "
                f"grid with {self.grid.nnodes} nodes")


def full_size(vals, lead):
    """``vals``, what a field callable returned on broadcastable coordinate
    axes of broadcast shape ``lead``, broadcast to ``lead`` followed by the
    value's own axes (a read-only view).  A result that does not broadcast
    raises UsageError naming both shapes."""
    vals = np.asarray(vals)
    if vals.ndim < len(lead) or any(
            v not in (1, g) for v, g in zip(vals.shape, lead)):
        raise UsageError(
            f"field callable returned shape {vals.shape}, which does not "
            f"broadcast to the grid's {lead} followed by the value's own "
            "axes")
    shape = lead + vals.shape[len(lead):]
    if vals.shape[0] == 1:
        # Fill the inner axes first, a small array, so that making the
        # result full size copies one contiguous block per leading index.
        vals = np.ascontiguousarray(np.broadcast_to(vals, (1,) + shape[1:]))
    return np.broadcast_to(vals, shape)


def interpolate(grid, func):
    """Nodal interpolant of func(x1, x2) on the grid.

    ``func`` is called once, on the node axes ``x1`` (1, m) and ``x2``
    (m, 1), m nodes per side, so it must be elementwise numpy on
    broadcastable arrays (:func:`full_size`).
    """
    m = grid.n if grid.periodic else grid.n + 1
    t = np.arange(m) * grid.h
    vals = np.asarray(func(t[None, :], t[:, None]), dtype=float)
    return GridFunction(grid, full_size(vals, (m, m)).flatten())
