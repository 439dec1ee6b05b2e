"""Uniform structured grids with bilinear elements.

Two grid flavours share one cell layout: ``PeriodicGrid`` identifies opposite
faces of the unit cell (n^2 nodes, n^2 cells), ``DirichletGrid`` keeps the full
(n+1)^2 nodal set on the closed unit square and tracks which nodes are
interior.  Nodes are ordered row-major with x fastest; interior DOF come in
the fill-reducing nested-dissection order of their block.  Cell corners
follow the usual counterclockwise convention (0,0), (1,0), (1,1), (0,1).

A ``DirichletGrid`` also owns the sparsity pattern that every interior
matrix of a Q1 form on it shares (:class:`InteriorPattern`), built from
grid arithmetic with the grid.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
        self._cell_origin = np.column_stack([ix * self.h, iy * self.h])

    def node_coords(self):
        t = np.arange(self.n) * self.h
        x, y = np.meshgrid(t, t, indexing="xy")
        return np.column_stack([x.ravel(), y.ravel()])

    def quad_points(self, xi):
        """Physical coordinates of reference points xi in every cell: (ncells, nq, 2)."""
        return self._cell_origin[:, None, :] + xi[None, :, :] * self.h


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
        self._cell_origin = np.column_stack([ix * self.h, iy * self.h])

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

    def quad_points(self, xi):
        return self._cell_origin[:, None, :] + xi[None, :, :] * self.h

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
    ``indptr``/``indices`` is canonical.  ``slots`` maps the entry ``(c, a,
    b)`` of a stack of (ncells, 4, 4) element matrices, flattened, to its
    position in ``data``; an entry whose row or column node lies on the
    boundary maps to ``nnz``, one past the last position, so
    ``np.bincount(slots, weights, minlength=nnz + 1)[:nnz]`` sums the
    element matrices into ``data`` in cell order and drops the boundary.
    """

    indptr: np.ndarray   # (ndof + 1,) int32
    indices: np.ndarray  # (nnz,) int32
    slots: np.ndarray    # (16 ncells,) int32

    @property
    def nnz(self):
        return int(self.indices.size)


# Reference-cell coordinates (x, y) of the four local corners.
_CORNER_X = np.array([0, 1, 1, 0])
_CORNER_Y = np.array([0, 0, 1, 1])


def _interior_pattern(grid):
    """Build the :class:`InteriorPattern` of ``grid`` from grid arithmetic.

    Interior nodes form an m-by-m block, m = n - 1.  The candidate columns
    of a DOF are the DOF of its nine neighbours at offsets (dy, dx), or
    ``ndof`` for a neighbour off the block.  A neighbour's position in its
    row is the number of candidates below it, so no sort is needed.  The
    offset of a local pair (a, b) is the same in every cell, so the slot of
    element entry (c, a, b) is ``start[offset(a, b), row]``, ``row`` the
    DOF of corner a of cell c.
    """
    m = grid.n - 1
    ndof = grid.ndof
    perm = nested_dissection(m)
    dof = np.empty(m * m, dtype=np.int32)     # row-major block index -> DOF
    dof[perm] = np.arange(ndof, dtype=np.int32)
    padded = np.full((m + 2, m + 2), ndof, dtype=np.int32)
    padded[1:-1, 1:-1] = dof.reshape(m, m)
    # candidates[t, i]: DOF of neighbour t = 3 (dy + 1) + (dx + 1) of DOF i
    candidates = np.stack([padded[1 + dy:m + 1 + dy, 1 + dx:m + 1 + dx]
                           for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
                          ).reshape(9, m * m)[:, perm]
    inside = candidates < ndof
    indptr = np.zeros(ndof + 1, dtype=np.int32)
    np.cumsum(inside.sum(axis=0), out=indptr[1:])
    nnz = int(indptr[-1])
    # start[t, i]: slot of DOF i's coupling at offset t, nnz off the block;
    # the last column serves the boundary corners, whose DOF reads -1.
    # Candidates on the block are distinct, so each pair is compared once.
    start = np.empty((9, ndof + 1), dtype=np.int32)
    start[:, :-1] = indptr[:-1]
    for t in range(9):
        for u in range(t + 1, 9):
            below = candidates[u] < candidates[t]
            start[t, :-1] += below
            start[u, :-1] += ~below
    start[:, :-1][~inside] = nnz
    start[:, -1] = nnz
    indices = np.empty(nnz + 1, dtype=np.int32)
    indices[start[:, :-1]] = candidates
    indices = indices[:nnz]
    corner_dof = np.full(grid.nnodes, -1, dtype=np.int32)
    corner_dof[grid.interior] = np.arange(ndof, dtype=np.int32)
    rows = corner_dof[grid.conn]              # (ncells, 4)
    offset = (3 * (_CORNER_Y[None, :] - _CORNER_Y[:, None] + 1)
              + _CORNER_X[None, :] - _CORNER_X[:, None] + 1)   # [a, b]
    slots = np.empty((4, 4, grid.ncells), dtype=np.int32)
    for a in range(4):
        for b in range(4):
            np.take(start[offset[a, b]], rows[:, a], out=slots[a, b])
    slots = np.ascontiguousarray(slots.transpose(2, 0, 1)).reshape(-1)
    for arr in (indptr, indices, slots):
        arr.flags.writeable = False
    return InteriorPattern(indptr=indptr, indices=indices, slots=slots)


@lru_cache(maxsize=None)
def nested_dissection(m):
    """Geometric nested-dissection order of an m-by-m row-major node block.

    Returns ``perm`` (read-only) with ``perm[new] = old``.  Each block is
    split across its longer side by the middle line of nodes; that line
    separates the two halves for the Q1 9-point stencil, so it is numbered
    after both halves, which are ordered the same way in turn.  Blocks of at
    most 16 nodes or with a side below 3 stay row-major.  This is the
    fill-reducing order for LU on a grid (George, SIAM J. Numer. Anal. 10,
    1973).
    """
    ids = np.arange(m * m).reshape(m, m)   # [row, column]
    parts = []

    def visit(block):
        rows, cols = block.shape
        if block.size <= 16 or min(rows, cols) < 3:
            parts.append(block.ravel())
            return
        if cols >= rows:
            mid = cols // 2
            visit(block[:, :mid])
            visit(block[:, mid + 1:])
            parts.append(block[:, mid])
        else:
            mid = rows // 2
            visit(block[:mid])
            visit(block[mid + 1:])
            parts.append(block[mid])

    visit(ids)
    perm = np.concatenate(parts)
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


def interpolate(grid, func):
    """Nodal interpolant of func(x1, x2) on the grid."""
    xy = grid.node_coords()
    return GridFunction(grid, np.asarray(func(xy[:, 0], xy[:, 1]), dtype=float))
