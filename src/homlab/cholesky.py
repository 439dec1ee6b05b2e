"""Multifrontal Cholesky factor of an interior matrix of a Dirichlet grid.

Every matrix the pipeline factors is symmetric positive definite, with the
9-point pattern of an m-by-m node block numbered in nested-dissection order
(:func:`homlab.grids.dissection_tree`).  Its elimination tree is that
dissection: each node is a separator line or a leaf block, and its *front*
is the node's own DOF plus the *ring* of nodes around its block, the only
nodes its subtree couples to once the subtree is eliminated (Duff & Reid,
ACM TOMS 9, 1983).  The fronts at one depth are independent, so a depth is
factored as one stack of dense matrices padded to one shape: own DOF are
padded with unit pivots and the ring with zero rows.

For a front ``F = [[F11, F12], [F21, F22]]`` (own DOF first), the factor
step is ``F11 = L11 L11^T`` (batched ``np.linalg.cholesky``), ``L21 = F21
L11^-T`` and the update ``F22 - L21 L21^T``, which is added into the
parent's front (the *extend-add*).  A depth keeps one block per front,
``[L11^-1; -L21 L11^-1]`` (``L11^-1`` by batched ``np.linalg.inv``), the
two products a solve applies: the forward sweep is one batched product
with it, the backward sweep one with its transpose.  Nothing else of the
numeric factor is kept, and the updates of a batch of fronts are freed as
soon as their parents have taken them.

The symbolic part (fronts, rings, where each matrix entry and each update
go) is cached per block size (:func:`_symbolic`).  It rests on one lookup
per depth, where a DOF sits in a front, and reads the entries off the CSR
rows of each front's own DOF, so the factor takes only matrices stored on
the block's one pattern (:func:`homlab.grids.interior_pattern`), the
arrays every grid of that size holds.

The batched calls run on the pipeline's pool threads; ``np.linalg``'s
gufuncs and ``matmul`` on 3-D operands release the GIL.
"""

import threading
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np
import scipy.sparse as sp

from .errors import SolverError, UsageError
from .grids import (
    dissection_tree,
    interior_pattern,
    nested_dissection,
    on_pattern,
)

#: Entries of the front stack factored in one batch; bounds the transient.
_BATCH = 1 << 18

# The pool's first tasks ask for the same analysis at once: one makes it.
_ANALYSIS_LOCK = threading.Lock()


@dataclass(frozen=True)
class _Level:
    """The fronts at one depth of the tree, padded to ``s`` own DOF and
    ``r`` ring nodes.

    Their own DOF sit at ``lo .. lo + nf * s - 1`` of a solve's work vector
    (``s`` consecutive slots per front), their rings at the slots ``ring``
    (a padded entry reads the spare slot at the end).  A front of the stack
    is ``t = s + r + 1`` square: own DOF, ring, and one spare row that
    takes the padding of the children's updates.  ``entry_pos`` (flat in
    the stack, front by front, ``entry_ptr`` per front) and ``entry_slot``
    say where each coupling of the matrix goes; ``pad`` marks padded own
    DOF.  ``split`` lists the fronts with children (fronts ``2 i`` and ``2 i
    + 1`` of the level below are the children of front ``split[i]``) and
    ``to_parent`` where each ring node sits in the parent's front.  The
    fronts are factored in the batches ``bounds`` marks; the children of one
    batch lie in whole batches of the level below, so each batch of updates
    is freed as soon as its parents have taken it.
    """

    lo: int
    nf: int
    s: int
    r: int
    bounds: np.ndarray       # first front of each batch, then nf
    ring: np.ndarray         # (nf, r) intp
    entry_ptr: np.ndarray    # (nf + 1,) int64
    entry_pos: np.ndarray    # int32 or int64
    entry_slot: np.ndarray   # int32
    pad: np.ndarray          # (nf, s) bool, or None
    split: np.ndarray        # (k,) intp
    to_parent: np.ndarray    # (nf, r) int32

    @property
    def t(self):
        return self.s + self.r + 1


@dataclass(frozen=True)
class _Symbolic:
    """The cached analysis of an m-by-m block: its levels, deepest first,
    and ``slot[i]``, the work-vector slot of DOF ``i``."""

    levels: tuple
    slot: np.ndarray         # (m * m,) intp
    size: int                # work-vector length, spare slot included


def _ranges(counts):
    """The ranges ``0 .. counts[i] - 1`` one after the other: for each item,
    its range ``i`` and its place in it (int32)."""
    which = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    first = (np.cumsum(counts) - counts).astype(np.int32)
    return which, np.arange(which.size, dtype=np.int32) - first[which]


def _rings(block, m):
    """The ring of each block (first row, first column, rows, columns): the
    nodes of the m-by-m block around it, in perimeter order (the row above
    and the row below, each with both corners, then the column to the left
    and the one to the right), as row-major indices padded with -1."""
    r0, c0, rows, cols = (v[:, None] for v in block.T)
    wide = cols + 2
    step = np.arange(int((2 * (wide + rows)).max()))
    down = step - 2 * wide
    sides = [step < wide, step < 2 * wide, down < rows]
    row = np.select(sides, [r0 - 1, r0 + rows, r0 + down], r0 + down - rows)
    col = np.select(sides, [c0 - 1 + step, c0 - 1 + step - wide, c0 - 1],
                    c0 + cols)
    on = ((step < 2 * (wide + rows)) & (row >= 0) & (row < m) & (col >= 0)
          & (col < m))
    rank = np.cumsum(on, axis=1) - 1
    ring = np.full((len(block), int(rank[:, -1].max()) + 1), -1)
    f, k = np.nonzero(on)
    ring[f, rank[f, k]] = row[f, k] * m + col[f, k]
    return ring


def _front_position(start, count, s, ring):
    """Where a DOF sits in a front of one depth (own DOF ``start .. start +
    count - 1`` padded to ``s``, ``ring`` the ring DOF padded with -1): own
    DOF ``start + k`` at ``k``, a ring DOF at ``s`` plus its rank on the
    ring, and a DOF numbered below ``start``, a descendant's, nowhere (-1).
    Returns ``position(front, dof)`` on arrays of fronts and of their DOF;
    ring ranks come from a sorted search over the (front, DOF) keys."""
    n = int(ring.max(initial=0)) + 1    # (front, DOF) keys: front n + DOF
    f, rank = np.nonzero(ring >= 0)
    key = f * n + ring[f, rank]
    order = np.argsort(key)
    key, rank = key[order], rank[order]
    first = start.astype(np.int32)
    end = first + count.astype(np.int32)

    def position(front, dof):
        at = dof - first[front]
        at[at < 0] = -1
        out = np.flatnonzero(dof >= end[front])
        at[out] = s + rank[np.searchsorted(
            key, front[out].astype(np.int64) * n + dof[out])]
        return at

    return position


@lru_cache(maxsize=None)
def _symbolic(m):
    """Fronts, rings, entry maps and extend-add maps of an m-by-m block,
    one depth of :func:`homlab.grids.dissection_tree` at a time, root first.

    A ring is the frame of nodes around a block (:func:`_rings`); the rest
    follows from where a DOF sits in a front (:func:`_front_position`).
    Row ``start + k`` of the block's CSR pattern
    (:func:`homlab.grids.interior_pattern`) holds the couplings of own DOF
    ``k``: the entry in column ``c``, at position ``p``, goes to F11 at (k,
    p) when c is own and to F21 at (p, k) when c is on the ring, and one in
    a descendant's column is left out.  ``to_parent`` is the same lookup at
    the parent's depth.  Rings keep perimeter order, the contraction order
    of the backward sweep's product: another order would change the bits
    of a solve.
    """
    pattern = interior_pattern(m)
    indptr, indices = pattern.indptr, pattern.indices
    tree = dissection_tree(m)
    dof = np.empty(m * m, dtype=np.int64)     # row-major index -> DOF
    dof[nested_dissection(m)] = np.arange(m * m)
    counts = [node.own[:, 2] * node.own[:, 3] for node in tree]
    sizes = [len(count) * int(count.max()) for count in counts]
    size = sum(sizes)
    los = np.cumsum([0] + sizes[::-1])[::-1][1:]   # deepest level first
    slot = np.empty(m * m, dtype=np.intp)
    levels, parent = [], None
    for d, (node, count, lo) in enumerate(zip(tree, counts, los)):
        nf, s = len(count), int(count.max())
        ring = _rings(node.block, m)
        ring = np.where(ring >= 0, dof[ring], -1)
        r = ring.shape[1]
        t = s + r + 1
        position = _front_position(node.start, count, s, ring)
        f, k = _ranges(count)                   # own DOF start + k of front f
        row = node.start.astype(np.int32)[f] + k
        slot[row] = lo + f * s + k
        # the entry map, off the CSR rows of the own DOF
        e, j = _ranges(indptr[row + 1] - indptr[row])
        j += indptr[row][e]
        front, k = f[e], k[e]
        del f, row, e
        at = position(front, indices[j])
        kept = at >= 0
        front, k, at, j = front[kept], k[kept], at[kept], j[kept]
        mine = at < s
        entry_ptr = np.zeros(nf + 1, dtype=np.int64)
        np.cumsum(np.bincount(front, minlength=nf), out=entry_ptr[1:])
        index = np.int32 if nf * t * t < 2 ** 31 else np.int64
        entry_pos = ((front.astype(index) * t + np.where(mine, k, at)) * t
                     + np.where(mine, at, k))
        # where each ring DOF sits in its parent's front, and batches that
        # each feed one batch of the parents
        to_parent = np.zeros((nf, r), dtype=np.int32)
        per = max(1, _BATCH // (t * t))
        if d:
            halves = 2 * np.searchsorted(tree[d - 1].split, bounds)
            bounds = np.concatenate(
                [np.arange(c0, c1, per) for c0, c1 in zip(halves, halves[1:])]
                + [[nf]])
            up, up_position, spare = parent
            at = up_position(np.repeat(up, r), ring.ravel()).reshape(nf, r)
            to_parent[:] = np.where(ring >= 0, at, spare)
        else:
            bounds = np.append(np.arange(0, nf, per), nf)
        parent = np.repeat(node.split, 2), position, t - 1
        pad = np.arange(s) >= count[:, None]
        levels.append(_Level(
            lo=int(lo), nf=nf, s=s, r=r, bounds=bounds,
            ring=np.where(ring >= 0, slot[ring], size),
            entry_ptr=entry_ptr, entry_pos=entry_pos, entry_slot=j,
            pad=pad if pad.any() else None,
            split=node.split.astype(np.intp), to_parent=to_parent))
    return _Symbolic(levels=tuple(levels[::-1]), slot=slot, size=int(size))


class CholeskyFactor:
    """A multifrontal Cholesky factor (:func:`cholesky`) with ``.solve``."""

    def __init__(self, symbolic, blocks):
        self._symbolic = symbolic
        self._blocks = blocks

    def solve(self, rhs):
        """``x`` with ``A x = rhs`` for ``rhs`` of shape (n,) or (n, k)."""
        sym = self._symbolic
        rhs = np.asarray(rhs, dtype=float)
        w = np.zeros((sym.size + 1,) + rhs.shape[1:])
        w[sym.slot] = rhs
        cols = 1 if rhs.ndim == 1 else rhs.shape[1]
        for lv, block in zip(sym.levels, self._blocks):
            seg = w[lv.lo:lv.lo + lv.nf * lv.s].reshape(lv.nf, lv.s, cols)
            z = np.matmul(block, seg)
            seg[...] = z[:, :lv.s]
            np.add.at(w, lv.ring.ravel(),
                      z[:, lv.s:].reshape((-1,) + w.shape[1:]))
        w[-1] = 0.0
        for lv, block in zip(sym.levels[::-1], self._blocks[::-1]):
            seg = w[lv.lo:lv.lo + lv.nf * lv.s].reshape(lv.nf, lv.s, cols)
            stack = np.empty((lv.nf, lv.s + lv.r, cols))
            stack[:, :lv.s] = seg
            stack[:, lv.s:] = w[lv.ring].reshape(lv.nf, lv.r, cols)
            np.matmul(block.transpose(0, 2, 1), stack, out=seg)
        return w[sym.slot]


def cholesky(op):
    """Multifrontal Cholesky factor of ``op``, an SPD interior matrix of a
    DirichletGrid with an m-by-m interior block (m recovered from its size),
    stored on the grid's own pattern arrays: one the grid assembled, or an
    :func:`homlab.fem.add_scaled` sum.  Any other matrix raises UsageError;
    one that is not positive definite raises SolverError.
    """
    n = op.shape[0]
    m = isqrt(n)
    if op.shape != (n, n) or m * m != n or n == 0:
        raise UsageError(
            f"factorize needs the interior matrix of a Dirichlet grid, "
            f"(m^2, m^2); got shape {op.shape}")
    pattern = interior_pattern(m)
    if not (isinstance(op, sp.csr_matrix)
            and on_pattern(op, pattern.indptr, pattern.indices)):
        raise UsageError(
            "factorize needs an interior matrix on its DirichletGrid's own "
            "pattern arrays: one the grid assembled, or an fem.add_scaled "
            "sum of two")
    data = op.data
    with _ANALYSIS_LOCK:
        sym = _symbolic(m)
    blocks = []
    below = deque()       # (first front, end, updates) per batch below
    child = None
    for lv in sym.levels:
        s, r, t = lv.s, lv.r, lv.t
        block = np.empty((lv.nf, s + r, s))
        made = deque()
        for f0, f1 in zip(lv.bounds[:-1].tolist(), lv.bounds[1:].tolist()):
            front = np.zeros((f1 - f0, t, t))
            flat = front.reshape(-1)
            e0, e1 = lv.entry_ptr[f0], lv.entry_ptr[f1]
            flat[lv.entry_pos[e0:e1] - f0 * t * t] = data[lv.entry_slot[e0:e1]]
            if lv.pad is not None:
                diag = front.reshape(f1 - f0, t * t)[:, ::t + 1][:, :s]
                diag[lv.pad[f0:f1]] = 1.0
            # extend-add: the children's updates, each batch freed once added
            end = 2 * np.searchsorted(lv.split, f1)
            while below and below[0][0] < end:
                c0, c1, taken = below.popleft()
                to = child.to_parent[c0:c1]
                local = lv.split[np.arange(c0, c1) // 2] - f0
                idx = ((local[:, None, None] * t + to[:, :, None]) * t
                       + to[:, None, :])
                np.add.at(flat, idx.ravel(), taken.ravel())
                del taken, idx
            try:
                low = np.linalg.cholesky(front[:, :s, :s])
            except np.linalg.LinAlgError as err:
                raise SolverError(
                    f"Cholesky factorization failed: the matrix is singular "
                    f"or not positive definite ({n} unknowns)") from err
            inv = np.linalg.inv(low)
            l21 = np.matmul(front[:, s:s + r, :s], inv.transpose(0, 2, 1))
            block[f0:f1, :s] = inv
            multiplier = block[f0:f1, s:]
            np.matmul(l21, inv, out=multiplier)
            np.negative(multiplier, out=multiplier)
            # F22 - L21 L21^T = F22 + (-L21 L11^-1) F21^T: a general
            # product, which skips numpy's copy of a symmetric product's
            # other triangle
            update = np.matmul(multiplier,
                               front[:, s:s + r, :s].transpose(0, 2, 1))
            np.add(front[:, s:s + r, s:s + r], update, out=update)
            made.append((f0, f1, update))
        blocks.append(block)
        below, child = made, lv
    return CholeskyFactor(sym, blocks)

