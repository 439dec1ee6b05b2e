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
soon as their parents have taken them.  The symbolic part (fronts, rings,
where each matrix entry and each update go) comes from grid arithmetic and
is cached per block size (:func:`_symbolic`).

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
    coupling_pattern,
    coupling_table,
    dissection_tree,
    nested_dissection,
    own_positions,
)

#: Entries of the front stack factored in one batch; bounds the transient.
_BATCH = 1 << 18

# The pool's first tasks ask for the same analysis at once: one makes it.
_ANALYSIS_LOCK = threading.Lock()

# Neighbour offsets in the order of coupling_table's t = 3 (dy + 1) + dx + 1.
_DY = np.repeat([-1, 0, 1], 3)
_DX = np.tile([-1, 0, 1], 3)


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


def _perimeter(rows, cols):
    """Offsets from the first node of a rows-by-cols block to the nodes
    around it, in perimeter order: the row above and the row below (each
    with both corners), then the column to the left and the one to the
    right."""
    across = np.arange(-1, cols + 1)
    down = np.arange(rows)
    return (np.concatenate([np.full(cols + 2, -1), np.full(cols + 2, rows),
                            down, down]),
            np.concatenate([across, across, np.full(rows, -1),
                            np.full(rows, cols)]))


def _perimeter_step(block, row, col):
    """The perimeter step (:func:`_perimeter`) of the node (row, col) around
    ``block``, one block per row of ``row`` and ``col``."""
    r0, c0, rows, cols = (v[:, None] for v in block.T)
    wide = cols + 2
    return np.select([row == r0 - 1, row == r0 + rows, col == c0 - 1],
                     [col - c0 + 1, wide + col - c0 + 1,
                      2 * wide + row - r0],
                     2 * wide + rows + row - r0)


def _level(node, m, slots):
    """The rings and entry maps of one depth of the tree.

    Fronts whose blocks and own nodes have one shape share one template:
    the couplings of their own nodes with their nine neighbours, relative
    to the block, each to an own node (an entry of F11) or to a perimeter
    step (of F21).  A front keeps a perimeter step's entry when that node
    lies on the grid, at the node's place among the ring nodes that do.
    Returns the own nodes (nf, s) and the ring nodes (nf, r, in perimeter
    order) as row-major indices of the m-by-m block, padded with -1; each
    front's ring index by perimeter step (nf, steps); and the entry map:
    the flat position of each kept entry in the (nf, t, t) stack, its slot
    in the pattern (``slots[9 i + t]`` is the slot of DOF i's coupling at
    offset t), and each front's count.
    """
    nf = len(node.block)
    r0, c0, rows, cols = node.block.T
    own = own_positions(node, m)
    s = own.shape[1]
    shape = np.column_stack([rows, cols, node.own[:, :2] - node.block[:, :2],
                             node.own[:, 2:]])
    # own rows are 1 or the block's rows, own columns 1 or its columns
    key = (shape[:, :4] @ (m + 1) ** np.arange(4) * 4
           + 2 * (shape[:, 4] == rows) + (shape[:, 5] == cols))
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    shapes = shape[first]
    groups = []
    for g, (g_rows, g_cols, g_dr, g_dc, g_orows, g_ocols) in enumerate(shapes):
        fronts = np.flatnonzero(group == g)
        dr, dc = _perimeter(g_rows, g_cols)
        row, col = r0[fronts, None] + dr, c0[fronts, None] + dc
        on = (row >= 0) & (row < m) & (col >= 0) & (col < m)
        groups.append((fronts, row * m + col, on, np.cumsum(on, axis=1) - 1))
    r = max(int(on.sum(axis=1).max()) for _, _, on, _ in groups)
    t = s + r + 1
    ring = np.full((nf, r), -1, dtype=np.int64)
    rank = np.zeros((nf, max(len(g[2][0]) for g in groups)), dtype=np.int64)
    entries = []
    for (fronts, pos, on, front_rank), (g_rows, g_cols, g_dr, g_dc, g_orows,
                                        g_ocols) in zip(groups, shapes):
        f, step = np.nonzero(on)
        ring[fronts[f], front_rank[f, step]] = pos[f, step]
        rank[fronts, :front_rank.shape[1]] = front_rank
        # the template, relative to the block's first node
        k = np.arange(g_orows * g_ocols)
        krow = (g_dr + k // g_ocols)[:, None] + _DY
        kcol = (g_dc + k % g_ocols)[:, None] + _DX
        mine = ((krow >= g_dr) & (krow < g_dr + g_orows)
                & (kcol >= g_dc) & (kcol < g_dc + g_ocols))
        out = (krow < 0) | (krow >= g_rows) | (kcol < 0) | (kcol >= g_cols)
        k_own, t_own = np.nonzero(mine)
        k_ring, t_ring = np.nonzero(out)
        ring_step = _perimeter_step(np.array([[0, 0, g_rows, g_cols]]),
                                    krow[out][None], kcol[out][None])[0]
        # flat positions in the stack and in slots
        base = fronts[:, None] * (t * t)
        dof = node.start[fronts][:, None]
        within = np.concatenate([
            k_own * t + (krow[mine] - g_dr) * g_ocols + kcol[mine] - g_dc,
            k_ring])
        row_of = np.concatenate([
            np.zeros((len(fronts), len(k_own)), dtype=np.int64),
            (s + np.take(front_rank, ring_step, axis=1)) * t], axis=1)
        entries.append((
            fronts, base + within + row_of,
            np.take(slots, (np.concatenate([k_own, k_ring]) + dof) * 9
                    + np.concatenate([t_own, t_ring])),
            np.concatenate([np.ones((len(fronts), len(k_own)), dtype=bool),
                            np.take(on, ring_step, axis=1)], axis=1)))
    width = max(e[1].shape[1] for e in entries)
    pos = np.zeros((nf, width), dtype=np.int64)
    slot = np.zeros((nf, width), dtype=np.int32)
    kept = np.zeros((nf, width), dtype=bool)
    for fronts, e_pos, e_slot, e_kept in entries:
        pos[fronts, :e_pos.shape[1]] = e_pos
        slot[fronts, :e_pos.shape[1]] = e_slot
        kept[fronts, :e_pos.shape[1]] = e_kept
    return own, ring, rank, (pos[kept], slot[kept], kept.sum(axis=1))


@lru_cache(maxsize=None)
def _symbolic(m):
    """Fronts, rings, entry maps and extend-add maps of an m-by-m block,
    from grid arithmetic, one depth at a time."""
    _, _, start = coupling_table(m)
    tree = dissection_tree(m)
    dof = np.empty(m * m, dtype=np.int64)
    dof[nested_dissection(m)] = np.arange(m * m)
    slots = start[:, :-1].T.ravel()
    geometry = [_level(node, m, slots) for node in tree]
    sizes = [own.size for own, _, _, _ in geometry]
    size = sum(sizes)
    los = np.cumsum([0] + sizes[::-1])[::-1][1:]   # deepest level first
    slot = np.empty(m * m, dtype=np.intp)
    for (own, _, _, _), lo in zip(geometry, los):
        where = lo + np.arange(own.size).reshape(own.shape)
        slot[dof[own[own >= 0]]] = where[own >= 0]
    levels = []
    for d, (node, (own, ring, _, entries), lo) in enumerate(
            zip(tree, geometry, los)):
        nf, s = own.shape
        r = ring.shape[1]
        t = s + r + 1
        entry_pos, entry_slot, counts = entries
        entry_ptr = np.zeros(nf + 1, dtype=np.int64)
        np.cumsum(counts, out=entry_ptr[1:])
        index = np.int32 if nf * t * t < 2 ** 31 else np.int64
        pad = own < 0
        # where each ring node of this level sits in its parent's front,
        # and batches that each feed one batch of the parents
        to_parent = np.full((nf, r), 0, dtype=np.intp)
        per = max(1, _BATCH // (t * t))
        if d:
            halves = 2 * np.searchsorted(tree[d - 1].split, bounds)
            bounds = np.concatenate(
                [np.arange(c0, c1, per) for c0, c1 in zip(halves, halves[1:])]
                + [[nf]])
            parent_node = tree[d - 1]
            parents = np.repeat(parent_node.split, 2)
            p_own, p_ring, p_rank, _ = geometry[d - 1]
            ps, pr = p_own.shape[1], p_ring.shape[1]
            prow0, pcol0, prows, pcols = (v[parents][:, None]
                                          for v in parent_node.own.T)
            rrow = np.where(ring >= 0, ring // m, -1)
            rcol = np.where(ring >= 0, ring % m, -1)
            mine = ((rrow >= prow0) & (rrow < prow0 + prows)
                    & (rcol >= pcol0) & (rcol < pcol0 + pcols))
            pstep = _perimeter_step(parent_node.block[parents], rrow, rcol)
            prank = np.take_along_axis(
                p_rank[parents], np.clip(pstep, 0, p_rank.shape[1] - 1),
                axis=1)
            to_parent = np.where(ring < 0, ps + pr,
                                 np.where(mine,
                                          (rrow - prow0) * pcols + rcol - pcol0,
                                          ps + prank))
        else:
            bounds = np.append(np.arange(0, nf, per), nf)
        levels.append(_Level(
            lo=int(lo), nf=nf, s=s, r=r, bounds=bounds,
            ring=np.where(ring >= 0, slot[dof[np.clip(ring, 0, None)]], size),
            entry_ptr=entry_ptr, entry_pos=entry_pos.astype(index),
            entry_slot=entry_slot, pad=pad if pad.any() else None,
            split=node.split.astype(np.intp),
            to_parent=to_parent.astype(np.int32)))
    return _Symbolic(levels=tuple(levels[::-1]), slot=slot, size=int(size))


def _pattern_data(op, m):
    """``op``'s entries as a data vector on the block's CSR pattern
    (:func:`homlab.grids.coupling_pattern`).  An operator on that
    pattern's own index arrays passes its data as is; any other is mapped
    onto it, and an entry outside the 9-point pattern raises UsageError."""
    indptr, indices = coupling_pattern(m)
    if (isinstance(op, sp.csr_matrix) and op.indices.shape == indices.shape
            and op.indices.ctypes.data == indices.ctypes.data
            and op.indptr.ctypes.data == indptr.ctypes.data):
        return op.data
    coo = sp.coo_matrix(op)
    n = m * m
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keys = rows * n + indices
    want = coo.row.astype(np.int64) * n + coo.col
    where = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    if keys.size == 0 or np.any(keys[where] != want):
        raise UsageError("factorize needs a matrix within the 9-point "
                         f"pattern of a {m} x {m} Dirichlet interior block")
    data = np.zeros(keys.size)
    np.add.at(data, where, coo.data)
    return data


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
    """Multifrontal Cholesky factor of ``op``, an SPD matrix within the
    9-point pattern of an m-by-m interior block in nested-dissection order
    (m recovered from its size).  Another shape or pattern raises
    UsageError; a matrix that is not positive definite raises SolverError.
    """
    n = op.shape[0]
    m = isqrt(n)
    if op.shape != (n, n) or m * m != n or n == 0:
        raise UsageError(
            f"factorize needs the interior matrix of a Dirichlet grid, "
            f"(m^2, m^2); got shape {op.shape}")
    data = _pattern_data(op, m)
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

