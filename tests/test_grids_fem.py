"""Grid bookkeeping and the bilinear-element kernel."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import homlab.cholesky
import homlab.grids
from conftest import (eps_problem, oracle_elements, oracle_matrix, quad_points,
                      shifted_eigs)
from homlab.analysis import _boundary_abs_max, sample_cell_field
from homlab.coefficients import A_PRESETS, F_PRESETS, W_PRESETS, make_preset
from homlab.domain import (DiffusionProblem, EpsProblem, constant_matrix,
                           solve_homogenized)
from homlab.errors import (
    AssemblyError,
    ConfigurationError,
    SolverError,
    SpectralError,
    UsageError,
)
from homlab.fem import (
    QUAD_W,
    QUAD_XI,
    _scatter,
    _scatter_vector,
    add_scaled,
    apply_tensor,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    boundary_flux,
    cell_gradients,
    cell_values,
    cg_solve,
    factorize,
    flux_load_from_quad_values,
    integrate,
    l2_norm,
    load_from_quad_values,
    quad_samples,
    recover_gradient,
    stiffness_elements,
    torus_laplace_solver,
    weighted_mass_elements,
)
from homlab.grids import (
    DirichletGrid,
    GridFunction,
    PeriodicGrid,
    dissection_tree,
    gauss_rule,
    interior_pattern,
    interpolate,
    nested_dissection,
    shape_gradients,
    shape_values,
)
from homlab.pipeline import stages_for
from homlab.spectral import (
    Spectrum,
    _orthonormalize,
    checked_spectrum,
)


def identity_a(x1, x2):
    out = np.zeros(np.shape(x1) + (2, 2))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    return out


def laplacian(grid):
    """The stiffness of the identity tensor on ``grid``."""
    return assemble_stiffness(grid, quad_samples(grid, identity_a))


def test_grid_counts_and_spacing():
    pg = PeriodicGrid(8)
    assert pg.nnodes == 64
    assert pg.h == 1.0 / 8.0
    dg = DirichletGrid(8)
    assert dg.nnodes == 81
    assert dg.ndof == 49


def test_gauss_rule_integrates_cubics_exactly():
    # piecewise-cubic integrand is exact per cell for the order-3 rule
    grid = PeriodicGrid(4)
    xi, wq = gauss_rule(3)
    pts = quad_points(grid, xi)
    vals = pts[..., 0] ** 3 * pts[..., 1] ** 2
    total = grid.h ** 2 * np.einsum("q,cq->", wq, vals)
    assert abs(total - 1.0 / 12.0) < 1e-14


def test_assembly_rule_weights_sum_to_cell_area():
    assert abs(QUAD_W.sum() - 1.0) < 1e-15
    assert QUAD_XI.shape == (4, 2)


def test_mass_total_is_domain_area():
    grid = DirichletGrid(16)
    m = oracle_matrix(grid, oracle_elements(grid), full=True)
    ones = np.ones(grid.nnodes)
    assert abs(ones @ (m @ ones) - 1.0) < 1e-13


def test_stiffness_symmetric_with_constants_in_kernel():
    grid = PeriodicGrid(8)
    k = laplacian(grid)
    dense = k.toarray()
    assert np.max(np.abs(dense - dense.T)) < 1e-14
    assert np.max(np.abs(dense.sum(axis=1))) < 1e-13


def test_interpolated_sine_l2_norm():
    # ||sin(2 pi x) sin(2 pi y)||_{L2} = 1/2; Q1 interpolation is O(h^2)
    grid = DirichletGrid(64)
    gf = interpolate(grid, lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
    assert abs(l2_norm(gf) - 0.5) < 1e-3  # measured 8.03e-4 at n=64


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_l2_norm_of_constant(c):
    grid = DirichletGrid(6)
    gf = GridFunction(grid, np.full(grid.nnodes, c))
    assert abs(l2_norm(gf) - abs(c)) <= 1e-12 * max(1.0, abs(c))


def test_cg_matches_direct_solve():
    import scipy.sparse.linalg as spla

    grid = DirichletGrid(8)
    op = laplacian(grid)
    rhs = np.random.default_rng(3).standard_normal(grid.ndof)
    x = cg_solve(op, rhs, tol=1e-12)
    x_ref = spla.spsolve(op.tocsc(), rhs)
    assert np.max(np.abs(x - x_ref)) < 1e-8


def test_cg_breakdown_on_negative_definite_operator():
    grid = DirichletGrid(8)
    op = laplacian(grid)
    neg = -op
    with pytest.raises(SolverError) as exc:
        cg_solve(neg, np.ones(grid.ndof), tol=1e-10)
    assert exc.value.breakdown


@pytest.mark.parametrize("m", [1, 2, 3, 7, 17, 255])
def test_nested_dissection_is_a_permutation(m):
    perm = nested_dissection(m)
    assert np.array_equal(np.sort(perm), np.arange(m * m))


def recursive_dissection(m):
    """The nested-dissection order by its recursive definition: split the
    longer side (columns on a tie) at its middle line, number both halves
    in turn, then the line; blocks of at most 16 nodes or with a side below
    3 stay row-major."""
    parts = []

    def visit(block):
        rows, cols = block.shape
        if block.size <= 16 or min(rows, cols) < 3:
            parts.append(block.ravel())
        elif cols >= rows:
            visit(block[:, :cols // 2])
            visit(block[:, cols // 2 + 1:])
            parts.append(block[:, cols // 2])
        else:
            visit(block[:rows // 2])
            visit(block[rows // 2 + 1:])
            parts.append(block[rows // 2])

    visit(np.arange(m * m).reshape(m, m))
    return np.concatenate(parts)


@pytest.mark.parametrize("m", [1, 2, 4, 5, 17, 40, 67, 71, 127])
def test_dissection_tree_numbers_as_the_recursive_definition(m):
    assert np.array_equal(nested_dissection(m), recursive_dissection(m))


@pytest.mark.parametrize("n", [2, 5, 18])
def test_interior_dof_come_in_nested_dissection_order(n):
    grid = DirichletGrid(n)
    row_major = np.flatnonzero(grid.is_interior)
    assert np.array_equal(grid.interior, row_major[nested_dissection(n - 1)])
    rng = np.random.default_rng(n)
    full = np.where(grid.is_interior, rng.standard_normal(grid.nnodes), 0.0)
    assert np.array_equal(grid.extend(grid.restrict(full)), full)
    inner = rng.standard_normal(grid.ndof)
    assert np.array_equal(grid.restrict(grid.extend(inner)), inner)


def test_first_separator_decouples_the_halves():
    """n = 18: the grid numbers the middle interior column (17 nodes at
    x = 1/2) last, so its interior operator splits into two 17 x 8 halves
    with no coupling between them."""
    grid = DirichletGrid(18)
    op = laplacian(grid)
    separator = grid.node_coords()[grid.interior[-17:]]
    assert np.array_equal(separator[:, 0], np.full(17, 0.5))
    half = 17 * 8
    assert op[:half, half:2 * half].nnz == 0
    assert op[:2 * half, 2 * half:].nnz > 0


def test_factor_solves_match_a_dense_solve():
    model = make_preset("smooth-iso", "sine1")
    p = eps_problem(model, 0.5, DirichletGrid(32))
    mat = add_scaled(p.operator, -p.sigma, p.mass_interior())
    lu = factorize(mat)
    rng = np.random.default_rng(8)
    for rhs in (rng.standard_normal(p.grid.ndof),
                rng.standard_normal((p.grid.ndof, 3))):
        ref = np.linalg.solve(mat.toarray(), rhs)
        x = lu.solve(rhs)
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def banded_solve(mat, rhs, m):
    """Solve with LAPACK's dense-band Cholesky: in row-major order the
    matrix of an m-by-m block is a band of half-width m + 1."""
    perm = nested_dissection(m)            # DOF -> row-major index
    coo = mat.tocoo()
    rows, cols = perm[coo.row], perm[coo.col]
    lower = rows >= cols
    band = np.zeros((m + 2, m * m))
    band[rows[lower] - cols[lower], cols[lower]] = coo.data[lower]
    b = np.empty_like(rhs)
    b[perm] = rhs
    return scipy.linalg.solveh_banded(band, b, lower=True)[perm]


@pytest.mark.parametrize("n, eps", [(18, 1.0), (68, 0.25), (72, 0.25)])
def test_factor_solves_match_a_dense_solve_on_uneven_dissections(n, eps):
    """Blocks of 17, 67 and 71 nodes a side, not 2^p - 1: their dissection
    trees have fronts of several shapes at one depth, and leaves beside
    separators.  The reference is a dense-band Cholesky solve."""
    model = make_preset("layered", "sine-mix")
    p = eps_problem(model, eps, DirichletGrid(n))
    mat = add_scaled(p.operator, -p.sigma, p.mass_interior())
    lu = factorize(mat)
    rng = np.random.default_rng(n)
    for rhs in (rng.standard_normal(p.grid.ndof),
                rng.standard_normal((p.grid.ndof, 3))):
        ref = banded_solve(mat, rhs, n - 1)
        x = lu.solve(rhs)
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))


def frame(block, m):
    """The nodes of an m-by-m block around ``block`` (first row, first
    column, rows, columns), row-major: the row above and the row below,
    each with both corners, then the column to the left and the one to the
    right."""
    r0, c0, rows, cols = (int(v) for v in block)
    across = range(c0 - 1, c0 + cols + 1)
    nodes = ([(r0 - 1, c) for c in across] + [(r0 + rows, c) for c in across]
             + [(r, c0 - 1) for r in range(r0, r0 + rows)]
             + [(r, c0 + cols) for r in range(r0, r0 + rows)])
    return [r * m + c for r, c in nodes if 0 <= r < m and 0 <= c < m]


def test_grids_of_one_size_share_the_one_interior_pattern():
    first, second = DirichletGrid(20), DirichletGrid(20)
    assert first.pattern is second.pattern
    assert first.pattern is interior_pattern(19)
    assert DirichletGrid(21).pattern is not first.pattern


def test_threads_that_build_one_pattern_at_once_get_one_object(monkeypatch):
    """Both threads build the pattern of a fresh block size (they meet at a
    barrier inside the build), and both get the one object that is kept:
    the factor tells a matrix on the pattern by the memory it views."""
    monkeypatch.setattr(homlab.grids, "_INTERIOR_PATTERNS", {})
    barrier = threading.Barrier(2, timeout=10.0)
    order = homlab.grids.nested_dissection

    def meeting(m):
        barrier.wait()
        return order(m)

    monkeypatch.setattr(homlab.grids, "nested_dissection", meeting)
    with ThreadPoolExecutor(max_workers=2) as pool:
        built = list(pool.map(interior_pattern, [23, 23]))
    assert built[0] is built[1]
    assert built[0] is interior_pattern(23)


@pytest.mark.parametrize("m", [5, 17, 33, 67, 71])
def test_fronts_hold_their_own_and_ring_couplings(m):
    """Filled through the analysis's entry maps from a random symmetric
    matrix A on the pattern, every front is [[A[own, own], 0], [A[own,
    ring]^T, 0]], zero elsewhere, with ``own`` its DOF range and ``ring``
    the frame around its block from the dissection's geometry; every child
    ring DOF sits where ``to_parent`` says in its parent's front.  Blocks
    not of size 2^p - 1 give fronts of several shapes at one depth, and
    leaves beside separators."""
    n = m * m
    pattern = interior_pattern(m)
    indptr, indices = pattern.indptr, pattern.indices
    rng = np.random.default_rng(m)
    upper = sp.triu(sp.csr_matrix((rng.standard_normal(indices.size),
                                   indices, indptr), shape=(n, n)))
    mat = (upper + sp.triu(upper, 1).T).tocsr()
    mat.sort_indices()
    assert np.array_equal(mat.indices, indices)
    dof = np.argsort(nested_dissection(m))      # row-major index -> DOF
    tree = dissection_tree(m)
    sym = homlab.cholesky._symbolic(m)
    levels = sym.levels[::-1]                   # root first, as the tree
    fronts = []                                 # each front's DOF, by depth
    for node, lv in zip(tree, levels):
        stack = np.zeros(lv.nf * lv.t * lv.t)
        stack[lv.entry_pos] = mat.data[lv.entry_slot]
        stack = stack.reshape(lv.nf, lv.t, lv.t)
        fronts.append([])
        for f in range(lv.nf):
            size = int(node.own[f, 2] * node.own[f, 3])
            own = np.arange(node.start[f], node.start[f] + size)
            ring = dof[frame(node.block[f], m)]
            rows = mat[own]
            want = np.zeros((lv.t, lv.t))
            want[:size, :size] = rows[:, own].toarray()
            want[lv.s:lv.s + ring.size, :size] = rows[:, ring].toarray().T
            assert np.array_equal(stack[f], want)
            assert np.array_equal(lv.ring[f, :ring.size], sym.slot[ring])
            fronts[-1].append(list(own) + [-1] * (lv.s - size) + list(ring))
    for d in range(1, len(tree)):
        parent_t = levels[d - 1].t
        for f, front in enumerate(fronts[d]):
            parent = fronts[d - 1][tree[d - 1].split[f // 2]]
            ring = front[levels[d].s:]
            want = [parent.index(c) for c in ring]
            want += [parent_t - 1] * (levels[d].r - len(ring))
            assert levels[d].to_parent[f].tolist() == want


def test_factor_matches_superlu_on_an_eps_pencil():
    """At n = 256 the factor solves as SuperLU's LU of the same matrix did,
    to 1e-12 relative."""
    from scipy.sparse.linalg import splu

    p = eps_problem(make_preset("smooth-iso", "sine1"), 1 / 16,
                   DirichletGrid(256))
    mat = add_scaled(p.operator, -p.sigma, p.mass_interior())
    rhs = np.random.default_rng(256).standard_normal(p.grid.ndof)
    ref = splu(mat.tocsc(), permc_spec="NATURAL").solve(rhs)
    assert (np.max(np.abs(factorize(mat).solve(rhs) - ref))
            <= 1e-12 * np.max(np.abs(ref)))


def _far_coupled(grid):
    """The Laplacian with a coupling between the first and the last DOF,
    outside the 9-point pattern."""
    op = laplacian(grid).tolil()
    far = int(np.flatnonzero(grid.interior == grid.interior.max())[0])
    near = int(np.flatnonzero(grid.interior == grid.interior.min())[0])
    op[near, far] = op[far, near] = -1e-3
    return op.tocsr()


@pytest.mark.parametrize("make", [
    _far_coupled,
    lambda grid: sp.diags(np.linspace(1.0, 2.0, grid.ndof)).tocsr(),
    lambda grid: laplacian(grid) - (-3.0) * assemble_mass(grid),
], ids=["outside-the-pattern", "diagonal", "scipy-sum"])
def test_factorize_rejects_an_entry_outside_the_pattern(make):
    """factorize takes only matrices on the grid's own pattern arrays: one
    with a coupling outside the pattern, a diagonal one and a scipy sum (on
    index arrays of their own) are refused, naming the way to build a sum
    that is taken."""
    mat = make(DirichletGrid(10))
    with pytest.raises(UsageError, match="add_scaled"):
        factorize(mat)


def test_two_threads_solve_as_one_after_the_other():
    """Two factors solving on two threads at once give the bits they give
    one after the other."""
    factors, rhs = [], []
    for eps in (0.5, 0.25):
        p = eps_problem(make_preset("smooth-iso", "sine1"), eps,
                       DirichletGrid(64))
        factors.append(factorize(add_scaled(p.operator, -p.sigma,
                                            p.mass_interior())))
        rhs.append(np.random.default_rng(64).standard_normal(
            (p.grid.ndof, 2)))

    def solve(i):
        return [factors[i].solve(b) for b in (rhs[i][:, 0], rhs[i])]

    serial = [solve(0), solve(1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(solve, [0, 1]))
    for one, other in zip(serial, threaded):
        for x, y in zip(one, other):
            assert np.array_equal(x, y)


def test_threads_factoring_one_grid_size_share_one_analysis():
    """Four threads factor at once, with the analysis of their grid size
    not yet cached and the interpreter switching threads often: the
    analysis is made once, and every solve has the bits of a serial one."""
    d = DiffusionProblem(make_preset("smooth-iso", "sine1"), 0.5,
                         DirichletGrid(33))
    p = EpsProblem(d)
    mats = [add_scaled(p.operator, -p.sigma, p.mass_interior()), d.stiffness]
    rhs = np.random.default_rng(33).standard_normal(p.grid.ndof)
    serial = [factorize(mat).solve(rhs) for mat in mats]
    homlab.cholesky._symbolic.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            solved = list(pool.map(lambda i: factorize(mats[i % 2]).solve(rhs),
                                   range(8), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert homlab.cholesky._symbolic.cache_info().misses == 1
    for i, x in enumerate(solved):
        assert np.array_equal(x, serial[i % 2])


def test_factorize_rejects_exactly_singular_operator():
    grid = DirichletGrid(8)
    flat = assemble_stiffness(grid, np.zeros((grid.ncells, 4, 2, 2)))
    with pytest.raises(SolverError) as exc:
        factorize(flat)
    assert "singular" in str(exc.value)


def test_deflated_cg_keeps_zero_mean():
    grid = PeriodicGrid(16)
    k = laplacian(grid)
    coords = grid.node_coords()
    rhs_field = np.sin(2 * np.pi * coords[:, 0])
    m = assemble_mass(grid)
    rhs = m @ rhs_field
    rhs -= rhs.mean()
    x = cg_solve(k, rhs, deflate_constants=True, tol=1e-11)
    assert abs(x.mean()) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 17])
def test_fft_laplace_solve_inverts_the_assembled_laplacian(n):
    grid = PeriodicGrid(n)
    lap = laplacian(grid)
    r = np.random.default_rng(n).standard_normal(grid.nnodes)
    u = torus_laplace_solver(grid)(r)
    assert np.max(np.abs(lap @ u - (r - r.mean()))) < 1e-12
    assert abs(u.mean()) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 17, 64])
def test_fft_laplace_symbol_has_the_assembled_stencils_bits(n):
    """The FFT solve inverts the symbol of the assembled Laplacian itself:
    its kernel at offset d is row 0's coupling to node -d, bit for bit, so
    the solve equals one by that kernel's FFT."""
    grid = PeriodicGrid(n)
    row = laplacian(grid)[[0]].toarray().reshape(n, n)
    kernel = np.roll(row[::-1, ::-1], 1, axis=(0, 1))    # row[-d mod n]
    symbol = np.fft.rfft2(kernel).real
    symbol[0, 0] = 1.0
    inverse = 1.0 / symbol
    inverse[0, 0] = 0.0
    r = np.random.default_rng(n).standard_normal((n, n))
    ref = np.fft.irfft2(np.fft.rfft2(r) * inverse, s=(n, n)).ravel()
    assert torus_laplace_solver(grid)(r.ravel()).tobytes() == ref.tobytes()


COO_ROUTE_SIZES = [2, 3, 4, 6, 16, 64]


@pytest.mark.parametrize(
    "grid_type, n",
    [(PeriodicGrid, n) for n in COO_ROUTE_SIZES]
    + [(DirichletGrid, n) for n in COO_ROUTE_SIZES],
    ids=[str(n) for n in COO_ROUTE_SIZES]
    + [f"dirichlet-{n}" for n in COO_ROUTE_SIZES])
def test_periodic_assembly_equals_the_coo_route(grid_type, n):
    """The stiffness, mass and weighted mass, built from the 9-point
    stencil, are the COO oracle's matrices for the same element arrays:
    randomly scaled random (non-symmetric) stiffness elements and the
    read-only broadcast mass element included.  On the torus the oracle is
    the full matrix, on a Dirichlet grid its interior block.  ``data``,
    ``indices`` and ``indptr`` are equal bit for bit, except on the 2x2
    torus, where offsets -1 and +1 name the same node: each column holds
    one entry, the sum of up to four terms in another order."""
    grid = grid_type(n)
    periodic = grid.periodic
    rng = np.random.default_rng(n)
    pairs = []
    for preset in ("layered", "smooth-iso"):
        a_q = quad_samples(grid, make_preset(preset).a_eval)
        pairs.append((assemble_stiffness(grid, a_q),
                      stiffness_elements(grid, a_q)))
    scaled = stiffness_elements(
        grid, rng.standard_normal((grid.ncells, len(QUAD_W), 2, 2)))
    assert not np.array_equal(scaled, scaled.transpose(1, 0, 2))
    scaled *= rng.uniform(0.5, 2.0, grid.ncells)
    pairs.append((_scatter(grid, scaled), scaled))
    mass_elem = oracle_elements(grid)
    assert not mass_elem.flags.writeable
    pairs.append((assemble_mass(grid), mass_elem))
    pairs.append((_scatter(grid, mass_elem), mass_elem))
    w_q = quad_samples(grid, make_preset("identity", "sine-mix").w_eval)
    pairs.append((assemble_weighted_mass(grid, w_q),
                  weighted_mass_elements(grid, w_q)))
    for got, elem in pairs:
        ref = oracle_matrix(grid, elem, full=periodic)
        assert got.has_canonical_format and ref.has_canonical_format
        if periodic:
            assert got.nnz == min(9, n * n) * grid.nnodes
        for name in ("indptr", "indices"):
            assert getattr(got, name).dtype == np.int32
            assert np.array_equal(getattr(got, name), getattr(ref, name))
        if periodic and n == 2:
            assert np.max(np.abs(got.data - ref.data)) <= (
                1e-15 * np.max(np.abs(ref.data)))
        else:
            assert got.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("xi", [None, gauss_rule(3)[0]], ids=["assembly", "order3"])
def test_cell_kernels_exact_on_a_bilinear_field(xi):
    c0, c1, c2, c3 = 0.3, -1.7, 2.2, 0.9
    grid = DirichletGrid(7)
    gf = interpolate(grid, lambda x, y: c0 + c1 * x + c2 * y + c3 * x * y)
    pts = quad_points(grid, QUAD_XI if xi is None else xi)
    x, y = pts[..., 0], pts[..., 1]
    vals = cell_values(grid, gf.values, xi)
    grads = cell_gradients(grid, gf.values, xi)
    assert np.max(np.abs(vals - (c0 + c1 * x + c2 * y + c3 * x * y))) < 1e-13
    assert np.max(np.abs(grads[..., 0] - (c1 + c3 * y))) < 1e-13
    assert np.max(np.abs(grads[..., 1] - (c2 + c3 * x))) < 1e-13


def test_quadrature_kernels_match_einsum_references_on_the_torus():
    grid = PeriodicGrid(12)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.nnodes)
    corner = u[grid.conn]
    for xi, wq in (gauss_rule(2), gauss_rule(3)):
        ref_g = np.einsum("ca,qai->cqi", corner, shape_gradients(xi)) / grid.h
        ref_v = np.einsum("ca,qa->cq", corner, shape_values(xi))
        g = cell_gradients(grid, u, xi)
        v = cell_values(grid, u, xi)
        assert np.max(np.abs(g - ref_g)) <= 1e-14 * np.max(np.abs(ref_g))
        assert np.max(np.abs(v - ref_v)) <= 1e-14 * np.max(np.abs(ref_v))

        a = rng.standard_normal(g.shape + (2,))
        ag = apply_tensor(a, g)
        assert np.max(np.abs(ag - np.einsum("cqij,cqj->cqi", a, g))) <= (
            1e-14 * np.max(np.abs(ag)))
        ref_int = grid.h ** 2 * np.einsum("q,cqij->ij", wq, a)
        assert np.max(np.abs(integrate(grid, a, wq) - ref_int)) <= (
            1e-13 * np.max(np.abs(ref_int)))
        assert float(integrate(grid, v * v, wq)) == pytest.approx(
            grid.h ** 2 * np.einsum("q,cq,cq->", wq, v, v), rel=1e-13)


@pytest.mark.parametrize("grid", [DirichletGrid(24), PeriodicGrid(16)],
                         ids=["dirichlet", "torus"])
@pytest.mark.parametrize("a_preset", ["layered", "smooth-iso", "random"])
def test_element_kernels_match_the_einsum_contractions(grid, a_preset):
    """The element matrices and loads of the assembly, one GEMM each with a
    precomputed kernel, agree with the einsum contractions of weights,
    shape functions and samples to 1e-14 of their largest entry (a load:
    of the largest sum of |element entries| at a node).  The random
    samples make A non-symmetric, so a swapped index shows."""
    rng = np.random.default_rng(5)
    if a_preset == "random":
        a_q = rng.standard_normal((grid.ncells, len(QUAD_W), 2, 2))
        w_q = rng.standard_normal((grid.ncells, len(QUAD_W)))
    else:
        model = make_preset(a_preset, "sine-mix")
        a_q = quad_samples(grid, lambda x1, x2: model.a_eval(4 * x1, 4 * x2))
        w_q = quad_samples(grid, lambda x1, x2: model.w_eval(4 * x1, 4 * x2))
    pairs = [
        (stiffness_elements(grid, a_q), oracle_elements(grid, a=a_q)),
        (weighted_mass_elements(grid, w_q), oracle_elements(grid, w=w_q)),
    ]
    for got, ref in pairs:
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    n_q, g_q = shape_values(QUAD_XI), shape_gradients(QUAD_XI)
    loads = [(load_from_quad_values(grid, w_q),
              grid.h ** 2 * np.einsum("q,cq,qa->ca", QUAD_W, w_q, n_q))]
    for j in 0, 1:
        loads.append((flux_load_from_quad_values(grid, a_q[..., :, j]),
                      grid.h * np.einsum("q,cqi,qai->ca", QUAD_W,
                                         a_q[..., :, j], g_q)))
    for got, elem in loads:
        def scatter(e):
            return np.bincount(grid.conn.ravel(), weights=e.ravel(),
                               minlength=grid.nnodes)
        assert np.max(np.abs(got - scatter(elem))) <= (
            1e-14 * np.max(scatter(np.abs(elem))))


def old_quad_points(grid, xi):
    """The full coordinate arrays that the sampler's axes replace: each
    cell's origin plus xi h, per cell and point, (ncells, nq, 2)."""
    ix, iy = np.meshgrid(np.arange(grid.n), np.arange(grid.n), indexing="xy")
    origin = np.column_stack([ix.ravel() * grid.h, iy.ravel() * grid.h])
    return origin[:, None, :] + xi[None, :, :] * grid.h


# Every preset, a non-separable field, and a matrix field shaped like its
# first argument only.
SCALAR_FIELDS = (
    [make_preset("identity", w).w_eval for w in W_PRESETS]
    + [make_preset("identity", "zero", f).f_eval for f in F_PRESETS]
    + [lambda y1, y2: np.sin(y1 * y2)])
SAMPLED_FIELDS = (
    [make_preset(a).a_eval for a in A_PRESETS]
    + [constant_matrix(np.array([[2.0, 0.3], [0.3, 1.0]]))] + SCALAR_FIELDS)


@pytest.mark.parametrize("eps", [1.0, 1.0 / 8.0], ids=["eps1", "eps1/8"])
@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("grid", [DirichletGrid(12), PeriodicGrid(12)],
                         ids=["dirichlet", "torus"])
def test_quad_samples_equal_the_full_coordinate_evaluation(grid, order, eps):
    """Sampling on the tensor-product axes gives the bits of evaluating
    the field at x / eps on the full per-point coordinate arrays."""
    xi, _ = gauss_rule(order)
    pts = old_quad_points(grid, xi)
    for field in SAMPLED_FIELDS:
        ref = np.ascontiguousarray(field(pts[..., 0] / eps, pts[..., 1] / eps))
        got = quad_samples(grid, lambda x1, x2: field(x1 / eps, x2 / eps), xi)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("grid", [DirichletGrid(12), PeriodicGrid(12)],
                         ids=["dirichlet", "torus"])
def test_interpolate_equals_the_node_coordinate_evaluation(grid):
    coords = grid.node_coords()
    for field in SCALAR_FIELDS:
        ref = np.asarray(field(coords[:, 0], coords[:, 1]), dtype=float)
        assert interpolate(grid, field).values.tobytes() == ref.tobytes()


@pytest.mark.parametrize("grid", [DirichletGrid(24), PeriodicGrid(16)],
                         ids=["dirichlet", "torus"])
def test_vector_scatter_equals_add_at(grid):
    """The load scatter sums in input order from zero, as ``np.add.at``
    does, so the two agree bit for bit."""
    elem = np.random.default_rng(11).standard_normal((grid.ncells, 4))
    ref = np.zeros(grid.nnodes)
    np.add.at(ref, grid.conn.ravel(), elem.ravel())
    assert _scatter_vector(grid, elem).tobytes() == ref.tobytes()


def test_integrate_rejects_weights_of_another_rule():
    grid = PeriodicGrid(4)
    xi3, _ = gauss_rule(3)
    _, wq2 = gauss_rule(2)
    # A field at the 9 points of the order-3 rule with the 4 order-2 weights:
    # the sum must raise rather than return a mis-weighted integral.
    a = np.ones((grid.ncells, xi3.shape[0], 2, 2))
    with pytest.raises(ValueError):
        integrate(grid, a, wq2)


def test_recovered_gradient_exact_on_affine_fields():
    grid = DirichletGrid(12)
    coords = grid.node_coords()
    gf = GridFunction(grid, coords[:, 0] + 2.0 * coords[:, 1])
    gx, gy = recover_gradient(gf)
    assert np.max(np.abs(gx.values - 1.0)) < 1e-12
    assert np.max(np.abs(gy.values - 2.0)) < 1e-12


def test_boundary_flux_of_bubble():
    # u = x(1-x)y(1-y): integral of |grad u|^2 over the four walls is 2/15.
    # One-sided normal differences converge at first order; values frozen.
    vals = {}
    for n in (64, 128):
        grid = DirichletGrid(n)
        c = grid.node_coords()
        gf = GridFunction(grid, c[:, 0] * (1 - c[:, 0]) * c[:, 1] * (1 - c[:, 1]))
        vals[n] = boundary_flux(gf)
    assert abs(vals[64] - 0.12914665) < 1e-7
    assert abs(vals[128] - 0.13124479) < 1e-7
    err64 = abs(vals[64] - 2.0 / 15.0)
    err128 = abs(vals[128] - 2.0 / 15.0)
    assert 1.7 < err64 / err128 < 2.3


# Error branches that no pipeline run reaches.

def laplace_pair(n):
    grid = DirichletGrid(n)
    return laplacian(grid), assemble_mass(grid)


def sum_across_patterns():
    grid = PeriodicGrid(4)  # each periodic matrix on its own index arrays
    add_scaled(laplacian(grid), 1.0, assemble_mass(grid))


def assemble_nan_diffusion():
    def a_eval(x1, x2):
        out = identity_a(x1, x2)
        out[x1 > 0.75] = np.nan  # cells are numbered row by row: cell 3 first
        return out

    grid = DirichletGrid(4)
    assemble_stiffness(grid, quad_samples(grid, a_eval))


def nan_samples(grid, cell):
    """Samples of a scalar field at the assembly rule, NaN in ``cell``."""
    vals = np.ones((grid.ncells, len(QUAD_W)))
    vals[cell, 2] = np.nan
    return vals


def assemble_nan_load():
    grid = DirichletGrid(4)
    load_from_quad_values(grid, nan_samples(grid, 5))


def assemble_nan_weight():
    grid = DirichletGrid(4)
    assemble_weighted_mass(grid, nan_samples(grid, 9))


def sample_a_flat_callable():
    # a callable written for flat coordinate arrays
    quad_samples(PeriodicGrid(4), lambda x1, x2: np.ravel(x1 + x2))


def sample_a_missized_callable():
    quad_samples(PeriodicGrid(4), lambda x1, x2: np.ones((3, 1, 1, 1)))


def interpolate_a_flat_callable():
    interpolate(PeriodicGrid(4), lambda x1, x2: np.ravel(x1 + x2))


def eigs_pencil_within_the_basis():
    k, m = laplace_pair(6)  # 25 interior DOF, the basis of k = 12
    shifted_eigs(k, m, 12, sigma=-1.0, tag="hom_prime")


def shift_checked_against_unshifted_operator():
    k, m = laplace_pair(8)
    spec = shifted_eigs(k, m, 3, sigma=-1.0)
    checked_spectrum(k, m, spec.eigenvalues + 5.0, spec.eigenvectors, 1e-8,
                     tag="hom")  # not k + 5 m


def flux_on_the_torus():
    grid = PeriodicGrid(4)
    boundary_flux(GridFunction(grid, np.zeros(grid.nnodes)))


def periodic_grid_of_one_cell():
    PeriodicGrid(1)


def dirichlet_grid_of_one_cell():
    DirichletGrid(1)


def grid_function_of_the_wrong_shape():
    GridFunction(DirichletGrid(4), np.zeros(16))  # 25 nodes


def sample_a_dirichlet_field():
    grid = DirichletGrid(4)
    sample_cell_field(GridFunction(grid, np.zeros(grid.nnodes)), grid, 0.3)


def spectrum_of_a_matrix_of_eigenvalues():
    Spectrum(eigenvalues=np.eye(2), eigenvectors=np.eye(2),
             residuals=np.zeros(2))


def spectrum_with_a_missing_eigenvector():
    Spectrum(eigenvalues=np.ones(3), eigenvectors=np.eye(3)[:, :2],
             residuals=np.zeros(3))


def orthonormalize_a_degenerate_basis():
    _orthonormalize(np.ones((5, 2)), sp.identity(5, format="csr"))


def check_descending_eigenvalues():
    op = sp.diags([1.0, 2.0, 3.0, 4.0]).tocsr()
    # exact pairs (residuals 0) of op, listed largest first
    checked_spectrum(op, sp.identity(4, format="csr"), np.array([3.0, 2.0]),
                     np.eye(4)[:, [2, 1]], 1e-8, tag="eps")


def eps_problem_on_the_torus():
    eps_problem(make_preset("identity"), 0.25, PeriodicGrid(64))


def homogenized_solve_on_the_torus():
    grid = PeriodicGrid(4)
    solve_homogenized(np.eye(2), 0.0, grid, np.zeros(grid.ndof))


def boundary_trace_on_the_torus():
    grid = PeriodicGrid(4)
    _boundary_abs_max(GridFunction(grid, np.zeros(grid.nnodes)))


def factorize_a_non_square_matrix():
    factorize(sp.csr_matrix((4, 9)))


def stages_for_an_unknown_stage():
    stages_for("cell", "sweep")


ERROR_CASES = [
    (sum_across_patterns, UsageError, "same DirichletGrid pattern"),
    (assemble_nan_diffusion, AssemblyError,
     "non-finite diffusion sample in cell 3$"),
    (assemble_nan_load, AssemblyError, "non-finite load sample in cell 5$"),
    (assemble_nan_weight, AssemblyError,
     "non-finite weight sample in cell 9$"),
    (sample_a_flat_callable, UsageError,
     r"returned shape \(64,\), which does not broadcast to the grid's "
     r"\(4, 4, 2, 2\)"),
    (sample_a_missized_callable, UsageError,
     r"returned shape \(3, 1, 1, 1\), which does not broadcast"),
    (interpolate_a_flat_callable, UsageError,
     r"returned shape \(16,\), which does not broadcast to the grid's "
     r"\(4, 4\) followed"),
    (eigs_pencil_within_the_basis, ConfigurationError,
     r"a 25-DOF pencil is not larger than the 25-vector Lanczos basis for "
     r"k=12 \(hom_prime\)$"),
    (shift_checked_against_unshifted_operator, SpectralError,
     r"residual .* \(hom, 49 DOF\)$"),
    (flux_on_the_torus, UsageError, "DirichletGrid"),
    (periodic_grid_of_one_cell, ValueError, "^PeriodicGrid needs n >= 2$"),
    (dirichlet_grid_of_one_cell, ValueError, "^DirichletGrid needs n >= 2$"),
    (grid_function_of_the_wrong_shape, ValueError,
     r"^GridFunction values shape \(16,\) does not match grid with 25 "
     r"nodes$"),
    (sample_a_dirichlet_field, UsageError,
     "^sample_cell_field needs a field on a PeriodicGrid$"),
    (spectrum_of_a_matrix_of_eigenvalues, SpectralError,
     "^eigenvalues must be a flat array$"),
    (spectrum_with_a_missing_eigenvector, SpectralError,
     "^eigenvector count does not match eigenvalues$"),
    (orthonormalize_a_degenerate_basis, SpectralError,
     "^eigenvector Gram matrix is not positive definite; the solver "
     "returned a degenerate basis$"),
    (check_descending_eigenvalues, SpectralError,
     r"^eigenvalues not returned in ascending order \(eps, 4 DOF\)$"),
    (eps_problem_on_the_torus, ConfigurationError,
     "^DiffusionProblem needs a Dirichlet grid$"),
    (homogenized_solve_on_the_torus, ConfigurationError,
     "^solve_homogenized needs a Dirichlet grid$"),
    (boundary_trace_on_the_torus, UsageError,
     "^boundary trace is only defined on a Dirichlet grid$"),
    (factorize_a_non_square_matrix, UsageError,
     r"^factorize needs the interior matrix of a Dirichlet grid, "
     r"\(m\^2, m\^2\); got shape \(4, 9\)$"),
    (stages_for_an_unknown_stage, ConfigurationError,
     "^unknown stage 'sweep'$"),
]


@pytest.mark.parametrize("call, error, match", ERROR_CASES,
                         ids=[case[0].__name__ for case in ERROR_CASES])
def test_error_branch_raises(call, error, match):
    with pytest.raises(error, match=match):
        call()
