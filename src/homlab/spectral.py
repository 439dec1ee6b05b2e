"""Generalized eigenvalue engine and spectral comparison tables.

Solves ``K v = lambda M v`` for the operators produced by
:mod:`homlab.domain` by one route: a seeded thick-restart Lanczos
(:func:`_lanczos`) in the mass inner product on ``(K - sigma M)^-1 M``,
which stops as soon as every wanted pair meets a tenth of the residual
tolerance; its work is the factor's solves, sparse products and numpy BLAS
calls.  Nothing here factors a matrix: the shift-invert operator is the
caller's Cholesky factor of ``K - sigma M`` (:func:`homlab.fem.factorize`),
the one the pipeline's operator task made and also solves with; that a
Cholesky factor exists at all certifies the shift below the spectrum.
Every returned :class:`Spectrum` passes one check,
:func:`checked_spectrum`: residuals and order, with failures raising
:class:`SpectralError`, naming the operator's tag and scale, rather than
returning dubious pairs.  :func:`eigs` re-orthonormalizes its pairs in the
mass inner product before the check and sets no sign: every reader of an
eigenvector is quadratic in it or reads ``<phi, f>_M phi``.  Pairs known in
closed form (``homlab.domain.effective_eigenpairs``) go through the same
check against the assembled matrices.  Nothing here reads a problem or its
coefficients: the shift below an oscillatory spectrum is
``homlab.domain.EpsProblem.sigma``.

Eigensolves run on the pipeline's pool threads, several at a time.  The
two Gram-Schmidt products of a Lanczos step, each a matrix times a vector,
are ``np.dot``, not ``@``: numpy's ``matmul`` keeps the GIL through a
single matrix-vector product, while ``np.dot`` releases it and gives the
same bits.  Inner products of two vectors keep ``@``, since at these sizes
``np.dot`` does not make them overlap.  The residual check
(:func:`_relative_residuals`) works in place on blocks of columns that
fit :data:`_RESIDUAL_BYTES`, so its temporaries stay small beside the
Lanczos basis while tasks run side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.sparse as sp

from .config import K_MAX
from .errors import ConfigurationError, SpectralError

__all__ = [
    "Spectrum",
    "eigs",
    "checked_spectrum",
    "first_eigenvalue_comparison",
    "eigenvalue_gap_rows",
    "cluster_projection",
    "ClusterProjection",
]

#: Thick restarts :func:`_lanczos` makes before it gives up; the pipeline's
#: pencils took 2 or 3 (measured at k = 5, 32 and 64).
MAX_RESTARTS = 100
#: Lanczos breakdown: the part of a solve's result left after
#: orthogonalization is at most this fraction of it, so the basis spans an
#: invariant subspace to working precision.
_BREAKDOWN = 1e-12
#: Basis columns recombined at a time on a thick restart, so the restart
#: needs a (keep x chunk) temporary rather than a second basis.
_RESTART_CHUNK = 4096
#: Bytes of one (n x width) block of the residual check, which holds three
#: such blocks rather than (n x k) temporaries.  The width is at least 2
#: columns (or k): 8 on a 128-cell domain grid (16129 DOF), 2 from 256 up.
_RESIDUAL_BYTES = 1 << 20


@dataclass
class Spectrum:
    """Eigenpairs of one operator, ascending and M-orthonormal, with no
    sign convention.

    Eigenvectors are stored column-wise on the interior degrees of freedom;
    ``grid.extend`` turns one into a nodal field.  They are ``None`` on a
    spectrum whose vectors no reader needs once the pairs have passed
    :func:`checked_spectrum`: the pipeline keeps only the eigenvalues,
    residuals and ``solves`` of each ``eps_prime`` spectrum.
    """

    eigenvalues: np.ndarray  # (k,)
    eigenvectors: Optional[np.ndarray]  # (ndof, k), or None once dropped
    residuals: np.ndarray  # (k,) relative residual per pair
    solves: int = 0  # shift-invert solves made; 0 without an eigensolve

    def __post_init__(self):
        if self.eigenvalues.ndim != 1:
            raise SpectralError("eigenvalues must be a flat array")
        if (self.eigenvectors is not None
                and self.eigenvectors.shape[1] != self.eigenvalues.size):
            raise SpectralError("eigenvector count does not match eigenvalues")

    @property
    def k(self) -> int:
        return self.eigenvalues.size


def _orthonormalize(vecs: np.ndarray, mass: sp.csr_matrix) -> np.ndarray:
    """Gram–Schmidt in the M inner product via Cholesky of the Gram matrix."""
    gram = vecs.T @ mass.dot(vecs)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as err:
        raise SpectralError(
            "eigenvector Gram matrix is not positive definite; "
            "the solver returned a degenerate basis") from err
    # gram = L L^T, so V L^-T is M-orthonormal: its transpose solves L X = V^T
    return np.linalg.solve(chol, vecs.T).T


def eigs(op: sp.csr_matrix,
         mass: sp.csr_matrix,
         k: int,
         seed: int = 0,
         tol: float = 1e-8,
         *,
         sigma: float,
         tag: str = "eps",
         epsilon: Optional[float] = None,
         lu) -> Spectrum:
    """Lowest ``k`` eigenpairs of ``op v = lambda mass v``.

    Shift-invert Lanczos (:func:`_lanczos`) with a start vector drawn from
    ``seed``.  ``sigma`` is required and must lie strictly below the
    smallest eigenvalue: the iteration finds the eigenvalues nearest to it,
    so a shift above lambda_1 returns wrong pairs that still pass the
    residual check; an oscillatory operator's is its problem's
    ``EpsProblem.sigma``.  ``lu`` is the caller's
    :func:`homlab.fem.factorize` factor of ``op - sigma * mass``, the
    shift-invert operator.  ``tol`` is the relative residual each returned
    pair must meet; the iteration runs until every pair meets a tenth of
    it.  ``tag`` and ``epsilon`` name the operator in errors.  The pencil
    must have more degrees of freedom than the Lanczos basis
    (:func:`_basis_size`).
    """
    n = op.shape[0]
    if k < 1:
        raise ConfigurationError(f"k must be at least 1, got {k}")
    if k > K_MAX:
        raise ConfigurationError(f"k={k} exceeds the supported cap {K_MAX}")
    ncv = _basis_size(k)
    if n <= ncv:
        raise ConfigurationError(
            f"a {n}-DOF pencil is not larger than the {ncv}-vector Lanczos "
            f"basis for k={k} ({_operator_name(tag, epsilon)})")

    v0 = np.random.default_rng(seed).standard_normal(n)
    lam, vecs, solves = _lanczos(op, mass, k, float(sigma), v0, lu,
                                 tol / 10.0, _operator_name(tag, epsilon))
    vecs = _orthonormalize(vecs, mass)
    return checked_spectrum(op, mass, lam, vecs, tol, tag=tag,
                            epsilon=epsilon, solves=solves)


def _basis_size(k: int) -> int:
    """Vectors in :func:`_lanczos`'s basis for ``k`` wanted pairs."""
    return max(2 * k + 1, 20)


def _operator_name(tag: str, epsilon: Optional[float]) -> str:
    return tag if epsilon is None else f"{tag} at epsilon={epsilon:g}"


def _lanczos(op: sp.csr_matrix, mass: sp.csr_matrix, k: int, shift: float,
             v0: np.ndarray, lu, rtol: float, name: str):
    """Thick-restart Lanczos for the ``k`` eigenvalues nearest ``shift``.

    Runs on ``C = (op - shift mass)^-1 mass``, which is self-adjoint in the
    mass inner product, with eigenvalues ``1 / (lambda - shift)``; a step is
    one ``lu.solve`` of ``mass v`` and two passes of classical Gram-Schmidt
    against the whole basis (Ericsson & Ruhe, Math. Comp. 1980).  Only the
    ``ncv + 1`` basis vectors are stored.  When the basis is full, the
    ``keep`` largest Ritz vectors and the last Lanczos vector start the next
    cycle (Wu & Simon, SIAM J. Matrix Anal. Appl. 2000).  Stops once every
    wanted pair has the cheap Ritz residual ``|beta s_last| <= rtol theta``
    and the relative residual that :func:`checked_spectrum` gates, checked
    on the formed Ritz vectors, is at most ``rtol`` too.  Returns the
    eigenvalues ascending, the eigenvectors as ``(n, k)`` columns and the
    number of solves made; a failure names the operator by ``name``.
    """
    n = op.shape[0]
    ncv = _basis_size(k)
    keep = k + (ncv - k) // 2
    basis = np.empty((ncv + 1, n))
    proj = np.zeros((ncv, ncv))  # basis^T mass C basis
    mv = mass.dot(v0)
    norm = np.sqrt(v0 @ mv)
    basis[0] = v0 / norm
    mv /= norm
    j = solves = restarts = 0
    gate = rtol

    def failure(what: str) -> SpectralError:
        return SpectralError(
            f"Lanczos {what} after {solves} solves ({name}, {n} DOF, "
            f"k={k}, sigma={shift:.6g})")

    while True:
        w = lu.solve(mv)
        solves += 1
        mw = mass.dot(w)
        size = np.sqrt(w @ mw)
        coef = np.zeros(j + 1)
        for _ in range(2):
            # np.dot, not @: matmul keeps the GIL on a matrix-vector product
            h = np.dot(basis[:j + 1], mw)
            w -= np.dot(h, basis[:j + 1])
            coef += h
            mw = mass.dot(w)
        beta = np.sqrt(max(float(w @ mw), 0.0))
        proj[:j + 1, j] = proj[j, :j + 1] = coef
        m = j + 1
        if m >= k:
            theta, s = np.linalg.eigh(proj[:m, :m])
            theta, s = theta[::-1], s[:, ::-1]
            estimate = np.max(np.abs(beta * s[-1, :k]) / theta[:k])
            if estimate <= gate:
                vecs = (s[:, :k].T @ basis[:m]).T
                lam = shift + 1.0 / theta[:k]
                worst = np.max(_relative_residuals(op, mass, lam, vecs))
                if worst <= rtol:
                    return lam, vecs, solves
                # The true residual runs ahead of the estimate by a nearly
                # steady factor: form the vectors again only once the
                # estimate has closed the gap just measured.
                gate = estimate * rtol / worst
        if beta <= _BREAKDOWN * size:
            raise failure("broke down on an invariant subspace")
        if m == ncv:
            restarts += 1
            if restarts > MAX_RESTARTS:
                raise failure(f"did not converge in {MAX_RESTARTS} restarts")
            # basis[:keep] = s_keep^T basis[:ncv], a column block at a time
            for start in range(0, n, _RESTART_CHUNK):
                cols = slice(start, start + _RESTART_CHUNK)
                basis[:keep, cols] = s[:, :keep].T @ basis[:ncv, cols]
            proj[:] = 0.0
            proj[:keep, :keep] = np.diag(theta[:keep])
            j = keep
        else:
            j = m
        basis[j] = w / beta
        mv = mw / beta


def _relative_residuals(op: sp.csr_matrix, mass: sp.csr_matrix,
                        lam: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``||op v - lambda mass v|| / (|lambda| ||mass v||)`` per pair.

    Runs on C-ordered blocks of ``min(k, max(2, _RESIDUAL_BYTES // 8n))``
    columns, formed in place.  The last block is as wide as the others,
    overlapping the one before if need be: numpy sums a one-column block
    pairwise but the columns of a wider one in row order, so a narrower
    block would change the bits.
    """
    k = lam.size
    width = min(k, max(2, _RESIDUAL_BYTES // (8 * op.shape[0])))
    out = np.empty(k)
    for start in range(0, k, width):
        cols = slice(min(start, k - width), min(start + width, k))
        block = np.ascontiguousarray(vecs[:, cols])
        mv = mass.dot(block)
        mv_norm = np.linalg.norm(mv, axis=0)
        mv *= lam[cols]
        res = op.dot(block)
        del block
        res -= mv
        del mv
        res *= res  # np.linalg.norm's square and sum, in place
        out[cols] = np.sqrt(np.add.reduce(res, axis=0)) / (
            np.maximum(np.abs(lam[cols]), 1e-30) * mv_norm)
    return out


def checked_spectrum(op: sp.csr_matrix, mass: sp.csr_matrix,
                     lam: np.ndarray, vecs: np.ndarray, tol: float, *,
                     tag: str, epsilon: Optional[float] = None,
                     solves: int = 0) -> Spectrum:
    """The pairs ``lam``, ``vecs`` of ``op v = lambda mass v`` as a
    :class:`Spectrum`, once each has a relative residual of at most ``tol``
    and the eigenvalues ascend; otherwise :class:`SpectralError`, naming
    the operator by ``tag`` and ``epsilon``.  ``solves`` is what it cost."""
    residuals = _relative_residuals(op, mass, lam, vecs)
    where = f"{_operator_name(tag, epsilon)}, {op.shape[0]} DOF"
    if np.any(residuals > tol):
        worst = int(np.argmax(residuals))
        raise SpectralError(
            f"eigenpair {worst + 1} residual {residuals[worst]:.3e} exceeds "
            f"tolerance {tol:.1e} ({where})", residuals=residuals)
    if np.any(np.diff(lam) < -tol * np.maximum(np.abs(lam[:-1]), 1.0)):
        raise SpectralError(
            f"eigenvalues not returned in ascending order ({where})")
    return Spectrum(eigenvalues=lam, eigenvectors=vecs, residuals=residuals,
                    solves=solves)


def first_eigenvalue_comparison(epsilon: float,
                                lambda_eps_1: float,
                                lambda_eps_prime_1: float,
                                lambda_hom_prime_1: float,
                                m_w_chi_w: float) -> dict:
    """First-eigenvalue record of one scale, as ``report.json`` keeps it.

    ``d7`` = |lambda_eps_1 - (lambda_eps_prime_1 + m)| and
    ``d8`` = |lambda_eps_1 - (lambda_hom_prime_1 + m)|.  Both shrink like
    the scale itself when homogenization holds; ``d8`` feeds the
    ``thm21_d8`` rate row.
    """
    m = float(m_w_chi_w)
    return {
        "epsilon": float(epsilon),
        "lambda_eps_1": float(lambda_eps_1),
        "lambda_eps_prime_1": float(lambda_eps_prime_1),
        "lambda_hom_prime_1": float(lambda_hom_prime_1),
        "d7": abs(lambda_eps_1 - (lambda_eps_prime_1 + m)),
        "d8": abs(lambda_eps_1 - (lambda_hom_prime_1 + m)),
    }


def eigenvalue_gap_rows(epsilon: float,
                        spec_eps: Spectrum,
                        spec_hom: Spectrum) -> List[dict]:
    """Per-index gap table between the oscillatory and effective spectra.

    ``normalized_const`` divides the gap by ``epsilon * lambda_eps^{3/2}``,
    the scaling under which the gaps are expected to sit on one level.
    """
    k = min(spec_eps.k, spec_hom.k)
    rows = []
    for j in range(k):
        lam_eps = float(spec_eps.eigenvalues[j])
        lam_0 = float(spec_hom.eigenvalues[j])
        gap = abs(lam_eps - lam_0)
        rows.append({
            "epsilon": float(epsilon),
            "k": j + 1,
            "lambda_eps": lam_eps,
            "lambda_0": lam_0,
            "gap": gap,
            "normalized_const": gap / (epsilon * max(lam_eps, 1e-30) ** 1.5),
        })
    return rows


@dataclass
class ClusterProjection:
    """Orthogonal projection onto a unit square-root window of eigenpairs.

    Members are the spectrum's indices with ``sqrt(lambda_k)`` in
    ``[sqrt(lam), sqrt(lam) + 1)``.  ``s`` is the projection of the probe
    function onto their span and ``r`` the offset-weighted residual field
    ``sum (lambda_k - lam) <phi_k, f> phi_k``; both live on the interior
    degrees of freedom like the eigenvectors.  ``truncated`` means the
    window may extend past the last computed eigenvalue, so the member list
    is only a lower inclusion.  The recorded constants normalize the energy
    of ``s`` and the mass norm of ``r`` by ``sqrt(lam) ||f||``.
    """

    lam: float
    members: List[int]  # 1-based indices into the spectrum
    s: np.ndarray
    r: np.ndarray
    truncated: bool
    s_norm: float  # ||s||_M
    f_norm: float  # ||f||_M
    grad_constant: float  # ||grad s|| / (sqrt(lam) ||f||)
    residual_constant: float  # ||r||_M / (sqrt(lam) ||f||)


def cluster_projection(spectrum: Spectrum,
                       lam: float,
                       f: np.ndarray,
                       op: sp.csr_matrix,
                       mass: sp.csr_matrix) -> ClusterProjection:
    """Project ``f`` (interior DOF vector) onto the unit-window cluster.

    ``op`` supplies the energy inner product for the gradient constant; the
    operator whose spectrum is projected is the natural choice.  Requires
    ``lam >= 1`` (the window convention presumes an order-one offset).
    """
    if lam < 1.0:
        raise ConfigurationError(
            f"cluster window needs lambda >= 1, got {lam}")
    f = np.asarray(f, dtype=float)
    root = np.sqrt(lam)
    roots = np.sqrt(np.maximum(spectrum.eigenvalues, 0.0))
    in_window = (roots >= root) & (roots < root + 1.0)
    members = [int(j) + 1 for j in np.flatnonzero(in_window)]
    truncated = bool(roots[-1] < root + 1.0)

    mf = mass.dot(f)
    f_norm = float(np.sqrt(f @ mf))
    if f_norm == 0.0:
        raise SpectralError("cluster probe function is identically zero")
    s = np.zeros_like(f)
    r = np.zeros_like(f)
    for j in np.flatnonzero(in_window):
        phi = spectrum.eigenvectors[:, j]
        c = float(phi @ mf)
        s += c * phi
        r += (float(spectrum.eigenvalues[j]) - lam) * c * phi
    s_norm = float(np.sqrt(s @ mass.dot(s)))
    r_norm = float(np.sqrt(r @ mass.dot(r)))
    grad_energy = float(np.sqrt(max(s @ op.dot(s), 0.0)))
    scale = root * f_norm
    return ClusterProjection(
        lam=float(lam), members=members, s=s, r=r, truncated=truncated,
        s_norm=s_norm, f_norm=f_norm,
        grad_constant=grad_energy / scale,
        residual_constant=r_norm / scale)
