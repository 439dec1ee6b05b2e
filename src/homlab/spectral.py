"""Generalized eigenvalue engine and spectral comparison tables.

Solves ``K v = lambda M v`` for the operators produced by
:mod:`homlab.domain`, with a dense LAPACK path for small problems and a
seeded shift-invert Lanczos path (ARPACK) above the cutoff.  The
shift-invert operator is one sparse LU factor of ``K - sigma M``
(:func:`homlab.fem.factorize`, minimum-degree ordering on ``A^T + A``).
A caller that also solves with that matrix passes its factor in and keeps
it; otherwise :func:`eigs` makes one and drops it when ARPACK returns.
Every returned
:class:`Spectrum` is re-orthonormalized in the mass inner product,
sign-fixed, and residual-checked; failures raise :class:`SpectralError`
rather than returning dubious pairs.  A spectrum shifted by a multiple of
the mass matrix (:func:`shift_spectrum`) reuses the eigenvectors and is
checked the same way.

Spectra are tagged by which operator they belong to; the pipeline shifts
each at the value shown, always strictly below the spectrum:

============== ============================================= ===================
tag            operator                                      shift ``sigma``
============== ============================================= ===================
``eps``        oscillatory diffusion plus scaled potential   :func:`eps_sigma_bound`
``eps_prime``  oscillatory diffusion alone                   ``0`` (SPD stiffness)
``hom``        effective diffusion plus effective potential  none: ``hom_prime`` + m
``hom_prime``  effective diffusion alone                     ``-m``, so the factor
                                                             is ``K + mM``; ``-1``
                                                             if the sign guard fails
============== ============================================= ===================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ConfigurationError, SpectralError
from .fem import QUAD_XI, SparseOperator, factorize
from .grids import GridFunction

__all__ = [
    "DENSE_CUTOFF",
    "K_MAX",
    "Spectrum",
    "eigs",
    "shift_spectrum",
    "eps_sigma_bound",
    "rayleigh_quadrature_defect",
    "minmax_probe",
    "first_eigenvalue_comparison",
    "FirstEigenvalueComparison",
    "eigenvalue_gap_rows",
    "cluster_projection",
    "ClusterProjection",
]

#: Problems at or below this many degrees of freedom go to dense LAPACK.
#: The crossover, measured on ``eps`` pencils with k=5 and one BLAS thread:
#: dense ``eigh`` wins at 225 DOF (0.007 s vs 0.011 s for shift-invert on a
#: sparse LU factor) and loses from 289 DOF on (0.012 s vs 0.011 s; 10.3 s
#: vs 0.054 s at 3969 DOF).  The dense path also serves tiny pencils, where
#: ``eigsh`` needs k < n.
DENSE_CUTOFF = 256

#: Hard cap on how many eigenpairs one call may request.
K_MAX = 64


@dataclass
class Spectrum:
    """Eigenpairs of one operator, ascending, M-orthonormal, sign-fixed.

    ``epsilon`` is carried for the oscillatory tags and ``None`` for the
    effective ones.  Eigenvectors are stored column-wise on the interior
    degrees of freedom; ``grid.extend`` turns one into a nodal field.
    """

    tag: str
    eigenvalues: np.ndarray  # (k,)
    eigenvectors: np.ndarray  # (ndof, k)
    residuals: np.ndarray  # (k,) relative residual per pair
    method: str  # "dense" | "arpack"
    epsilon: Optional[float] = None

    def __post_init__(self):
        if self.eigenvalues.ndim != 1:
            raise SpectralError("eigenvalues must be a flat array")
        if self.eigenvectors.shape[1] != self.eigenvalues.size:
            raise SpectralError("eigenvector count does not match eigenvalues")

    @property
    def k(self) -> int:
        return self.eigenvalues.size


def _orthonormalize(vecs: np.ndarray, mass: SparseOperator) -> np.ndarray:
    """Gram–Schmidt in the M inner product via Cholesky of the Gram matrix."""
    gram = vecs.T @ mass.dot(vecs)
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as err:
        raise SpectralError(
            "eigenvector Gram matrix is not positive definite; "
            "the solver returned a degenerate basis") from err
    return np.asarray(scipy.linalg.solve_triangular(
        chol, vecs.T, lower=True, trans="T")).T


def _fix_signs(vecs: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[idx, np.arange(vecs.shape[1])])
    signs[signs == 0.0] = 1.0
    return vecs * signs


def eigs(op: SparseOperator,
         mass: SparseOperator,
         k: int,
         seed: int = 0,
         tol: float = 1e-8,
         sigma: Optional[float] = None,
         tag: str = "eps",
         epsilon: Optional[float] = None,
         lu=None) -> Spectrum:
    """Lowest ``k`` eigenpairs of ``op v = lambda mass v``.

    Dense LAPACK below :data:`DENSE_CUTOFF` degrees of freedom; otherwise
    ARPACK shift-invert with a start vector drawn from ``seed``.  ``sigma``
    must lie strictly below the smallest eigenvalue — the default ``-1.0``
    is safe for coercive operators, and callers with scaled potentials
    should pass :func:`eps_sigma_bound`.  ``lu``, if given, is the caller's
    :func:`homlab.fem.factorize` factor of ``op - sigma * mass``; the ARPACK
    path uses it instead of making its own, and the dense path ignores it.
    ``tol`` is the relative residual each returned pair must meet.
    """
    n = op.shape[0]
    if k < 1:
        raise ConfigurationError(f"k must be at least 1, got {k}")
    if k > K_MAX:
        raise ConfigurationError(f"k={k} exceeds the supported cap {K_MAX}")
    if k >= n:
        raise ConfigurationError(
            f"k={k} eigenpairs requested from a {n}-DOF operator")

    if n <= DENSE_CUTOFF:
        lam, vecs = scipy.linalg.eigh(
            op.toarray(), mass.toarray(), subset_by_index=(0, k - 1))
        method = "dense"
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        shift = -1.0 if sigma is None else float(sigma)
        try:
            lam, vecs = _shift_invert(op, mass, k, shift, v0, lu)
        except Exception as err:  # ARPACK failures come in several flavors
            raise SpectralError(
                f"shift-invert eigensolve failed at sigma={shift:.6g}: {err}"
            ) from err
        order = np.argsort(lam)
        lam, vecs = lam[order], vecs[:, order]
        method = "arpack"

    vecs = _fix_signs(_orthonormalize(vecs, mass))
    return _checked_spectrum(op, mass, lam, vecs, tol, method, tag, epsilon)


def _shift_invert(op: SparseOperator, mass: SparseOperator, k: int,
                  shift: float, v0: np.ndarray, lu=None):
    """ARPACK on ``(op - shift mass)^-1 mass``; a factor made here dies on
    return."""
    if lu is None:
        lu = factorize(op.mat - shift * mass.mat)
    opinv = scipy.sparse.linalg.LinearOperator(op.shape, matvec=lu.solve,
                                               dtype=float)
    return scipy.sparse.linalg.eigsh(op.mat, k=k, M=mass.mat, sigma=shift,
                                     which="LM", v0=v0, OPinv=opinv)


def _checked_spectrum(op: SparseOperator, mass: SparseOperator,
                      lam: np.ndarray, vecs: np.ndarray, tol: float,
                      method: str, tag: str,
                      epsilon: Optional[float]) -> Spectrum:
    """Residual and order check every returned :class:`Spectrum` passes."""
    kv = op.dot(vecs)
    mv = mass.dot(vecs)
    res_abs = np.linalg.norm(kv - lam[None, :] * mv, axis=0)
    scale = np.maximum(np.abs(lam), 1e-30) * np.linalg.norm(mv, axis=0)
    residuals = res_abs / scale
    if np.any(residuals > tol):
        worst = int(np.argmax(residuals))
        raise SpectralError(
            f"eigenpair {worst + 1} residual {residuals[worst]:.3e} exceeds "
            f"tolerance {tol:.1e} ({method} path, {op.shape[0]} DOF)",
            residuals=residuals)
    if np.any(np.diff(lam) < -tol * np.maximum(np.abs(lam[:-1]), 1.0)):
        raise SpectralError("eigenvalues not returned in ascending order")
    return Spectrum(tag=tag, eigenvalues=lam, eigenvectors=vecs,
                    residuals=residuals, method=method, epsilon=epsilon)


def shift_spectrum(spectrum: Spectrum, shift: float,
                   op: SparseOperator, mass: SparseOperator,
                   tol: float = 1e-8, tag: str = "hom") -> Spectrum:
    """Spectrum of ``op``, which is ``spectrum``'s operator plus
    ``shift * mass``, without a second eigensolve.

    Adding a multiple of the mass matrix moves every eigenvalue by ``shift``
    and keeps every eigenvector, so the pairs are ``spectrum``'s with
    ``shift`` added, checked against ``op`` as :func:`eigs` checks its own.
    """
    return _checked_spectrum(op, mass, spectrum.eigenvalues + shift,
                             spectrum.eigenvectors, tol, spectrum.method,
                             tag, spectrum.epsilon)


def eps_sigma_bound(problem) -> float:
    """A shift strictly below the bottom of the oscillatory spectrum.

    ``problem`` is an :class:`homlab.domain.EpsProblem`.  The diffusion part
    is nonnegative, and the weighted mass is assembled from ``W`` at the
    quadrature points by the same positive-weight rule as the mass, so
    ``M_W - (min_q W_q) M`` is positive semidefinite.  Every eigenvalue is
    therefore at least ``(1/epsilon) min(0, min_q W_q)``, and the shift sits
    one below that.
    """
    eps = problem.epsilon
    pts = problem.grid.quad_points(QUAD_XI)
    wmin = float(np.min(problem.model.w_eval(pts[..., 0] / eps,
                                             pts[..., 1] / eps)))
    return min(0.0, wmin) / eps - 1.0


def rayleigh_quadrature_defect(problem, spectrum: Spectrum) -> np.ndarray:
    """Relative gap between each eigenvalue and its Rayleigh quotient
    recomputed by direct quadrature of the fields.

    Uses the assembly rule on the assembled coefficients, so this is a
    route-consistency probe (matrix algebra vs. field integration), not a
    discretization-error estimate; a finer rule would differ at O(h^2).
    ``problem`` is an :class:`homlab.domain.EpsProblem`, whose
    ``quadrature_energies`` does the integration.
    """
    grid = problem.grid
    integrals = problem.quadrature_energies(
        grid.extend(spectrum.eigenvectors[:, j]) for j in range(spectrum.k))
    defects = np.empty(spectrum.k)
    for j, (energy, mass) in enumerate(integrals):
        lam = spectrum.eigenvalues[j]
        defects[j] = abs(energy / mass - lam) / max(abs(lam), 1e-30)
    return defects


def minmax_probe(op: SparseOperator, mass: SparseOperator,
                 trials: int = 20, seed: int = 0) -> float:
    """Smallest Rayleigh quotient over random trial vectors.

    By the variational principle this can never undercut the true first
    eigenvalue; tests compare it against the solver's ``lambda_1``.
    """
    rng = np.random.default_rng(seed)
    n = op.shape[0]
    best = np.inf
    for _ in range(trials):
        v = rng.standard_normal(n)
        best = min(best, float((v @ op.dot(v)) / (v @ mass.dot(v))))
    return best


@dataclass
class FirstEigenvalueComparison:
    """First-eigenvalue bookkeeping for one scale.

    ``d_vs_eps_prime``  = |lambda_eps_1 - (lambda_eps_prime_1 + m)|
    ``d_vs_hom_prime``  = |lambda_eps_1 - (lambda_hom_prime_1 + m)|

    Both shrink like the scale itself when homogenization holds; the second
    one feeds the ``thm21_d8`` rate row.
    """

    epsilon: float
    lambda_eps_1: float
    lambda_eps_prime_1: float
    lambda_hom_prime_1: float
    m_w_chi_w: float
    d_vs_eps_prime: float
    d_vs_hom_prime: float


def first_eigenvalue_comparison(epsilon: float,
                                lambda_eps_1: float,
                                lambda_eps_prime_1: float,
                                lambda_hom_prime_1: float,
                                m_w_chi_w: float) -> FirstEigenvalueComparison:
    m = float(m_w_chi_w)
    return FirstEigenvalueComparison(
        epsilon=float(epsilon),
        lambda_eps_1=float(lambda_eps_1),
        lambda_eps_prime_1=float(lambda_eps_prime_1),
        lambda_hom_prime_1=float(lambda_hom_prime_1),
        m_w_chi_w=m,
        d_vs_eps_prime=abs(lambda_eps_1 - (lambda_eps_prime_1 + m)),
        d_vs_hom_prime=abs(lambda_eps_1 - (lambda_hom_prime_1 + m)),
    )


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
    coefficients: np.ndarray  # <phi_k, f>_M per member
    truncated: bool
    s_norm: float  # ||s||_M
    f_norm: float  # ||f||_M
    grad_constant: float  # ||grad s|| / (sqrt(lam) ||f||)
    residual_constant: float  # ||r||_M / (sqrt(lam) ||f||)


def cluster_projection(spectrum: Spectrum,
                       lam: float,
                       f: np.ndarray,
                       op: SparseOperator,
                       mass: SparseOperator) -> ClusterProjection:
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
    coeffs = []
    for j in np.flatnonzero(in_window):
        phi = spectrum.eigenvectors[:, j]
        c = float(phi @ mf)
        coeffs.append(c)
        s += c * phi
        r += (float(spectrum.eigenvalues[j]) - lam) * c * phi
    s_norm = float(np.sqrt(s @ mass.dot(s)))
    r_norm = float(np.sqrt(r @ mass.dot(r)))
    grad_energy = float(np.sqrt(max(s @ op.dot(s), 0.0)))
    scale = root * f_norm
    return ClusterProjection(
        lam=float(lam), members=members, s=s, r=r,
        coefficients=np.array(coeffs), truncated=truncated,
        s_norm=s_norm, f_norm=f_norm,
        grad_constant=grad_energy / scale,
        residual_constant=r_norm / scale)
