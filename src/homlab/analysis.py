"""Corrector expansions, rate fitting, and boundary-flux diagnostics.

The measurement layer: everything here consumes solved fields from
:mod:`homlab.domain` / :mod:`homlab.spectral` and produces numbers for the
report tables — the corrected difference between the oscillatory and
effective solutions, log-log slope fits over the scale sweep, boundary-flux
ratios for eigenfunctions, and the near-boundary Jacobian probe of the
corrector map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .domain import DirichletCorrectors, EpsProblem
from .errors import InsufficientDataError, UsageError
from .fem import boundary_flux, cell_values, h1_seminorm, l2_norm, recover_gradient
from .grids import GridFunction, interpolate
from .spectral import Spectrum

__all__ = [
    "CorrectorExpansion",
    "build_expansion",
    "sample_cell_field",
    "RateReport",
    "rate_fit",
    "FluxRecord",
    "flux_table",
    "jacobian_check",
]


@dataclass
class CorrectorExpansion:
    """First-order corrected difference  w = u_eps - u_0 - correction.

    The correction consists of the boundary-adapted corrector contraction
    with the recovered gradient of ``u_0`` plus the scaled cell-potential
    term.  ``w`` vanishes on the boundary because each term does.
    """

    w: GridFunction
    h1_w: float
    l2_w: float
    h1_plain: float  # ||u_eps - u_0||_H1, for the "correction helps" check
    l2_plain: float


def sample_cell_field(cell_gf: GridFunction, grid, epsilon: float) -> GridFunction:
    """Sample a periodic cell field at ``x / epsilon`` on domain-grid nodes:
    its bilinear interpolant, through :func:`homlab.grids.interpolate` on
    the node axes, with floor, wrap and fraction taken per axis."""
    if not cell_gf.grid.periodic:
        raise UsageError("sample_cell_field needs a field on a PeriodicGrid")
    n = cell_gf.grid.n
    v = cell_gf.values.reshape(n, n)  # v[iy, ix]

    def bilinear(x1, x2):
        s, t = x1 / epsilon * n, x2 / epsilon * n
        j1, j2 = np.floor(s).astype(np.int64), np.floor(t).astype(np.int64)
        f1, f2 = s - j1, t - j2
        j1, j2 = j1 % n, j2 % n
        k1, k2 = (j1 + 1) % n, (j2 + 1) % n
        return ((1 - f1) * (1 - f2) * v[j2, j1] + f1 * (1 - f2) * v[j2, k1]
                + f1 * f2 * v[k2, k1] + (1 - f1) * f2 * v[k2, j1])

    return interpolate(grid, bilinear)


#: Largest boundary value the corrected difference may carry: every term of
#: it vanishes on the wall, so anything above round-off is a wrong input.
TRACE_TOL = 1e-12


def build_expansion(u_eps: GridFunction,
                    u_0: GridFunction,
                    correctors: DirichletCorrectors,
                    chi_w_sampled: GridFunction,
                    epsilon: float) -> CorrectorExpansion:
    """Assemble the corrected difference and both error norms.

    ``chi_w_sampled`` must already be the cell potential corrector sampled at
    ``x / epsilon`` on the same grid (:func:`sample_cell_field`); pass a
    zero field when the model has no potential.
    """
    grid = u_eps.grid
    for other in (u_0, chi_w_sampled, *correctors.phi):
        if other.grid is not grid and (other.grid.n != grid.n
                                       or other.grid.periodic != grid.periodic):
            raise UsageError("expansion fields must share one domain grid")
    gx, gy = recover_gradient(u_0)
    corrector_term = (correctors.deviation[0].values * gx.values
                      + correctors.deviation[1].values * gy.values)
    potential_term = epsilon * chi_w_sampled.values * u_0.values
    w_vals = u_eps.values - u_0.values - corrector_term - potential_term
    w = GridFunction(grid, w_vals)

    trace = _boundary_abs_max(w)
    if trace > TRACE_TOL:
        raise UsageError(
            f"corrected difference has nonzero boundary trace {trace:.3e}; "
            "some input field violates its boundary condition")

    diff = GridFunction(grid, u_eps.values - u_0.values)
    l2_w, l2_plain = l2_norm(w), l2_norm(diff)
    return CorrectorExpansion(
        w=w, h1_w=float(np.hypot(h1_seminorm(w), l2_w)), l2_w=l2_w,
        h1_plain=float(np.hypot(h1_seminorm(diff), l2_plain)),
        l2_plain=l2_plain)


def _boundary_abs_max(gf: GridFunction) -> float:
    grid = gf.grid
    if grid.periodic:
        raise UsageError("boundary trace is only defined on a Dirichlet grid")
    return float(np.max(np.abs(gf.values[~grid.is_interior])))


@dataclass
class RateReport:
    """Log-log least-squares fit of value against scale."""

    points: List[Tuple[float, float]]
    slope: float
    intercept: float
    r2: float
    excluded: List[Tuple[float, float]] = field(default_factory=list)


def rate_fit(points: Sequence[Tuple[float, float]],
             quantity: str = "") -> RateReport:
    """Fit ``log(value) ~ slope * log(eps) + intercept``.

    Nonpositive values cannot enter a log fit; they are moved to
    ``excluded`` and noted.  Fewer than three usable points raise
    :class:`InsufficientDataError`.
    """
    usable = [(float(e), float(v)) for e, v in points if v > 0.0]
    excluded = [(float(e), float(v)) for e, v in points if not v > 0.0]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"rate fit for {quantity or 'quantity'} needs at least 3 positive "
            f"points, got {len(usable)} (excluded {len(excluded)})")
    x = np.log([e for e, _ in usable])
    y = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateReport(points=usable, slope=float(slope),
                      intercept=float(intercept), r2=r2, excluded=excluded)


@dataclass
class FluxRecord:
    """Boundary-flux diagnostics for one eigenfunction.

    ``flux`` is the squared-gradient boundary integral of the (mass-
    normalized) eigenfunction; the two ratios normalize it by the regimes in
    which upper and lower bounds are expected: ``ratio_upper`` by
    ``lambda (1 + eps lambda)`` and ``ratio_lower`` by ``lambda``.
    """

    epsilon: float
    k: int
    lam: float
    flux: float
    ratio_upper: float
    ratio_lower: float

    @property
    def in_upper_regime(self) -> bool:
        return self.epsilon ** 2 * self.lam < 1.0


def flux_table(problem: EpsProblem, spectrum: Spectrum) -> List[FluxRecord]:
    """Boundary-flux records for every eigenpair of ``spectrum``.

    Eigenvectors arrive mass-orthonormal from :mod:`homlab.spectral`, which
    is the discrete unit-L2 normalization the ratios assume.
    """
    grid = problem.grid
    records = []
    for j in range(spectrum.k):
        full = GridFunction(grid, grid.extend(spectrum.eigenvectors[:, j]))
        fx = float(boundary_flux(full))
        lam = float(spectrum.eigenvalues[j])
        records.append(FluxRecord(
            epsilon=problem.epsilon, k=j + 1, lam=lam, flux=fx,
            ratio_upper=fx / (lam * (1.0 + problem.epsilon * lam)),
            ratio_lower=fx / lam))
    return records


def jacobian_check(correctors: DirichletCorrectors) -> float:
    """Minimum determinant of the corrector-map Jacobian near the boundary.

    The map ``x -> (phi_1, phi_2)`` is probed on every cell whose center
    lies within one ``epsilon`` of the wall; its Jacobian is evaluated from
    recovered nodal gradients interpolated to the quadrature points of each
    such cell.  A positive return means the map is locally
    orientation-preserving there.
    """
    grid = correctors.phi[0].grid
    centers = (np.arange(grid.n) + 0.5) * grid.h
    near = (centers < correctors.epsilon) | (centers > 1.0 - correctors.epsilon)
    mask2d = near[:, None] | near[None, :]  # index [iy, ix]
    cells = np.flatnonzero(mask2d.ravel())
    # d1x = d(phi_1)/dx1 at the quadrature points of those cells, and so on
    (d1x, d1y), (d2x, d2y) = (
        [cell_values(grid, g.values)[cells] for g in recover_gradient(phi)]
        for phi in correctors.phi)
    return float((d1x * d2y - d2x * d1y).min())
