"""Coefficient presets: periodic diffusion matrices, mean-zero potentials, loads.

All evaluators are elementwise numpy on broadcastable coordinate arrays
(see :class:`CoefficientModel`).  The diffusion evaluator returns an array
whose shape broadcasts to the coordinates' broadcast shape followed by
``(2, 2)``; potential and load evaluators return arrays that broadcast to
the coordinates' broadcast shape.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

TWO_PI = 2.0 * np.pi

A_PRESETS = ("identity", "layered", "smooth-iso")
W_PRESETS = ("zero", "sine1", "sine-mix")
F_PRESETS = ("one", "sine-sine")


def _iso(scalar_field):
    """Expand a scalar field into an isotropic 2x2 matrix field."""
    out = np.zeros(np.shape(scalar_field) + (2, 2))
    out[..., 0, 0] = scalar_field
    out[..., 1, 1] = scalar_field
    return out


def _a_identity(y1, y2):
    return _iso(np.ones_like(np.asarray(y1, dtype=float)))


def _a_layered(y1, y2):
    return _iso(2.0 + np.sin(TWO_PI * np.asarray(y1, dtype=float)))


def _a_smooth_iso(y1, y2):
    s = 2.0 + np.sin(TWO_PI * np.asarray(y1, dtype=float)) * np.sin(TWO_PI * np.asarray(y2, dtype=float))
    return _iso(s)


def _w_zero(y1, y2):
    return np.zeros_like(np.asarray(y1, dtype=float))


def _w_sine1(y1, y2):
    return np.sin(TWO_PI * np.asarray(y1, dtype=float))


def _w_sine_mix(y1, y2):
    return np.sin(TWO_PI * np.asarray(y1, dtype=float)) + np.cos(TWO_PI * np.asarray(y2, dtype=float))


def _f_one(x1, x2):
    return np.ones_like(np.asarray(x1, dtype=float))


def _f_sine_sine(x1, x2):
    return np.sin(np.pi * np.asarray(x1, dtype=float)) * np.sin(np.pi * np.asarray(x2, dtype=float))


_A_TABLE = {"identity": (_a_identity, 0.999), "layered": (_a_layered, 1.0 / 3.0),
            "smooth-iso": (_a_smooth_iso, 1.0 / 3.0)}
_W_TABLE = {"zero": _w_zero, "sine1": _w_sine1, "sine-mix": _w_sine_mix}
_F_TABLE = {"one": _f_one, "sine-sine": _f_sine_sine}


@dataclass
class CoefficientModel:
    """A complete problem datum: diffusion matrix A, potential W, load f.

    ``kappa`` is the ellipticity constant: xi.A(y)xi lies in
    [kappa, 1/kappa] for all unit xi and all y.

    Each of ``a_eval``, ``w_eval`` and ``f_eval`` is called as
    ``func(x1, x2)`` on two coordinate arrays that broadcast against each
    other but need not have the same shape: the grid samples a field once
    per rule on the tensor-product axes of its cells
    (:func:`homlab.fem.quad_samples`, :func:`homlab.grids.interpolate`).
    So a callable must be elementwise numpy on broadcastable arrays, and
    its result must broadcast to the broadcast shape of ``x1`` and ``x2``,
    followed by ``(2, 2)`` for ``a_eval``.  A field of ``x1`` alone may
    return the shape of ``x1``.  A result that does not broadcast raises
    UsageError when it is sampled.
    """

    a_eval: callable
    w_eval: callable
    f_eval: callable
    kappa: float


@dataclass
class ValidationReport:
    symmetry_defect: float
    rayleigh_min: float
    rayleigh_max: float
    periodicity_defect: float
    w_mean_abs: float
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures


def make_preset(a_preset, w_preset="zero", f_preset="one"):
    """Build a CoefficientModel from named presets.

    Raises ConfigurationError naming the offending key when a preset is
    unknown.
    """
    if a_preset not in _A_TABLE:
        raise ConfigurationError(
            f"unknown A_preset {a_preset!r}; expected one of {', '.join(A_PRESETS)}")
    if w_preset not in _W_TABLE:
        raise ConfigurationError(
            f"unknown W_preset {w_preset!r}; expected one of {', '.join(W_PRESETS)}")
    if f_preset not in _F_TABLE:
        raise ConfigurationError(
            f"unknown f_preset {f_preset!r}; expected one of {', '.join(F_PRESETS)}")
    a_eval, kappa = _A_TABLE[a_preset]
    return CoefficientModel(a_eval=a_eval, w_eval=_W_TABLE[w_preset],
                            f_eval=_F_TABLE[f_preset], kappa=kappa)


_DIRECTIONS = np.array([[1.0, 0.0],
                        [0.0, 1.0],
                        [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
                        [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)]])

_SHIFTS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, -1.0]])


def validate(model):
    """Check symmetry, ellipticity, periodicity, and potential mean on a lattice.

    Never raises: the report carries the list of failed checks and ``ok``.
    """
    n = 64  # lattice points per axis
    ys = (np.arange(n) + 0.31) / n  # avoid grid-aligned zeros
    y1, y2 = np.meshgrid(ys, ys, indexing="ij")
    a, w = model.a_eval(y1, y2), model.w_eval(y1, y2)
    failures = []

    sym = float(np.max(np.abs(a[..., 0, 1] - a[..., 1, 0])))
    if sym > 1e-14:
        failures.append(f"diffusion matrix asymmetric: defect {sym:.3e}")

    rq = np.einsum("di,...ij,dj->d...", _DIRECTIONS, a, _DIRECTIONS)
    rmin, rmax = float(rq.min()), float(rq.max())
    if rmin < model.kappa - 1e-12 or rmax > 1.0 / model.kappa + 1e-12:
        failures.append(
            f"ellipticity violated: Rayleigh range [{rmin:.6f}, {rmax:.6f}] "
            f"outside [{model.kappa}, {1.0 / model.kappa}]")

    per = 0.0
    for z in _SHIFTS:
        a_shift = model.a_eval(y1 + z[0], y2 + z[1])
        w_shift = model.w_eval(y1 + z[0], y2 + z[1])
        per = max(per, float(np.max(np.abs(a_shift - a))),
                  float(np.max(np.abs(w_shift - w))))
    if per > 1e-12:
        failures.append(f"coefficients not unit-periodic: defect {per:.3e}")

    wmean = abs(float(np.mean(w)))  # exact for trigonometric W of degree < n
    if wmean > 1e-12:
        failures.append(f"potential mean {wmean:.3e} exceeds 1e-12")

    return ValidationReport(symmetry_defect=sym, rayleigh_min=rmin, rayleigh_max=rmax,
                            periodicity_defect=per, w_mean_abs=wmean,
                            failures=failures)
