"""Run configuration: a small ``key = value`` file format.

One assignment per line, ``#`` comments, UTF-8.  Fractions like ``1/16`` are
accepted wherever a number is expected, and ``epsilons`` takes a
comma-separated list of them.  Unknown keys are rejected by name so typos
fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .coefficients import A_PRESETS, F_PRESETS, W_PRESETS
from .errors import ConfigurationError

__all__ = ["RunConfig", "parse_config", "load_config", "eps_label"]

#: Cells per oscillation period demanded of the domain grid (h <= eps/16).
MIN_CELLS_PER_PERIOD = 16

#: Hard cap on how many eigenpairs one eigensolve may request (``k_eigen``).
K_MAX = 64


def eps_label(value: float) -> str:
    """Short exact-looking label for a scale value (``0.25`` -> ``1/4``)."""
    frac = Fraction(value).limit_denominator(1_000_000)
    if abs(float(frac) - value) < 1e-12:
        return str(frac)
    return repr(value)


@dataclass
class RunConfig:
    a_preset: str = "smooth-iso"
    w_preset: str = "sine1"
    f_preset: str = "sine-sine"
    cell_grid_n: int = 128
    domain_grid_n: int = 256
    epsilons: List[float] = field(default_factory=lambda: [0.25, 0.125, 0.0625])
    k_eigen: int = 5
    cg_tol: float = 1e-10  # corrector PCG only; FFT and Dirichlet solves are direct
    eig_tol: float = 1e-8
    seed: int = 0
    output_dir: str = "out"
    emit_svg: bool = False
    workers: int = 0  # 0 = pick automatically

    def validate(self) -> None:
        for attr, kind in _KEYS.values():
            value = getattr(self, attr)
            items = value if kind == "eps_list" else [value]
            # a bool is no number, though Python counts it as an int
            if not isinstance(items, list) or not all(
                    isinstance(v, _KIND_TYPES[kind])
                    and isinstance(v, bool) == (kind == "bool") for v in items):
                raise ConfigurationError(
                    f"{attr} has the wrong type: {value!r}")
        if self.a_preset not in A_PRESETS:
            raise ConfigurationError(
                f"unknown A_preset {self.a_preset!r}; choose from {A_PRESETS}")
        if self.w_preset not in W_PRESETS:
            raise ConfigurationError(
                f"unknown W_preset {self.w_preset!r}; choose from {W_PRESETS}")
        if self.f_preset not in F_PRESETS:
            raise ConfigurationError(
                f"unknown f_preset {self.f_preset!r}; choose from {F_PRESETS}")
        for name, n in (("cell_grid_n", self.cell_grid_n),
                        ("domain_grid_n", self.domain_grid_n)):
            if n < 4:
                raise ConfigurationError(f"{name} must be at least 4, got {n}")
        if not self.epsilons:
            raise ConfigurationError("epsilons must not be empty")
        for eps in self.epsilons:
            if not 0.0 < eps <= 1.0:
                raise ConfigurationError(f"epsilon {eps} outside (0, 1]")
            h = 1.0 / self.domain_grid_n
            if h > eps / MIN_CELLS_PER_PERIOD + 1e-14:
                raise ConfigurationError(
                    f"resolution rule violated for epsilon={eps_label(eps)}: "
                    f"h=1/{self.domain_grid_n} exceeds epsilon/"
                    f"{MIN_CELLS_PER_PERIOD}; increase domain_grid_n to at "
                    f"least {int(MIN_CELLS_PER_PERIOD / eps + 0.999999)}")
        labels = [eps_label(eps) for eps in self.epsilons]  # artifact keys
        shared = sorted({lab for lab in labels if labels.count(lab) > 1})
        if shared:
            raise ConfigurationError("epsilons contains duplicates: scales "
                                     "share the label " + ", ".join(shared))
        if not 1 <= self.k_eigen <= K_MAX:
            raise ConfigurationError(
                f"k_eigen must lie in [1, {K_MAX}], got {self.k_eigen}")
        for name, tol in (("cg_tol", self.cg_tol), ("eig_tol", self.eig_tol)):
            if not 0.0 < tol < 1.0:
                raise ConfigurationError(f"{name} must lie in (0, 1), got {tol}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be nonnegative, got {self.seed}")
        if self.workers < 0:
            raise ConfigurationError("workers must be nonnegative")

    def effective_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        return max(1, min(4, os.cpu_count() or 1))


_KEYS = {
    "A_preset": ("a_preset", str),
    "W_preset": ("w_preset", str),
    "f_preset": ("f_preset", str),
    "cell_grid_n": ("cell_grid_n", int),
    "domain_grid_n": ("domain_grid_n", int),
    "epsilons": ("epsilons", "eps_list"),
    "k_eigen": ("k_eigen", int),
    "cg_tol": ("cg_tol", float),
    "eig_tol": ("eig_tol", float),
    "seed": ("seed", int),
    "output_dir": ("output_dir", str),
    "emit_svg": ("emit_svg", "bool"),
    "workers": ("workers", int),
}

#: The type of a value (of each epsilon) of each ``_KEYS`` kind.
_KIND_TYPES = {str: str, int: numbers.Integral, float: numbers.Real,
               "bool": bool, "eps_list": numbers.Real}


def _parse_number(text: str, key: str) -> float:
    text = text.strip()
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as err:
        raise ConfigurationError(f"cannot parse number {text!r} for {key}") from err


def _parse_bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigurationError(f"cannot parse boolean {text!r} for {key}")


def parse_config(text: str) -> RunConfig:
    """Parse config text into a validated :class:`RunConfig`."""
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"config line {lineno} is not a key = value assignment: {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _KEYS:
            raise ConfigurationError(
                f"unknown config key {key!r} on line {lineno}")
        attr, kind = _KEYS[key]
        if attr in values:
            raise ConfigurationError(f"duplicate config key {key!r}")
        if kind is str:
            values[attr] = rhs
        elif kind is int:
            num = _parse_number(rhs, key)
            if not num.is_integer():  # also inf and nan
                raise ConfigurationError(f"{key} must be an integer, got {rhs!r}")
            values[attr] = int(num)
        elif kind is float:
            values[attr] = _parse_number(rhs, key)
        elif kind == "bool":
            values[attr] = _parse_bool(rhs, key)
        elif kind == "eps_list":
            parts = [p for p in (s.strip() for s in rhs.split(",")) if p]
            if not parts:
                raise ConfigurationError("epsilons list is empty")
            values[attr] = [_parse_number(p, key) for p in parts]
    cfg = RunConfig(**values)  # type: ignore[arg-type]
    cfg.validate()
    return cfg


def load_config(path: Optional[str]) -> RunConfig:
    """Load and validate a config file; ``None`` gives the defaults."""
    if path is None:
        cfg = RunConfig()
        cfg.validate()
        return cfg
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigurationError(f"cannot read config {path}: {err}") from err
    return parse_config(text)
