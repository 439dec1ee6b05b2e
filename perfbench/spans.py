"""Span recorder and layer wrappers for the traced benchmark child.

The program is measured from outside.  Every entry of ``TARGETS`` names a
module attribute through which the pipeline calls into a layer
(``homlab.pipeline.eigs``, ``homlab.domain.cg_solve``, ...).  Replacing that
attribute with a recording wrapper redirects every call made through the
name, and no file of the program changes.  A name that no longer exists is
recorded as absent, and the metrics fed only by absent names read ``None``
(null in JSON), never zero.

Spans are kept in memory: name, start, end, parent, thread.  Each thread
keeps its own stack of open spans; a span that opens with an empty stack on
a worker thread (the epsilon pool) takes the innermost open span of the main
thread as its parent.  Self time is a span's duration minus the part of its
interval that its children cover.  Checks the wrappers make after a call
(residuals, fingerprints) run inside ``trace.overhead`` spans, so they are
charged to no layer.

This module is imported only by traced children; timed runs never load it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import threading
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

OVERHEAD = "trace.overhead"

_STAGES = ("cell", "solve", "eigs", "gaps", "rates", "flux", "report")

# (module, attribute path, span name, kind).  The attribute is the name the
# caller looks up at call time, so one function imported into two modules is
# wrapped once per module.
TARGETS = (
    ("homlab.config", "load_config", "config.load", "plain"),
    ("homlab.pipeline", "load_config", "config.load", "plain"),
    *(("homlab.pipeline", f"Experiment.stage_{s}", f"pipeline.stage.{s}",
       "plain") for s in _STAGES),
    ("homlab.pipeline", "make_preset", "coefficients.make_preset", "model"),
    ("homlab.pipeline", "solve_cell", "cell.solve_cell", "plain"),
    ("homlab.cell", "solve_chi", "cell.solve_chi", "plain"),
    ("homlab.cell", "solve_chi_w", "cell.solve_chi_w", "plain"),
    ("homlab.cell", "solve_aux_potentials", "cell.solve_aux_potentials",
     "plain"),
    ("homlab.cell", "cross_flux_identity_defect",
     "cell.cross_flux_identity_defect", "plain"),
    ("homlab.fem", "cg_solve", "fem.cg", "cg"),
    ("homlab.domain", "cg_solve", "fem.cg", "cg"),
    ("homlab.fem", "assemble_stiffness", "fem.assemble", "assemble"),
    ("homlab.domain", "assemble_stiffness", "fem.assemble", "assemble"),
    ("homlab.domain", "assemble_mass", "fem.assemble", "assemble"),
    ("homlab.domain", "assemble_weighted_mass", "fem.assemble", "assemble"),
    ("homlab.pipeline", "assemble_stiffness", "fem.assemble", "assemble"),
    ("homlab.pipeline", "assemble_mass", "fem.assemble", "assemble"),
    ("homlab.pipeline", "coercivity_check", "domain.coercivity_check",
     "plain"),
    ("homlab.pipeline", "solve_eps", "domain.solve_eps", "plain"),
    ("homlab.pipeline", "solve_dirichlet_correctors",
     "domain.solve_dirichlet_correctors", "plain"),
    ("homlab.pipeline", "solve_homogenized", "domain.solve_homogenized",
     "plain"),
    ("homlab.pipeline", "galerkin_energy_defect",
     "domain.galerkin_energy_defect", "plain"),
    ("homlab.pipeline", "eigs", "spectral.eigs", "eigs"),
    ("homlab.pipeline", "rayleigh_quadrature_defect",
     "spectral.rayleigh_defect", "plain"),
    ("homlab.pipeline", "cluster_projection", "spectral.cluster_projection",
     "plain"),
    ("homlab.pipeline", "build_expansion", "analysis.build_expansion",
     "plain"),
    ("homlab.pipeline", "sample_cell_field", "analysis.sample_cell_field",
     "plain"),
    ("homlab.pipeline", "jacobian_check", "analysis.jacobian_check", "plain"),
    ("homlab.pipeline", "flux_table", "analysis.flux_table", "plain"),
)

# Span names a wrapper of each kind can emit, beyond the target's own name.
_CG = ("fem.cg_torus", "fem.cg_dirichlet")
_EMITS = {"cg": _CG, "model": ("coefficients.eval",)}

# Per-layer metrics: name -> (statistic, span names or layer prefix, arg).
#   self   summed self time         wall   summed duration
#   calls  number of spans          layer  number of spans under a prefix
#   sum / max   of a span attribute      count   spans whose attribute is set
# ``cli.import_s`` and the ``proc``/``trace`` metrics come from the child and
# the parent, not from this table.
METRICS = {
    "config.load_s": ("self", ("config.load",), None),
    **{f"pipeline.stage.{s}_s": ("wall", (f"pipeline.stage.{s}",), None)
       for s in _STAGES},
    "cell.calls": ("layer", "cell.", None),
    "cell.solve_cell_s": ("self", ("cell.solve_cell",), None),
    "cell.solve_chi_s": ("self", ("cell.solve_chi",), None),
    "cell.solve_chi_w_s": ("self", ("cell.solve_chi_w",), None),
    "cell.solve_aux_potentials_s": ("self", ("cell.solve_aux_potentials",),
                                    None),
    "cell.cross_flux_identity_defect_s": (
        "self", ("cell.cross_flux_identity_defect",), None),
    "coefficients.eval_calls": ("calls", ("coefficients.eval",), None),
    "coefficients.eval_points": ("sum", ("coefficients.eval",), "points"),
    "coefficients.eval_s": ("self", ("coefficients.eval",), None),
    "fem.cg_torus_s": ("self", ("fem.cg_torus",), None),
    "fem.cg_torus_calls": ("calls", ("fem.cg_torus",), None),
    "fem.cg_dirichlet_s": ("self", ("fem.cg_dirichlet",), None),
    "fem.cg_dirichlet_calls": ("calls", ("fem.cg_dirichlet",), None),
    "fem.cg_dof": ("max", _CG, "dof"),
    "fem.cg_rel_residual_max": ("max", _CG, "residual"),
    "fem.assemble_s": ("self", ("fem.assemble",), None),
    "fem.assemble_calls": ("calls", ("fem.assemble",), None),
    "fem.assemble_repeat_calls": ("count", ("fem.assemble",), "repeat"),
    "domain.calls": ("layer", "domain.", None),
    "domain.coercivity_check_s": ("self", ("domain.coercivity_check",), None),
    # with its eigensolves, which ROADMAP item 2 removes
    "domain.coercivity_check_wall_s": ("wall", ("domain.coercivity_check",),
                                       None),
    "domain.solve_eps_s": ("self", ("domain.solve_eps",), None),
    "domain.solve_dirichlet_correctors_s": (
        "self", ("domain.solve_dirichlet_correctors",), None),
    "domain.solve_homogenized_s": ("self", ("domain.solve_homogenized",),
                                   None),
    "domain.galerkin_energy_defect_s": (
        "self", ("domain.galerkin_energy_defect",), None),
    "spectral.calls": ("layer", "spectral.", None),
    "spectral.eigs_s": ("self", ("spectral.eigs",), None),
    "spectral.eigs_calls": ("calls", ("spectral.eigs",), None),
    "spectral.eigs_pairs": ("sum", ("spectral.eigs",), "pairs"),
    "spectral.eigs_repeat_calls": ("count", ("spectral.eigs",), "repeat"),
    "spectral.eigs_arpack_calls": ("count", ("spectral.eigs",), "arpack"),
    "spectral.eigs_dense_calls": ("count", ("spectral.eigs",), "dense"),
    "spectral.eigs_residual_max": ("max", ("spectral.eigs",), "residual"),
    "spectral.rayleigh_defect_s": ("self", ("spectral.rayleigh_defect",),
                                   None),
    "spectral.cluster_projection_s": (
        "self", ("spectral.cluster_projection",), None),
    "analysis.calls": ("layer", "analysis.", None),
    "analysis.build_expansion_s": ("self", ("analysis.build_expansion",),
                                   None),
    "analysis.sample_cell_field_s": ("self", ("analysis.sample_cell_field",),
                                     None),
    "analysis.jacobian_check_s": ("self", ("analysis.jacobian_check",), None),
    "analysis.flux_table_s": ("self", ("analysis.flux_table",), None),
}


class Recorder:
    """Thread-safe in-memory span list with one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.main_thread().ident
        self._seen = set()

    def open(self, name):
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            main_stack = self._stacks.get(self._main)
            if stack:
                parent = stack[-1]
            elif tid != self._main and main_stack:
                parent = main_stack[-1]
            else:
                parent = None
            idx = len(self.spans)
            stack.append(idx)
            self.spans.append({"name": name, "start": time.perf_counter(),
                               "end": None, "parent": parent, "thread": tid})
        return idx

    def close(self, idx):
        end = time.perf_counter()
        with self._lock:
            self.spans[idx]["end"] = end
            self._stacks[threading.get_ident()].pop()

    def add(self, name, start, end):
        """Record a finished top-level span measured by the caller."""
        with self._lock:
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": None,
                               "thread": threading.get_ident()})

    def annotate(self, idx, **attrs):
        with self._lock:
            self.spans[idx].update(attrs)

    def first_time(self, key):
        """True the first time ``key`` is offered in this run."""
        with self._lock:
            if key in self._seen:
                return False
            self._seen.add(key)
            return True

    @contextmanager
    def overhead(self):
        idx = self.open(OVERHEAD)
        try:
            yield
        finally:
            self.close(idx)


def _fingerprint(*operands):
    """Digest of the operands' canonical CSR arrays, or None if unhashable."""
    digest = hashlib.sha1()
    for operand in operands:
        mat = getattr(operand, "mat", operand)
        if sp.issparse(mat):
            csr = sp.csr_matrix(mat, copy=True)
            csr.sum_duplicates()
            csr.eliminate_zeros()
            csr.sort_indices()
            parts = (csr.indptr.astype(np.int64), csr.indices.astype(np.int64),
                     csr.data)
        elif isinstance(mat, np.ndarray):
            parts = (mat,)
        else:
            return None
        digest.update(repr(mat.shape).encode())
        for part in parts:
            digest.update(np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def _matvec(operand, x):
    return getattr(operand, "mat", operand) @ x


def _cg_residual(op, rhs, x, torus):
    """||b - A x|| / ||b|| with the torus constants projected out."""
    b = np.asarray(rhs, dtype=float)
    if torus:
        b = b - b.mean()
    r = b - _matvec(op, x)
    if torus:
        r -= r.mean()
    bnorm = np.linalg.norm(b)
    return float(np.linalg.norm(r) / bnorm) if bnorm > 0.0 else 0.0


def _eigs_residual(op, mass, spectrum):
    lam = np.asarray(spectrum.eigenvalues, dtype=float)
    vecs = np.asarray(spectrum.eigenvectors, dtype=float)
    mv = _matvec(mass, vecs)
    res = np.linalg.norm(_matvec(op, vecs) - lam[None, :] * mv, axis=0)
    scale = np.maximum(np.abs(lam), 1e-30) * np.linalg.norm(mv, axis=0)
    return float(np.max(res / scale)) if lam.size else 0.0


def _wrap(rec, fn, name, kind):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kind == "plain":
            idx = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
        # arguments by position in the signature, whatever their names
        bound = sig.bind(*args, **kwargs).arguments
        torus = bool(bound.get("deflate_constants", False))
        idx = rec.open((_CG[0] if torus else _CG[1]) if kind == "cg" else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        with rec.overhead():
            _after(rec, idx, kind, list(bound.values()), torus, out)
        return out

    return wrapper


def _after(rec, idx, kind, args, torus, out):
    if kind == "cg":
        op, rhs = args[:2]
        rec.annotate(idx, dof=int(np.size(rhs)),
                     residual=_cg_residual(op, rhs, out, torus))
    elif kind == "assemble":
        key = _fingerprint(out)
        rec.annotate(idx, repeat=key is not None and not rec.first_time(key))
    elif kind == "eigs":
        op, mass = args[:2]
        key = _fingerprint(op, mass)
        method = getattr(out, "method", None)
        rec.annotate(idx, pairs=int(np.size(out.eigenvalues)),
                     repeat=key is not None and not rec.first_time(key),
                     arpack=method == "arpack", dense=method == "dense",
                     residual=_eigs_residual(op, mass, out))
    elif kind == "model":
        for attr in ("a_eval", "w_eval", "f_eval"):
            fn = getattr(out, attr, None)
            if fn is not None:
                setattr(out, attr, _wrap_eval(rec, fn))


def _wrap_eval(rec, fn):
    @functools.wraps(fn)
    def wrapper(x1, x2, *args, **kwargs):
        idx = rec.open("coefficients.eval")
        try:
            return fn(x1, x2, *args, **kwargs)
        finally:
            rec.close(idx)
            rec.annotate(idx, points=int(np.size(x1)))

    return wrapper


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def install(rec):
    """Wrap every target that resolves.

    Returns the span names the wrappers can emit and the absent targets.
    """
    present, absent = set(), []
    for module_name, path, name, kind in TARGETS:
        try:
            owner, attr, fn = _resolve(module_name, path)
        except (ImportError, AttributeError):
            absent.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, _wrap(rec, fn, name, kind))
        present.add(name)
        present.update(_EMITS.get(kind, ()))
    return present, absent


def _self_times(spans):
    """Self time of each span: duration minus the union of its children."""
    children = {}
    for i, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered, reach = 0.0, start
        kids = sorted((max(spans[c]["start"], start),
                       min(spans[c]["end"], end))
                      for c in children.get(i, ()))
        for lo, hi in kids:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, present):
    """Evaluate ``METRICS`` on finished spans; absent layers read None."""
    self_s = _self_times(spans)
    out = {}
    for metric, (stat, names, arg) in METRICS.items():
        if stat == "layer":
            live = any(p.startswith(names) for p in present)
            picked = [i for i, s in enumerate(spans)
                      if s["name"].startswith(names)]
        else:
            live = any(n in present for n in names)
            picked = [i for i, s in enumerate(spans) if s["name"] in names]
        if not live:
            out[metric] = None
        elif stat == "self":
            out[metric] = float(sum(self_s[i] for i in picked))
        elif stat == "wall":
            out[metric] = float(sum(spans[i]["end"] - spans[i]["start"]
                                    for i in picked))
        elif stat in ("calls", "layer"):
            out[metric] = len(picked)
        elif stat == "sum":
            out[metric] = sum(spans[i].get(arg, 0) for i in picked)
        elif stat == "max":
            out[metric] = max((spans[i].get(arg, 0) for i in picked),
                              default=0)
        elif stat == "count":
            out[metric] = sum(1 for i in picked if spans[i].get(arg))
    return out
