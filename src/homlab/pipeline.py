"""Experiment pipeline: config file in, CSV/JSON/SVG artifacts out.

Stages run in dependency order — ``cell`` (periodic correctors and effective
constants), ``solve`` (boundary-value solves, boundary-adapted correctors,
corrected-difference norms), ``eigs`` (all four spectra), ``gaps``
(eigenvalue comparisons), ``rates`` (log-log fits), ``flux`` (boundary-flux
table), ``report`` (everything as JSON), as :data:`STAGE_TABLE` orders
them.  Stage ``<key>`` is run by the method ``Experiment.stage_<key>``.
The table's rows also give :mod:`homlab.cli` its subcommands and options,
and their order the exit codes (:data:`STAGE_EXIT`).  A stage failure
aborts the run with that stage's exit code.

The unit of parallel work is one oscillatory Dirichlet operator, and one
task (``Experiment._operator_task``) serves them all.  It factors the
operator at its certified shift (the table that ``Experiment._assemble``
builds), runs the shift-invert eigensolve with that factor, does the
operator's linear solves with the same factor (in ``solve``), and drops it:

- ``eps_prime:<label>``: eigensolve ``K_eps``, then the two Dirichlet
  correctors; it returns the spectrum without eigenvectors (eigenvalues,
  residuals and ``solves``), since nothing reads them after their residual
  check, and the correctors;
- ``eps:<label>``: eigensolve ``L_eps``, then the coercivity report and
  ``u_eps`` (:func:`solve_eps`: conjugate gradients on ``L_eps``
  preconditioned by that factor; a form that is not coercive stops the
  stage); it returns the spectrum with its eigenvectors, which ``eigs``
  and ``flux`` read, the report and ``u_eps``.

This task is the only place that factors: :mod:`homlab.domain` and
:mod:`homlab.spectral` solve with the factor it passes them.  The effective
operator has no task and no factor.  Its diffusion ``K`` (tag
``hom_prime``) has constant diagonal ``a_hat``, so its pairs and ``u_0``
are closed forms (:func:`effective_eigenpairs`, :func:`solve_homogenized`),
which the main thread computes before the first task is submitted: the
pairs with the assembly, where they pass the same residual check against
the assembled ``K`` as an eigensolve's (:func:`checked_spectrum`).
``hom`` is that spectrum moved by ``m``, checked against ``K + mM``; ``K``
is not kept after the two checks.

``solve`` submits all ``2 |epsilons|`` tasks to one thread pool and, as
each scale's inputs arrive, that scale's finish task (expansion, Jacobian,
energy defect).  Each operator's spectrum is computed once per run: after
``solve``, ``eigs`` finds them all and only adds the Rayleigh defects; run
without ``solve``, it computes them the same way.  The
operators are assembled once per run by ``Experiment._assemble``, on the
main thread before the first task starts: the domain grid, the interior
mass and load, the effective stiffness and, per scale, a
:class:`DiffusionProblem` (``K_eps`` and the corrector loads) and the
:class:`EpsProblem` built on it (``L_eps``); ``cell`` alone builds none of
them.  All of them share the grid's one interior sparsity pattern, and no
full-grid matrix is built.

The run keeps only what a later stage reads.  No factor outlives its task.
A scale's ``K_eps`` and corrector loads have one owner, the ``eps_prime``
row of the operator table, which goes when that task is collected, in
``solve`` or, without it, in ``eigs``.  ``L_eps`` and the mass live through
the run, since ``solve``'s finish tasks (the energy defect) and ``gaps``
(the cluster projection) read them after the pool.  The freed heap goes
back to the OS (:func:`~homlab.fem.release_heap`) in ``cell`` once the cell
stage has dropped its samples of A, before the corrector solves
(:func:`~homlab.cell.solve_cell`), and here after the assembly and the
closed forms, after each factorization and after each task.

Every artifact goes out through one writer, ``Experiment._write``, which
writes ``<name>.partial`` and renames it into place, so a truncated file
never masquerades as a finished one.  ``_write_csv`` formats floats with
shortest-roundtrip ``repr`` and ends lines with LF, so identical configs and
seeds reproduce the files byte for byte.  The stage that writes an artifact
lists its rows, columns and keys once (``report.json`` in ``stage_report``);
``rates.csv`` and ``rates.svg`` keep the order ``stage_rates`` fits in.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from .analysis import (
    CorrectorExpansion,
    FluxRecord,
    build_expansion,
    flux_table,
    jacobian_check,
    rate_fit,
    sample_cell_field,
)
from .cell import CellSolution, solve_cell
from .coefficients import make_preset, validate
from .config import RunConfig, eps_label, load_config
from .domain import (
    CoercivityReport,
    DiffusionProblem,
    DirichletCorrectors,
    EpsProblem,
    coercivity_check,
    constant_matrix,
    effective_eigenpairs,
    galerkin_energy_defect,
    rayleigh_quadrature_defect,
    solve_dirichlet_correctors,
    solve_eps,
    solve_homogenized,
)
from .errors import (
    ConfigurationError,
    HomlabError,
    InsufficientDataError,
    SolverError,
    UsageError,
)
from .fem import (
    QUAD_W,
    add_scaled,
    assemble_mass,
    assemble_stiffness,
    factorize,
    load_from_quad_values,
    quad_samples,
    release_heap,
)
from .grids import DirichletGrid, GridFunction, interpolate
from .spectral import (
    Spectrum,
    checked_spectrum,
    cluster_projection,
    eigenvalue_gap_rows,
    eigs,
    first_eigenvalue_comparison,
    shift_spectrum,
)

# For annotations only: importing scipy.sparse here, ahead of homlab.fem,
# made ``import homlab.cli`` 8-9% slower on a 2-core VM.
if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "STAGES",
    "Stage",
    "STAGE_TABLE",
    "STAGE_EXIT",
    "FLUX_LOWER_FLOOR",
    "SQUARE_DOMAIN_CAVEAT",
    "Experiment",
    "run_experiment",
    "stages_for",
]

@dataclass(frozen=True)
class Stage:
    """Row ``<key>`` of :data:`STAGE_TABLE`, run by ``stage_<key>``."""

    deps: Tuple[str, ...]  # stages it depends on
    help: str  # its CLI subcommand's help
    options: Tuple[str, ...] = ()  # CLI options it takes (``homlab.cli``)


#: Every stage, in run order.
STAGE_TABLE = {
    "cell": Stage((), "periodic cell problems and effective constants",
                  ("dump_fields",)),
    "solve": Stage(("cell",), "boundary-value solves and corrected-difference "
                   "norms", ("epsilon", "dump_fields")),
    "eigs": Stage(("cell",), "oscillatory and effective spectra",
                  ("epsilon", "k", "seed")),
    "gaps": Stage(("eigs",), "eigenvalue gap table (gaps.csv)"),
    "rates": Stage(("solve", "gaps"), "log-log rate fits (rates.csv)"),
    "flux": Stage(("eigs",), "boundary-flux diagnostics (flux.csv)"),
    "report": Stage(("solve", "gaps", "rates", "flux"),
                    "full pipeline through report.json"),
}

STAGES = tuple(STAGE_TABLE)

#: Exit code per failure: 2 for the config, 10 + its position for a stage.
STAGE_EXIT = {"config": 2, **{stage: 10 + i for i, stage in enumerate(STAGES)}}

#: Lower-bound floor for flux/lambda, frozen after the first calibration run
#: (observed minimum 1.4395 over the layered and smooth-iso sweeps at n=256,
#: k <= 5; the floor keeps the documented margin rather than hugging the
#: observation).
FLUX_LOWER_FLOOR = 0.5

SQUARE_DOMAIN_CAVEAT = (
    "note: boundary-flux bounds assume a smooth boundary; the unit square's "
    "corners fall outside that hypothesis, so flux rows are trend "
    "diagnostics, not certified bounds.")


def _fmt(value) -> str:
    """CSV cell formatting: shortest-roundtrip for floats, plain for ints."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _cell_record(cs: CellSolution) -> dict:
    """The cell numbers that ``cell_solution.json`` and ``report.json``
    both record: a_hat, m, the energy-identity residual and the cross-flux
    defect."""
    return {
        "a_hat": [[float(cs.a_hat[i, j]) for j in (0, 1)] for i in (0, 1)],
        "m_w_chi_w": float(cs.m_w_chi_w),
        "energy_identity_residual": float(cs.energy_identity_residual),
        "cross_flux_defect": [float(v) for v in cs.cross_flux_defect],
    }


@contextmanager
def _task_pool(workers: int) -> Iterator[ThreadPoolExecutor]:
    """Thread pool for one stage's tasks; if the stage fails, its queued
    tasks are dropped instead of run."""
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def _released(task, *args):
    """Run ``task``; once its frame, and with it its factor, is gone, give
    the freed heap back (:func:`~homlab.fem.release_heap`)."""
    result = task(*args)
    release_heap()
    return result


def _peak_rss_mb() -> Optional[float]:
    """Peak resident set size of this process so far, in MB; ``None`` where
    :mod:`resource` is missing.  ``ru_maxrss`` counts bytes on macOS and
    KB elsewhere."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(peak / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0),
                 1)


@dataclass
class _EpsArtifacts:
    """Everything computed for one scale."""

    label: str
    coercivity: CoercivityReport
    u_eps: GridFunction
    correctors: DirichletCorrectors
    expansion: CorrectorExpansion
    jacobian_min: float
    energy_defect: float
    phi_supnorm: float  # sup |Phi_1 - x_1|


class Experiment:
    """One configured run; stages populate attributes and write artifacts."""

    def __init__(self, cfg: RunConfig, out=None):
        self.cfg = cfg
        self.out = out
        self.model = make_preset(cfg.a_preset, cfg.w_preset, cfg.f_preset)
        # the run's domain grid and operators, built once by _assemble
        self.domain_grid: Optional[DirichletGrid] = None
        self.mass: Optional[sp.csr_matrix] = None  # interior mass
        self.load: Optional[np.ndarray] = None  # interior load (f, N_a)
        self.f_l2: Optional[float] = None  # ||f||, from the load's samples
        self.problems: Dict[float, EpsProblem] = {}  # one per scale
        # each uncollected task's (operator, shift, problem), by tag
        self.operators: Dict[str, Tuple[
            sp.csr_matrix, float, Union[EpsProblem, DiffusionProblem]]] = {}
        self.cell_solution: Optional[CellSolution] = None
        self.validation = None
        self.u_0: Optional[GridFunction] = None
        self.per_eps: Dict[float, _EpsArtifacts] = {}
        self.spectra: Dict[str, Spectrum] = {}  # keyed by csv tag
        self.rayleigh_defects: Dict[str, float] = {}
        self.gap_rows: List[dict] = []
        self.first_eig: List[dict] = []
        self.clusters: List[dict] = []
        self.continuity_flags: Dict[int, bool] = {}
        self.rates: Dict[str, dict] = {}
        self.rate_notes: List[str] = []
        self.flux_records: List[FluxRecord] = []
        self.flux_summary: dict = {}
        self.timings: Dict[str, float] = {}
        self.peak_rss_mb: Dict[str, Optional[float]] = {}

    # -- the writer ----------------------------------------------------

    def _write(self, name: str, text: str) -> None:
        """Write artifact ``name`` of the output directory: to
        ``<name>.partial`` first, then renamed into place."""
        path = os.path.join(self.cfg.output_dir, name)
        with open(path + ".partial", "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(text)
        os.replace(path + ".partial", path)

    def _write_csv(self, name: str, header: Sequence[str],
                   rows: Sequence[Sequence]) -> None:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        self._write(name, "\n".join(lines) + "\n")

    def _write_fields(self, name: str, header: Sequence[str],
                      nodal: Sequence[GridFunction]) -> None:
        """Dump ``nodal`` fields of one grid, a row per node: its two
        coordinates, then each field's value, under ``header``."""
        coords = nodal[0].grid.node_coords()
        self._write_csv(name, header, np.column_stack(
            [coords[:, 0], coords[:, 1], *(f.values for f in nodal)]))

    # -- per-operator tasks ---------------------------------------------

    def _assemble(self) -> None:
        """Build the domain grid and every operator of the run, once: the
        interior mass and, per scale, a :class:`DiffusionProblem` and the
        :class:`EpsProblem` built on it; and sample f
        once, for the interior load every solve takes and ``f_l2``.  Then
        the effective spectra, in closed form: the ``hom_prime`` pairs
        (:func:`effective_eigenpairs`), checked against the assembled
        stiffness ``K`` of ``a_hat`` at ``eig_tol``, and ``hom``, the same
        pairs moved by ``m`` (``K + mM`` has ``K``'s eigenvectors), checked
        against ``K + mM``.  Those two checks are all ``K`` is assembled
        for, so it is not kept.  Needs the cell's ``a_hat`` and ``m``.
        Each matrix is assembled straight into the grid's one interior
        pattern, so all share its read-only index arrays, and the shifted
        matrices the tasks factor (``op - sigma M``) and ``K + mM`` are
        sums of data vectors (:func:`add_scaled`).

        ``self.operators`` tables the oscillatory operators by spectrum tag
        as (operator, shift sigma, its problem), in the order their tasks
        are submitted, and a row leaves it when its task is collected
        (:meth:`_collect`).  The ``eps_prime`` row is the one owner of its
        :class:`DiffusionProblem`, which the :class:`EpsProblem` does not
        keep, so ``K_eps`` and the corrector loads go with the row.  The
        ``eps`` row's ``L_eps`` stays with its problem in ``self.problems``,
        which later stages read.  Each shift must lie strictly below its
        operator's spectrum, as the shift-invert eigensolve needs to find
        the lowest pairs, and each task checks that it does: the Cholesky
        factor of ``op - sigma M`` completes only if that matrix is
        positive definite, that is, only if sigma < lambda_1 (up to the
        factorization's backward error), and :meth:`_operator_task` raises
        :class:`SolverError` naming the operator when it does not.  The
        shifts, and why each should pass:

        - ``eps:<label>``, the oscillatory operator ``L_eps``: sigma is
          :attr:`EpsProblem.sigma`, one below ``min(0, min_q W_q) / eps``.
        - ``eps_prime:<label>``, the oscillatory diffusion ``K_eps``:
          sigma = 0.  ``K_eps`` is the Dirichlet stiffness of an SPD
          coefficient, so it is SPD.
        """
        if self.mass is not None:
            return
        grid = self.domain_grid = DirichletGrid(self.cfg.domain_grid_n)
        cs = self.cell_solution
        self.mass = assemble_mass(grid)
        fq = quad_samples(grid, self.model.f_eval)
        self.load = grid.restrict(load_from_quad_values(grid, fq))
        self.f_l2 = float(np.sqrt(grid.h ** 2
                                  * np.einsum("q,cq->", QUAD_W, fq ** 2)))
        self.problems = {}
        self.operators = {}
        for eps in self.cfg.epsilons:
            label = eps_label(eps)
            diffusion = DiffusionProblem(self.model, eps, grid)
            problem = self.problems[eps] = EpsProblem(diffusion)
            self.operators[f"eps:{label}"] = (
                problem.operator, problem.sigma, problem)
            self.operators[f"eps_prime:{label}"] = (
                diffusion.stiffness, 0.0, diffusion)
        tol, m = self.cfg.eig_tol, float(cs.m_w_chi_w)
        stiff = assemble_stiffness(
            grid, quad_samples(grid, constant_matrix(cs.a_hat)))
        lam, vecs = effective_eigenpairs(cs.a_hat, grid, self.cfg.k_eigen)
        self.spectra["hom_prime"] = checked_spectrum(
            stiff, self.mass, lam, vecs, tol, tag="hom_prime")
        self.spectra["hom"] = shift_spectrum(
            self.spectra["hom_prime"], m,
            add_scaled(stiff, m, self.mass), self.mass,
            tol=tol, tag="hom")

    def _operator_task(self, tag: str,
                       solve: bool) -> Tuple[Spectrum, object]:
        """Factor ``tag``'s operator at its shift, eigensolve with that
        factor and, with ``solve``, do the operator's solves with it.  A
        factor that fails proves the shift is not below the spectrum and
        raises :class:`SolverError` naming the operator, its scale and the
        shift.

        Returns (spectrum, what the solves produced, or None without
        ``solve``).  An ``eps_prime`` spectrum comes back without its
        eigenvectors once they have passed their residual check
        (:func:`checked_spectrum`, in :func:`eigs`): no reader needs them,
        and each scale's would otherwise be held for the whole run.  Reads
        the shared operators, writes no shared state.
        """
        op, sigma, problem = self.operators[tag]
        kind = tag.partition(":")[0]
        try:
            lu = factorize(add_scaled(op, -sigma, self.mass) if sigma else op)
        except SolverError as err:
            raise SolverError(
                f"shift {sigma:.6g} is not below the spectrum of {kind} at "
                f"epsilon={eps_label(problem.epsilon)}: {err}") from err
        # the factorization's temporaries, before the eigensolve's own
        release_heap()
        spectrum = eigs(op, self.mass, self.cfg.k_eigen, seed=self.cfg.seed,
                        tol=self.cfg.eig_tol, sigma=sigma, tag=kind, lu=lu,
                        epsilon=problem.epsilon)
        if kind == "eps_prime":  # no reader after the residual check
            spectrum = replace(spectrum, eigenvectors=None)
        if not solve:
            return spectrum, None
        if kind == "eps_prime":
            return spectrum, solve_dirichlet_correctors(problem, lu=lu)
        coercivity = coercivity_check(spectrum)
        return spectrum, (coercivity,
                          solve_eps(problem, coercivity, self.load, lu=lu))

    def _submit_operator_tasks(self, pool: ThreadPoolExecutor,
                               solve: bool) -> Dict[str, Future]:
        """Submit one task per row of the operator table, in its order:
        ``eps`` and ``eps_prime`` per scale; return the futures by tag.
        A collected task's row has left the table, so after ``solve``
        ``eigs`` submits none.

        Every operator is assembled (:meth:`_assemble`) before the first
        task starts, and the tasks only read them.  Assembly running on this
        thread while the workers factor made peak RSS vary from run to run
        (glibc's allocator keeps a different share of the freed memory
        resident depending on how the two interleave).  The assembly
        brings the effective spectra, and with ``solve`` this thread then
        computes ``u_0`` in closed form, which stops the stage if ``m``
        fails the sign hypothesis, and then raises :class:`UsageError`,
        before any submit, if an earlier stage has collected a task that
        ``solve`` needs (``eigs`` run first, or ``solve`` twice).  The
        freed heap is handed back before the first submit, and each task's
        when it returns (:func:`_released`)."""
        self._assemble()
        if solve:
            cs = self.cell_solution
            self.u_0 = solve_homogenized(cs.a_hat, cs.m_w_chi_w,
                                         self.domain_grid, self.load)
            if len(self.operators) < 2 * len(self.problems):
                raise UsageError(
                    "stage 'solve' must run before 'eigs' (the order of "
                    "STAGE_TABLE) and once: its operator tasks were already "
                    "collected on this Experiment")
        release_heap()
        return {tag: pool.submit(_released, self._operator_task, tag, solve)
                for tag in self.operators}

    def _collect(self, futures: Dict[str, Future], tag: str):
        """Wait for ``tag``'s task, keep its spectrum, return the rest, and
        drop the task's row of the operator table: for ``eps_prime`` that
        row is the last reference to ``K_eps`` and the corrector loads."""
        self.spectra[tag], solved = futures[tag].result()
        del self.operators[tag]
        return solved

    def run_stage(self, stage: str, dump_fields: bool = False) -> None:
        """Run ``stage``; ``dump_fields`` reaches the stages that take it."""
        method = getattr(self, f"stage_{stage}")
        if dump_fields and "dump_fields" in STAGE_TABLE[stage].options:
            method(dump_fields=True)
        else:
            method()

    # -- stages ---------------------------------------------------------

    def stage_cell(self, dump_fields: bool = False) -> None:
        cfg = self.cfg
        self.validation = validate(self.model)
        self.cell_solution = solve_cell(self.model, cfg.cell_grid_n,
                                        tol=cfg.cg_tol,
                                        workers=cfg.effective_workers())
        cs = self.cell_solution
        payload = {
            "a_preset": cfg.a_preset,
            "w_preset": cfg.w_preset,
            "cell_grid_n": cfg.cell_grid_n,
            **_cell_record(cs),
            "aux_compat_defects": [float(v) for v in cs.aux_compat_defects],
            "validation": {"ok": self.validation.ok,
                           **asdict(self.validation)},
        }
        self._write("cell_solution.json",
                    json.dumps(payload, indent=2, sort_keys=True) + "\n")
        if dump_fields:
            self._write_fields("cell_fields.csv",
                               ("y1", "y2", "chi1", "chi2", "chi_w"),
                               [*cs.chi, cs.chi_w])

    def _finish_eps(self, problem: EpsProblem, coercivity: CoercivityReport,
                    u_eps: GridFunction,
                    correctors: DirichletCorrectors) -> _EpsArtifacts:
        eps = problem.epsilon
        chi_w_sampled = sample_cell_field(self.cell_solution.chi_w,
                                          self.domain_grid, eps)
        expansion = build_expansion(u_eps, self.u_0, correctors,
                                    chi_w_sampled, eps)
        return _EpsArtifacts(
            label=eps_label(eps), coercivity=coercivity,
            u_eps=u_eps, correctors=correctors, expansion=expansion,
            jacobian_min=jacobian_check(correctors),
            energy_defect=galerkin_energy_defect(problem, u_eps),
            phi_supnorm=float(np.max(np.abs(correctors.deviation[0].values))))

    def stage_solve(self, dump_fields: bool = False) -> None:
        cfg = self.cfg
        with _task_pool(cfg.effective_workers()) as pool:
            futures = self._submit_operator_tasks(pool, solve=True)
            finish = {}
            for eps, problem in self.problems.items():
                label = eps_label(eps)
                coercivity, u_eps = self._collect(futures, f"eps:{label}")
                correctors = self._collect(futures, f"eps_prime:{label}")
                finish[eps] = pool.submit(self._finish_eps, problem,
                                          coercivity, u_eps, correctors)
            for eps in cfg.epsilons:
                self.per_eps[eps] = finish[eps].result()

        if dump_fields:
            for eps in cfg.epsilons:
                art = self.per_eps[eps]
                self._write_fields(
                    "solve_fields_" + art.label.replace("/", "_") + ".csv",
                    ("x1", "x2", "u_eps", "u_0", "phi1", "phi2"),
                    [art.u_eps, self.u_0, *art.correctors.phi])

    def stage_eigs(self) -> None:
        cfg = self.cfg
        with _task_pool(cfg.effective_workers()) as pool:
            futures = self._submit_operator_tasks(pool, solve=False)
            defects = {}
            for eps, problem in self.problems.items():
                label = eps_label(eps)
                tag, prime = f"eps:{label}", f"eps_prime:{label}"
                if tag in futures:
                    self._collect(futures, tag)
                defects[eps] = pool.submit(rayleigh_quadrature_defect,
                                           problem, self.spectra[tag])
                if prime in futures:
                    self._collect(futures, prime)
            for eps, defect in defects.items():
                self.rayleigh_defects[eps_label(eps)] = float(
                    np.max(defect.result()))
        tags = ["hom", "hom_prime"] + [
            f"{kind}:{eps_label(eps)}" for eps in cfg.epsilons
            for kind in ("eps", "eps_prime")]
        rows = [(tag, j, float(lam)) for tag in tags
                for j, lam in enumerate(self.spectra[tag].eigenvalues, 1)]
        self._write_csv("spectrum_E.csv", ("tag", "k", "lambda"), rows)

    def stage_gaps(self) -> None:
        cfg = self.cfg
        cs = self.cell_solution
        s_hom = self.spectra["hom"]
        s_homp = self.spectra["hom_prime"]
        self.gap_rows = []
        self.first_eig = []
        self.clusters = []

        f_interior = self.domain_grid.restrict(
            interpolate(self.domain_grid, self.model.f_eval).values)
        for eps in cfg.epsilons:
            label = eps_label(eps)
            s_eps = self.spectra[f"eps:{label}"]
            s_prime = self.spectra[f"eps_prime:{label}"]
            self.gap_rows.extend(eigenvalue_gap_rows(eps, s_eps, s_hom))
            self.first_eig.append({**first_eigenvalue_comparison(
                eps, float(s_eps.eigenvalues[0]),
                float(s_prime.eigenvalues[0]),
                float(s_homp.eigenvalues[0]), cs.m_w_chi_w), "label": label})
            lam1 = float(s_eps.eigenvalues[0])
            if lam1 >= 1.0:
                cp = cluster_projection(s_eps, lam1, f_interior,
                                        self.problems[eps].operator,
                                        self.mass)
                self.clusters.append({
                    "epsilon": eps, "lambda": cp.lam,
                    "members": cp.members, "truncated": cp.truncated,
                    "grad_constant": cp.grad_constant,
                    "residual_constant": cp.residual_constant,
                    "s_norm": cp.s_norm, "f_norm": cp.f_norm,
                })

        # Monotone-approach flag per index: |lambda_eps_k - lambda_0_k|
        # should not grow as the scale shrinks (advisory, never asserted).
        self.continuity_flags = {}
        ordered = sorted(cfg.epsilons, reverse=True)
        gap_at = self._gap_index()
        for k_idx in range(1, min(cfg.k_eigen, 5) + 1):
            gaps = [gap_at[eps, k_idx] for eps in ordered]
            self.continuity_flags[k_idx] = bool(
                any(b > a * (1 + 1e-12) for a, b in zip(gaps, gaps[1:])))

        header = ("epsilon", "k", "lambda_eps", "lambda_0", "gap",
                  "normalized_const")
        self._write_csv("gaps.csv", header,
                        [[r[key] for key in header] for r in self.gap_rows])

    def _gap_index(self) -> Dict[Tuple[float, int], float]:
        """Gap of each ``gap_rows`` entry by (epsilon, k)."""
        return {(r["epsilon"], r["k"]): r["gap"] for r in self.gap_rows}

    def stage_rates(self) -> None:
        cfg = self.cfg
        eps_list = list(cfg.epsilons)
        points: Dict[str, List] = {}
        points["h1_expansion"] = [
            (e, self.per_eps[e].expansion.h1_w / self.f_l2) for e in eps_list]
        points["l2_gap"] = [
            (e, self.per_eps[e].expansion.l2_plain) for e in eps_list]
        gap_at = self._gap_index()
        for k_idx in range(1, min(cfg.k_eigen, 5) + 1):
            points[f"eig_gap_k{k_idx}"] = [
                (e, gap_at[e, k_idx]) for e in eps_list]
        points["thm21_d8"] = [(rec["epsilon"], rec["d8"])
                              for rec in self.first_eig]
        points["phi_supnorm"] = [
            (e, self.per_eps[e].phi_supnorm) for e in eps_list]

        self.rates = {}
        self.rate_notes = []
        for name, pts in points.items():
            try:
                rep = rate_fit(pts, name)
            except InsufficientDataError as err:
                self.rate_notes.append(str(err))
                continue
            if rep.excluded:
                self.rate_notes.append(
                    f"{name}: excluded {len(rep.excluded)} nonpositive "
                    "points from the fit")
            self.rates[name] = {
                "slope": rep.slope, "intercept": rep.intercept,
                "r2": rep.r2, "points": rep.points,
            }
        self._write_csv("rates.csv", ("quantity", "slope", "intercept", "r2"),
                        [(name, r["slope"], r["intercept"], r["r2"])
                         for name, r in self.rates.items()])
        if cfg.emit_svg:
            self._write("rates.svg", self._render_svg())

    def stage_flux(self) -> None:
        cfg = self.cfg
        self.flux_records = []
        for eps in cfg.epsilons:
            self.flux_records.extend(flux_table(
                self.problems[eps], self.spectra[f"eps:{eps_label(eps)}"]))
        rows = [(r.epsilon, r.k, r.lam, r.flux, r.ratio_upper, r.ratio_lower)
                for r in self.flux_records]
        self._write_csv("flux.csv", ("epsilon", "k", "lambda", "flux",
                                     "ratio_upper", "ratio_lower"), rows)

        lowers = [r.ratio_lower for r in self.flux_records]
        uppers_regime = [r.ratio_upper for r in self.flux_records
                         if r.in_upper_regime]
        held = [r.epsilon * r.lam for r in self.flux_records
                if r.ratio_lower >= FLUX_LOWER_FLOOR]
        self.flux_summary = {
            "rows": len(self.flux_records),
            "lower_floor": FLUX_LOWER_FLOOR,
            "min_ratio_lower": min(lowers) if lowers else None,
            "ratio_upper_regime_rows": len(uppers_regime),
            "ratio_upper_regime_spread": (max(uppers_regime)
                                          / min(uppers_regime)
                                          if len(uppers_regime) >= 2 else None),
            "smallest_eps_lambda_floor_held": min(held) if held else None,
            "caveat": SQUARE_DOMAIN_CAVEAT,
        }
        print(SQUARE_DOMAIN_CAVEAT, file=self.out)

    def stage_report(self) -> None:
        started = time.perf_counter()
        payload = {
            "config": {
                "A_preset": self.cfg.a_preset,
                "W_preset": self.cfg.w_preset,
                "f_preset": self.cfg.f_preset,
                "cell_grid_n": self.cfg.cell_grid_n,
                "domain_grid_n": self.cfg.domain_grid_n,
                "epsilons": [eps_label(e) for e in self.cfg.epsilons],
                "k_eigen": self.cfg.k_eigen,
                "cg_tol": self.cfg.cg_tol,
                "eig_tol": self.cfg.eig_tol,
                "seed": self.cfg.seed,
            },
            "cell": {
                **_cell_record(self.cell_solution),
                "validation_failures": list(self.validation.failures),
            },
            "solve": {
                self.per_eps[e].label: {
                    "coercive": self.per_eps[e].coercivity.coercive,
                    "lambda_eps_1": self.per_eps[e].coercivity.lambda_eps_1,
                    "lambda0_prime_1": float(
                        self.spectra["hom_prime"].eigenvalues[0]),
                    "jacobian_min": self.per_eps[e].jacobian_min,
                    "galerkin_energy_defect": self.per_eps[e].energy_defect,
                    "h1_w": self.per_eps[e].expansion.h1_w,
                    "l2_w": self.per_eps[e].expansion.l2_w,
                    "h1_plain": self.per_eps[e].expansion.h1_plain,
                    "l2_plain": self.per_eps[e].expansion.l2_plain,
                    "phi_supnorm": self.per_eps[e].phi_supnorm,
                } for e in self.cfg.epsilons
            },
            "eigs": {
                "rayleigh_defects": dict(self.rayleigh_defects),
                "solves": {tag: spec.solves
                           for tag, spec in self.spectra.items()},
                "tags": {tag: [float(v) for v in spec.eigenvalues]
                         for tag, spec in self.spectra.items()},
            },
            "gaps": {
                "first_eig": self.first_eig,
                "clusters": self.clusters,
                "continuity_flags": {str(k): v for k, v
                                     in self.continuity_flags.items()},
            },
            "rates": self.rates,
            "rate_notes": self.rate_notes,
            "flux": self.flux_summary,
        }
        # The report's own entries cover the stage up to this write.
        self.timings["report"] = time.perf_counter() - started
        self.peak_rss_mb["report"] = _peak_rss_mb()
        payload["timings_s"] = {k: round(v, 3) for k, v in self.timings.items()}
        payload["peak_rss_mb"] = self.peak_rss_mb
        self._write("report.json",
                    json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # -- svg ------------------------------------------------------------

    def _render_svg(self) -> str:
        width, height = 720, 540
        ml, mr, mt, mb = 70, 180, 30, 50
        pw, ph = width - ml - mr, height - mt - mb
        series = [(name, r["points"], r["slope"])
                  for name, r in self.rates.items()]
        xs = [np.log10(e) for _, pts, _ in series for e, _ in pts]
        ys = [np.log10(v) for _, pts, _ in series for _, v in pts]
        if not xs:
            return ("<svg xmlns='http://www.w3.org/2000/svg' width='720' "
                    "height='540'><text x='20' y='30'>no fitted rates"
                    "</text></svg>")
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        x1 = x1 if x1 > x0 else x0 + 1.0
        y1 = y1 if y1 > y0 else y0 + 1.0

        def px(x):
            return ml + (x - x0) / (x1 - x0) * pw

        def py(y):
            return mt + (y1 - y) / (y1 - y0) * ph

        palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
                   "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")
        parts = [
            f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
            f"height='{height}' viewBox='0 0 {width} {height}'>",
            "<rect width='100%' height='100%' fill='white'/>",
            f"<line x1='{ml}' y1='{mt + ph}' x2='{ml + pw}' y2='{mt + ph}' "
            "stroke='black'/>",
            f"<line x1='{ml}' y1='{mt}' x2='{ml}' y2='{mt + ph}' "
            "stroke='black'/>",
            f"<text x='{ml + pw / 2:.1f}' y='{height - 12}' "
            "text-anchor='middle' font-size='13'>log10 scale</text>",
            f"<text x='18' y='{mt + ph / 2:.1f}' font-size='13' "
            f"transform='rotate(-90 18 {mt + ph / 2:.1f})' "
            "text-anchor='middle'>log10 value</text>",
        ]
        for i, (name, pts, slope) in enumerate(series):
            color = palette[i % len(palette)]
            coords = sorted((np.log10(e), np.log10(v)) for e, v in pts)
            path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in coords)
            parts.append(f"<polyline points='{path}' fill='none' "
                         f"stroke='{color}' stroke-width='1.5'/>")
            for x, y in coords:
                parts.append(f"<circle cx='{px(x):.2f}' cy='{py(y):.2f}' "
                             f"r='3' fill='{color}'/>")
            ly = mt + 16 + 18 * i
            parts.append(f"<rect x='{ml + pw + 14}' y='{ly - 9}' width='10' "
                         f"height='10' fill='{color}'/>")
            parts.append(f"<text x='{ml + pw + 30}' y='{ly}' font-size='12'>"
                         f"{name} (slope {slope:.2f})</text>")
        parts.append("</svg>")
        return "\n".join(parts) + "\n"


def stages_for(*targets: str) -> List[str]:
    """The ``targets`` and every stage they depend on, in run order."""
    needed = set()

    def add(stage):
        if stage not in STAGE_TABLE:
            raise ConfigurationError(f"unknown stage {stage!r}")
        if stage in needed:
            return
        for dep in STAGE_TABLE[stage].deps:
            add(dep)
        needed.add(stage)

    for target in targets:
        add(target)
    return [s for s in STAGES if s in needed]


def run_experiment(config_path: Optional[str] = None,
                   upto: str = "report",
                   cfg: Optional[RunConfig] = None,
                   overrides: Optional[Dict[str, object]] = None,
                   dump_fields: bool = False,
                   out=None,
                   err=None) -> int:
    """Run the pipeline through ``upto``; returns a process exit code.

    ``overrides`` replaces config fields (``{"seed": 3}``) before the
    config is validated; ``out`` and ``err`` default to the current
    ``sys.stdout`` and ``sys.stderr``."""
    err = sys.stderr if err is None else err
    try:
        if cfg is None:
            cfg = load_config(config_path)
        unknown = set(overrides or {}) - {f.name for f in fields(cfg)}
        if unknown:
            raise ConfigurationError(
                f"unknown config field(s) {sorted(unknown)}")
        cfg = replace(cfg, **(overrides or {}))
        cfg.validate()
        os.makedirs(cfg.output_dir, exist_ok=True)
    except (HomlabError, OSError) as exc:
        print(f"[config] {exc}", file=err)
        return STAGE_EXIT["config"]

    exp = Experiment(cfg, out=out)
    for stage in stages_for(upto):
        t0 = time.perf_counter()
        try:
            exp.run_stage(stage, dump_fields=dump_fields and stage == upto)
        except Exception as exc:  # any failure is a stage failure
            print(f"[{stage}] {exc}", file=err)
            return STAGE_EXIT[stage]
        exp.timings[stage] = time.perf_counter() - t0
        exp.peak_rss_mb[stage] = _peak_rss_mb()
    return 0
