"""End-to-end pipeline runs on a deliberately small configuration."""

import argparse
import importlib.util
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import homlab.domain
import homlab.fem
import homlab.pipeline
import homlab.spectral
from conftest import oracle_elements, oracle_matrix, shifted_eigs
from homlab.cli import build_parser, main
from homlab.coefficients import make_preset
from homlab.config import K_MAX, RunConfig
from homlab.domain import EpsProblem, constant_matrix, homogenized_lower_bound
from homlab.errors import ConfigurationError, SolverError
from homlab.fem import (assemble_stiffness, quad_samples, stiffness_elements,
                        weighted_mass_elements)
from homlab.grids import DirichletGrid
from homlab.pipeline import (
    SQUARE_DOMAIN_CAVEAT,
    STAGE_EXIT,
    STAGE_TABLE,
    STAGES,
    Experiment,
    run_experiment,
)

SMALL = """
A_preset = smooth-iso
W_preset = sine1
f_preset = sine-sine
cell_grid_n = 16
domain_grid_n = 68
epsilons = 1/4
k_eigen = 2
output_dir = {out}
emit_svg = true
"""


def write_cfg(tmp_path, name="run.cfg", body=SMALL, out="out"):
    path = tmp_path / name
    path.write_text(body.format(out=tmp_path / out))
    return str(path), str(tmp_path / out)


def test_full_run_writes_all_artifacts(tmp_path):
    cfg, out = write_cfg(tmp_path)
    stream = io.StringIO()
    code = run_experiment(cfg, out=stream)
    assert code == 0
    for name in ("cell_solution.json", "spectrum_E.csv", "gaps.csv",
                 "rates.csv", "flux.csv", "rates.svg", "report.json"):
        assert os.path.exists(os.path.join(out, name)), name
    assert SQUARE_DOMAIN_CAVEAT in stream.getvalue()
    assert not [f for f in os.listdir(out) if f.endswith(".partial")]


def test_csv_formats(tmp_path):
    cfg, out = write_cfg(tmp_path)
    assert run_experiment(cfg, out=io.StringIO()) == 0

    gaps = open(os.path.join(out, "gaps.csv"), newline="").read()
    lines = gaps.split("\n")
    assert lines[0] == "epsilon,k,lambda_eps,lambda_0,gap,normalized_const"
    assert "\r" not in gaps
    assert gaps.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "0.25"
    float(first[2])  # plain decimal-point floats throughout

    spect = open(os.path.join(out, "spectrum_E.csv")).read().split("\n")
    tags = {row.split(",")[0] for row in spect[1:] if row}
    assert tags == {"hom", "hom_prime", "eps:1/4", "eps_prime:1/4"}

    flux = open(os.path.join(out, "flux.csv")).read().split("\n")
    assert flux[0] == "epsilon,k,lambda,flux,ratio_upper,ratio_lower"


def test_single_epsilon_rate_fits_are_skipped_with_note(tmp_path):
    cfg, out = write_cfg(tmp_path)
    assert run_experiment(cfg, out=io.StringIO()) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    assert report["rates"] == {}
    assert any("at least 3" in note for note in report["rate_notes"])
    rates = open(os.path.join(out, "rates.csv")).read()
    assert rates == "quantity,slope,intercept,r2\n"


def test_report_carries_effective_constants(tmp_path):
    cfg, out = write_cfg(tmp_path)
    assert run_experiment(cfg, out=io.StringIO()) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    a_hat = np.array(report["cell"]["a_hat"])
    assert a_hat.shape == (2, 2)
    assert a_hat[0, 0] == pytest.approx(a_hat[1, 1], rel=1e-9)
    assert report["cell"]["m_w_chi_w"] < 0
    sol = report["solve"]["1/4"]
    assert sol["coercive"] is True
    assert sol["h1_w"] < sol["h1_plain"]
    assert report["flux"]["min_ratio_lower"] >= report["flux"]["lower_floor"]
    assert report["gaps"]["first_eig"][0]["d7"] < report["gaps"]["first_eig"][0]["d8"]
    assert set(report["eigs"]["solves"]) == set(report["eigs"]["tags"])
    # the effective pairs are closed forms, so only eps pencils cost solves
    assert report["eigs"]["solves"]["hom"] == 0
    assert report["eigs"]["solves"]["hom_prime"] == 0
    assert all(report["eigs"]["solves"][tag] > 0
               for tag in ("eps:1/4", "eps_prime:1/4"))
    assert set(report["timings_s"]) == set(STAGES)
    peaks = [report["peak_rss_mb"][stage] for stage in STAGES]
    assert all(p > 0 for p in peaks) and peaks == sorted(peaks)


TWO_EPS = SMALL.replace("epsilons = 1/4", "epsilons = 1/2, 1/4")


def test_report_coercivity_comes_from_the_spectra(tmp_path):
    cfg, out = write_cfg(tmp_path, body=TWO_EPS)
    assert run_experiment(cfg, out=io.StringIO()) == 0
    report = json.load(open(os.path.join(out, "report.json")))
    first = {}
    spectrum = open(os.path.join(out, "spectrum_E.csv")).read()
    for row in spectrum.splitlines()[1:]:
        tag, k, lam = row.split(",")
        if k == "1":
            first[tag] = float(lam)
    assert set(report["solve"]) == {"1/2", "1/4"}
    for label, sol in report["solve"].items():
        assert sol["lambda_eps_1"] == first[f"eps:{label}"]
        assert sol["lambda0_prime_1"] == first["hom_prime"]


def test_each_spectrum_is_computed_once(tmp_path, monkeypatch):
    calls = []
    real_eigs = homlab.pipeline.eigs

    def counting_eigs(op, mass, k, **kwargs):
        calls.append((kwargs["tag"], kwargs["epsilon"], k, kwargs["seed"]))
        return real_eigs(op, mass, k, **kwargs)

    monkeypatch.setattr(homlab.pipeline, "eigs", counting_eigs)
    cfg, _ = write_cfg(tmp_path, body=TWO_EPS)
    assert run_experiment(cfg, overrides={"seed": 3}, out=io.StringIO()) == 0
    pencils = [(tag, eps) for tag, eps, _, _ in calls]
    assert len(pencils) == len(set(pencils)) == 2 * 2
    assert set(pencils) == {
        (tag, eps) for tag in ("eps", "eps_prime") for eps in (0.5, 0.25)}
    assert {(k, seed) for _, _, k, seed in calls} == {(2, 3)}


def test_one_factorization_per_operator(tmp_path, monkeypatch):
    """Per scale, one factor each for eps_prime and eps, whose factor also
    serves solve_eps: 2 |epsilons| in a full run.  The effective operator
    is solved in closed form, with no factor."""
    made = []
    real = homlab.fem.factorize

    def counting_factorize(op):
        made.append(op.shape)
        return real(op)

    # the pipeline's tasks are the only place that factors
    assert not hasattr(homlab.domain, "factorize")
    assert not hasattr(homlab.spectral, "factorize")
    for module in (homlab.fem, homlab.pipeline):
        monkeypatch.setattr(module, "factorize", counting_factorize)
    cfg, _ = write_cfg(tmp_path, body=TWO_EPS)
    assert run_experiment(cfg, out=io.StringIO()) == 0
    assert len(made) == 2 * 2


def test_eigensolve_and_solves_share_one_factor(tmp_path, monkeypatch):
    eig_lu, solve_lu, homogenized_calls = {}, {}, []
    real_eigs = homlab.pipeline.eigs
    real_correctors = homlab.pipeline.solve_dirichlet_correctors
    real_homogenized = homlab.pipeline.solve_homogenized
    real_solve_eps = homlab.pipeline.solve_eps

    def eigs(op, mass, k, **kwargs):
        eig_lu[kwargs["tag"], kwargs["epsilon"]] = kwargs["lu"]
        return real_eigs(op, mass, k, **kwargs)

    def correctors(problem, lu=None):
        solve_lu["eps_prime", problem.epsilon] = lu
        return real_correctors(problem, lu=lu)

    def homogenized(*args):
        homogenized_calls.append(args)
        return real_homogenized(*args)

    def solve_eps(problem, *args, lu):
        solve_lu["eps", problem.epsilon] = lu
        return real_solve_eps(problem, *args, lu=lu)

    monkeypatch.setattr(homlab.pipeline, "eigs", eigs)
    monkeypatch.setattr(homlab.pipeline, "solve_dirichlet_correctors",
                        correctors)
    monkeypatch.setattr(homlab.pipeline, "solve_homogenized", homogenized)
    monkeypatch.setattr(homlab.pipeline, "solve_eps", solve_eps)
    cfg, _ = write_cfg(tmp_path, body=TWO_EPS)
    assert run_experiment(cfg, upto="solve", out=io.StringIO()) == 0
    assert set(solve_lu) == set(eig_lu) == {
        ("eps_prime", 0.5), ("eps_prime", 0.25), ("eps", 0.5), ("eps", 0.25)}
    for key, lu in solve_lu.items():
        assert lu is not None and eig_lu[key] is lu, key
    assert len(homogenized_calls) == 1  # u_0, in closed form


def test_hom_prime_shift_follows_the_sign_guard(tmp_path, monkeypatch):
    """The sign guard m > -2 pi^2 lambda_min(a_hat) no longer picks a
    shift: hom_prime is never eigensolved, its closed-form pairs are the
    same bits whatever m is, and when the guard fails the solve stage stops
    at the sign hypothesis."""
    tags = []
    real_eigs = homlab.pipeline.eigs

    def eigs(op, mass, k, **kwargs):
        tags.append(kwargs["tag"])
        return real_eigs(op, mass, k, **kwargs)

    monkeypatch.setattr(homlab.pipeline, "eigs", eigs)
    cfg = RunConfig(cell_grid_n=16, domain_grid_n=68, epsilons=[0.25],
                    k_eigen=2, output_dir=str(tmp_path))
    spectra = []
    for held in (True, False):
        exp = Experiment(cfg, out=io.StringIO())
        exp.run_stage("cell")
        bound = homogenized_lower_bound(exp.cell_solution.a_hat)
        m = 3.0 if held else -bound - 1.0
        exp.cell_solution.m_w_chi_w = m
        exp.run_stage("eigs")
        spectra.append(exp.spectra["hom_prime"])
        if not held:
            with pytest.raises(ConfigurationError, match="sign hypothesis"):
                exp.run_stage("solve")
    assert sorted(tags) == ["eps", "eps", "eps_prime", "eps_prime"]
    assert spectra[0].solves == spectra[1].solves == 0
    assert np.array_equal(spectra[0].eigenvalues, spectra[1].eigenvalues)
    assert np.array_equal(spectra[0].eigenvectors, spectra[1].eigenvectors)


def test_effective_spectra_match_the_closed_form(tmp_path):
    """The closed-form hom_prime pairs against the Lanczos eigensolve of
    the assembled K-hat, on a factor of K-hat + M; hom is them moved by m,
    with the same eigenvectors."""
    cfg = RunConfig(cell_grid_n=16, domain_grid_n=68, epsilons=[0.25],
                    output_dir=str(tmp_path))
    exp = Experiment(cfg, out=io.StringIO())
    exp.run_stage("cell")
    m = float(exp.cell_solution.m_w_chi_w)
    exp.run_stage("eigs")
    grid = exp.domain_grid
    stiffness = assemble_stiffness(grid, quad_samples(
        grid, constant_matrix(exp.cell_solution.a_hat)))
    oracle = shifted_eigs(stiffness, exp.mass, cfg.k_eigen,
                          sigma=-1.0, tol=cfg.eig_tol).eigenvalues
    hom_prime, hom = exp.spectra["hom_prime"], exp.spectra["hom"]
    assert np.max(np.abs(hom_prime.eigenvalues - oracle) / oracle) < 1e-10
    assert np.max(np.abs(hom.eigenvalues - (oracle + m))
                  / np.abs(oracle + m)) < 1e-10
    assert np.array_equal(hom.eigenvectors, hom_prime.eigenvectors)
    assert np.max(hom.residuals) < cfg.eig_tol


def test_smallest_grid_gives_k_max_pairs(tmp_path):
    """domain_grid_n = 16 at epsilon = 1 is the coarsest grid a config
    allows: 225 DOF, more than the 129-vector Lanczos basis of k = 64."""
    cfg = RunConfig(cell_grid_n=16, domain_grid_n=16, epsilons=[1.0],
                    k_eigen=K_MAX, output_dir=str(tmp_path))
    assert run_experiment(cfg=cfg, upto="flux", out=io.StringIO()) == 0
    rows = open(tmp_path / "spectrum_E.csv").read().splitlines()[1:]
    lam = np.array([float(row.split(",")[2]) for row in rows
                    if row.startswith("eps:1,")])
    p = EpsProblem(make_preset(cfg.a_preset, cfg.w_preset, cfg.f_preset),
                   1.0, DirichletGrid(16))
    ref = scipy.linalg.eigh(p.operator.toarray(), p.mass_interior().toarray(),
                            eigvals_only=True, subset_by_index=(0, K_MAX - 1))
    assert np.max(np.abs(lam - ref) / np.abs(ref)) < 1e-10


@pytest.mark.parametrize("upto", ["report", "eigs"])
def test_heap_is_released_after_assembly_and_each_task(tmp_path, monkeypatch,
                                                       upto):
    """Once after the operators are assembled and the effective closed forms
    computed, before the first task starts, and twice in each operator
    task, after its factorization and as it returns: 2 |epsilons| tasks in
    a stage that submits them all.  In a full run ``eigs`` submits none,
    since ``solve`` has every spectrum, but still passes its assembly."""
    events = []
    real = Experiment._submit_operator_tasks

    def submit(self, pool, solve):
        events.append("submit")
        return real(self, pool, solve)

    real_task = Experiment._operator_task

    def task(self, *args):
        events.append("task")
        return real_task(self, *args)

    monkeypatch.setattr(Experiment, "_operator_task", task)
    monkeypatch.setattr(Experiment, "_submit_operator_tasks", submit)
    monkeypatch.setattr(homlab.pipeline, "_release_heap",
                        lambda: events.append("release"))
    cfg, _ = write_cfg(tmp_path, body=TWO_EPS)
    assert run_experiment(cfg, upto=upto, out=io.StringIO()) == 0
    rounds = 2 if upto == "report" else 1
    starts = [i for i, event in enumerate(events) if event == "submit"]
    assert len(starts) == rounds
    assert all(events[i + 1] == "release" for i in starts)
    assert events.count("task") == 2 * 2
    assert events.count("release") == rounds + 2 * events.count("task")


def test_release_heap_without_malloc_trim_is_a_silent_no_op(monkeypatch):
    """A C library without ``malloc_trim`` (musl, macOS) or none at all
    (``CDLL`` failing to load) leaves the helper doing nothing."""
    import ctypes

    class NoTrim:
        pass

    def no_library(name):
        raise OSError("no C library")

    for loader in (lambda name: NoTrim(), no_library):
        monkeypatch.setattr(ctypes, "CDLL", loader)
        assert homlab.pipeline._release_heap() is None


def test_two_runs_are_byte_identical(tmp_path):
    """Also across pool sizes: one worker against two."""
    cfg1, out1 = write_cfg(tmp_path, "a.cfg", out="out1",
                           body=TWO_EPS + "workers = 1\n")
    cfg2, out2 = write_cfg(tmp_path, "b.cfg", out="out2",
                           body=TWO_EPS + "workers = 2\n")
    assert run_experiment(cfg1, out=io.StringIO()) == 0
    assert run_experiment(cfg2, out=io.StringIO()) == 0
    for name in ("spectrum_E.csv", "gaps.csv", "rates.csv", "flux.csv",
                 "rates.svg", "cell_solution.json"):
        a = open(os.path.join(out1, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b, name


def test_stage_subsets(tmp_path):
    cfg, out = write_cfg(tmp_path)
    assert run_experiment(cfg, upto="cell", out=io.StringIO()) == 0
    assert os.path.exists(os.path.join(out, "cell_solution.json"))
    assert not os.path.exists(os.path.join(out, "spectrum_E.csv"))

    assert run_experiment(cfg, upto="eigs", out=io.StringIO()) == 0
    assert os.path.exists(os.path.join(out, "spectrum_E.csv"))
    assert not os.path.exists(os.path.join(out, "gaps.csv"))


def test_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n")
    err = io.StringIO()
    assert run_experiment(str(bad), err=err) == STAGE_EXIT["config"]
    assert "no_such_key" in err.getvalue()


def test_stage_failure_maps_to_exit_code(tmp_path, monkeypatch):
    cfg, _ = write_cfg(tmp_path)

    def boom(self):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(Experiment, "stage_flux", boom)
    err = io.StringIO()
    assert run_experiment(cfg, err=err) == STAGE_EXIT["flux"]
    assert "[flux] synthetic failure" in err.getvalue()


def test_exit_codes_are_distinct():
    codes = list(STAGE_EXIT.values())
    assert len(codes) == len(set(codes))
    assert set(STAGE_EXIT) == set(STAGES) | {"config"}
    assert STAGE_EXIT == {"config": 2, "cell": 10, "solve": 11, "eigs": 12,
                          "gaps": 13, "rates": 14, "flux": 15, "report": 16}


def test_cli_subcommands_are_the_stage_table_rows():
    """One subcommand per row, in order (``report`` spelled ``run``), each
    taking ``-c`` and exactly the row's options."""
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    expected = {("run" if stage == "report" else stage): set(row.options)
                for stage, row in STAGE_TABLE.items()}
    assert list(subs.choices) == list(expected)
    for name, sub in subs.choices.items():
        dests = {action.dest for action in sub._actions} - {"help", "config"}
        assert dests == expected[name], name


def test_gaps_assembles_each_scale_once(tmp_path, monkeypatch):
    """eigs and the cluster projection of gaps share each scale's problem,
    so K_eps and M_W are assembled once per scale."""
    calls = {"assemble_stiffness": 0, "assemble_weighted_mass": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(homlab.domain, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(homlab.domain, name, counting)
    cfg, _ = write_cfg(tmp_path, body=TWO_EPS)
    assert run_experiment(cfg, upto="gaps", out=io.StringIO()) == 0
    assert calls == {"assemble_stiffness": 2, "assemble_weighted_mass": 2}


def test_cell_stage_assembles_no_dirichlet_operator(tmp_path, monkeypatch):
    """``homlab cell`` builds no problem and no domain grid: the grid and
    the Dirichlet operators are built only once the operator tasks are
    about to run."""
    calls = []
    names = {homlab.domain: ("assemble_stiffness", "assemble_weighted_mass",
                             "assemble_mass"),
             homlab.pipeline: ("assemble_stiffness", "assemble_mass")}
    for module, module_names in names.items():
        for name in module_names:
            def counting(*args, _name=name, _real=getattr(module, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(module, name, counting)
    exp = Experiment(RunConfig(cell_grid_n=16, domain_grid_n=68,
                               epsilons=[0.5, 0.25], output_dir=str(tmp_path)),
                     out=io.StringIO())
    exp.run_stage("cell")  # all that ``homlab cell`` runs
    assert calls == [] and exp.domain_grid is None


def assembled(tmp_path, a_preset, w_preset, n, epsilons):
    """An Experiment after its cell stage and ``_assemble``."""
    exp = Experiment(RunConfig(a_preset=a_preset, w_preset=w_preset,
                               cell_grid_n=16, domain_grid_n=n,
                               epsilons=epsilons, output_dir=str(tmp_path)),
                     out=io.StringIO())
    exp.run_stage("cell")
    exp._assemble()
    return exp


@pytest.mark.parametrize("n, epsilons", [(18, [1.0]), (64, [0.5, 0.25])])
@pytest.mark.parametrize("a_preset, w_preset", [
    ("smooth-iso", "sine1"), ("layered", "sine-mix"), ("identity", "zero")])
def test_interior_matrices_share_one_canonical_symmetric_pattern(
        tmp_path, a_preset, w_preset, n, epsilons):
    """The mass, K-hat and each scale's K_eps and L_eps sit on the grid's
    one pattern, whose ``take`` index is read-only too: shared, canonical,
    read-only index arrays, exactly
    symmetric matrices, and data equal bit for bit to the COO route's on
    the same element matrices.  (The element matrices themselves are
    checked against the einsum contractions in test_grids_fem.)"""
    exp = assembled(tmp_path, a_preset, w_preset, n, epsilons)
    grid = exp.domain_grid
    pattern = grid.pattern
    assert not pattern.take.flags.writeable
    model = exp.model
    oracles = {
        "mass": oracle_matrix(grid, oracle_elements(grid)),
        "hom_prime": oracle_matrix(grid, stiffness_elements(
            grid, quad_samples(grid, constant_matrix(
                exp.cell_solution.a_hat)))),
    }
    mats = {"mass": exp.mass, "hom_prime": assemble_stiffness(
        grid, quad_samples(grid, constant_matrix(exp.cell_solution.a_hat)))}
    for eps, problem in exp.problems.items():
        def scaled(field, eps=eps):
            return quad_samples(grid, lambda x1, x2: field(x1 / eps, x2 / eps))

        k_eps = oracle_matrix(grid, stiffness_elements(
            grid, scaled(model.a_eval)))
        l_eps = k_eps
        if w_preset != "zero":
            l_eps = k_eps + (1.0 / eps) * oracle_matrix(
                grid, weighted_mass_elements(grid, scaled(model.w_eval)))
        oracles[f"eps_prime:{eps}"], oracles[f"eps:{eps}"] = k_eps, l_eps
        mats[f"eps_prime:{eps}"] = problem.diffusion
        mats[f"eps:{eps}"] = problem.operator
    for name, mat in mats.items():
        for part in ("indptr", "indices"):
            arr = getattr(mat, part)
            assert np.shares_memory(arr, getattr(pattern, part)), name
            assert not arr.flags.writeable, name
        assert mat.has_canonical_format, name
        assert (mat != mat.T).nnz == 0, name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(mat, part),
                                  getattr(oracles[name], part)), (name, part)


def test_a_shift_above_lambda_1_fails_the_factor_and_names_the_operator(
        tmp_path):
    """The factor of K_eps - sigma M exists only for sigma below the
    spectrum: at lambda_1 + 1 the task raises SolverError naming the
    operator, its scale and the shift."""
    exp = assembled(tmp_path, "smooth-iso", "sine1", 18, [1.0])
    op, _, problem = exp.operators["eps_prime:1"]
    lam_1 = scipy.linalg.eigh(op.toarray(), exp.mass.toarray(),
                              eigvals_only=True, subset_by_index=[0, 0])[0]
    exp.operators["eps_prime:1"] = (op, lam_1 + 1.0, problem)
    with pytest.raises(SolverError) as exc:
        exp._operator_task("eps_prime:1", solve=False)
    assert (f"shift {lam_1 + 1.0:.6g} is not below the spectrum of "
            "eps_prime at epsilon=1") in str(exc.value)


@pytest.mark.parametrize("upto", ["eigs", "report"])
def test_pattern_survives_a_run(tmp_path, monkeypatch, upto):
    """No factorization, sum or product of a run writes into the shared
    index arrays: they end the run as ``_assemble`` left them."""
    kept = {}
    real = Experiment._assemble

    def assemble(self):
        real(self)
        if not kept:  # the first call assembles, later ones return early
            kept["pattern"] = self.domain_grid.pattern
            kept["bytes"] = [arr.tobytes() for arr in (
                kept["pattern"].indptr, kept["pattern"].indices,
                kept["pattern"].take)]

    monkeypatch.setattr(Experiment, "_assemble", assemble)
    cfg, _ = write_cfg(tmp_path, body=TWO_EPS)
    assert run_experiment(cfg, upto=upto, out=io.StringIO()) == 0
    pattern = kept["pattern"]
    assert [arr.tobytes() for arr in (
        pattern.indptr, pattern.indices, pattern.take)] == kept["bytes"]


def test_uncreatable_output_dir_is_a_config_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file\n")
    cfg = RunConfig(cell_grid_n=16, domain_grid_n=68, epsilons=[0.25],
                    output_dir=str(blocker / "sub"))
    err = io.StringIO()
    assert run_experiment(cfg=cfg, upto="cell", err=err) == STAGE_EXIT["config"]
    assert err.getvalue().startswith("[config] ")
    assert str(blocker / "sub") in err.getvalue()


@pytest.mark.parametrize("overrides, field", [
    ({"kk": 3}, "kk"), ({"k_eigen": "5"}, "k_eigen"),
    ({"k_eigen": True}, "k_eigen"),
    ({"epsilons": [0.25, "1/8"]}, "epsilons")])
def test_bad_overrides_are_a_config_error(tmp_path, overrides, field):
    cfg, _ = write_cfg(tmp_path)
    err = io.StringIO()
    assert run_experiment(cfg, upto="cell", overrides=overrides,
                          out=io.StringIO(), err=err) == STAGE_EXIT["config"]
    assert err.getvalue().startswith("[config] ")
    assert field in err.getvalue()


def test_cli_rejects_negative_seed(tmp_path, capsys):
    cfg, _ = write_cfg(tmp_path)
    assert main(["eigs", "-c", cfg, "--seed", "-1"]) == STAGE_EXIT["config"]
    assert "[config] seed must be nonnegative" in capsys.readouterr().err


def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"seed = \xff\n")
    assert main(["cell", "-c", str(path)]) == STAGE_EXIT["config"]
    assert capsys.readouterr().err.startswith("[config] cannot read config")


def test_cli_cell_dump_fields(tmp_path):
    cfg, out = write_cfg(tmp_path)
    assert main(["cell", "-c", cfg, "--dump-fields"]) == 0
    head = open(os.path.join(out, "cell_fields.csv")).readline().strip()
    assert head == "y1,y2,chi1,chi2,chi_w"


def test_cli_solve_single_epsilon_dump(tmp_path):
    cfg, out = write_cfg(tmp_path)
    assert main(["solve", "-c", cfg, "--epsilon", "1/4", "--dump-fields"]) == 0
    path = os.path.join(out, "solve_fields_1_4.csv")
    head = open(path).readline().strip()
    assert head == "x1,x2,u_eps,u_0,phi1,phi2"


def test_cli_eigs_overrides(tmp_path):
    cfg, out = write_cfg(tmp_path)
    assert main(["eigs", "-c", cfg, "--epsilon", "0.25", "--k", "3",
                 "--seed", "5"]) == 0
    rows = [r for r in open(os.path.join(out, "spectrum_E.csv")).read().split("\n")
            if r.startswith("eps:1/4,")]
    assert len(rows) == 3


def test_cli_rejects_malformed_epsilon(tmp_path, capsys):
    cfg, _ = write_cfg(tmp_path)
    assert main(["solve", "-c", cfg, "--epsilon", "huge"]) == STAGE_EXIT["config"]
    assert "cannot parse" in capsys.readouterr().err


# Prints OPENBLAS_NUM_THREADS as it stands when numpy is first imported.
_BLAS_PROBE = """
import os, sys
seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Probe())
import homlab.cli
print(seen[0])
"""


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("3", "3")])
def test_cli_pins_openblas_threads_unless_set(preset, threads):
    """Importing the CLI sets OPENBLAS_NUM_THREADS=1 before numpy loads,
    and a value already in the environment wins."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = os.path.dirname(os.path.dirname(homlab.pipeline.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == threads


def loaded_by_cli_import(module):
    """``"True"`` or ``"False"``: whether a fresh ``import homlab.cli`` puts
    ``module`` in ``sys.modules``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(homlab.pipeline.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    probe = f"import sys, homlab.cli; print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_cli_import_leaves_the_factor_module_unloaded():
    """``import homlab.cli`` does not load ``homlab.cholesky``: the factor
    module is imported on first use (``fem.factorize``), and the set-up
    time of every command depends on it staying out."""
    assert loaded_by_cli_import("homlab.cholesky") == "False"


def test_cli_import_leaves_scipy_linalg_unloaded():
    """``import homlab.cli`` does not load ``scipy.linalg``: scipy serves
    only the sparse matrices, and numpy.linalg makes every dense
    factorization and solve."""
    assert loaded_by_cli_import("scipy.linalg") == "False"


def test_benchmark_span_targets_resolve():
    """Every name the traced benchmark wraps still exists in the package,
    so a refactor that drops one fails here and not only in a traced run."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, attr_path, _, _ in spans.TARGETS:
        _, _, target = spans._resolve(module_name, attr_path)
        assert callable(target), f"{module_name}.{attr_path}"
