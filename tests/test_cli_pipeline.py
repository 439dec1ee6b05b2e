"""End-to-end pipeline runs on a deliberately small configuration."""

import io
import json
import os

import numpy as np
import pytest

import homlab.domain
import homlab.fem
import homlab.pipeline
import homlab.spectral
from homlab.cli import main
from homlab.config import RunConfig
from homlab.domain import homogenized_lower_bound
from homlab.errors import ConfigurationError
from homlab.pipeline import (
    SQUARE_DOMAIN_CAVEAT,
    STAGE_EXIT,
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
    assert run_experiment(cfg, seed_override=3, out=io.StringIO()) == 0
    pencils = [(tag, eps) for tag, eps, _, _ in calls]
    assert len(pencils) == len(set(pencils))
    assert set(pencils) == {("hom_prime", None)} | {
        (tag, eps) for tag in ("eps", "eps_prime") for eps in (0.5, 0.25)}
    assert {(k, seed) for _, _, k, seed in calls} == {(2, 3)}


def test_one_factorization_per_operator(tmp_path, monkeypatch):
    """One factor for hom_prime and, per scale, one each for eps_prime, the
    eps eigensolve and solve_eps: 3 |epsilons| + 1 in a full run."""
    made = []
    real = homlab.fem.factorize

    def counting_factorize(op):
        made.append(op.shape)
        return real(op)

    for module in (homlab.fem, homlab.domain, homlab.spectral,
                   homlab.pipeline):
        monkeypatch.setattr(module, "factorize", counting_factorize)
    cfg, _ = write_cfg(tmp_path, body=TWO_EPS)
    assert run_experiment(cfg, out=io.StringIO()) == 0
    assert len(made) == 3 * 2 + 1


def test_eigensolve_and_solves_share_one_factor(tmp_path, monkeypatch):
    eig_lu, solve_lu = {}, {}
    real_eigs = homlab.pipeline.eigs
    real_correctors = homlab.pipeline.solve_dirichlet_correctors
    real_homogenized = homlab.pipeline.solve_homogenized

    def eigs(op, mass, k, **kwargs):
        eig_lu[kwargs["tag"], kwargs["epsilon"]] = kwargs["lu"]
        return real_eigs(op, mass, k, **kwargs)

    def correctors(problem, lu=None):
        solve_lu["eps_prime", problem.epsilon] = lu
        return real_correctors(problem, lu=lu)

    def homogenized(*args, lu):
        solve_lu["hom_prime", None] = lu
        return real_homogenized(*args, lu=lu)

    monkeypatch.setattr(homlab.pipeline, "eigs", eigs)
    monkeypatch.setattr(homlab.pipeline, "solve_dirichlet_correctors",
                        correctors)
    monkeypatch.setattr(homlab.pipeline, "solve_homogenized", homogenized)
    cfg, _ = write_cfg(tmp_path, body=TWO_EPS)
    assert run_experiment(cfg, upto="solve", out=io.StringIO()) == 0
    assert set(solve_lu) == {("hom_prime", None), ("eps_prime", 0.5),
                             ("eps_prime", 0.25)}
    for key, lu in solve_lu.items():
        assert lu is not None and eig_lu[key] is lu, key


def test_hom_prime_shift_follows_the_sign_guard(tmp_path, monkeypatch):
    """sigma = -m when m > -2 pi^2 lambda_min(a_hat), so the factor is
    K + mM; otherwise sigma = -1, the spectrum is unchanged and the solve
    stage stops at the sign hypothesis."""
    sigmas = []
    real_eigs = homlab.pipeline.eigs

    def eigs(op, mass, k, **kwargs):
        sigmas.append(kwargs["sigma"])
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
        spectra.append(exp.spectrum("hom_prime").eigenvalues)
        assert sigmas[-1] == (-m if held else -1.0)
        if not held:
            with pytest.raises(ConfigurationError, match="sign hypothesis"):
                exp.run_stage("solve")
    assert np.max(np.abs(spectra[0] - spectra[1]) / spectra[0]) < 1e-10


def test_effective_spectra_match_the_closed_form(tmp_path):
    """For diagonal a_hat the Q1 pencil is a Kronecker sum of 1D pencils:
    lambda = a11 mu_i + a22 mu_j (+ m for hom), mu_i the 1D Q1 values."""
    cfg = RunConfig(cell_grid_n=16, domain_grid_n=68, epsilons=[0.25],
                    output_dir=str(tmp_path))
    exp = Experiment(cfg, out=io.StringIO())
    exp.run_stage("cell")
    a_hat = exp.cell_solution.a_hat
    m = float(exp.cell_solution.m_w_chi_w)
    assert abs(a_hat[0, 1]) < 1e-12 and abs(a_hat[1, 0]) < 1e-12

    n = cfg.domain_grid_n
    h = 1.0 / n
    c = np.cos(np.arange(1, n) * np.pi * h)
    mu = (6.0 / h ** 2) * (1.0 - c) / (2.0 + c)
    exact = np.sort((a_hat[0, 0] * mu[:, None]
                     + a_hat[1, 1] * mu[None, :]).ravel())[:cfg.k_eigen]

    hom_prime = exp.spectrum("hom_prime")
    hom = exp.spectrum("hom")
    assert hom_prime.method == "arpack"
    assert np.max(np.abs(hom_prime.eigenvalues - exact) / exact) < 1e-10
    assert np.max(np.abs(hom.eigenvalues - (exact + m))
                  / np.abs(exact + m)) < 1e-10
    assert np.array_equal(hom.eigenvectors, hom_prime.eigenvectors)
    assert np.max(hom.residuals) < cfg.eig_tol


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
