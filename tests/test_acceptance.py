"""Acceptance criteria, one test per numbered criterion, and the solve count
of the default run's eigensolves, read from the same shared sweep.

Every test records a PASS/FAIL line (printed in the terminal summary) before
asserting, with the measured values inline.  Heavy sweeps are shared through
session-scoped fixtures.  Tolerances are frozen here next to the numbers they
guard; "measured" comments give the values observed when the thresholds were
calibrated on this implementation.
"""

import io
import os
import time

import numpy as np
import pytest

from conftest import factor, record_criterion, shifted_eigs
from homlab.analysis import jacobian_check
from homlab.cell import solve_cell
from homlab.coefficients import A_PRESETS, W_PRESETS, CoefficientModel, make_preset
from homlab.config import RunConfig
from homlab.domain import EpsProblem, solve_dirichlet_correctors
from homlab.fem import assemble_mass, assemble_stiffness, interior_operator
from homlab.grids import DirichletGrid
from homlab.pipeline import Experiment, run_experiment, stages_for
from homlab.analysis import rate_fit

EPS_SWEEP = (0.25, 0.125, 0.0625)


def _experiment(tmp_path_factory, name, targets, **overrides):
    cfg = RunConfig(output_dir=str(tmp_path_factory.mktemp(name)), **overrides)
    cfg.validate()
    exp = Experiment(cfg, out=io.StringIO())
    for stage in stages_for(*targets):
        exp.run_stage(stage)
    return exp


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """Full smooth-iso + sine1 + sine-sine sweep at n=256 (the default)."""
    t0 = time.perf_counter()
    exp = _experiment(tmp_path_factory, "default", ("rates", "flux"))
    return exp, time.perf_counter() - t0


@pytest.fixture(scope="session")
def layered_run(tmp_path_factory):
    """Layered diffusion at n=256: boundary correctors and flux rows."""
    return _experiment(tmp_path_factory, "layered", ("rates", "flux"),
                       a_preset="layered", w_preset="sine1")


@pytest.fixture(scope="session")
def identity_spectral_run(tmp_path_factory):
    """Identity diffusion + sine1 potential, first eigenvalue per scale."""
    return _experiment(tmp_path_factory, "idspec", ("solve", "gaps"),
                       a_preset="identity", w_preset="sine1", k_eigen=1)


@pytest.fixture(scope="session")
def laplace_spectrum():
    grid = DirichletGrid(64)
    k = interior_operator(grid, assemble_stiffness(
        grid, make_preset("identity").a_eval))
    m = interior_operator(grid, assemble_mass(grid))
    return shifted_eigs(k, m, 5, sigma=-1.0), m


def test_criterion_01_effective_tensor_oracle():
    t0 = time.perf_counter()
    cs = solve_cell(make_preset("layered"), 128)
    elapsed = time.perf_counter() - t0
    d11 = abs(cs.a_hat[0, 0] - np.sqrt(3.0))
    d22 = abs(cs.a_hat[1, 1] - 2.0)
    d12 = max(abs(cs.a_hat[0, 1]), abs(cs.a_hat[1, 0]))
    ok = d11 < 1e-3 and d22 < 1e-3 and d12 < 1e-10 and elapsed < 5.0
    record_criterion(1, ok,
                     f"layered n=128: |A11-sqrt(3)|={d11:.2e} (<1e-3), "
                     f"|A22-2|={d22:.2e} (<1e-3), off-diag={d12:.2e} "
                     f"(<1e-10), {elapsed:.2f}s (<5s)")
    assert ok


def test_criterion_02_effective_potential_oracle():
    cs = solve_cell(make_preset("identity", "sine1"), 128)
    target = -1.0 / (8 * np.pi ** 2)
    dm = abs(cs.m_w_chi_w - target)
    worst = 0.0
    for a in A_PRESETS:
        for w in W_PRESETS:
            c = solve_cell(make_preset(a, w), 64)
            worst = max(worst, c.energy_identity_residual)
    ok = dm < 1e-5 and worst < 1e-8
    record_criterion(2, ok,
                     f"identity+sine1 n=128: |m+1/(8pi^2)|={dm:.2e} (<1e-5); "
                     f"worst energy-identity residual over "
                     f"{len(A_PRESETS) * len(W_PRESETS)} presets={worst:.2e} "
                     "(<1e-8)")
    assert ok


def test_criterion_03_cross_flux_identity_decay():
    # The builtin presets make both sides of the identity vanish by parity,
    # so the check runs on a layered A with a phase-shifted potential.
    base = make_preset("layered")
    model = CoefficientModel(
        a_eval=base.a_eval,
        w_eval=lambda y1, y2: np.sin(2 * np.pi * np.asarray(y1, dtype=float) + 0.7),
        f_eval=base.f_eval, kappa=base.kappa)
    c_freeze = 1e-5  # frozen constant; measured defects sit ~60x below C*h
    defect = {}
    for n in (64, 128):
        defect[n] = float(np.max(
            solve_cell(model, n, tol=1e-12).cross_flux_defect))
    ratio = defect[64] / defect[128]
    ok = (defect[64] <= c_freeze / 64 and defect[128] <= c_freeze / 128
          and ratio >= 1.8)
    record_criterion(3, ok,
                     f"defect(n=64)={defect[64]:.2e} (<=C*h, C={c_freeze}), "
                     f"defect(n=128)={defect[128]:.2e}, ratio={ratio:.1f} "
                     "(>=1.8; measured 16, fourth order)")
    assert ok


def test_criterion_04_boundary_correctors(layered_run):
    p = EpsProblem(make_preset("identity"), 0.25, DirichletGrid(64))
    id_sup = solve_dirichlet_correctors(
        p, lu=factor(p.diffusion)).sup_deviation()

    pts = [(eps, float(np.max(np.abs(
        layered_run.per_eps[eps].correctors.deviation[0].values))))
        for eps in EPS_SWEEP]
    rep = rate_fit(pts, "phi_supnorm")
    ok = id_sup < 1e-12 and 0.8 <= rep.slope <= 1.2
    record_criterion(4, ok,
                     f"identity sup|Phi-x|={id_sup:.1e} (<1e-12); layered "
                     f"sup-norm slope={rep.slope:.3f} (in [0.8,1.2], "
                     f"R2={rep.r2:.4f})")
    assert ok


def test_criterion_05_expansion_h1_rate(default_run):
    exp, elapsed = default_run
    rep = exp.rates["h1_expansion"]
    beats = all(exp.per_eps[e].expansion.h1_w < exp.per_eps[e].expansion.h1_plain
                for e in EPS_SWEEP)
    ok = 0.8 <= rep["slope"] <= 1.2 and beats and elapsed < 300.0
    record_criterion(5, ok,
                     f"corrected-difference H1 slope={rep['slope']:.3f} "
                     f"(in [0.8,1.2], R2={rep['r2']:.4f}); corrected < plain "
                     f"at every scale: {beats}; sweep {elapsed:.0f}s (<300s)")
    assert ok


def test_criterion_06_l2_rate(default_run):
    exp, _ = default_run
    rep = exp.rates["l2_gap"]
    ok = rep["slope"] >= 0.8
    record_criterion(6, ok,
                     f"|u_eps-u_0| L2 slope={rep['slope']:.3f} (>=0.8, "
                     f"R2={rep['r2']:.4f})")
    assert ok


def test_criterion_07_first_eigenvalue_convergence(identity_spectral_run):
    exp = identity_spectral_run
    rows = exp.first_eig
    rep = rate_fit([(r["epsilon"], r["d8"]) for r in rows], "thm21_d8")
    target = 2 * np.pi ** 2 - 1.0 / (8 * np.pi ** 2)
    lam = next(r["lambda_eps_1"] for r in rows if r["epsilon"] == 0.0625)
    rel = abs(lam - target) / target
    ok = rep.slope >= 0.8 and rel <= 0.02
    record_criterion(7, ok,
                     f"|lambda_eps_1 - (lambda'_0_1+m)| slope={rep.slope:.2f} "
                     f"(>=0.8); lambda at eps=1/16: {lam:.6f} vs analytic "
                     f"{target:.6f}, rel={rel:.2e} (<=2%)")
    assert ok


def test_criterion_08_gap_scaling(default_run):
    # Honest red: at n=256 with eps in {1/4,1/8,1/16} the per-index gaps mix
    # discretization pollution with genuinely non-asymptotic scales (the
    # degenerate pair at 5 pi^2 splits, and measured-true gaps for identity
    # diffusion decay faster than eps, blowing the constant spread).  The
    # criterion is evaluated faithfully and currently fails; see the
    # decisions ledger for the full analysis including exact small-h values.
    exp, _ = default_run
    slopes = {k: exp.rates[f"eig_gap_k{k}"]["slope"] for k in range(1, 6)}
    consts = [r["normalized_const"] for r in exp.gap_rows]
    spread = max(consts) / min(consts)
    ok = all(s >= 0.8 for s in slopes.values()) and spread <= 5.0
    record_criterion(8, ok,
                     "gap slopes k=1..5: "
                     + ", ".join(f"{slopes[k]:.2f}" for k in range(1, 6))
                     + f" (need >=0.8); normalized-constant spread="
                     f"{spread:.1f} (need <=5)")
    assert ok


def test_criterion_09_eigensolver_sanity(laplace_spectrum):
    spec, m = laplace_spectrum
    exact = np.array(sorted(np.pi ** 2 * (p ** 2 + q ** 2)
                            for p in range(1, 6) for q in range(1, 6))[:5])
    rel = float(np.max(np.abs(spec.eigenvalues - exact) / exact))
    gram = spec.eigenvectors.T @ (m @ spec.eigenvectors)
    ortho = float(np.max(np.abs(gram - np.eye(5))))
    resid = float(np.max(spec.residuals))
    ok = rel < 0.01 and ortho < 1e-8 and resid < 1e-8
    record_criterion(9, ok,
                     f"n=64 Laplacian: max rel eig err={rel:.2e} (<1%), "
                     f"orthonormality={ortho:.1e} (<1e-8), "
                     f"residual={resid:.1e} (<1e-8)")
    assert ok


def test_criterion_10_flux_trends(default_run, layered_run):
    FLOOR = 0.5  # frozen calibration floor; measured global min 1.44

    model = make_preset("identity")
    p = EpsProblem(model, 0.25, DirichletGrid(128))
    spec = shifted_eigs(p.operator, p.mass_interior(), 1,
                        sigma=-1.0)
    from homlab.analysis import flux_table

    ratio = flux_table(p, spec)[0].ratio_lower
    id_rel = abs(ratio - 4.0) / 4.0

    details = [f"identity flux/lambda={ratio:.4f} (within 2% of 4: "
               f"{id_rel:.1e})"]
    ok = id_rel <= 0.02
    for name, exp in (("smooth-iso", default_run[0]), ("layered", layered_run)):
        lows = [r.ratio_lower for r in exp.flux_records]
        ups = [r.ratio_upper for r in exp.flux_records if r.in_upper_regime]
        spread = max(ups) / min(ups)
        ok = ok and min(lows) >= FLOOR and spread <= 10.0
        details.append(f"{name}: min ratio_lower={min(lows):.2f} (>={FLOOR}),"
                       f" upper spread={spread:.2f} (<=10)")
    record_criterion(10, ok, "; ".join(details))
    assert ok


def test_criterion_11_boundary_layer_jacobian(default_run, layered_run):
    mins = {}
    for name, exp in (("smooth-iso", default_run[0]), ("layered", layered_run)):
        mins[name] = min(exp.per_eps[e].jacobian_min for e in EPS_SWEEP)
    grid = DirichletGrid(256)
    model = make_preset("identity")
    problems = (EpsProblem(model, e, grid) for e in EPS_SWEEP)
    mins["identity"] = min(
        jacobian_check(solve_dirichlet_correctors(
            p, lu=factor(p.diffusion))) for p in problems)
    ok = all(v > 0.0 for v in mins.values())
    record_criterion(11, ok,
                     "min boundary-layer det(grad Phi): "
                     + ", ".join(f"{k}={v:.3f}" for k, v in mins.items())
                     + " (all > 0)")
    assert ok


def test_criterion_12_determinism(tmp_path_factory):
    body = ("cell_grid_n = 16\ndomain_grid_n = 68\nepsilons = 1/4\n"
            "k_eigen = 2\nemit_svg = true\noutput_dir = {}\n")
    outs = []
    for tag in ("da", "db"):
        root = tmp_path_factory.mktemp(tag)
        cfg = root / "run.cfg"
        out = root / "out"
        cfg.write_text(body.format(out))
        assert run_experiment(str(cfg), out=io.StringIO()) == 0
        outs.append(str(out))
    same = []
    for name in ("spectrum_E.csv", "gaps.csv", "rates.csv", "flux.csv",
                 "rates.svg", "cell_solution.json"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        same.append(a == b)
    ok = all(same)
    record_criterion(12, ok,
                     f"two identical runs: {sum(same)}/{len(same)} artifacts "
                     "byte-identical")
    assert ok


def test_default_pencils_converge_in_fewer_than_46_solves(default_run):
    """ARPACK, asked for machine precision, made 46 solves on every k = 5
    pencil of the default run; the Lanczos path stops at a tenth of
    eig_tol (measured 31-36)."""
    exp, _ = default_run
    assert exp.cfg.k_eigen == 5
    for tag, spectrum in exp.spectra.items():
        if tag == "hom":  # hom_prime's pairs moved by m, no solve of its own
            assert spectrum.solves == 0
        else:
            assert spectrum.method == "lanczos", tag
            assert 0 < spectrum.solves < 46, tag
