"""homlab benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Each measurement runs ``homlab <command> -c <config>`` in a fresh child
process (``child.py``), one child at a time, and checks its artifacts.  The
seed becomes the config's ``seed`` key, which draws the eigensolver start
vectors, so the same seed gives the same inputs.

``--trace 0`` reports the end-to-end metrics (medians over the run):

* ``wall_s``: pipeline time in the child, set-up excluded;
* ``setup_s``: child start through ``import homlab.cli`` and ``load_config``,
  taken from several set-up-only children and every pipeline child;
* ``peak_rss_mb``: ``ru_maxrss`` of a pipeline child;
* ``ok_frac``: children that exited 0 and passed every check, over children
  attempted.

A run makes pipeline children until their time reaches ``--seconds`` and at
least two have run, so every run also checks that repeated runs write
byte-identical CSVs.

``--trace 1`` runs one untraced and one traced pipeline child (wrappers from
``spans.py``) and reports the per-layer metrics of the traced one, plus
``proc.cpu_s`` of the untraced one and the tracing overhead (traced
``wall_s`` minus untraced ``wall_s``).  Its CSVs must match the untraced ones
byte for byte, since wrappers may not change results.

``--smoke`` runs every workload on a tiny config, traced, and fails unless
every wrapped name resolves and every layer expected on the workload records
a call.

All files are written under ``.perfbench/`` at the root of the checkout: a
temporary work directory per run (removed afterwards) and a result file with
provenance, per-child details and the spans of traced runs.  The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")

#: Set-up-only children per run, after one warm-up child that fills the
#: bytecode and page caches and is not counted.
SETUP_CHILDREN = 6
#: Pipeline children per run, at least; two are needed to check determinism.
MIN_PIPELINE_CHILDREN = 2
#: No new pipeline child starts once this much of a run has passed, and any
#: child still running when the run budget is spent is killed: a run must end
#: within 180 s, and the largest workload takes 20-30 s per child.
START_DEADLINE_S = 110.0
RUN_BUDGET_S = 170.0
#: Relative eigenvalue tolerance: the config default of eig_tol, which no
#: workload overrides.
EIG_TOL = 1e-8
#: The oracle bounds of acceptance criterion 01 for the layered tensor.
LAYERED_TOL = 1e-3
ENERGY_IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    command: str
    config: Dict[str, str]
    artifacts: Tuple[str, ...]
    layers: Tuple[str, ...]
    # what the spectrum checks need to know of the effective config
    domain_n: Optional[int] = None
    k_eigen: Optional[int] = None
    layered_oracle: bool = False
    smoke_config: Dict[str, str] = field(default_factory=dict)


_ALL_OUT = ("cell_solution.json", "spectrum_E.csv", "gaps.csv", "rates.csv",
            "flux.csv", "report.json")

# Why each workload is here is recorded in BENCHMARK.json.
WORKLOADS = {
    "sweep-default": Workload(
        command="run", config={}, artifacts=_ALL_OUT,
        layers=("config", "pipeline", "cell", "coefficients", "fem", "domain",
                "spectral", "analysis"),
        domain_n=256, k_eigen=5,
        smoke_config={"cell_grid_n": "16", "domain_grid_n": "72",
                      "epsilons": "1/2, 1/4", "k_eigen": "3"}),
    "cell-fine": Workload(
        command="cell",
        config={"A_preset": "layered", "W_preset": "sine-mix",
                "cell_grid_n": "384"},
        artifacts=("cell_solution.json",),
        layers=("config", "pipeline", "cell", "coefficients", "fem"),
        layered_oracle=True,
        smoke_config={"cell_grid_n": "16"}),
    "spectrum-many": Workload(
        command="flux",
        config={"domain_grid_n": "128", "epsilons": "1/2, 1/4, 1/8",
                "k_eigen": "32"},
        artifacts=("cell_solution.json", "spectrum_E.csv", "flux.csv"),
        layers=("config", "pipeline", "cell", "coefficients", "fem",
                "spectral", "analysis"),
        domain_n=128, k_eigen=32,
        smoke_config={"cell_grid_n": "16", "domain_grid_n": "72",
                      "epsilons": "1/2, 1/4", "k_eigen": "8"}),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "ratio"}


def _log(text: str) -> None:
    print(text, file=sys.stderr, flush=True)


# -- children -----------------------------------------------------------------


@dataclass
class Child:
    kind: str  # "warmup" | "setup" | "pipeline" | "traced"
    result: dict
    setup_s: Optional[float]
    failures: List[str]
    digests: Dict[str, str] = field(default_factory=dict)


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # The epsilon pool already runs one thread per core; one BLAS thread per
    # pool thread keeps the child within nproc threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workdir: str, tag: str, config_path: str,
              command: Optional[str], traced: bool,
              timeout: float) -> Tuple[dict, float, List[str]]:
    """Run one child to completion; return (result, set-up s, failures)."""
    result_path = os.path.join(workdir, f"{tag}.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), result_path,
            config_path]
    if command is not None:
        argv.append(command)
        if traced:
            argv.append("--trace")
    log_path = os.path.join(workdir, f"{tag}.log")
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, cwd=workdir,
                                env=_child_env())
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    failures = []
    if code != 0:
        with open(log_path, "rb") as log:
            tail = log.read()[-600:].decode(errors="replace")
        what = "killed at the run's time budget" if code is None else (
            f"exited {code}")
        return {}, math.nan, [f"child {what}: {tail.strip()}"]
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    expected = os.path.join(SRC, "homlab")
    if not result["homlab_file"].startswith(expected + os.sep):
        failures.append(f"homlab imported from {result['homlab_file']}, "
                        f"not from {expected}")
    if command is not None and result.get("exit_code") != 0:
        failures.append(f"homlab {command} exited {result.get('exit_code')}")
    return result, result["ready_monotonic"] - spawned, failures


def write_config(path: str, settings: Dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{key} = {value}\n" for key, value in settings.items())


# -- correctness checks -------------------------------------------------------


def _load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _read_spectrum(path: str) -> Dict[str, List[float]]:
    tags: Dict[str, List[float]] = {}
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            tag, _, lam = line.rstrip("\n").split(",")
            tags.setdefault(tag, []).append(float(lam))
    return tags


def q1_spectrum(a11: float, a22: float, shift: float, n: int,
                k: int) -> List[float]:
    """Lowest k eigenvalues of the constant-coefficient Q1 Dirichlet pencil
    on the n-by-n unit-square grid: a11 mu_i + a22 mu_j + shift, with the 1D
    values mu_i = (6/h^2)(1 - cos i pi h)/(2 + cos i pi h)."""
    h = 1.0 / n
    mu = [6.0 / h ** 2 * (1.0 - math.cos(i * math.pi * h))
          / (2.0 + math.cos(i * math.pi * h)) for i in range(1, n)]
    # the k smallest sums use only the k smallest mu in each direction
    mu = mu[:k]
    return sorted(a11 * p + a22 * q + shift for p in mu for q in mu)[:k]


def _close(values: List[float], expected: List[float], tol: float) -> bool:
    return len(values) == len(expected) and all(
        abs(v - e) <= tol * max(abs(e), 1.0) for v, e in zip(values, expected))


def check_outputs(name: str, wl: Workload, outdir: str,
                  reference: Optional[dict]) -> List[str]:
    """Artifact, oracle and reference checks; returns failure messages."""
    missing = [a for a in wl.artifacts
               if not os.path.isfile(os.path.join(outdir, a))]
    if missing:
        return [f"missing artifacts: {', '.join(missing)}"]
    failures = []
    with open(os.path.join(outdir, "cell_solution.json"),
              encoding="utf-8") as fh:
        cell = json.load(fh)
    a_hat, m = cell["a_hat"], cell["m_w_chi_w"]
    if wl.layered_oracle:
        if not (abs(a_hat[0][0] - math.sqrt(3.0)) < LAYERED_TOL
                and abs(a_hat[1][1] - 2.0) < LAYERED_TOL):
            failures.append(f"a_hat {a_hat} misses diag(sqrt 3, 2)")
        if not cell["energy_identity_residual"] < ENERGY_IDENTITY_TOL:
            failures.append("energy identity residual "
                            f"{cell['energy_identity_residual']:.3e}")
    if wl.domain_n is None or reference is None:
        return failures
    spectra = _read_spectrum(os.path.join(outdir, "spectrum_E.csv"))
    off = max(abs(a_hat[0][1]), abs(a_hat[1][0]))
    if off > 1e-12 * max(abs(a_hat[0][0]), abs(a_hat[1][1])):
        failures.append(f"a_hat off-diagonal {off:.3e}: no closed form")
    for tag, shift in (("hom", m), ("hom_prime", 0.0)):
        expected = q1_spectrum(a_hat[0][0], a_hat[1][1], shift, wl.domain_n,
                               wl.k_eigen)
        if not _close(spectra.get(tag, []), expected, EIG_TOL):
            failures.append(f"{tag} spectrum misses the closed form")
    ref = reference[name]
    for tag, expected in ref.items():
        if not _close(spectra.get(tag, []), expected, EIG_TOL):
            failures.append(f"{tag} spectrum misses the reference values")
    extra = sorted(t for t in spectra if t.startswith("eps") and t not in ref)
    if extra:
        failures.append(f"unexpected spectra: {', '.join(extra)}")
    return failures


def csv_digests(outdir: str) -> Dict[str, str]:
    out = {}
    for fname in sorted(os.listdir(outdir)):
        if fname.endswith(".csv"):
            with open(os.path.join(outdir, fname), "rb") as fh:
                out[fname] = hashlib.sha256(fh.read()).hexdigest()
    return out


# -- one run ------------------------------------------------------------------


def _provenance(children: List[Child]) -> dict:
    prov = {"commit": None, "source_sha256": _source_digest()}
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        prov["commit"] = done.stdout.strip() or None
    for child in children:
        if "provenance" in child.result:
            prov.update(child.result["provenance"])
            break
    return prov


def _source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "homlab")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(base, fname)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


class Run:
    """The children of one benchmark invocation, sharing one config."""

    def __init__(self, name: str, wl: Workload, settings: Dict[str, str],
                 workdir: str, reference: Optional[dict]):
        self.name = name
        self.wl = wl
        self.settings = settings
        self.workdir = workdir
        self.reference = reference
        self.children: List[Child] = []
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def child(self, kind: str) -> Child:
        tag = f"{len(self.children):02d}-{kind}"
        outdir = os.path.join(self.workdir, tag)
        os.makedirs(outdir)
        config_path = os.path.join(outdir, "run.cfg")
        write_config(config_path, {**self.settings, "output_dir": outdir})
        command = None if kind in ("warmup", "setup") else self.wl.command
        result, setup_s, failures = run_child(
            self.workdir, tag, config_path, command, kind == "traced",
            self.deadline - time.monotonic())
        digests = {}
        if command is not None and not failures:
            failures = check_outputs(self.name, self.wl, outdir,
                                     self.reference)
            digests = csv_digests(outdir)
            first = next((c.digests for c in self.children if c.digests),
                         None)
            if first is not None and digests != first:
                failures.append("CSV artifacts differ from the run's first "
                                "pipeline child")
        shutil.rmtree(outdir)
        child = Child(kind, result, setup_s, failures, digests)
        self.children.append(child)
        for msg in failures:
            _log(f"[{self.name}] {tag}: FAIL {msg}")
        return child

    def of(self, *kinds: str) -> List[Child]:
        return [c for c in self.children if c.kind in kinds]


def _median(values: List[float]) -> Optional[float]:
    values = [v for v in values if v is not None and not math.isnan(v)]
    return statistics.median(values) if values else None


def measure(run: Run, seconds: float, traced: bool) -> dict:
    start = time.monotonic()
    for kind in ("warmup",) + ("setup",) * SETUP_CHILDREN:
        run.child(kind)
    if traced:
        run.child("pipeline")
        run.child("traced")
    else:
        spent = 0.0
        while True:
            child = run.child("pipeline")
            spent += child.result.get("wall_s", 0.0)
            if len(run.of("pipeline")) >= MIN_PIPELINE_CHILDREN and (
                    spent >= seconds
                    or time.monotonic() - start > START_DEADLINE_S):
                break
    timed = [c for c in run.of("pipeline") if not c.failures]
    measured = [c for c in run.children if c.kind != "warmup"]
    attempted = len(run.children)
    failed = sum(1 for c in run.children if c.failures)
    wall = _median([c.result.get("wall_s") for c in timed])
    if traced:
        from spans import METRICS

        traced_child = run.of("traced")[0]
        layer = traced_child.result.get("layer_metrics", {})
        metrics = {name: layer.get(name)
                   for name in (*METRICS, "cli.import_s")}
        metrics["proc.cpu_s"] = _median([c.result.get("cpu_s")
                                         for c in timed])
        t_wall = traced_child.result.get("wall_s")
        metrics["trace.overhead_s"] = (t_wall - wall if None not in
                                       (t_wall, wall) else None)
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": _median([c.setup_s for c in measured
                                if not c.failures]),
            "peak_rss_mb": _median([c.result.get("peak_rss_mb")
                                    for c in timed]),
            "ok_frac": (attempted - failed) / attempted,
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_max"):
        return "ratio"
    return "count"


def _have_sources() -> bool:
    if os.path.isfile(os.path.join(SRC, "homlab", "cli.py")):
        return True
    _log(f"no homlab sources under {SRC}")
    return False


def benchmark(name: str, seed: int, seconds: float, traced: bool) -> int:
    if not _have_sources():
        return 2
    os.makedirs(STATE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=STATE)
    settings = {**WORKLOADS[name].config, "seed": str(seed % 2 ** 31)}
    run = Run(name, WORKLOADS[name], settings, workdir, _load_reference())
    try:
        outcome = measure(run, seconds, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not any(c.result for c in run.children):
        _log("no child could set up homlab")
        return 3
    correct = outcome["failed"] == 0
    metrics = {k: {"value": v, "unit": _unit(k)}
               for k, v in outcome["metrics"].items()}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": traced,
        "config": settings, "provenance": _provenance(run.children),
        "correct": correct, "attempted": outcome["attempted"],
        "failed": outcome["failed"], "metrics": metrics,
        "children": [{"kind": c.kind, "setup_s": c.setup_s,
                      "failures": c.failures,
                      **{k: c.result.get(k) for k in
                         ("wall_s", "peak_rss_mb", "cpu_s", "absent")}}
                     for c in run.children],
        "spans": [s for c in run.of("traced")
                  for s in c.result.get("spans", [])],
    }
    results = os.path.join(STATE, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results,
                        f"{name}-seed{seed}-trace{int(traced)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _log(f"[{name}] result file {path}")
    for key, metric in metrics.items():
        _log(f"[{name}] {key} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


# -- smoke check --------------------------------------------------------------


def smoke() -> int:
    """Tiny traced runs: every name resolves, every expected layer is
    called."""
    if not _have_sources():
        return 2
    os.makedirs(STATE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="smoke-", dir=STATE)
    problems = []
    try:
        for name, wl in WORKLOADS.items():
            # the oracles hold only at the workloads' own resolution
            tiny = replace(wl, layered_oracle=False, domain_n=None)
            settings = {**wl.config, **wl.smoke_config, "seed": "0"}
            run = Run(name, tiny, settings, workdir, None)
            run.child("pipeline")
            traced = run.child("traced")
            problems += [f"{name}: {f}" for c in run.children
                         for f in c.failures]
            absent = traced.result.get("absent", [])
            problems += [f"{name}: wrapped name {a} is absent" for a in absent]
            metrics = traced.result.get("layer_metrics", {})
            spans = traced.result.get("spans", [])
            for layer in wl.layers:
                calls = sum(1 for s in spans
                            if s["name"].startswith(layer + "."))
                _log(f"[smoke] {name}: layer {layer}: {calls} calls")
                if calls == 0:
                    problems.append(f"{name}: layer {layer} recorded no call")
            nulls = sorted(k for k, v in metrics.items() if v is None)
            problems += [f"{name}: metric {k} is null" for k in nulls]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        _log(f"[smoke] FAIL {problem}")
    _log(f"[smoke] {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the tiny traced smoke check and exit")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return benchmark(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
