"""Check that a refactor leaves every artifact byte unchanged.

    python3 tools/bytecheck.py PARENT_SRC

``PARENT_SRC`` is the ``src/`` directory of a checkout of the parent commit
(for example one made by ``git worktree add`` or ``git archive``).  It and
the ``src/`` beside this script run the same commands, one at a time, each
in a fresh temporary directory with ``OPENBLAS_NUM_THREADS=1``:
the five configs of ``BENCH_25.json`` and one ``homlab solve
--dump-fields`` on the built-in defaults.  Every file a run writes is
compared byte for byte, and so are its stdout and stderr, except
``report.json``, whose ``timings_s`` and ``peak_rss_mb`` differ from run to
run and are dropped before the rest is compared.

Prints one line per compared file, ``same`` or ``DIFF`` (or ``ONLY`` with
the side that has it), and exits 1 on any difference.  The runs take about
half a minute per side on a 2-core machine.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: name -> (command and options, config lines).  The first five are the
#: configs every byte-identity check since BENCH_25.json has used; n is a
#: multiple of 4 in each, so no assembled bit depends on OpenBLAS's GEMM
#: tail.
RUNS = {
    "default": (["run"], {}),
    "cell-fine": (["cell"], {"A_preset": "layered", "W_preset": "sine-mix",
                             "cell_grid_n": "384"}),
    "spectrum-many": (["flux"], {"domain_grid_n": "128",
                                 "epsilons": "1/2, 1/4, 1/8",
                                 "k_eigen": "32"}),
    "identity-zero": (["run"], {"A_preset": "identity", "W_preset": "zero",
                                "domain_grid_n": "128",
                                "epsilons": "1/2, 1/4, 1/8"}),
    "layered-sine1": (["run"], {"A_preset": "layered", "W_preset": "sine1",
                                "f_preset": "one", "domain_grid_n": "128",
                                "epsilons": "1/2, 1/4, 1/8", "seed": "3",
                                "emit_svg": "true"}),
    "solve-dump": (["solve", "--dump-fields"], {}),
}

#: report.json keys that hold measurements of the run, not results.
UNSTABLE_REPORT_KEYS = ("timings_s", "peak_rss_mb")


def run_side(src, workdir):
    """Run every entry of RUNS with the package at ``src``, each in its own
    directory under ``workdir`` and writing to ``out`` there."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(
               p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    for name, (command, settings) in RUNS.items():
        rundir = workdir / name
        rundir.mkdir(parents=True)
        config = rundir / "run.cfg"
        config.write_text("".join(f"{key} = {value}\n" for key, value in
                                  {**settings, "output_dir": "out"}.items()))
        done = subprocess.run(
            [sys.executable, "-m", "homlab", *command, "-c", str(config)],
            cwd=rundir, env=env, capture_output=True)
        (rundir / "out").mkdir(exist_ok=True)
        (rundir / "out" / "stdout").write_bytes(done.stdout)
        (rundir / "out" / "stderr").write_bytes(done.stderr)
        (rundir / "out" / "exit_code").write_text(f"{done.returncode}\n")


def comparable(path):
    """The bytes of ``path`` that must match; for report.json, its JSON
    without UNSTABLE_REPORT_KEYS, in the file's key order."""
    data = path.read_bytes()
    if path.name != "report.json":
        return data
    payload = json.loads(data)
    for key in UNSTABLE_REPORT_KEYS:
        payload.pop(key, None)
    return json.dumps(payload).encode()


def compare(parent_dir, change_dir):
    """Print one line per file of either side; return the number that
    differ or exist on one side only."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (parent_dir, change_dir)
                    for p in root.glob("*/out/*") if p.is_file()})
    bad = 0
    for name in names:
        a, b = parent_dir / name, change_dir / name
        shown = name.replace("/out/", "/")
        if not (a.exists() and b.exists()):
            bad += 1
            print(f"ONLY {'parent' if a.exists() else 'change'}  {shown}")
        elif comparable(a) != comparable(b):
            bad += 1
            print(f"DIFF  {shown}")
        else:
            print(f"same  {shown}")
    return bad


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=pathlib.Path,
                        help="src/ of a checkout of the parent commit")
    args = parser.parse_args(argv)
    if not (args.parent_src / "homlab" / "__init__.py").is_file():
        parser.error(f"{args.parent_src} holds no homlab package")
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bytecheck-"))
    try:
        run_side(args.parent_src.resolve(), workdir / "parent")
        run_side(SRC, workdir / "change")
        bad = compare(workdir / "parent", workdir / "change")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{'FAIL' if bad else 'PASS'}: {bad} file(s) differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
