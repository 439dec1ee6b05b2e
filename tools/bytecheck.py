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
the side that has it), and exits 1 on any difference.  A ``DIFF`` line of a
CSV or JSON file also gives the largest relative difference
``|a - b| / max(|a|, |b|)`` over its numbers (CSV cells, and the numbers of
a JSON file, ``report.json`` without the keys above) and where it sits, or
says that the two sides' text or layout differs, so that a deliberate
round-off move is bounded by the same command.  On ``report.json`` it also
lists every integer that differs, as ``where a -> b``, or says ``solves
same``: the largest relative move there is a round-off probe, which would
hide a changed solve count.  The runs take about half a minute per side on
a 2-core machine.
"""

import argparse
import csv
import io
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


def cells(path):
    """``(where, value)`` for each CSV cell or JSON key and leaf of
    ``path``, in file order, CSV numbers as floats and JSON numbers as
    parsed; None for other files."""
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(path.read_text())))
        out = []
        for r, row in enumerate(rows):
            for c, cell in enumerate(row):
                try:
                    value = float(cell)
                except ValueError:
                    value = cell
                out.append((f"row {r} {rows[0][c] if c < len(rows[0]) else c}",
                            value))
        return out
    if path.suffix != ".json":
        return None
    out = []

    def walk(where, node):
        if isinstance(node, dict):
            for key, value in node.items():
                out.append((where, key))
                walk(f"{where}.{key}" if where else key, value)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(f"{where}[{i}]", value)
        else:
            out.append((where, node))

    walk("", json.loads(comparable(path)))
    return out


def largest_move(a, b):
    """What a DIFF line adds for files ``a`` and ``b``: the largest relative
    difference over their numbers and where it sits, or why there is none,
    and for report.json the integers that differ."""
    left, right = cells(a), cells(b)
    if left is None:
        return ""
    if len(left) != len(right):
        return "  (layout differs)"
    worst, where, counts = 0.0, None, []
    for (place, x), (_, y) in zip(left, right):
        if _is_number(x) and _is_number(y):
            if isinstance(x, int) and isinstance(y, int) and x != y:
                counts.append(f"{place} {x} -> {y}")
            if x != y and not (x != x and y != y):  # NaN on both sides
                move = abs(x - y) / max(abs(x), abs(y))
                if not move <= worst:
                    worst, where = move, place
        elif x != y:
            return f"  (text differs at {place})"
    if where is None:
        return "  (same numbers)"
    if a.name == "report.json":
        where += "; " + (", ".join(counts) or "solves same")
    return f"  (max rel diff {worst:.1e} at {where})"


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
            print(f"DIFF  {shown}{largest_move(a, b)}")
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
