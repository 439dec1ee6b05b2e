"""Command-line entry point.

Each subcommand runs the pipeline up to (and including) the named stage, so
``homlab eigs -c run.cfg`` also performs the cell solves it depends on.
``homlab run`` goes all the way to ``report.json``.  Exit code 0 means every
stage finished; a nonzero code identifies the stage that failed (see the
README table).

OpenBLAS runs on one thread unless ``OPENBLAS_NUM_THREADS`` is already set:
the pipeline keeps one task per core busy, and BLAS threads on top of that
oversubscribe the cores and change the artifact bytes.  The default is set
here, before any module that imports numpy loads.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import sys
from typing import List, Optional

from .config import _parse_number
from .errors import ConfigurationError
from .pipeline import STAGE_EXIT, run_experiment


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-c", "--config", metavar="PATH", default=None,
                     help="config file (key = value lines); "
                          "defaults apply when omitted")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="Two-scale elliptic homogenization experiments on the "
                    "unit square.")
    subs = parser.add_subparsers(dest="stage", required=True)

    cell = subs.add_parser("cell", help="periodic cell problems and "
                                        "effective constants")
    _add_common(cell)
    cell.add_argument("--dump-fields", action="store_true",
                      help="also write cell_fields.csv with nodal corrector "
                           "values")

    solve = subs.add_parser("solve", help="boundary-value solves and "
                                          "corrected-difference norms")
    _add_common(solve)
    solve.add_argument("--epsilon", metavar="E", default=None,
                       help="solve a single scale (accepts 1/8 or 0.125) "
                            "instead of the configured sweep")
    solve.add_argument("--dump-fields", action="store_true",
                       help="also write solve_fields_<eps>.csv per scale")

    eigs = subs.add_parser("eigs", help="oscillatory and effective spectra")
    _add_common(eigs)
    eigs.add_argument("--epsilon", metavar="E", default=None,
                      help="restrict to a single scale")
    eigs.add_argument("--k", type=int, default=None, metavar="K",
                      help="set k_eigen (eigenpairs) for the whole run")
    eigs.add_argument("--seed", type=int, default=None, metavar="S",
                      help="set seed (start vector) for the whole run")

    for name, help_text in (
            ("gaps", "eigenvalue gap table (gaps.csv)"),
            ("rates", "log-log rate fits (rates.csv)"),
            ("flux", "boundary-flux diagnostics (flux.csv)"),
            ("run", "full pipeline through report.json")):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    upto = "report" if args.stage == "run" else args.stage

    epsilon = None
    raw_eps = getattr(args, "epsilon", None)
    if raw_eps is not None:
        try:
            epsilon = _parse_number(raw_eps, "epsilon")
        except ConfigurationError as exc:
            print(f"[config] {exc}", file=sys.stderr)
            return STAGE_EXIT["config"]

    return run_experiment(
        config_path=args.config,
        upto=upto,
        epsilon=epsilon,
        k_override=getattr(args, "k", None),
        seed_override=getattr(args, "seed", None),
        dump_fields=getattr(args, "dump_fields", False),
    )


if __name__ == "__main__":
    sys.exit(main())
