"""Command-line entry point.

Each subcommand runs the pipeline up to (and including) the named stage, so
``homlab eigs -c run.cfg`` also performs the cell solves it depends on.
``homlab run`` goes all the way to ``report.json``.  The subcommands, their
help and their options are the rows of ``pipeline.STAGE_TABLE``; each option
is defined once, in :data:`OPTIONS`.  Exit code 0 means every stage
finished; a nonzero code identifies the stage that failed
(``pipeline.STAGE_EXIT``).

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
from .pipeline import STAGE_EXIT, STAGE_TABLE, run_experiment

#: Stage option (``STAGE_TABLE``'s options column) -> (argparse keywords,
#: the config overrides made from its value; None for a stage argument).
OPTIONS = {
    "dump_fields": (dict(action="store_true", help="also write the stage's "
                         "nodal fields (cell_fields.csv, or "
                         "solve_fields_<eps>.csv per scale)"), None),
    "epsilon": (dict(metavar="E", help="run a single scale (accepts 1/8 or "
                     "0.125) instead of the configured sweep"),
                lambda raw: {"epsilons": [_parse_number(raw, "epsilon")]}),
    "k": (dict(type=int, metavar="K",
               help="set k_eigen (eigenpairs) for the whole run"),
          lambda k: {"k_eigen": k}),
    "seed": (dict(type=int, metavar="S",
                  help="set seed (start vector) for the whole run"),
             lambda seed: {"seed": seed}),
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per ``STAGE_TABLE`` row, with that row's options."""
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="Two-scale elliptic homogenization experiments on the "
                    "unit square.")
    subs = parser.add_subparsers(dest="stage", required=True)
    for stage, row in STAGE_TABLE.items():
        sub = subs.add_parser("run" if stage == "report" else stage,
                              help=row.help)
        sub.set_defaults(upto=stage)
        sub.add_argument("-c", "--config", metavar="PATH", default=None,
                         help="config file (key = value lines); "
                              "defaults apply when omitted")
        for name in row.options:
            sub.add_argument("--" + name.replace("_", "-"), **OPTIONS[name][0])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    try:
        for name in STAGE_TABLE[args.upto].options:
            value, to_config = getattr(args, name), OPTIONS[name][1]
            if to_config is not None and value is not None:
                overrides.update(to_config(value))
    except ConfigurationError as exc:
        print(f"[config] {exc}", file=sys.stderr)
        return STAGE_EXIT["config"]
    return run_experiment(args.config, args.upto, overrides=overrides,
                          dump_fields=getattr(args, "dump_fields", False))


if __name__ == "__main__":
    sys.exit(main())
