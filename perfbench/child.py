"""One benchmark child process: set up, optionally run one CLI command, report.

    python3 child.py RESULT_JSON CONFIG [COMMAND [--trace]]

Set-up is ``import homlab.cli`` plus ``load_config(CONFIG)``; the child
stamps ``time.monotonic()`` when it ends, and the parent, which stamped the
same clock just before starting the child, takes the difference as the
set-up time.  With a COMMAND (``run``, ``cell``, ``flux``, ...) the child
then times ``homlab.cli.main([COMMAND, "-c", CONFIG])``.  With ``--trace`` it
first installs the layer wrappers of ``spans.py``; without it that module is
never imported.  Everything is written to RESULT_JSON; the child's own stdout
belongs to the pipeline.
"""

import json
import os
import resource
import sys
import time


def _blas():
    """Version string and thread count of each OpenBLAS that numpy and scipy
    load (their wheels bundle one each)."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            entry = {"package": pkg.__name__}
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}",
                                     None)
                get_threads = getattr(
                    lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
                    entry["threads"] = int(get_threads())
                    break
            out.append(entry)
    return out


def _provenance(cfg):
    import platform

    import numpy
    import scipy

    workers = getattr(cfg, "effective_workers", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "eps_pool_workers": workers() if callable(workers) else None,
    }


def main(argv):
    result_path, config_path = argv[1], argv[2]
    command = argv[3] if len(argv) > 3 else None
    traced = "--trace" in argv[4:]

    t_start = time.perf_counter()
    import homlab.cli
    import homlab.config
    t_imported = time.perf_counter()
    result = {"homlab_file": os.path.abspath(homlab.cli.__file__)}

    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        rec = spans.Recorder()
        present, absent = spans.install(rec)
        rec.add("cli.import", t_start, t_imported)
        result["absent"] = absent

    cfg = homlab.config.load_config(config_path)
    result["ready_monotonic"] = time.monotonic()

    if command is not None:
        t0 = time.perf_counter()
        result["exit_code"] = homlab.cli.main([command, "-c", config_path])
        result["wall_s"] = time.perf_counter() - t0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["provenance"] = _provenance(cfg)

    if traced:
        metrics = spans.layer_metrics(rec.spans, present)
        metrics["cli.import_s"] = t_imported - t_start
        result["layer_metrics"] = metrics
        threads = {}
        result["spans"] = [
            {**s, "thread": threads.setdefault(s["thread"], len(threads))}
            for s in rec.spans]

    tmp = result_path + ".partial"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, result_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
