"""One benchmark sample: a fresh process running `amalgam verify` once.

Usage: child.py RESULT_JSON TRACE VERIFY_ARG...

The clock reading taken once `amalgam.cli` is imported lets the parent
compute set-up time from the moment it spawned this process.  Wall and CPU
time cover the `cli.main` call only; peak RSS is the whole process's.  The
host-speed index (hostspeed.py) is read just before and just after the call.  With
TRACE 1 the per-layer tracer wraps the package before the call.  The result
goes to RESULT_JSON; `cli.main` keeps stdout and stderr.
"""

import json
import resource
import sys
import time
import traceback

import amalgam.cli

READY = time.monotonic()

import hostspeed  # noqa: E402  (after READY: not part of set-up)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main() -> None:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    hostspeed.warm_up()
    index_before = hostspeed.index_s()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        code = amalgam.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code, error = None, traceback.format_exc()
    wall_s, cpu_s = time.perf_counter() - t0, _cpu_s() - cpu0
    index_after = hostspeed.index_s()
    result = {
        "ready": READY,
        "exit_code": code,
        "error": error,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "host_index_s": (index_before + index_after) / 2.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
        "layers": None if tracer is None else tracer.metrics(),
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
