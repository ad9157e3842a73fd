"""One round of a workload, in a fresh process: set up, run one tcmerton
CLI command, and write the timings to a JSON file.

    python3 perfbench/one_round.py REQUEST.json

REQUEST.json holds ``spawned_at`` (time.monotonic() in the parent just
before this process was started), ``config``, ``argv`` (the CLI
arguments), ``trace`` (0 or 1), ``result`` and ``trace_file`` (paths).
Set-up runs from process start until numpy, scipy and tcmerton are
imported and the config is parsed.  Without tracing the only wrapper is
one timer around the CLI's call into pipeline.solve.
"""

import json
import sys
import time


def blas_threads():
    """Threads of each OpenBLAS loaded by numpy and scipy."""
    import ctypes
    import glob
    import os
    import numpy
    import scipy
    found = {}
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                            pkg.__name__ + ".libs", "*openblas*")
        for path in glob.glob(libs):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[pkg.__name__] = getter()
                    break
    return found


def environment():
    import os
    import platform
    import numpy
    import scipy
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}


def main(request_path):
    with open(request_path) as f:
        req = json.load(f)
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    from tcmerton import cli
    cli.RunConfig.from_file(req["config"])
    setup_s = time.monotonic() - req["spawned_at"]

    import spans
    tracer = spans.Tracer()
    spans.install(tracer, None if req["trace"] else {"pipeline.solve"})
    start = time.perf_counter()
    try:
        exit_code = cli.main(req["argv"])
    except Exception:  # a crash of the program is a failed operation
        import traceback
        traceback.print_exc()
        exit_code = "exception"
    wall_s = time.perf_counter() - start

    result = {"setup_s": setup_s, "wall_s": wall_s,
              "solve_s": tracer.total("pipeline.solve"),
              "exit_code": exit_code, "environment": environment()}
    if req["trace"]:
        result["layers"] = spans.layer_metrics(tracer)
        tracer.write(req["trace_file"])
    with open(req["result"], "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1])
