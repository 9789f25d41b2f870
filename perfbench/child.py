"""One benchmark sample: a fresh interpreter imports `fou` and runs one CLI command.

    python3 child.py SRC_DIR SPANS_PATH -- FOU_ARGV...

SPANS_PATH is "-" for an untraced run; otherwise the command runs under
the tracer and its spans are written there once the command has returned.
The last stdout line is one JSON object: import time, the command's wall
and CPU time, the process's peak RSS, the exit code and the versions in
use.  Nothing but the standard library is imported before `fou`, so the
import time is that of `fou` with numpy and scipy.
"""
import json
import os
import resource
import sys
import time


def _versions(numpy, scipy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": openblas}


def main() -> int:
    src, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        print("usage: child.py SRC_DIR SPANS_PATH -- FOU_ARGV...", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import fou
    import fou.cli
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(fou.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"imported fou from {fou.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if spans_path != "-":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t1 = time.perf_counter()
    try:
        rc = fou.cli.main(argv)
    finally:
        wall_s = time.perf_counter() - t1
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        tracer.dump(spans_path)

    import numpy
    import scipy
    print(json.dumps({
        "rc": rc, "setup_s": setup_s, "wall_s": wall_s,
        "cpu_s": (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
        "peak_rss_mb": r1.ru_maxrss / 1024.0,
        "versions": _versions(numpy, scipy),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
