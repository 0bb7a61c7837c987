"""Fresh-process probes started by run.py (PYTHONPATH points at src/).

    python child.py setup CURVE...
        Times ``import ecscalar.cli`` and the first ``load_builtin`` of each
        curve; prints one JSON line with the nanosecond counts.

    python child.py trace SPANS_PREFIX ARG...
        Runs ``ecscalar.cli.main(ARG...)`` as ``python -m ecscalar.cli ARG...``
        would, with spans around the import and the public calls; writes the
        spans to SPANS_PREFIX.{bin,json} and exits with main's code.
"""

from time import perf_counter_ns

T_MAIN = perf_counter_ns()

import sys  # noqa: E402


def setup(curves: list[str]) -> int:
    t0 = perf_counter_ns()
    import ecscalar.cli  # noqa: F401
    t1 = perf_counter_ns()
    from ecscalar.registry import load_builtin

    for curve in curves:
        load_builtin(curve)
    t2 = perf_counter_ns()
    print(f'{{"import_ns": {t1 - t0}, "load_ns": {t2 - t1}}}')
    return 0


def trace(prefix: str, argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.request = 0
    with tracer.span("cli.import"):
        import ecscalar.cli
    tracer.install()
    try:
        rc = ecscalar.cli.main(argv)
    finally:
        tracer.uninstall()
    tracer.dump(prefix, {"t_main": T_MAIN, "t_end": perf_counter_ns()})
    return rc


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup(rest))
    sys.exit(trace(rest[0], rest[1:]))
