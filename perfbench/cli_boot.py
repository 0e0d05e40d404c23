"""The ``hodgespec`` command as the cli_files workload runs it, untraced or traced.

Usage: cli_boot.py RECORD_FILE SPAWN_STAMP TRACE ARGS...

Runs ``hodgespec.cli.main(ARGS)`` and exits with its code, as the installed
``hodgespec`` console script (``hodgespec.cli:main``) does.  The console
script cannot be used itself: a source checkout has no installed scripts, and
the process's own peak RSS must be read before it exits (``ru_maxrss`` of a
child also counts the RSS its parent had when it forked).  On the way out,
also when main raises, it writes RECORD_FILE: that peak RSS, and the
interpreter start, ``import hodgespec.cli`` and main times.  With TRACE=1 it
installs the span wrappers after the import and adds the spans of the call.
"""

import time

BOOTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402


def peak_rss_kb() -> int:
    """Peak RSS of this process's own address space (VmHWM), in KiB."""
    with open("/proc/self/status") as status:
        return int(next(line for line in status if line.startswith("VmHWM:")).split()[1])


def main() -> int:
    record_file, stamp, traced, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4:]
    clock = time.perf_counter
    start = clock()
    import hodgespec.cli

    imported = clock()
    record = {"interpreter_ms": (BOOTED - stamp) * 1000, "import_ms": (imported - start) * 1000}
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        tracer.active = True
    begin = clock()
    try:
        return hodgespec.cli.main(argv)
    finally:
        record["main_ms"] = (clock() - begin) * 1000
        if tracer:
            tracer.active = False
            record["trace"] = tracer.snapshot()
        record["peak_rss_kb"] = peak_rss_kb()
        with open(record_file, "w") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
