"""One pass of one workload in a fresh process: set up, run each job once, check.

Usage: worker.py WORKLOAD SEED SPAWN_STAMP MODE WORKDIR

SPAWN_STAMP is the CLOCK_MONOTONIC reading taken by the parent just before
it started this process, so set-up time covers interpreter start, ``import
hodgespec`` and input generation.  Jobs run back to back in a closed loop;
each output is checked right after its job, outside the timed region, and a
calibration sum is timed right before it (see ``run.py`` for its use).
MODE is ``run``; ``trace``, which installs the span wrappers before the
first job; or ``setup``, which stops after set-up and reports only its
times and SETUP_CALIBRATIONS calibrations.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import time

SPAWN_CLOCK = time.CLOCK_MONOTONIC

import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

from cli_boot import peak_rss_kb  # noqa: E402

TRACEBACK = "Traceback (most recent call last)"
SETUP_CALIBRATIONS = 7  # the calibrations that scale a set-up's input generation
ROOT = str(Path(__file__).resolve().parent.parent) + "/"


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python Fraction sum, with gc held off.

    It does the same kind of work as hodgespec, so on a core shared with
    other tenants it slows down as the jobs around it do.
    """
    gc.disable()
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(1, k)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed * 1000


def output_size(out) -> int:
    """Entries of a spectrum, table or tuple of them; bytes of CLI stdout."""
    if isinstance(out, tuple):
        return sum(output_size(part) for part in out)
    for attr in ("entries", "counts", "stdout"):
        if hasattr(out, attr):
            return len(getattr(out, attr))
    return 1


def summarize_inputs(jobs, sizes, latencies) -> dict:
    """Input properties per job kind, and the share of jobs whose lattice repeats."""
    kinds: dict[str, dict] = {}
    seen, repeats, with_lattice = set(), 0, 0
    for job, size, ms in zip(jobs, sizes, latencies):
        row = kinds.setdefault(job.kind, {"jobs": 0, "n": set(), "bounds": [], "sizes": [], "ms": []})
        row["jobs"] += 1
        row["ms"].append(ms)
        if "n" in job.props:
            row["n"].add(job.props["n"])
        for key in ("walk_bound", "table_bound", "cutoff"):
            if key in job.props:
                row["bounds"].append(job.props[key])
        if size is not None:
            row["sizes"].append(size)
        if job.lattice is not None:
            with_lattice += 1
            repeats += job.lattice in seen
            seen.add(job.lattice)
    out = {}
    for kind, row in sorted(kinds.items()):
        out[kind] = {"jobs": row["jobs"], "median_ms": statistics.median(row["ms"]),
                     "dimensions": sorted(row["n"])}
        if row["bounds"]:
            out[kind]["bound_range"] = [str(min(row["bounds"])), str(max(row["bounds"]))]
        if row["sizes"]:
            out[kind]["output_size_min_median_max"] = [
                min(row["sizes"]), statistics.median(row["sizes"]), max(row["sizes"])]
    return {"kinds": out, "lattices": len(seen),
            "lattice_repeat_share": repeats / with_lattice if with_lattice else 0.0}


def main() -> int:
    workload, seed, stamp = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    mode, workdir = sys.argv[4], Path(sys.argv[5])
    traced = mode == "trace"
    # One CPU for the pass and its CLI children, so the calibration times the
    # same core the jobs run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    import hodgespec  # noqa: F401  -- part of set-up, as for any user

    import workloads

    import_s = time.clock_gettime(SPAWN_CLOCK) - stamp  # interpreter start and imports
    jobs = workloads.build(workload, seed, workdir, traced)
    if mode == "setup":
        json.dump({"setup_s": time.clock_gettime(SPAWN_CLOCK) - stamp, "import_s": import_s,
                   "calibration_ms": [calibrate() for _ in range(SETUP_CALIBRATIONS)]}, sys.stdout)
        return 0
    tracer = None
    if traced and workload != "cli_files":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    clock = time.perf_counter
    latencies, failures, sizes = [], [], []
    bytes_in = bytes_out = cli_peak_kb = 0
    setup_s = None
    calibration = []
    for index, job in enumerate(jobs):
        if setup_s is None:
            setup_s = time.clock_gettime(SPAWN_CLOCK) - stamp
        calibration.append(calibrate())
        error = None
        if tracer:
            tracer.active = True
        start = clock()
        try:
            out = job.run()
        except Exception as exc:  # a raising job is a failed job, not a broken run
            error = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = clock() - start
            if tracer:
                tracer.active = False
        latencies.append(elapsed * 1000)
        if error is not None:
            failures.append({"job": index, "kind": job.kind,
                             "status": "known_defect" if job.known_defect else "crash",
                             "detail": error})
            sizes.append(None)
            continue
        sizes.append(output_size(out))
        if isinstance(out, workloads.CliResult):
            bytes_in += out.bytes_in
            bytes_out += out.bytes_out
            cli_peak_kb = max(cli_peak_kb, out.peak_rss_kb)
        try:
            reason = job.check(out)
        except Exception as exc:
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            crashed = isinstance(out, workloads.CliResult) and TRACEBACK in out.stderr
            status = "known_defect" if job.known_defect else "crash" if crashed else "wrong"
            failures.append({"job": index, "kind": job.kind, "status": status,
                             "detail": reason.replace(ROOT, "")[:300]})

    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "jobs": [job.kind for job in jobs],
        "latencies_ms": latencies,
        "calibration_ms": calibration,
        "failures": failures,
        "peak_rss_mb": (cli_peak_kb if workload == "cli_files" else peak_rss_kb()) / 1024,
        "inputs": summarize_inputs(jobs, sizes, latencies),
        "json_bytes_in": bytes_in,
        "json_bytes_out": bytes_out,
    }
    if tracer:
        result["trace"] = tracer.snapshot()
    elif traced:  # cli_files: the bootstrap of every call left a record
        import spans

        calls = [json.loads(path.read_text()) for path in sorted(workdir.glob("call-*.json"))]
        result["trace"] = spans.merge_snapshots(call["trace"] for call in calls)
        result["cli_calls"] = [{k: call[k] for k in ("interpreter_ms", "import_ms", "main_ms")}
                               for call in calls]
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
