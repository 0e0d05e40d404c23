"""hodgespec benchmark: four seeded workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload torus_spectra --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1 --out report.json

One client, closed loop, single process at a time: each pass of a workload
is a fresh worker process that builds the seeded job list (at least 100
jobs), runs every job once and checks every output outside the timed
region.  Passes repeat until ``--seconds`` have gone by, and at least
twice.  No job repeats within a process, so no cache can turn a one-shot
workload into a repeated one.

Times are reported at quiet-core speed.  On the shared reference machine
the same pure-Python work takes from 1x to 2x its quiet time, depending on
what other tenants run on the sibling hyperthread, and the slow phases last
tens of seconds.  So right before each job the worker times a fixed
calibration sum (``worker.calibrate``), and a job's wall time is scaled by
QUIET_CALIBRATION_MS over the median calibration time of the jobs around it.
A job's latency is the median of its scaled times over the run's passes;
``job_p50_ms`` and ``job_p90_ms`` are quantiles of these over the jobs and
``jobs_per_s`` is the job count over their sum.  ``setup_s`` is the time
from just before a pass's process starts to its first job, sampled in every
pass and in SETUP_PROBES_PER_PASS extra processes per pass that only set
up; ``setup_s`` is the median of these samples.  The Fraction calibration
does not track interpreter start and import, so each sample is scaled in two
parts: its time to the end of the imports by QUIET_STARTUP_S over the wall
time of a bare ``python3 -c pass`` timed right before the sample, and the
rest, input generation, by QUIET_CALIBRATION_MS over the median of the
process's first calibrations.  The unscaled figures are in the report as
``raw_end_to_end``.

``correct`` is false when a job returns a wrong answer or fails in a way
that is not a documented defect of the program (today only the malformed
lattice file of ``cli_files``); every failed job counts in ``pass_ratio``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, the per-layer metrics
come from the traced ones, and ``trace.overhead_s`` is the traced minus the
untraced timed wall time of a pass.  Lines before the last one are a
human-readable table.  ``--out`` also writes the full report: run context,
input properties, failures and the per-function span table.

Exit code 2, without a result line, when the checkout has no hodgespec
sources or a pass does not complete.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from worker import SETUP_CALIBRATIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "hodgespec"
WORKDIR = ROOT / ".perfbench_work"
WORKLOADS = ("torus_spectra", "torus_queries", "sphere_isospec", "cli_files")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017  # for rechecking claims on inputs nobody tuned against
MIN_PASSES = 2
SETUP_PROBES_PER_PASS = 3
# worker.calibrate() on a quiet core of the reference machine: the speed all
# reported times are scaled to.
QUIET_CALIBRATION_MS = 0.25
CALIBRATION_WINDOW = 5  # jobs on each side whose calibrations scale a job
# A bare interpreter start (``startup_s``) on a quiet core of the reference
# machine: the speed setup_s is scaled to.
QUIET_STARTUP_S = 0.055
MIN_JOBS = 100
RUN_DEADLINE_S = 170  # a run must end within 180 s, passes included
# The documented default of HODGESPEC_BUDGET, set explicitly for every pass.
DEFAULT_BUDGET = "5000000"

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("pass_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metric -> (unit, the traced function it needs, or None when always defined).
PER_LAYER = {
    "lattice.enumerate_norms.calls": ("count", "lattice.enumerate_norms"),
    "lattice.enumerate_norms.self_s": ("s", "lattice.enumerate_norms"),
    "lattice.enumerate_norms.points": ("count", "lattice.enumerate_norms"),
    "lattice.enumerate_norms.points_per_s": ("1/s", "lattice.enumerate_norms"),
    "lattice.enumerate_norms.repeat_share": ("ratio", "lattice.enumerate_norms"),
    "rationals.sqrt_upper_bound.calls": ("count", "rationals.sqrt_upper_bound"),
    "lattice.dual.calls": ("count", "lattice.dual"),
    "lattice.dual.self_s": ("s", "lattice.dual"),
    "lattice.dual.repeat_share": ("ratio", "lattice.dual"),
    "linalg.self_s": ("s", None),
    "lattice.count_norm.calls": ("count", "lattice.count_norm"),
    "lattice.brute_force_enumerate.calls": ("count", "lattice.brute_force_enumerate"),
    "lattice.brute_force_enumerate.self_s": ("s", "lattice.brute_force_enumerate"),
    "lattice.box.hit_ratio": ("ratio", "lattice.brute_force_enumerate"),
    "torus.f_spectrum.self_s": ("s", "torus.f_spectrum"),
    "torus.f_spectrum_parts.self_s": ("s", "torus.f_spectrum_parts"),
    "torus.laplace0_spectrum.self_s": ("s", "torus.laplace0_spectrum"),
    "torus.eigenvalue_multiplicity.calls": ("count", "torus.eigenvalue_multiplicity"),
    "torus.eigenvalue_multiplicity.self_s": ("s", "torus.eigenvalue_multiplicity"),
    "torus.enumerations_per_query": ("ratio", "torus.eigenvalue_multiplicity"),
    "sphere.spectrum.self_s": ("s", "sphere.spectrum"),
    "sphere.spectrum_parts.self_s": ("s", "sphere.spectrum_parts"),
    "sphere.eigenvalue_details.self_s": ("s", "sphere.eigenvalue_details"),
    "sphere.coincidences.self_s": ("s", "sphere.coincidences"),
    "sphere.series_spectrum.self_s": ("s", None),
    "sphere.entries": ("count", "sphere.spectrum"),
    "multiset.from_pairs.self_s": ("s", "multiset.from_pairs"),
    "multiset.union.self_s": ("s", "multiset.union"),
    "multiset.difference.self_s": ("s", "multiset.difference"),
    "multiset.repeated_union.self_s": ("s", "multiset.repeated_union"),
    "multiset.equal_upto.self_s": ("s", "multiset.equal_upto"),
    "multiset.entries_built": ("count", None),
    "isospec.first_divergence.calls": ("count", "isospec.first_divergence"),
    "isospec.first_divergence.self_s": ("s", "isospec.first_divergence"),
    "isospec.first_divergence.keys_walked": ("count", "isospec.first_divergence"),
    "isospec.is_isospectral_upto.self_s": ("s", "isospec.is_isospectral_upto"),
    "isospec.recover_torus_params.self_s": ("s", "isospec.recover_torus_params"),
    "isospec.reconstruct_base.self_s": ("s", "isospec.reconstruct_base"),
    "isospec.recover_sphere_params.self_s": ("s", "isospec.recover_sphere_params"),
    "isospec.recover_radius.self_s": ("s", "isospec.recover_radius"),
    "multiset.to_json_dict.self_s": ("s", "multiset.to_json_dict"),
    "multiset.from_json_dict.self_s": ("s", "multiset.from_json_dict"),
    "rationals.parse_rational.calls": ("count", "rationals.parse_rational"),
    "rationals.parse_rational.self_s": ("s", "rationals.parse_rational"),
    "cli.interpreter_ms": ("ms", None),
    "cli.import_ms": ("ms", None),
    "cli.main_ms": ("ms", "cli.main"),
    "cli.json_bytes_in": ("bytes", None),
    "cli.json_bytes_out": ("bytes", None),
    **{f"{m}.self_share": ("ratio", None) for m in spans.LAYERS},
    "trace.overhead_s": ("s", None),
}


class BenchError(Exception):
    pass


# -- running passes ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["HODGESPEC_BUDGET"] = DEFAULT_BUDGET
    return env


def run_pass(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """One fresh worker process, killed with its process group at ``deadline``.

    ``mode`` is ``run``, ``trace`` or ``setup`` (see ``worker.py``).
    """
    workdir = WORKDIR / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    stamp = repr(time.clock_gettime(time.CLOCK_MONOTONIC))
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), stamp, mode, str(workdir)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} pass did not end within the run's {RUN_DEADLINE_S} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out)


def startup_s() -> float:
    """Wall time of a bare interpreter start, the calibration of setup_s."""
    start = time.monotonic()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
    return time.monotonic() - start


def scaled_setup(sample: dict, startup: float) -> float:
    """A pass's or probe's set-up time at quiet-core speed (see the module doc)."""
    calibration = statistics.median(sample["calibration_ms"][:SETUP_CALIBRATIONS])
    generation = sample["setup_s"] - sample["import_s"]
    return (QUIET_STARTUP_S * sample["import_s"] / startup
            + generation * QUIET_CALIBRATION_MS / calibration)


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Repeat passes for ``seconds``; returns (last-line result, report)."""
    load_start = os.getloadavg()
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    plain, traced_passes, setups = [], [], []  # setups: (pass or probe, bare start before it)
    while True:
        startup = startup_s()
        plain.append(run_pass(workload, seed, "run", deadline))
        setups.append((plain[-1], startup))
        for _ in range(SETUP_PROBES_PER_PASS):
            startup = startup_s()
            setups.append((run_pass(workload, seed, "setup", deadline), startup))
        if traced:
            traced_passes.append(run_pass(workload, seed, "trace", deadline))
        if plain[-1]["jobs"] != plain[0]["jobs"] or len(plain[0]["jobs"]) < MIN_JOBS:
            raise BenchError(f"{workload} passes must run one job list of at least {MIN_JOBS} jobs")
        if len(plain) >= MIN_PASSES and time.monotonic() - start >= seconds:
            break
    report = {
        "context": context(seed, workload, seconds, traced, load_start),
        "passes": len(plain),
        "inputs": plain[0]["inputs"],
        "failures": plain[0]["failures"],
    }
    failures = [f for p in plain for f in p["failures"]]
    attempted = sum(len(p["latencies_ms"]) for p in plain)
    e2e = end_to_end(plain, statistics.median(scaled_setup(*s) for s in setups))
    report["end_to_end"] = {**e2e, "fail_ratio": len(failures) / attempted}
    report["raw_end_to_end"] = end_to_end(plain, statistics.median(s["setup_s"] for s, _ in setups),
                                          scaled=False)
    report["setup_samples"] = [{"setup_s": s["setup_s"], "import_s": s["import_s"], "startup_s": b}
                               for s, b in setups]
    report["calibration_ms_median"] = [statistics.median(p["calibration_ms"]) for p in plain]
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    if traced:
        layers, absent, functions = per_layer(plain, traced_passes)
        report["per_layer"] = layers
        report["absent"] = absent
        report["functions"] = functions
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    report["context"]["loadavg_end"] = os.getloadavg()
    result = {
        "correct": all(f["status"] == "known_defect" for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, report


# -- metrics -------------------------------------------------------------------


def speed(calibration: list[float], index: int) -> float:
    """Quiet-core speed share around job ``index``: 1 on a quiet core."""
    window = calibration[max(index - CALIBRATION_WINDOW, 0):index + CALIBRATION_WINDOW + 1]
    return QUIET_CALIBRATION_MS / statistics.median(window)


def end_to_end(passes: list[dict], setup_s: float, scaled: bool = True) -> dict:
    times = []
    for p in passes:
        cal = p["calibration_ms"]
        times.append([ms * (speed(cal, i) if scaled else 1) for i, ms in enumerate(p["latencies_ms"])])
    latency = [statistics.median(per_job) for per_job in zip(*times)]
    attempted = len(latency) * len(passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(latency) / (sum(latency) / 1000),
        "job_p50_ms": statistics.median(latency),
        "job_p90_ms": statistics.quantiles(latency, n=10)[8],
        "pass_ratio": 1 - failed / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, list, dict]:
    """Per-pass means of the traced spans and counters."""
    merged = spans.merge_snapshots(p["trace"] for p in traced)
    runs = len(traced)
    fn: dict[str, list] = {}
    for key, (calls, total, own) in merged["edges"].items():
        row = fn.setdefault(key.split(">")[1], [0, 0.0, 0.0])
        row[0] += calls / runs
        row[1] += total / runs
        row[2] += own / runs
    counts = {k: v / runs for k, v in merged["counts"].items()}

    def calls(name):
        return fn.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return fn.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return fn.get(name, [0, 0.0, 0.0])[2]

    def share(part, whole):
        return part / whole if whole else 0.0

    module_self = {m: sum(v[2] for k, v in fn.items() if k.split(".")[0] == m) for m in spans.LAYERS}
    layers_total = sum(module_self.values())
    cli_calls = [c for p in traced for c in p.get("cli_calls", [])]

    def cli_median(key):
        return statistics.median(c[key] for c in cli_calls) if cli_calls else 0.0

    values = {
        "lattice.enumerate_norms.points": counts.get("lattice.enumerate_norms.points", 0),
        "lattice.enumerate_norms.points_per_s": share(
            counts.get("lattice.enumerate_norms.points", 0), total("lattice.enumerate_norms")),
        "lattice.enumerate_norms.repeat_share": share(
            counts.get("lattice.enumerate_norms.repeats", 0), calls("lattice.enumerate_norms")),
        "lattice.dual.repeat_share": share(counts.get("lattice.dual.repeats", 0), calls("lattice.dual")),
        "linalg.self_s": module_self["linalg"],
        "lattice.box.hit_ratio": share(counts.get("lattice.box.points", 0),
                                       counts.get("lattice.box.cells", 0)),
        "torus.enumerations_per_query": share(counts.get("torus.query_enumerations", 0),
                                              calls("torus.eigenvalue_multiplicity")),
        "sphere.series_spectrum.self_s": sum(
            own(f"sphere.{s}_series_spectrum") for s in ("lambda", "mu", "scalar")),
        "sphere.entries": counts.get("sphere.entries", 0),
        "multiset.entries_built": counts.get("multiset.entries_built", 0),
        "isospec.first_divergence.keys_walked": counts.get("isospec.first_divergence.keys_walked", 0),
        "cli.interpreter_ms": cli_median("interpreter_ms"),
        "cli.import_ms": cli_median("import_ms"),
        "cli.main_ms": cli_median("main_ms"),
        "cli.json_bytes_in": statistics.mean(p["json_bytes_in"] for p in traced),
        "cli.json_bytes_out": statistics.mean(p["json_bytes_out"] for p in traced),
        "trace.overhead_s": statistics.median(sum(p["latencies_ms"]) for p in traced) / 1000
        - statistics.median(sum(p["latencies_ms"]) for p in plain) / 1000,
    }
    for m in spans.LAYERS:
        values[f"{m}.self_share"] = share(module_self[m], layers_total)
    for name in PER_LAYER:
        if name in values:
            continue
        function, _, field = name.rpartition(".")
        values[name] = {"calls": calls, "self_s": own}[field](function)
    wrapped = set(merged["wrapped"])
    absent = sorted(name for name, (_, needs) in PER_LAYER.items() if needs and needs not in wrapped)
    functions = {name: {"calls": row[0], "total_s": row[1], "self_s": row[2]}
                 for name, row in sorted(fn.items())}
    return {name: values[name] for name in PER_LAYER}, absent, functions


# -- context and output --------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(seed, workload, seconds, traced, load_start) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "workload": workload,
        "seconds": seconds,
        "trace": traced,
        "hodgespec_budget": DEFAULT_BUDGET,
    }


def table_lines(results: dict, traced: bool) -> list[str]:
    lines = []
    for workload, (result, report) in results.items():
        lines.append(f"{workload}: {result['attempted']} jobs in {report['passes']} passes, "
                     f"{result['failed']} failed, correct={result['correct']}")
        rows = report["per_layer"] if traced else report["end_to_end"]
        units = {n: u for n, (u, _) in PER_LAYER.items()} if traced else dict(END_TO_END)
        units.setdefault("fail_ratio", "ratio")
        for name, value in rows.items():
            lines.append(f"  {name:42s} {value:14.6g} {units[name]}")
        for failure in report["failures"]:
            lines.append(f"  failed job {failure['job']} {failure['kind']} "
                         f"({failure['status']}): {failure['detail'][:120]}")
        if traced and report["absent"]:
            lines.append(f"  absent (function gone): {', '.join(report['absent'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report as JSON to this file")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no hodgespec sources under {PACKAGE}", file=sys.stderr)
        return 2
    # Bytecode is compiled here, so no timed CLI call pays for it.
    if not compileall.compile_dir(str(PACKAGE), quiet=1) or not compileall.compile_dir(str(HERE), quiet=1):
        print("hodgespec sources do not compile", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = args.trace == 1
    try:
        results = {w: run_workload(w, args.seed, args.seconds, traced) for w in names}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    for line in table_lines(results, traced):
        print(line)
    if args.out:
        Path(args.out).write_text(json.dumps({w: r for w, (_, r) in results.items()}, indent=1) + "\n")
    if args.workload == "all":
        print(json.dumps({w: result for w, (result, _) in results.items()}))
    else:
        print(json.dumps(results[args.workload][0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
