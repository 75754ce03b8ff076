"""loopwave benchmark: one workload per process, whole rounds of checked jobs.

    python3 bench/run.py --workload loop-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md for the workloads and what each metric should move.
"""

import os

# Pin every BLAS and OpenMP pool to one thread before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("LOOPWAVE_TOL", None)

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

IMPORT_SAMPLES = 5
BUILD_SAMPLES = 3
IMPORT_STATEMENT = "import loopwave, loopwave.cli"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing loopwave and its CLI."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_STATEMENT], env=_child_env(), cwd=ROOT, check=True)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def scipy_import_seconds() -> float:
    """Median cumulative import time of the scipy modules loopwave pulls in,
    from ``-X importtime`` in a fresh interpreter (outermost scipy entries only)."""
    samples = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_STATEMENT],
            env=_child_env(),
            cwd=ROOT,
            check=True,
            capture_output=True,
            text=True,
        )
        total = 0
        stack: list[tuple[int, bool]] = []  # (depth, inside scipy), parents first
        for line in reversed(proc.stderr.splitlines()):
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cumulative, name = line[len("import time:") :].split("|")
            depth = (len(name) - len(name.lstrip())) // 2
            name = name.strip()
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not inside:
                total += int(cumulative)
            stack.append((depth, inside or is_scipy))
        samples.append(total * 1e-6)
    return statistics.median(samples)


def run_round(jobs, tracer, failures: list) -> tuple[list[float], int, int]:
    """Run and check each job once; returns job times, failed count, unexpected failures."""
    times, failed, unexpected = [], 0, 0
    for job in jobs:
        if tracer:
            tracer.begin_job(job.kind)
        t0 = time.perf_counter()
        try:
            out = job.run()
            error = None
        except Exception as exc:  # a job that raises counts as failed, like a failed check
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.end_job()
        if error is None:
            try:
                errs = job.check(out)
            except Exception as exc:
                errs = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            errs = [error]
        times.append(elapsed)
        if errs:
            failed += 1
            unexpected += not job.known_fault
            if len(failures) < 20:
                failures.append(f"{job.name}: {'; '.join(errs)}")
    return times, failed, unexpected


def _job_medians(rounds: list[list[float]], names: list[str]) -> list[float]:
    """The median time of each job of a round over all its runs, so that one
    slow call, or a few slow seconds of the host, do not move a whole run.
    A job that a round holds twice pools the samples of both places."""
    samples = defaultdict(list)
    for times in rounds:
        for name, seconds in zip(names, times):
            samples[name].append(seconds)
    return [statistics.median(samples[name]) for name in names]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["loop-sweep", "representations", "cli-files"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "loopwave" / "__init__.py").is_file():
        print(f"error: no loopwave package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]

    import_s = import_seconds()
    scipy_s = scipy_import_seconds() if args.trace else None

    import loopwave

    if Path(loopwave.__file__).resolve().parent != SRC / "loopwave":
        print(f"error: imported loopwave from {loopwave.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import UNITS, Tracer
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](workdir)
        builds = []
        for _ in range(BUILD_SAMPLES):
            t0 = time.perf_counter()
            inputs = workload.build(args.seed)
            builds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(builds)

        failures: list[str] = []
        # Warm-up: the first job of each kind, untimed.
        warm_up: dict[str, object] = {}
        for job in workload.jobs(inputs, -1):
            warm_up.setdefault(job.kind, job)
        run_round(list(warm_up.values()), None, [])
        gc.collect()

        # Whole rounds until the time is up.  The traced run alternates an
        # untraced and a traced round, so the overhead is measured in-process.
        tracer = Tracer() if args.trace else None
        times: dict[bool, list[list[float]]] = {False: [], True: []}
        attempted = failed = unexpected = 0
        round_index = 0
        start = time.perf_counter()
        while round_index == 0 or time.perf_counter() - start < args.seconds or (args.trace and round_index % 2):
            traced = bool(args.trace) and round_index % 2 == 1
            if traced:
                tracer.install()
            try:
                jobs = workload.jobs(inputs, round_index)
                t, f, u = run_round(jobs, tracer if traced else None, failures)
            finally:
                if traced:
                    tracer.uninstall()
            times[traced].append(t)
            attempted += len(t)
            failed += f
            unexpected += u
            round_index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for line in failures:
        print("FAILED", line, file=sys.stderr)
    if args.trace:
        values = tracer.metrics(len(times[True]))
        values["import.scipy_s"] = scipy_s
        names = [job.name for job in jobs]
        values["trace.overhead_s"] = sum(_job_medians(times[True], names)) - sum(_job_medians(times[False], names))
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in sorted(values.items())}
    else:
        medians = _job_medians(times[False], [job.name for job in jobs])
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": len(medians) / sum(medians), "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(medians), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(
        f"{args.workload} seed={args.seed}: {round_index} rounds, {attempted} jobs, {failed} failed "
        f"({unexpected} unexpected), trace={args.trace}"
    )
    print(json.dumps({"correct": unexpected == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
