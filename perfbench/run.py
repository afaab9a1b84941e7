"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {ingest,tune,serve} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the toolkit is imported from its
``src`` directory. The process pins BLAS/OpenMP to one thread before numpy
loads and runs everything with ``--jobs 1``.

With ``--trace 0`` the workload is set up three times (``setup_s`` is the
median) and then runs whole rounds until ``--seconds`` have passed. With
``--trace 1`` it is set up once under tracing and runs ``trace_rounds``
rounds three times: untraced, traced, untraced. The per-layer metrics come
from the traced spans; ``trace.overhead_s`` is the traced pass minus the
mean of the two untraced ones. Either way the outputs are checked, a summary
is printed, and the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest finished child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def untraced(workload, workdir: Path, seconds: float):
    setups = []
    for repeat in range(SETUP_REPEATS):
        target = workdir / f"setup{repeat}"
        started = time.perf_counter()
        state = workload.setup(target)
        setups.append(time.perf_counter() - started)
        if repeat < SETUP_REPEATS - 1:
            shutil.rmtree(target)
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rounds.append(workload.run_round(state, len(rounds)))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    ms_per_unit = workload.ms_per_unit(rounds)
    if ms_per_unit is not None:
        metrics["ms_per_unit"] = (ms_per_unit, "ms")
    return state, rounds, metrics


def traced(workload, workdir: Path):
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup(workdir / "setup")
    finally:
        tracer.uninstall()
    rounds = []

    def one_pass() -> tuple[int, int]:
        start_ns = time.perf_counter_ns()
        for index in range(workload.trace_rounds):
            rounds.append(workload.run_round(state, index))
        return start_ns, time.perf_counter_ns()

    before = one_pass()
    tracer.install()
    workload.tracer = tracer
    try:
        window = one_pass()
    finally:
        workload.tracer = None
        tracer.uninstall()
    after = one_pass()
    untraced_s = sum(end - start for start, end in (before, after)) / 2e9
    for span in sorted(tracer.missing):
        print(f"trace: {span} not found; its metrics are left out", file=sys.stderr)
    return state, rounds, layer_metrics(tracer, window, untraced_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "raga_moodkit" / "__init__.py").is_file():
        print(f"error: no toolkit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            state, rounds, metrics = traced(workload, workdir)
        else:
            state, rounds, metrics = untraced(workload, workdir, args.seconds)
        try:
            problems = workload.check(state)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            problems = [f"outputs could not be read back: {exc!r}"]
        if not args.trace and "ms_per_unit" not in metrics:
            problems.append("no round completed a unit of work, so ms_per_unit is missing")
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} operations, {failed} failed, "
          f"checks {'passed' if not problems else 'FAILED'}")
    for name, (value, unit) in {**metrics, **workload.summary(rounds)}.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
