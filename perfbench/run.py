"""pcpkit benchmark: one workload as a closed loop, checked against a reference.

    python3 perfbench/run.py --workload {solve,trial,affine} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; pcpkit is imported from ``src/``.
One caller runs one unit at a time and starts the next only when the
previous one has finished; no worker pool is used.  BLAS is capped at
one thread.  Every unit's result is checked by the workload's oracles
and against the committed reference record of its pool entry (see
README.md).  The last line of stdout is one JSON object; the lines
before it print every metric with its unit, the environment stamp and
any mismatch.  A mismatch or a raised error makes the exit code 1.

The unit timings on the result line are scaled to a nominal host speed:
a fixed kernel (``calibration.py``) runs between units, and each unit's
wall time is multiplied by ``NOMINAL_S`` over the kernel's time around
it.  The report lines also print the unscaled wall figures.

With ``--trace 1`` the run alternates an untraced and a traced run of
the same input; the traced ones give the per-layer metrics and the pair
gives the tracing overhead.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # small dense systems: more threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("solve", "trial", "affine")
HELD_OUT_SEED = 1009  # not run while the benchmark was tuned
SETUP_SUBPROCESSES = 4
SUBPROCESS_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def setup_samples(workload: str, seed: int, workdir: Path) -> list[float]:
    """Set-up seconds measured in fresh interpreters."""
    samples = []
    for i in range(SETUP_SUBPROCESSES):
        done = subprocess.run(
            [sys.executable, str(HERE / "bench_setup.py"), workload, str(seed),
             str(workdir / f"setup-{i}")],
            capture_output=True, text=True, check=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S,
        ).stdout.strip() or "unknown"
    except FileNotFoundError:
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "held_out_seed": HELD_OUT_SEED,
    }


# a round percentile that leaves >= 10 units beyond it in a 30 s run of the
# unmodified code even when the host runs a third slower than usual (solve
# needs 24 units, the others 32; measured runs gave 32-50 and 41-77); fixed, so
# the metric stays continuous when a change adds or removes a unit
TAIL_PERCENTILE = {"solve": 60, "trial": 70, "affine": 70}


def tail(times: list[float], percentile: int) -> float:
    """The ``percentile`` unit time, interpolated between order statistics."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=100, method="inclusive")[percentile - 1]


def iqr(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


class Loop:
    """Closed loop over the pool until the next unit would overrun the budget."""

    def __init__(self, workload: str, seed: int, pool: list, seconds: float):
        self.workload, self.seed, self.pool, self.seconds = workload, seed, pool, seconds
        self.results: list[tuple[int, object, str | None]] = []  # (pool index, result, error)

    def unit(self, k: int, run_unit) -> float:
        index = k % len(self.pool)
        start = time.perf_counter()
        try:
            result, error = run_unit(self.workload, self.seed, self.pool[index]), None
        except Exception as exc:  # a raised unit counts as failed, the loop goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.results.append((index, result, error))
        return elapsed

    def plain(self, run_unit) -> tuple[list[float], list[float]]:
        """Wall seconds of each timed unit, and of the host kernel around them.

        One untimed unit warms the caches first.  The kernel runs before
        the first timed unit and after every unit, so unit k lies between
        kernel readings k and k + 1.
        """
        import calibration

        self.unit(0, run_unit)
        times: list[float] = []
        kernel = [calibration.timed_kernel()]
        start = time.perf_counter()
        while not times or (time.perf_counter() - start) + statistics.median(times) + \
                statistics.median(kernel) <= self.seconds:
            times.append(self.unit(len(times) + 1, run_unit))
            kernel.append(calibration.timed_kernel())
        return times, kernel

    def paired(self, run_unit, tracer) -> tuple[list[float], list[float]]:
        """Untraced and traced run of each pool entry, alternating which goes first."""
        plain: list[float] = []
        traced: list[float] = []
        traced_unit = tracer.wrap("bench.unit", run_unit)
        start = time.perf_counter()
        k = 0
        while not plain or (time.perf_counter() - start) + statistics.median(
                p + t for p, t in zip(plain, traced)) <= self.seconds:
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    traced.append(self.unit(k, traced_unit))
                    tracer.uninstall()
                else:
                    plain.append(self.unit(k, run_unit))
            k += 1
        return plain, traced


def check(workload: str, results, reference: list | None) -> tuple[list[dict], list[str]]:
    """Outcome record of every unit, and one message per failed unit."""
    import workloads

    outcomes: list[dict] = []
    problems: list[str] = []
    first: dict[int, dict] = {}
    for position, (index, result, error) in enumerate(results):
        if error is not None:
            outcomes.append({})
            problems.append(f"unit {position} (pool {index}) raised {error}")
            continue
        got = workloads.outcome(workload, result)
        outcomes.append(got)
        bad = workloads.oracle_failures(workload, got)
        if reference is not None:
            bad += [f"reference:{key}" for key in workloads.mismatches(got, reference[index])]
        if index in first:
            bad += [f"repeat:{key}" for key in workloads.mismatches(got, first[index])]
        else:
            first[index] = got
        if bad:
            problems.append(f"unit {position} (pool {index}) mismatch: {', '.join(bad)}")
    return outcomes, problems


E2E_KEYS = ("setup_s", "units_per_s", "unit_s_p50", "unit_s_tail", "peak_rss_mb")


def host_scaled(times: list[float], kernel: list[float]) -> list[float]:
    """Unit wall times scaled to a host that runs the kernel in NOMINAL_S."""
    import calibration

    return [t * calibration.NOMINAL_S / ((before + after) / 2.0)
            for t, before, after in zip(times, kernel, kernel[1:])]


def end_to_end(workload: str, outcomes, wall, kernel, setup_s, failed) -> dict:
    """Every end-to-end figure as name -> (value, unit); E2E_KEYS go to the result line."""
    import workloads

    times = host_scaled(wall, kernel)
    units = len(times)
    tail_s = tail(times, TAIL_PERCENTILE[workload])
    report = {
        "setup_s": (setup_s, "s"),
        "units_per_s": (units / sum(times), "1/s"),
        "unit_s_p50": (statistics.median(times), "s"),
        "unit_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "unit_s_tail_percentile": (TAIL_PERCENTILE[workload], "%"),
        "units_beyond_tail": (sum(t > tail_s for t in times), "count"),
        "units": (units, "count"),
        "wall_units_per_s": (units / sum(wall), "1/s"),
        "wall_unit_s_p50": (statistics.median(wall), "s"),
        "host_kernel_s_p50": (statistics.median(kernel), "s"),
        "host_kernel_s_iqr": (iqr(kernel), "s"),
        "checked_units": (len(outcomes), "count"),
        "solutions_found": (sum(o["count"] or 0 for o in outcomes if o), "count"),
        "failed_frac": (failed / len(outcomes), "fraction"),
    }
    if workload == "affine":
        converged = sum((o["natural_outcome"] == "converged") + (o["leading_outcome"] == "converged")
                        for o in outcomes if o)
        report["paths_converged"] = (converged, "count")
        report["paths_tracked"] = (2 * len(outcomes), "count")
        report["oracle_agree_frac"] = (
            sum(bool(o) and workloads.affine_oracle_agrees(o) for o in outcomes) / len(outcomes),
            "fraction")
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pcpkit" / "__init__.py").is_file():
        print(f"error: no pcpkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference_file = HERE / "reference" / f"{args.workload}.json"
    if not reference_file.is_file():
        print(f"error: missing reference record {reference_file}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"run-{os.getpid()}"
    try:
        from bench_setup import timed_setup

        first_setup, pool = timed_setup(args.workload, args.seed, workdir / "inputs")
        setup_s = statistics.median([first_setup, *setup_samples(args.workload, args.seed, workdir)])

        import tracing
        import workloads

        recorded = json.loads(reference_file.read_text(encoding="utf-8"))
        if recorded["pool"] != len(pool):
            print(f"error: {reference_file} records a pool of {recorded['pool']}, "
                  f"the workload has {len(pool)}", file=sys.stderr)
            return 2
        reference = recorded["seeds"].get(str(args.seed))
        loop = Loop(args.workload, args.seed, pool, args.seconds)
        if args.trace:
            tracer = tracing.Tracer()
            plain, traced = loop.paired(workloads.run_unit, tracer)
            tracer.save(out_dir / f"trace-{args.workload}-{args.seed}.npz")
        else:
            times, kernel = loop.plain(workloads.run_unit)
        outcomes, problems = check(args.workload, loop.results, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(problems)
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(traced))
        metrics["trace.units"] = float(len(traced))
        metrics["trace.untraced_s"] = sum(plain)
        metrics["trace.traced_s"] = sum(traced)
        metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
        report = {key: (value, tracing.METRIC_UNITS[key]) for key, value in metrics.items()}
        result_keys = list(report)
    else:
        report = end_to_end(args.workload, outcomes, times, kernel, setup_s, failed)
        result_keys = E2E_KEYS
    for key, (value, unit) in report.items():
        print(f"{key:34s} {value:.6g} {unit}")
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print("environment " + json.dumps({
        **environment(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "reference": "recorded" if reference is not None else "none for this seed",
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(loop.results),
        "failed": failed,
        "metrics": {key: {"value": report[key][0], "unit": report[key][1]} for key in result_keys},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
