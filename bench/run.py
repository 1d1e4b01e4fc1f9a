"""trimode benchmark: one workload, timed, checked, reported as one JSON line.

    python3 bench/run.py --workload {sweep,points,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ./src.  With
--trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (see README.md).
The run record, with its provenance, goes to .bench_out/ as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
CPUS = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Cold starts measured for setup_s, each after a cold start of the yardstick.
SETUPS = 7
SETUP_TIMEOUT_S = 60


def cap_blas_threads():
    """At most one BLAS thread per CPU, for this process and its children."""
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, CPUS))
        except ValueError:
            wanted = CPUS
        os.environ[var] = str(max(1, min(wanted, CPUS)))


cap_blas_threads()

import numpy as np  # noqa: E402  (after the thread cap)

import speed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_program():
    """Import trimode from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import trimode
    import trimode.cli
    elapsed = time.perf_counter() - start
    if os.path.dirname(os.path.dirname(os.path.abspath(trimode.__file__))) != SRC:
        raise ImportError(f"trimode imported from {trimode.__file__}, not from {SRC}")
    return trimode, elapsed


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance():
    import mpmath
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "cpus": CPUS,
        "blas_threads": os.environ[BLAS_THREAD_VARS[0]],
        "machine": platform.machine(),
        "git_revision": git_revision(),
    }


def cold_start(code):
    """Seconds to run `code` in a fresh interpreter, and its output."""
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    elapsed = time.perf_counter() - start
    if child.returncode != 0:
        raise RuntimeError(f"cold start failed (exit {child.returncode}):\n"
                           f"{child.stdout}\n{child.stderr}")
    return elapsed, child.stdout


def measure_setup(workload):
    """Median seconds from starting a cold interpreter to its first result.

    Each start follows a cold `import numpy`; the median is scaled by that
    yardstick's nominal over its median time.  Returns (scaled, raw).
    """
    code = (
        f"import sys\nsys.path.insert(0, {SRC!r})\n"
        f"import trimode, trimode.cli\n{workload.first_call}\n"
    )
    times, yardstick = [], []
    for _ in range(SETUPS):
        yardstick.append(cold_start(speed.COLD_NUMPY_CODE)[0])
        elapsed, stdout = cold_start(code)
        if not workload.check_first_result(stdout):
            raise RuntimeError(f"unexpected first result:\n{stdout}")
        times.append(elapsed)
    raw = statistics.median(times)
    return raw * speed.NOMINAL_COLD_NUMPY_S / statistics.median(yardstick), raw


class Timing:
    """Whole rounds until `seconds` of program time, with a speed gauge.

    points_per_s is the median over rounds of the round's rate, scaled by
    the round's own factor or, without LOCAL_SCALING, by the run's.
    latencies_us holds, for each operation of a round, the median of its
    scaled latency over the rounds: the spread across inputs stays, the
    moment-to-moment speed of a shared machine is left out.
    """

    def __init__(self, workload, seconds):
        self.gauge = speed.SpeedGauge(workload.GAUGE_KERNEL)
        self.rounds = 0
        busy_total = 0.0
        samples, rates, factors = [], [], []
        while busy_total < seconds:
            busy, outputs, latencies_us = workload.run_round(self.gauge)
            factors.append(self.gauge.end_round())
            busy_total += busy
            self.rounds += 1
            samples.append(latencies_us)
            rates.append(workload.points_per_round / busy)
            workload.keep(outputs)
        latency_scale = 1.0
        if not workload.LOCAL_SCALING:
            latency_scale = self.gauge.factor()
            factors = [latency_scale] * self.rounds
        self.latencies_us = [statistics.median(op) * latency_scale for op in zip(*samples)]
        self.wall_points_per_s = statistics.median(rates)
        self.points_per_s = statistics.median(r / f for r, f in zip(rates, factors))


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(-(-q * len(ordered) // 100)) - 1))]


def end_to_end(workload, seconds):
    setup_s, raw_setup_s = measure_setup(workload)
    workload.warm_up()
    run = Timing(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    factor = run.gauge.factor()
    return {
        "setup_s": (setup_s, "s"),
        "points_per_s": (run.points_per_s, "points/s"),
        "point_p50_us": (statistics.median(run.latencies_us), "us"),
        "point_p99_us": (percentile(run.latencies_us, 99), "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, {"rounds": run.rounds, "latency_samples": len(run.latencies_us),
        "speed_factor": factor, "wall_points_per_s": run.wall_points_per_s,
        "wall_setup_s": raw_setup_s}


def per_layer(workload, seconds, trimode, import_s, trace_path):
    """Untraced then traced, half of `seconds` each; metrics per workload point.

    Self times are scaled to nominal speed like the end-to-end timings; the
    import time, like setup_s, is not.
    """
    workload.warm_up()
    plain = Timing(workload, seconds / 2)
    tracer = Tracer()
    tracer.install(trimode)
    try:
        traced = Timing(workload, seconds / 2)
    finally:
        tracer.uninstall()
    factor = traced.gauge.factor()
    metrics = {
        name: (value * factor if unit == "s/point" else value, unit)
        for name, (value, unit) in tracer.report(traced.rounds * workload.points_per_round).items()
    }
    metrics["setup.import_trimode.self_s"] = (import_s, "s")
    metrics["trace.overhead.points_per_s"] = (traced.points_per_s - plain.points_per_s, "points/s")
    tracer.save(trace_path)
    return metrics, {"rounds": plain.rounds + traced.rounds, "traced_rounds": traced.rounds,
                     "speed_factor": factor, "spans": len(tracer.span_name),
                     "trace_file": trace_path}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    trimode, import_s = import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp_dir:
        workload = WORKLOADS[args.workload](trimode, args.seed, tmp_dir)
        if args.trace:
            metrics, extra = per_layer(workload, args.seconds, trimode, import_s,
                                       os.path.join(OUT_DIR, f"spans-{tag}.npz"))
        else:
            metrics, extra = end_to_end(workload, args.seconds)
    workload.check()

    rounds = extra["rounds"]
    result = {
        "correct": not workload.problems,
        "attempted": rounds * workload.points_per_round,
        "failed": rounds * workload.failed_per_round(),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(), **extra,
              "problems": workload.problems, "result": result}
    with open(os.path.join(OUT_DIR, f"run-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], **extra}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
