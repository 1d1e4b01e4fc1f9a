"""The three workloads: what one round runs, and how its outputs are checked.

A workload is built from the seed and runs whole rounds of the same
operations through the program's public API.  run_round lets the speed
gauge follow each operation and returns the seconds spent inside the
program, the outputs, and each operation's latency per workload point:
already scaled to nominal speed with LOCAL_SCALING, raw otherwise.
Afterwards check() looks at the first round's outputs; keep() has made
sure every later round reproduced them.  problems lists each failed check.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time

import numpy as np

import inputs
import reference
import speed

SWEEP_COLUMNS = ("tau",) + reference.CRITERIA


def _row(report):
    return (*report.vlf_raw, *report.vlf_opt, *report.gains,
            *report.obr_single, *report.obr_pair)


class Workload:
    """Round bookkeeping shared by the workloads."""

    #: Calibration kernel of the speed gauge: the operations' kind of work.
    GAUGE_KERNEL = staticmethod(speed.small_array_kernel)
    #: Scale each latency by the gauge turn right after it.  Otherwise the
    #: run's mean factor scales them all.
    LOCAL_SCALING = True

    #: Python code a cold interpreter runs, after `import trimode.cli`, for
    #: its first result; it prints what check_first_result looks at.
    first_call = ""
    points_per_round = 0

    def __init__(self):
        self.problems = []
        self.first_outputs = None
        self.rounds = 0

    def keep(self, outputs):
        """Hold on to round 1's outputs; later rounds must reproduce them."""
        self.rounds += 1
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            self.problems.append(f"round {self.rounds} outputs differ from round 1")

    def failed_per_round(self):
        return 0


class SweepWorkload(Workload):
    """`trimode sweep --out <tmp>` over [0, 3] in the three regimes."""

    first_call = 'trimode.cli.main(["sweep", "--points", "2"])'

    def __init__(self, trimode, seed, tmp_dir):
        super().__init__()
        self.tm = trimode
        self.grids = inputs.sweep_grids(seed)
        self.paths = [os.path.join(tmp_dir, f"sweep_{kind}.csv") for kind, *_ in self.grids]
        self.points_per_round = sum(points for _, _, _, points, _ in self.grids)

    def _argv(self, kappa1, kappa2, points, path):
        return ["sweep", "--kappa1", repr(kappa1), "--kappa2", repr(kappa2),
                "--tau-min", "0", "--tau-max", repr(inputs.SWEEP_TAU_MAX),
                "--points", str(points), "--out", path]

    def warm_up(self):
        self.tm.cli.main(self._argv(1.2, 1.0, 2, self.paths[0]))

    def run_round(self, gauge):
        busy = 0.0
        texts, latencies_us = [], []
        for (_, kappa1, kappa2, points, _), path in zip(self.grids, self.paths):
            argv = self._argv(kappa1, kappa2, points, path)
            start = time.perf_counter()
            code = self.tm.cli.main(argv)
            elapsed = time.perf_counter() - start
            busy += elapsed
            latencies_us.append(elapsed / points * 1e6 * gauge.follow(elapsed))
            if code != 0:
                self.problems.append(f"sweep {argv} exited with {code}")
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
        return busy, tuple(texts), latencies_us

    def check_first_result(self, stdout):
        # Four metadata lines, the header and the two grid rows.
        return len(stdout.splitlines()) == 4 + 1 + 2

    def check(self):
        for grid, text in zip(self.grids, self.first_outputs):
            self._check_grid(*grid, text)

    def _check_grid(self, kind, kappa1, kappa2, points, rows, text):
        lines = text.splitlines()
        body = [line for line in lines if not line.startswith("#")]
        if body[0] != ",".join(SWEEP_COLUMNS):
            self.problems.append(f"{kind}: header {body[0]!r}")
            return
        table = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
        if table.shape != (points, len(SWEEP_COLUMNS)):
            self.problems.append(f"{kind}: table shape {table.shape}, want {points} rows")
            return
        if not np.array_equal(table[:, 0], np.linspace(0.0, inputs.SWEEP_TAU_MAX, points)):
            self.problems.append(f"{kind}: tau column is not the requested grid")
        # Parsing back must give the in-memory result bit for bit.
        cfg = self.tm.RunConfig(kappa1=kappa1, kappa2=kappa2, tau_min=0.0,
                                tau_max=inputs.SWEEP_TAU_MAX, points=points)
        memory = np.array([_row(r) for r in self.tm.run_sweep(cfg).reports])
        if not np.array_equal(table[:, 1:], memory):
            self.problems.append(f"{kind}: CSV does not parse back to the computed values")
        # Vacuum at tau = 0: V(X_i - X_j) = 2 and V(Y_i + Y_j + Y_k) = 3 make
        # the raw sums 5; the optimised sums, single and pair products sit on
        # their bounds 4, 1 and 4 with zero gains.
        vacuum = [5.0] * 3 + [4.0] * 3 + [0.0] * 3 + [1.0] * 3 + [4.0] * 3
        if np.max(np.abs(table[0, 1:] - vacuum)) > 1e-12:
            self.problems.append(f"{kind}: tau = 0 row {table[0, 1:].tolist()} is not vacuum")
        if np.any(table[:, 4:7] > table[:, 1:4]):
            self.problems.append(f"{kind}: an optimised sum exceeds its raw sum")
        scale = inputs.time_scale(kind, kappa1, kappa2)
        for row in rows:
            tau = float(table[row, 0])
            want = reference.criteria(kappa1, kappa2, tau / scale, tau)
            err = reference.combined_error(table[row, 1:], want)
            if not err <= reference.TOLERANCE:
                self.problems.append(f"{kind}: row {row} (tau {tau}) off the reference by {err:.3g}")


class PointsWorkload(Workload):
    """moments_at + evaluate_all, one call per (kappa1, kappa2, t) point."""

    first_call = (
        "c = trimode.Couplings(1.2, 1.0)\n"
        "print(trimode.evaluate_all(trimode.moments_at(c, 0.5), 0.5).obr_pair.obr23)"
    )

    #: Calls between two turns of the speed gauge.
    CHUNK = 10

    def __init__(self, trimode, seed, tmp_dir):
        super().__init__()
        self.tm = trimode
        self.points = inputs.seeded_points(seed)
        self.calls = [(trimode.Couplings(p.kappa1, p.kappa2), p.t) for p in self.points]
        self.points_per_round = len(self.points)
        self.failures = None

    def warm_up(self):
        for c, t in self.calls[:20]:
            self.tm.evaluate_all(self.tm.moments_at(c, t), t)

    def run_round(self, gauge):
        moments_at, evaluate_all = self.tm.moments_at, self.tm.evaluate_all
        clock = time.perf_counter_ns
        reports, latencies_us = [], []
        chunk_ns = []
        busy_ns = 0
        for n, (c, t) in enumerate(self.calls, start=1):
            start = clock()
            report = evaluate_all(moments_at(c, t), t)
            chunk_ns.append(clock() - start)
            reports.append(report)
            if n % self.CHUNK == 0 or n == len(self.calls):
                spent = sum(chunk_ns)
                factor = gauge.follow(spent / 1e9)
                latencies_us.extend(ns / 1000.0 * factor for ns in chunk_ns)
                busy_ns += spent
                chunk_ns = []
        return busy_ns / 1e9, tuple(_row(r) for r in reports), latencies_us

    def check_first_result(self, stdout):
        return math.isfinite(float(stdout))

    def check(self):
        """Every point against the reference.

        A point fails when a criterion is off by more than the tolerance.
        Failures are expected only where the inference products cancel:
        past tau = 3 in the regimes whose moments grow (hyperbolic ones
        exponentially, degenerate and window ones polynomially).  Any other
        failure is a wrong result.
        """
        self.failures = []
        for p, values, want in zip(self.points, self.first_outputs,
                                   reference.cached_or_computed(self.points)):
            err = reference.combined_error(values, want)
            if err <= reference.TOLERANCE:
                continue
            self.failures.append((p, err))
            if p.kind == "periodic" or p.tau <= inputs.SEEDED_TAU_MAX:
                self.problems.append(
                    f"{p.kind} point {p} off the reference by {err:.3g}")

    def failed_per_round(self):
        return len(self.failures)


class OracleWorkload(Workload):
    """`trimode oracle` at its default grid and 10^6 MC samples, three regimes."""

    #: The smallest oracle call that takes every path and passes: 2 grid
    #: points, and 2 MC shards, which the fixed default seed keeps 3x inside
    #: the MC tolerance.  10^6 samples would make set-up mostly a measure of
    #: the sampler's speed, which points_per_s already reports.
    first_call = ('raise SystemExit(trimode.cli.main('
                  '["oracle", "--points", "2", "--mc-samples", "262144"]))')
    #: Comparisons every oracle report must hold; the closed forms do not
    #: exist at the degenerate point, so they are skipped there.
    COMPARISONS = ("analytic vs expm", "rk4 vs analytic", "mc vs analytic")
    CLOSED_FORM = ("closed-form vs analytic", "closed-form vs expm")
    GRID_POINTS = 301
    #: About two thirds of an oracle call is Monte Carlo sampling.  A call
    #: lasts about a second, longer than the machine holds one speed, so the
    #: run's mean factor scales its latency.
    GAUGE_KERNEL = staticmethod(speed.sampling_kernel)
    LOCAL_SCALING = False

    def __init__(self, trimode, seed, tmp_dir):
        super().__init__()
        self.tm = trimode
        self.mc_seed = inputs.oracle_seed(seed)
        self.points_per_round = self.GRID_POINTS * len(inputs.REGIMES)

    def _run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.tm.cli.main(argv)
        return code, out.getvalue()

    def warm_up(self):
        self._run(["oracle", "--points", "2"])

    def run_round(self, gauge):
        busy = 0.0
        results, latencies_us = [], []
        for _, kappa1, kappa2 in inputs.REGIMES:
            argv = ["oracle", "--kappa1", repr(kappa1), "--kappa2", repr(kappa2),
                    "--seed", str(self.mc_seed)]
            start = time.perf_counter()
            result = self._run(argv)
            elapsed = time.perf_counter() - start
            busy += elapsed
            latencies_us.append(elapsed / self.GRID_POINTS * 1e6)
            gauge.follow(elapsed)
            results.append(result)
        return busy, tuple(results), latencies_us

    def check_first_result(self, stdout):
        return self._passed(stdout, self.COMPARISONS + self.CLOSED_FORM)

    @staticmethod
    def _passed(text, names):
        lines = text.splitlines()
        found = {line.split(" ", 1)[1].split(":", 1)[0] for line in lines}
        return found == set(names) and all(line.startswith("PASS ") for line in lines)

    def check(self):
        for (kind, _, _), (code, text) in zip(inputs.REGIMES, self.first_outputs):
            names = self.COMPARISONS + (() if kind == "degenerate" else self.CLOSED_FORM)
            if code != 0 or not self._passed(text, names):
                self.problems.append(f"oracle {kind}: exit {code}, report {text!r}")


WORKLOADS = {"sweep": SweepWorkload, "points": PointsWorkload, "oracle": OracleWorkload}
