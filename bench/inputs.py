"""Seeded inputs of the benchmark workloads.

Everything the program is given is made here, from the workload seed or
from a constant seed, with the standard library only: no trimode code
decides an input.  Times are generated as a dimensionless tau and turned
into the program's raw time t = tau / scale with the program's documented
RATE convention (scale = sqrt|kappa1^2 - kappa2^2| off the degenerate
point, max(kappa1, kappa2) on it), so that tau is the exponent of the
moments' growth in the hyperbolic regime.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: The three regimes of the sweep and oracle workloads: hyperbolic,
#: periodic and degenerate couplings, the settings of the published figures.
REGIMES = (("hyperbolic", 1.2, 1.0), ("periodic", 1.0, 1.8), ("degenerate", 1.0, 1.0))

#: Sweep grid: tau over [0, SWEEP_TAU_MAX] with a seeded size in this range.
SWEEP_TAU_MAX = 3.0
SWEEP_POINTS = (1001, 1201)
#: Rows of each sweep grid checked against the mpmath reference.
SWEEP_CHECKED_ROWS = 6

#: The point set is a fixed part, drawn from a constant seed over tau in
#: [0, FIXED_TAU_MAX], and a seeded part over tau in [0, SEEDED_TAU_MAX].
#: Only the fixed part reaches the hyperbolic cancellation zone, so the
#: points that fail there are the same in every run, whatever the seed.
FIXED_POINTS_SEED = 20030515
FIXED_POINTS = 960
FIXED_TAU_MAX = 20.0
SEEDED_POINTS = 240
SEEDED_TAU_MAX = 3.0

#: Relative half-width of the coupling mismatch of "window" points, which
#: lie inside the program's degeneracy window REGIME_TOL = 1e-9 on
#: |kappa1^2 - kappa2^2| / max(kappa1^2, kappa2^2).
WINDOW_HALF_WIDTH = 3e-10

POINT_KINDS = ("hyperbolic", "periodic", "degenerate", "window")


@dataclass(frozen=True)
class Point:
    kind: str
    kappa1: float
    kappa2: float
    tau: float
    t: float


def time_scale(kind, kappa1, kappa2):
    """Rate that turns tau into raw time, the same arithmetic as the CLI's."""
    gap = kappa1 * kappa1 - kappa2 * kappa2
    if kind == "hyperbolic":
        return math.sqrt(gap)
    if kind == "periodic":
        return math.sqrt(-gap)
    return max(kappa1, kappa2)


def _draw_point(rng, kind, tau_max):
    kappa1 = rng.uniform(0.5, 2.0)
    if kind == "hyperbolic":
        kappa2 = kappa1 * rng.uniform(0.3, 0.9)
    elif kind == "periodic":
        kappa2 = kappa1 / rng.uniform(0.3, 0.9)
    elif kind == "degenerate":
        kappa2 = kappa1
    else:
        kappa2 = kappa1 * (1.0 + rng.uniform(-WINDOW_HALF_WIDTH, WINDOW_HALF_WIDTH))
    tau = rng.uniform(0.0, tau_max)
    return Point(kind, kappa1, kappa2, tau, tau / time_scale(kind, kappa1, kappa2))


def _draw_points(rng, count, tau_max):
    return [_draw_point(rng, POINT_KINDS[i % 4], tau_max) for i in range(count)]


def fixed_points():
    """The seed-independent part of the point set (its reference is cached)."""
    return _draw_points(random.Random(FIXED_POINTS_SEED), FIXED_POINTS, FIXED_TAU_MAX)


def seeded_points(seed):
    """The whole point set for one seed: fixed part, seeded part, seeded order."""
    rng = random.Random(f"points-{seed}")
    points = fixed_points() + _draw_points(rng, SEEDED_POINTS, SEEDED_TAU_MAX)
    rng.shuffle(points)
    return points


def sweep_grids(seed):
    """(kind, kappa1, kappa2, points, checked row indices) for each regime."""
    rng = random.Random(f"sweep-{seed}")
    grids = []
    for kind, kappa1, kappa2 in REGIMES:
        points = rng.randint(*SWEEP_POINTS)
        rows = sorted(rng.sample(range(1, points), SWEEP_CHECKED_ROWS))
        grids.append((kind, kappa1, kappa2, points, rows))
    return grids


def oracle_seed(seed):
    """Monte Carlo seed handed to `trimode oracle --seed`."""
    return random.Random(f"oracle-{seed}").randrange(2**32)
