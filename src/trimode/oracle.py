"""Independent verification paths for the analytic moment dynamics.

None of these share formulas with the closed-form propagators: rk4
integrates the equations of motion numerically, mc_moments samples the
second moments of n vacuum draws through the analytic propagator (one
Wishart draw per block, so a result depends only on (seed, n)), and
compare_moments reduces two states to a structured error report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MomentState, PropagatorPair, Quadrature
from .propagator import drift_matrices, propagator_analytic

__all__ = [
    "ComparisonReport",
    "rk4_propagator",
    "mc_moments",
    "compare_moments",
]

@dataclass(frozen=True)
class ComparisonReport:
    """Worst-case agreement between two moment states (or grids of them).

    The combined metric is |a - b| / max(1, |a|) per entry, with the first
    state as reference; the report passes when its maximum stays within
    tolerance.  worst_entry is (block, i, j, t) for the worst offender.
    """

    max_abs_err: float
    max_rel_err: float
    worst_entry: tuple
    passed: bool
    tolerance: float


def _rk4_step_matrix(a, h):
    """One classical RK4 step for dM/dt = a @ M, applied to the identity."""
    eye = np.eye(3)
    k1 = a @ eye
    k2 = a @ (eye + 0.5 * h * k1)
    k3 = a @ (eye + 0.5 * h * k2)
    k4 = a @ (eye + h * k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_propagator(c, t, steps):
    """Integrate both quadrature blocks from the identity with classical RK4.

    The step operator is constant for this linear system, so composing the
    steps reduces to a matrix power; the result is the standard fixed-step
    RK4 solution with global error O((t/steps)^4).
    """
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    ax, ay = drift_matrices(c)
    h = t / steps
    mx = np.linalg.matrix_power(_rk4_step_matrix(ax, h), steps)
    my = np.linalg.matrix_power(_rk4_step_matrix(ay, h), steps)
    return PropagatorPair(mx, my, t)


def _scatter(rng, n):
    """Scatter matrix sum_s z_s z_s' of n independent standard normal
    3-vectors z_s, i.e. one draw of the Wishart law W_3(n, I).

    For n >= 3 this is the Bartlett decomposition (Odell & Feiveson, JASA
    61, 199 (1966)): W = A A' with A lower triangular, A_ii^2 ~ chi^2(n - i)
    for i = 0, 1, 2 and standard normal entries below the diagonal, so the
    cost does not depend on n.  Below 3 the law is singular and the n
    samples are summed directly.
    """
    if n < 3:
        z = rng.standard_normal((n, 3))
        return z.T @ z
    d = np.sqrt(rng.chisquare(n - np.arange(3))).tolist()
    z = rng.standard_normal(3).tolist()
    a = np.array([[d[0], 0.0, 0.0], [z[0], d[1], 0.0], [z[1], z[2], d[2]]])
    return a @ a.T


def mc_moments(c, t, n, seed):
    """Sample second moments of the evolved quadratures.

    The sample moments of n independent vacuum 6-vectors (X1..X3, Y1..Y3,
    unit-variance normals) pushed through the analytic propagator blocks.
    X and Y are independent, so each block is S = M W M' / n for one
    Wishart draw W of the n samples' scatter matrix: exactly the law of
    averaging n outer products, at a cost independent of n.  A result
    depends only on (seed, n).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    pair = propagator_analytic(c, t)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    blocks = []
    for m in (pair.mx, pair.my):
        s = m @ _scatter(rng, n) @ m.T
        blocks.append(0.5 * (s + s.T) / n)
    return MomentState(*blocks)


def compare_moments(a, b, tol, t=math.nan):
    """Entrywise error report between two moment states.

    Records the maximum absolute error and the maximum combined error
    |a - b| / max(1, |a|); passes when the combined maximum is within tol.
    t only labels the worst entry (useful when scanning a grid).
    """
    max_abs = 0.0
    max_rel = 0.0
    worst = (Quadrature.X, 0, 0, t)
    for quad, ma, mb in ((Quadrature.X, a.cx, b.cx), (Quadrature.Y, a.cy, b.cy)):
        diff = np.abs(ma - mb)
        rel = diff / np.maximum(1.0, np.abs(ma))
        max_abs = max(max_abs, float(diff.max()))
        if float(rel.max()) > max_rel:
            max_rel = float(rel.max())
            i, j = np.unravel_index(int(np.argmax(rel)), rel.shape)
            worst = (quad, int(i), int(j), t)
    return ComparisonReport(
        max_abs_err=max_abs,
        max_rel_err=max_rel,
        worst_entry=worst,
        passed=max_rel <= tol,
        tolerance=tol,
    )
