"""Independent verification paths for the analytic moment dynamics, and
the oracle run, _grid_reports, that compares them on a grid.

None of these share formulas with the closed-form propagators: rk4
integrates the equations of motion numerically, mc_moments samples the
second moments of n vacuum draws through the analytic propagator (one
Wishart draw per block, so a result depends only on (seed, n)), and
compare_moments reduces two states to a structured error report.  RK4
integrates the X drift of drift_matrix alone, and every Y block is S mx S
with S = diag(1, -1, -1), as the Y drift is S ax S; on a uniform grid it
steps from point to point, by one interval operator composed by
doubling, and _rk4_grid alone sets the step counts from
RK4_STEPS_PER_UNIT_TAU.  The sampler draws its Wishart pair once for
the analytic X blocks it is given, and checks no input.  The comparison
runs on whole grids of cx blocks, or of (cx, cy) pairs where cy is
sampled; mc_moments and compare_moments are grids of one, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_FLIP, MomentState, PropagatorPair, Quadrature, RegimeError, _block,
                   _check_count, _check_finite, _check_seed, _check_time, _is_real,
                   _row_moments)
from .propagator import (_EYE, _closed_form_entries, _expm, _mul, _product, drift_matrix,
                         propagator_rows)

__all__ = [
    "RK4_STEPS_PER_UNIT_TAU",
    "ComparisonReport",
    "rk4_propagator",
    "mc_moments",
    "compare_moments",
]

#: Step density of the rk4 comparison in oracle runs: grid point i gets at
#: least RK4_STEPS_PER_UNIT_TAU * tau_i steps (_rk4_grid).
RK4_STEPS_PER_UNIT_TAU = 10_000


@dataclass(frozen=True)
class ComparisonReport:
    """Worst-case agreement between two moment states, or two grids of them.

    The combined metric is |a - b| / max(1, |a|) per entry, with the first
    state as reference; the report passes when its maximum stays within
    tolerance.  worst_entry is (block, i, j, t) for the worst offender, t
    the label of its grid point, and max_abs_err the largest absolute
    error at that grid point.
    """

    max_abs_err: float
    max_rel_err: float
    worst_entry: tuple
    passed: bool
    tolerance: float


def _rk4_step(a, h):
    """One classical RK4 step of length h for dM/dt = a M, applied to the
    identity, in Python floats: I + (h/6) (k1 + 2 k2 + 2 k3 + k4) with
    k1 = a and each later stage a (I + c k), c = h/2, h/2, h, k the stage
    before."""
    stages = [a]
    for c in (0.5 * h, 0.5 * h, h):
        stages.append(_mul(a, [[e + c * v for e, v in zip(*rows)]
                               for rows in zip(_EYE, stages[-1])]))
    w = h / 6.0
    return [[e + w * (v1 + 2.0 * v2 + 2.0 * v3 + v4) for e, v1, v2, v3, v4 in zip(*rows)]
            for rows in zip(_EYE, *stages)]


def _power(z, n):
    """z^n for an integer n >= 1 by binary powering: the product of the
    squares z^(2^k) over the set bits k of n, lowest bit first."""
    result = None
    while n:
        if n & 1:
            result = z if result is None else _mul(result, z)
        z, n = _mul(z, z), n >> 1
    return result


def _rk4_grid(ax, taus, ts):
    """(3, 3, N) array whose column [:, :, i] is the RK4 X block of the drift
    ax at t0 + i dt, dt = (t_last - t0) / (N - 1), on a uniform grid of
    N >= 2 taus at times ts (each Y block is S mx S): z(t0/n0)^n0 Z^i, z(h)
    the step matrix and Z = z(dt/m)^m.  n0 = max(1, ceil(D tau_0)) and m is
    the least count >= max(1, ceil(D dtau)) giving n0 + i m >= ceil(D tau_i),
    D = RK4_STEPS_PER_UNIT_TAU; ValueError when a count or an entry
    overflows.  Z^i is the product of Z^(2^k) over the set bits k of i,
    lowest first: each doubling extends the columns [0, w) to [w, 2w) by
    Z^w in one stacked _product, which also squares Z^w.  No BLAS kernel
    enters, so the result is the same on every CPU.
    """
    n = len(taus)
    need = np.ceil(RK4_STEPS_PER_UNIT_TAU * taus)
    if not np.isfinite(need).all():
        raise ValueError("rk4 step count overflows; choose a smaller tau")
    n0 = max(1, int(need[0]))
    m = max(1, math.ceil(RK4_STEPS_PER_UNIT_TAU * ((taus[-1] - taus[0]) / (n - 1))),
            math.ceil(((need[1:] - n0) / np.arange(1, n)).max()))
    a = ax.tolist()
    r = np.empty((3, 3, n))
    r[..., 0] = _power(_rk4_step(a, float(ts[0]) / n0), n0)
    z = np.array(_power(_rk4_step(a, float(ts[-1] - ts[0]) / (n - 1) / m), m))[..., None]
    width = 1
    while width < n:
        w = min(width, n - width)
        p = _product(np.concatenate((r[..., :w], z), axis=2), z)
        r[..., width:width + w] = p[..., :w]
        z = p[..., w:]
        width *= 2
    _check_finite((r,), "rk4 moments are not finite; choose a smaller tau")
    return r


def rk4_propagator(c, t, steps):
    """Integrate both quadrature blocks from the identity with classical RK4.

    The result is the standard fixed-step RK4 solution with global error
    O((t/steps)^4): z(t/steps)^steps, z the RK4 step matrix, as _rk4_grid
    forms its first column.  Only the X block is integrated; the Y block is
    S mx S, as the Y drift is S ax S.  ValueError unless steps is a
    positive integer that fits in a float.
    """
    t, steps = _check_time(t), _check_count(steps, "steps")
    with np.errstate(all="ignore"):
        mx = np.array(_power(_rk4_step(drift_matrix(c).tolist(), t / steps), steps))
    return PropagatorPair(mx, t)


def _scatter(rng, n):
    """Factor A, with A A' the scatter matrix sum_s z_s z_s' of n independent
    standard normal 3-vectors z_s, i.e. one draw of the Wishart law W_3(n, I).

    For n >= 3 this is the Bartlett decomposition (Odell & Feiveson, JASA
    61, 199 (1966)): A is lower triangular, A_ii^2 ~ chi^2(n - i) for
    i = 0, 1, 2 and standard normal entries below the diagonal, so the
    cost does not depend on n.  Below 3 the law is singular and A holds the
    n samples as columns, padded with zeros.
    """
    if n < 3:
        return np.pad(rng.standard_normal((n, 3)).T, ((0, 0), (0, 3 - n)))
    d = np.sqrt(rng.chisquare(n - np.arange(3.0))).tolist()
    z = rng.standard_normal(3).tolist()
    return np.array([[d[0], 0.0, 0.0], [z[0], d[1], 0.0], [z[1], z[2], d[2]]])


def _mc_blocks(mx, n, seed):
    """(k, 2, 3, 3) stack of the sampled (cx, cy) for a (k, 3, 3) stack mx
    of analytic X blocks with finite moments C, a count n admitted by
    _check_count and a seed admitted by _check_seed.

    The sample moments of n independent vacuum 6-vectors (X1..X3, Y1..Y3,
    unit-variance normals) pushed through the propagator blocks.  X and Y
    are independent, so each block is (M A)(M A)' / n, the Gram matrix of
    the rows of M A (Python floats through _row_moments), for the factor A
    of one Wishart draw of the n samples' scatter matrix: the law of
    averaging n outer products, at a cost independent of n.  The pair
    (Ax, Ay) is drawn once, in that order, from one Philox stream keyed by
    seed, so a result depends only on (seed, n).  A sum n C that overflows
    is a ValueError naming the sample count.
    """
    m = np.stack([mx, mx * _FLIP], axis=1)
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    f = (m @ np.array([_scatter(rng, n), _scatter(rng, n)])).reshape(-1, 3, 3).tolist()
    try:
        x = np.array([_row_moments(rows) for rows in f]).reshape(-1, 2, 6)
    except ValueError:
        raise ValueError(f"Monte Carlo sums of {n} samples overflow double precision; "
                         "choose a smaller sample count") from None
    return _block(x.T) / n


def mc_moments(c, t, n, seed):
    """Sample second moments of the evolved quadratures at time t from n
    vacuum samples: a grid of one of the sampler _grid_reports uses.
    ValueError for a bad t, n or seed, and when the analytic moments (tau)
    or their n-sample sums (n) overflow."""
    t, n, seed = _check_time(t), _check_count(n, "n"), _check_seed(seed)
    rows = propagator_rows(c, t)[:3]
    _row_moments(rows)  # analytic moments that overflow blame tau, not n
    with np.errstate(all="ignore"):
        return MomentState(*_mc_blocks(np.array([rows]), n, seed)[0])


def _compare(a, b, tol, labels):
    """Worst-case report over (N, 2, 3, 3) (cx, cy) or (N, 3, 3) cx stacks.

    The worst grid point is the first one with the largest combined error;
    within it X comes before Y and entries go row-major, and the first
    entry at that error is the worst.  max_abs_err is the largest absolute
    error at that grid point, and labels[i] (a tau) labels point i.
    """
    n = len(a)
    diff = np.abs(a - b).reshape(n, -1)
    rel = diff / np.maximum(1.0, np.abs(a)).reshape(n, -1)
    point = int(np.argmax(rel.max(axis=1)))
    entry = int(np.argmax(rel[point]))
    quad, (i, j) = (Quadrature.X, Quadrature.Y)[entry // 9], divmod(entry % 9, 3)
    max_rel = float(rel[point, entry])
    return ComparisonReport(
        max_abs_err=float(diff[point].max()),
        max_rel_err=max_rel,
        worst_entry=(quad, i, j, labels[point]),
        passed=max_rel <= tol,
        tolerance=tol,
    )


def compare_moments(a, b, tol, t=math.nan):
    """Entrywise error report between two moment states.

    Records the maximum absolute error and the maximum combined error
    |a - b| / max(1, |a|); passes when the combined maximum is within tol.
    t only labels the worst entry (useful when scanning a grid).  A grid
    of one: _grid_reports reduces whole grids the same way.  ValueError
    unless tol is a real number but a bool, and >= 0.
    """
    if not (_is_real(tol) and tol >= 0):
        raise ValueError(f"tol must be a real number >= 0, got {tol!r}")
    return _compare(np.array([[a.cx, a.cy]]), np.array([[b.cx, b.cy]]), tol, [t])


def _grid_reports(c, taus, ts, n, seed):
    """[(name, ComparisonReport), ...] of every moment path on a grid of
    taus at times ts, against the analytic propagator outer products.

    The closed forms, expm and rk4 run as one pass over the grid each, and
    each comparison reduces the grid to its worst point.  expm and rk4 are
    (3, 3, N) X stacks read through _row_moments; rk4's row i sits at
    t0 + i dt (_rk4_grid).  A deterministic path has cy = S cx S, so only
    cx is compared.  Monte Carlo samples n draws under seed from the
    analytic X blocks at up to three points, and compares both blocks; its
    1e-2 bound fails by chance at a rate the couplings set (README).
    Each kernel raises its own ValueError when its result overflows, and
    the closed forms' RegimeError at the degenerate point drops their lines.
    """
    ax = drift_matrix(c)
    size = len(taus)
    with np.errstate(all="ignore"):
        rows = propagator_rows(c, ts)[:3]
        analytic = _block(_row_moments(rows))
        via_expm = _block(_row_moments(_expm(ax, ts)))
        via_rk4 = _block(_row_moments(_rk4_grid(ax, taus, ts)))
        try:
            closed = _block(_closed_form_entries(c, ts))
        except RegimeError:
            closed = None
        mc = [i for i in sorted({size // 4, size // 2, size - 1}) if taus[i] > 0]
        sampled = _mc_blocks(np.array(rows)[..., mc].transpose(2, 0, 1), n, seed)

    reports = [("analytic vs expm", _compare(analytic, via_expm, 1e-9, taus)),
               ("rk4 vs analytic", _compare(analytic, via_rk4, 1e-8, taus))]
    if closed is not None:
        reports.append(("closed-form vs analytic", _compare(closed, analytic, 1e-9, taus)))
        reports.append(("closed-form vs expm", _compare(closed, via_expm, 1e-9, taus)))

    reference = np.stack([analytic[mc], analytic[mc] * _FLIP], 1)
    reports.append(("mc vs analytic", _compare(reference, sampled, 1e-2, taus[mc])))
    return reports
