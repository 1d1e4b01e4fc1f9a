"""Exact time evolution of the quadrature vectors and their second moments.

With undepleted classical pumps the three quantum modes obey linear
equations of motion, dX/dt = ax X with the X drift of drift_matrix,

    dX1/dt = kappa1 * X3
    dX2/dt = kappa2 * X3
    dX3/dt = kappa1 * X1 - kappa2 * X2

and dY/dt = ay Y with ay = S ax S, S = diag(1, -1, -1): the Y equations
are the X ones with the sign of each term linking modes 1 and 3 flipped.
So each block evolves by a matrix exponential of a constant drift.  The
drift cubes satisfy A^3 = (kappa1^2 - kappa2^2) A, which collapses the
exponential to three terms: hyperbolic functions when kappa1 > kappa2,
trigonometric ones when kappa2 > kappa1, and a quadratic polynomial at the
degenerate point.  The X drift is the one statement of these equations:
a propagator is its X block mx (my = S mx S), and every moment state is
built from the rows of mx.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    MomentState,
    PropagatorPair,
    RegimeError,
    RegimeKind,
    _FLIP,
    _block,
    _check_finite,
    _check_time,
    _each,
    classify_regime,
)

__all__ = [
    "drift_matrix",
    "propagator_analytic",
    "propagator_expm",
    "outer_moments",
    "moments_at",
    "closed_form_moments",
]


def drift_matrix(c):
    """The read-only X drift ax of the quadrature equations of motion,
    dX/dt = ax @ X, rows = modes 1..3; the Y drift is S ax S."""
    k1, k2 = c.kappa1, c.kappa2
    ax = np.array([[0.0, 0.0, k1], [0.0, 0.0, k2], [k1, -k2, 0.0]])
    ax.setflags(write=False)
    return ax


def _factors(c, t):
    """The two scalar factors every propagator entry is built from.

    a = (cosh(rate*t) - 1) / rate^2 and b = sinh(rate*t) / rate for
    gap = kappa1^2 - kappa2^2 = rate^2 > 0, with cosh(rate*t) - 1 written
    2 sinh^2(rate*t / 2); gap < 0 has the trigonometric analogues.  Both
    factors are (rate t)-series with leading terms t^2/2 and t, so they
    stay accurate as the rate vanishes, and gap = 0 gives those terms
    exactly (the drift is nilpotent there).  t is a float or an array of
    times; a factor too large for a float becomes an infinity.
    """
    gap = (c.kappa1 - c.kappa2) * (c.kappa1 + c.kappa2)
    if gap == 0.0:
        return 0.5 * t * t, t
    fn = math.sinh if gap > 0.0 else math.sin
    rate = math.sqrt(abs(gap))
    half = _each(fn, 0.5 * rate * t) / rate
    return 2.0 * half * half, _each(fn, rate * t) / rate


def _combinations(r1, r2, r3, d):
    """The ten row combinations the criteria read: r1, r2, r3, d = r1 - r2 as
    given, r1 - r3, r2 - r3, r1 + r2, r1 + r3, r2 + r3 and d - r3 = r1 - r2 - r3."""
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = r1, r2, r3
    return (r1, r2, r3, d, (a1 - c1, a2 - c2, a3 - c3), (b1 - c1, b2 - c2, b3 - c3),
            (a1 + b1, a2 + b2, a3 + b3), (a1 + c1, a2 + c2, a3 + c3),
            (b1 + c1, b2 + c2, b3 + c3), (d[0] - c1, d[1] - c2, d[2] - c3))


def propagator_rows(c, t):
    """Rows r1, r2, r3 of the X propagator block, with their _combinations.

    mx = [[d11, -off, p], [off, d22, q], [p, -q, d33]] with d11 = 1 +
    kappa1^2 a, d22 = 1 - kappa2^2 a, d33 = 1 + gap a, off = kappa1 kappa2 a,
    p = kappa1 b and q = kappa2 b.  d = r1 - r2 is taken in the factored form
    (1 + kappa1 delta a, -(1 + kappa2 delta a), delta b), delta = kappa1 -
    kappa2, so it stays exact where r1 and r2 nearly cancel.  The Y block
    is the inverse transpose, my = S mx S with S = diag(1, -1, -1), which
    is what preserves the canonical commutators.  t is a float or an array.
    """
    k1, k2 = c.kappa1, c.kappa2
    a, b = _factors(c, t)
    off, p, q = k1 * k2 * a, k1 * b, k2 * b
    delta = k1 - k2
    r1 = (1.0 + k1 * k1 * a, -off, p)
    r2 = (off, 1.0 - k2 * k2 * a, q)
    r3 = (p, -q, 1.0 + delta * (k1 + k2) * a)
    d = (1.0 + k1 * delta * a, -(1.0 + k2 * delta * a), delta * b)
    return _combinations(r1, r2, r3, d)


def propagator_analytic(c, t):
    """Closed-form propagator in either regime; ValueError on overflow."""
    t = _check_time(t)
    mx = np.array(propagator_rows(c, t)[:3])
    if not np.isfinite(mx).all():
        raise ValueError("propagator overflows double precision; choose a smaller tau")
    return PropagatorPair(mx, t)


def _product(x, y):
    """x @ y of every matrix of two (3, 3, N) stacks, the matrix index
    first, written out so that no BLAS kernel's rounding enters: entry
    (i, k) is (x_i0 y_0k + x_i1 y_1k) + x_i2 y_2k."""
    return x[:, 0, None] * y[0] + x[:, 1, None] * y[1] + x[:, 2, None] * y[2]


def _mul(x, y):
    """x @ y of two 3x3 matrices given as rows of Python floats, each entry
    summed in _product's order."""
    (y00, y01, y02), (y10, y11, y12), (y20, y21, y22) = y
    return [(x0 * y00 + x1 * y10 + x2 * y20, x0 * y01 + x1 * y11 + x2 * y21,
             x0 * y02 + x1 * y12 + x2 * y22) for x0, x1, x2 in x]


#: The 3x3 identity as rows of Python floats.
_EYE = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def _taylor_terms(a1):
    """a1^k / k! for k = 0..20, a (21, 3, 3) array formed in Python floats
    by the recursion (a1^(k-1) / (k-1)!) @ a1 / k."""
    a1, terms = a1.tolist(), [_EYE]
    for k in range(1, 21):
        terms.append([(p0 / k, p1 / k, p2 / k) for p0, p1, p2 in _mul(terms[-1], a1)])
    return np.array(terms)


def _expm(ax, ts):
    """exp(ax t) for every t of a time column ts: a (3, 3, N) array whose
    column [:, :, i] is the matrix at ts[i].

    Scaling and squaring with a 20-term Taylor series (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)): each t gets the least squaring
    count s >= 0 with ||ax t 2^-s||_1 <= 0.5, where the series' truncation
    error is far below double precision.  Every matrix is the one drift
    times a scalar, so the series is a polynomial in that scalar.  With
    a1 = ax 2^-e, ||a1||_1 in [0.5, 1), the coefficients a1^k / k! are
    formed once, and sigma = t 2^(e - s) is run through them by Horner on
    the whole stack.  ts must be non-decreasing, as RunConfig grids and
    single times are, so s never decreases along it and each squaring
    covers the suffix that still needs one.  Every product is written out
    in _product's order, with no BLAS kernel, so the result is the same on
    every CPU.  Raises ValueError when an entry overflows.
    """
    norm = np.abs(ax).sum(axis=0).max()
    e = int(np.frexp(norm)[1])
    a1 = np.ldexp(ax, -e)
    mantissa, squarings = np.frexp(np.maximum(ts * norm / 0.5, 1.0))
    squarings -= mantissa == 0.5  # ceil(log2), exactly
    sigma = np.ldexp(ts, e - squarings)
    terms = _taylor_terms(a1)[..., None]
    r = terms[20] * sigma
    for k in range(19, 0, -1):
        r += terms[k]
        r *= sigma
    r += terms[0]
    for k in range(int(squarings.max(initial=0))):
        first = np.count_nonzero(squarings <= k)
        r[..., first:] = _product(r[..., first:], r[..., first:])
    _check_finite((r,), "matrix exponential overflows double precision; choose a smaller tau")
    return r


def propagator_expm(c, t):
    """Regime-independent propagator via the matrix exponential of the drift:
    the one-point column of _expm.

    Only the X block is exponentiated; the Y block is S mx S, as the Y
    drift is S ax S.
    """
    t = _check_time(t)
    with np.errstate(all="ignore"):
        mx = _expm(drift_matrix(c), np.array([t]))[..., 0]
    return PropagatorPair(mx, t)


def outer_moments(pair):
    """Moments a propagator pair produces from vacuum: cx = mx @ mx.T and
    cy = my @ my.T = S cx S.

    MomentState._from_rows builds the state from the _combinations of the
    rows of mx, with the plain d = r1 - r2, as moments_at does, and keeps
    them for the criteria; ValueError on overflow.
    """
    r1, r2, r3 = map(tuple, pair.mx.tolist())
    d = tuple(p - q for p, q in zip(r1, r2))
    return MomentState._from_rows(_combinations(r1, r2, r3, d))


def moments_at(c, t):
    """Second-moment blocks at time t from vacuum initial conditions.

    The initial covariance is the identity, so cx = mx @ mx.T and
    cy = my @ my.T = S cx S.  MomentState._from_rows builds the state from
    propagator_rows on a batch of one and keeps that table for the
    criteria.  outer_moments(propagator_expm(c, t)) is the
    matrix-exponential check of the same state; ValueError on overflow.
    """
    return MomentState._from_rows(propagator_rows(c, _check_time(t)))


def _closed_form_entries(c, t):
    """The six independent entries (c11, c22, c33, c12, c13, c23) of cx,
    transcribed from the solved moment formulas, at every time of an array
    t; RegimeError at the degenerate point, ValueError on overflow.  The
    periodic forms are the hyperbolic ones at an imaginary rate: cosh -> cos,
    sinh -> i sin and rate^2 -> -rate^2 flip the sign s of k1^2 sh^2 in c11
    and of c13 and c23 (s = 1 multiplies exactly).  The coefficients have
    degree 0 in (kappa1, kappa2, rate), so all three are scaled by the power
    of two that puts the rate in [0.5, 1), exactly, and its powers stay
    normal at every admitted coupling; the argument rate * t is not scaled."""
    regime = classify_regime(c)
    if regime.kind is RegimeKind.DEGENERATE:
        raise RegimeError(
            "closed-form moment expressions are undefined at the degenerate "
            "point; use moments_at"
        )
    e = -math.frexp(regime.rate)[1]
    k1, k2, r = (math.ldexp(v, e) for v in (c.kappa1, c.kappa2, regime.rate))
    cosh, sinh, s = ((math.cosh, math.sinh, 1.0) if regime.kind is RegimeKind.HYPERBOLIC
                     else (math.cos, math.sin, -1.0))
    x = regime.rate * t
    ch, sh = _each(cosh, x), _each(sinh, x)
    entries = (1.0 + (2 * k1**2 / r**4) * (s * k1**2 * sh**2 + 2 * k2**2 * (1 - ch)),
               1.0 + (2 * k1**2 * k2**2 / r**4) * (ch - 1) ** 2,
               1.0 + 2 * k1**2 * sh**2 / r**2,
               (k1 * k2 / r**4) * ((k1**2 + k2**2) * (ch - 1) ** 2 + r**2 * sh**2),
               (2 * s * k1 * sh / r**3) * (k1**2 * ch - k2**2),
               (2 * s * k1**2 * k2 / r**3) * (ch - 1) * sh)
    _check_finite(entries, "closed-form moments overflow double precision; choose a smaller tau")
    return entries


def closed_form_moments(c, t):
    """Direct transcription of the six independent moment formulas.

    Kept as a cross-check path that never touches the propagator matrices.
    The Y block follows from the sign pattern <Y1 Y2> = -<X1 X2>,
    <Y1 Y3> = -<X1 X3>, <Y2 Y3> = +<X2 X3> with equal diagonals.  Only the
    non-degenerate regimes have these forms; near the degenerate point they
    cancel terms of size (kappa / rate)^4, so use moments_at there instead.
    """
    t = _check_time(t)
    with np.errstate(all="ignore"):
        cx = _block(_closed_form_entries(c, np.array([t])))[0]
    return MomentState(cx, cx * _FLIP)
