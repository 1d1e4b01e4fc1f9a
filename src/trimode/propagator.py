"""Exact time evolution of the quadrature vectors and their second moments.

With undepleted classical pumps the three quantum modes obey linear
equations of motion

    dX1/dt =  kappa1 * X3        dY1/dt = -kappa1 * Y3
    dX2/dt =  kappa2 * X3        dY2/dt =  kappa2 * Y3
    dX3/dt =  kappa1 * X1 - kappa2 * X2
    dY3/dt = -kappa1 * Y1 - kappa2 * Y2

so each block evolves by a matrix exponential of a constant drift.  The
drift cubes satisfy A^3 = (kappa1^2 - kappa2^2) A, which collapses the
exponential to three terms: hyperbolic functions when kappa1 > kappa2,
trigonometric ones when kappa2 > kappa1, and a quadratic polynomial at the
degenerate point.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Couplings,
    MomentMethod,
    MomentState,
    PropagatorPair,
    RegimeError,
    RegimeKind,
    _check_finite,
    _dot,
    _each,
    classify_regime,
)

__all__ = [
    "drift_matrices",
    "propagator_hyperbolic",
    "propagator_periodic",
    "propagator_degenerate",
    "propagator_analytic",
    "propagator_expm",
    "outer_moments",
    "moments_at",
    "closed_form_moments",
]


def drift_matrices(c):
    """Drift matrices (ax, ay) of the quadrature equations of motion,
    dX/dt = ax @ X and dY/dt = ay @ Y, rows = modes 1..3."""
    k1, k2 = c.kappa1, c.kappa2
    ax = np.array([[0.0, 0.0, k1], [0.0, 0.0, k2], [k1, -k2, 0.0]])
    ay = np.array([[0.0, 0.0, -k1], [0.0, 0.0, k2], [-k1, -k2, 0.0]])
    ax.setflags(write=False)
    ay.setflags(write=False)
    return ax, ay


def _check_time(t):
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")


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


def propagator_rows(c, t):
    """Rows r1, r2, r3 of the X propagator block, and d = r1 - r2.

    mx = [[d11, -off, p], [off, d22, q], [p, -q, d33]] with d11 = 1 +
    kappa1^2 a, d22 = 1 - kappa2^2 a, d33 = 1 + gap a, off = kappa1 kappa2 a,
    p = kappa1 b and q = kappa2 b.  d is taken in the factored form
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
    return r1, r2, r3, d


#: S mx S entrywise: the sign flips that turn mx into my.
_FLIP = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])


def _analytic(c, t, kind=None):
    """Closed-form propagator, after checking t and, if given, the regime."""
    _check_time(t)
    if kind is not None:
        regime = classify_regime(c)
        if regime.kind is not kind:
            raise RegimeError(
                f"couplings {c} are {regime.kind.value}, not {kind.value}"
            )
    mx = np.array(propagator_rows(c, t)[:3])
    return PropagatorPair(mx, mx * _FLIP, t)


def propagator_hyperbolic(c, t):
    """Closed-form propagator for kappa1 > kappa2 (rate Omega).

    Entries are the cosh/sinh coefficient matrices of the solved equations
    of motion, e.g. mx[0][0] = (kappa1^2 cosh(Omega t) - kappa2^2)/Omega^2.
    """
    return _analytic(c, t, RegimeKind.HYPERBOLIC)


def propagator_periodic(c, t):
    """Closed-form propagator for kappa2 > kappa1 (rate xi).

    Entries are the cos/sin coefficient matrices, e.g. mx[0][0] =
    (kappa2^2 - kappa1^2 cos(xi t))/xi^2.
    """
    return _analytic(c, t, RegimeKind.PERIODIC)


def propagator_degenerate(c, t):
    """Closed-form propagator for couplings inside the degeneracy window.

    At kappa1 = kappa2 the drift is nilpotent, A^3 = 0, and exp(A t) =
    I + A t + A^2 t^2 / 2 exactly, the limit of the hyperbolic and periodic
    forms as the rate vanishes; inside the window those forms are used
    with their small rate.
    """
    return _analytic(c, t, RegimeKind.DEGENERATE)


def propagator_analytic(c, t):
    """Closed-form propagator for whichever regime the couplings are in."""
    return _analytic(c, t)


def _expm(a):
    """exp(a) by scaling and squaring with a 20-term Taylor series.

    The argument is scaled so its 1-norm is at most 0.5, where the
    truncation error of the series is far below double precision.
    """
    norm = np.max(np.sum(np.abs(a), axis=0))
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    b = a / (2.0**squarings)
    result = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 21):
        term = term @ b / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def propagator_expm(c, t):
    """Regime-independent propagator via the matrix exponential of the drift."""
    _check_time(t)
    ax, ay = drift_matrices(c)
    return PropagatorPair(_expm(ax * t), _expm(ay * t), t)


def outer_moments(pair):
    """Moments a propagator pair produces from vacuum: cx = mx @ mx.T etc.

    When my = S mx S, as for every propagator of these equations of motion,
    the state keeps the rows of mx (with d = r1 - r2 by subtraction), from
    which the criteria read their values as for moments_at.
    """

    def sym(m):
        s = m @ m.T
        return 0.5 * (s + s.T)

    m = MomentState(sym(pair.mx), sym(pair.my))
    if (pair.my == pair.mx * _FLIP).all():
        r1, r2, r3 = pair.mx.tolist()
        object.__setattr__(m, "_rows", (r1, r2, r3, [p - q for p, q in zip(r1, r2)]))
    return m


def _block(c11, c22, c33, c12, c13, c23):
    return np.array([[c11, c12, c13], [c12, c22, c23], [c13, c23, c33]])


def moments_at(c, t, method=MomentMethod.ANALYTIC):
    """Second-moment blocks at time t from vacuum initial conditions.

    The initial covariance is the identity, so cx = mx @ mx.T and
    cy = my @ my.T for the selected propagator.  The analytic method forms
    cx_ij = r_i . r_j from propagator_rows on a batch of one, and cy =
    S cx S flips the sign of <Y1 Y2> and <Y1 Y3>; the state keeps the rows,
    from which the criteria read their values.  Raises ValueError when the
    moments overflow.
    """
    if method is MomentMethod.ANALYTIC:
        _check_time(t)
        rows = propagator_rows(c, float(t))
        r1, r2, r3, _ = rows
        x = (_dot(r1, r1), _dot(r2, r2), _dot(r3, r3),
             _dot(r1, r2), _dot(r1, r3), _dot(r2, r3))
        _check_finite(x, "second moments overflow double precision; choose a smaller tau")
        m = MomentState(_block(*x), _block(x[0], x[1], x[2], -x[3], -x[4], x[5]))
        object.__setattr__(m, "_rows", rows)
        return m
    if method is MomentMethod.EXPM:
        return outer_moments(propagator_expm(c, t))
    raise ValueError(f"unknown moment method {method!r}")


def closed_form_moments(c, t):
    """Direct transcription of the six independent moment formulas.

    Kept as a cross-check path that never touches the propagator matrices.
    The Y block follows from the sign pattern <Y1 Y2> = -<X1 X2>,
    <Y1 Y3> = -<X1 X3>, <Y2 Y3> = +<X2 X3> with equal diagonals.  Only the
    non-degenerate regimes have these forms; they divide by rate^4 as
    written, so near-degenerate couplings should use moments_at instead.
    """
    _check_time(t)
    k1, k2 = c.kappa1, c.kappa2
    regime = classify_regime(c)
    r = regime.rate
    if regime.kind is RegimeKind.HYPERBOLIC:
        ch = math.cosh(r * t)
        sh = math.sinh(r * t)
        xx11 = 1.0 + (2 * k1**2 / r**4) * (k1**2 * sh**2 + 2 * k2**2 * (1 - ch))
        xx22 = 1.0 + (2 * k1**2 * k2**2 / r**4) * (ch - 1) ** 2
        xx33 = 1.0 + 2 * k1**2 * sh**2 / r**2
        xx12 = (k1 * k2 / r**4) * ((k1**2 + k2**2) * (ch - 1) ** 2 + r**2 * sh**2)
        xx13 = (2 * k1 * sh / r**3) * (k1**2 * ch - k2**2)
        xx23 = (2 * k1**2 * k2 / r**3) * (ch - 1) * sh
    elif regime.kind is RegimeKind.PERIODIC:
        co = math.cos(r * t)
        si = math.sin(r * t)
        xx11 = 1.0 + 2 * k1**2 * (2 * k2**2 * (1 - co) - k1**2 * si**2) / r**4
        xx22 = 1.0 + 2 * k1**2 * k2**2 * (co - 1) ** 2 / r**4
        xx33 = 1.0 + 2 * k1**2 * si**2 / r**2
        xx12 = (2 * k1 * k2 / r**4) * ((k1**2 + k2**2) * (1 - co) - k1**2 * si**2)
        xx13 = (k1 / r**3) * (2 * k2**2 * si - k1**2 * math.sin(2 * r * t))
        xx23 = (2 * k1**2 * k2 * si / r**3) * (1 - co)
    else:
        raise RegimeError(
            "closed-form moment expressions are undefined at the degenerate "
            "point; use moments_at"
        )
    cx = np.array([[xx11, xx12, xx13], [xx12, xx22, xx23], [xx13, xx23, xx33]])
    cy = np.array([[xx11, -xx12, -xx13], [-xx12, xx22, xx23], [-xx13, xx23, xx33]])
    return MomentState(cx, cy)
