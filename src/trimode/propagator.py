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


def _factors(c, regime, t):
    """The two scalar factors every propagator entry is built from.

    a = (cosh(rate*t) - 1) / (kappa1^2 - kappa2^2) and b = sinh(rate*t)/rate
    in the hyperbolic regime, with cosh(rate*t) - 1 evaluated as
    2 sinh^2(rate*t / 2) so they stay accurate arbitrarily close to the
    degenerate point; the periodic regime has the trigonometric analogues
    (1 - cos(xi t) = 2 sin^2(xi t / 2)).  At the degenerate point the drift
    is nilpotent, exp(A t) = I + A t + A^2 t^2 / 2 exactly, and couplings
    inside the tolerance window keep a tiny residual gap that the series
    terms absorb.  t is a float or an array of times; a factor too large
    for a float becomes an infinity.
    """
    gap = c.kappa1 * c.kappa1 - c.kappa2 * c.kappa2
    rate = regime.rate
    if regime.kind is RegimeKind.HYPERBOLIC:
        half = _each(math.sinh, 0.5 * rate * t)
        return 2.0 * half * half / gap, _each(math.sinh, rate * t) / rate
    if regime.kind is RegimeKind.PERIODIC:
        half = _each(math.sin, 0.5 * rate * t)
        return -2.0 * half * half / gap, _each(math.sin, rate * t) / rate
    u = gap * t * t
    a = 0.5 * t * t * (1.0 + u / 12.0 + u * u / 360.0)
    b = t * (1.0 + u / 6.0 + u * u / 120.0)
    return a, b


def _propagator_entries(c, a, b):
    """The six distinct entries (d11, d22, d33, off, p, q) of the X block

        mx = [[d11, -off, p], [off, d22, q], [p, -q, d33]].

    The Y block is the inverse transpose, my = S mx S with
    S = diag(1, -1, -1), which is what preserves the canonical commutators.
    """
    k1, k2 = c.kappa1, c.kappa2
    d11 = 1.0 + k1 * k1 * a
    d22 = 1.0 - k2 * k2 * a
    d33 = 1.0 + (k1 * k1 - k2 * k2) * a
    return d11, d22, d33, k1 * k2 * a, k1 * b, k2 * b


def _pair_from_factors(c, t, a, b):
    """Both propagator blocks as matrices."""
    d11, d22, d33, off, p, q = _propagator_entries(c, a, b)
    mx = np.array([[d11, -off, p], [off, d22, q], [p, -q, d33]])
    my = np.array([[d11, off, -p], [-off, d22, q], [-p, -q, d33]])
    return PropagatorPair(mx, my, t)


def moment_entries(c, regime, t):
    """Independent moment entries (c11, c22, c33, c12, c13, c23) of cx and cy.

    Vacuum input makes cx = mx @ mx.T, written out entry by entry; cy =
    S cx S flips the sign of <Y1 Y2> and <Y1 Y3>.  t is a float (one state)
    or an array (a sweep, to be run under np.errstate); regime must be
    classify_regime(c).  Raises ValueError when the moments overflow.
    """
    d11, d22, d33, off, p, q = _propagator_entries(c, *_factors(c, regime, t))
    x = (
        d11 * d11 + off * off + p * p,
        off * off + d22 * d22 + q * q,
        p * p + q * q + d33 * d33,
        d11 * off - off * d22 + p * q,
        d11 * p + off * q + p * d33,
        off * p - d22 * q + q * d33,
    )
    _check_finite(x, "second moments overflow double precision; choose a smaller tau")
    return x, (x[0], x[1], x[2], -x[3], -x[4], x[5])


def _analytic(c, t, kind=None):
    """Closed-form propagator, after checking t and, if given, the regime."""
    _check_time(t)
    regime = classify_regime(c)
    if kind is not None and regime.kind is not kind:
        raise RegimeError(
            f"couplings {c} are {regime.kind.value}, not {kind.value}"
        )
    return _pair_from_factors(c, t, *_factors(c, regime, t))


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
    """Exact propagator at kappa1 = kappa2, where the drift is nilpotent.

    A^3 = 0 makes exp(A t) = I + A t + A^2 t^2 / 2 exactly, the limiting
    polynomial of the hyperbolic and periodic forms as the rate vanishes.
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
    """Moments a propagator pair produces from vacuum: cx = mx @ mx.T etc."""

    def sym(m):
        s = m @ m.T
        return 0.5 * (s + s.T)

    return MomentState(sym(pair.mx), sym(pair.my))


def _block(c11, c22, c33, c12, c13, c23):
    return np.array([[c11, c12, c13], [c12, c22, c23], [c13, c23, c33]])


def moments_at(c, t, method=MomentMethod.ANALYTIC):
    """Second-moment blocks at time t from vacuum initial conditions.

    The initial covariance is the identity, so cx = mx @ mx.T and
    cy = my @ my.T for the selected propagator.  The analytic method is
    moment_entries on a batch of one.
    """
    if method is MomentMethod.ANALYTIC:
        _check_time(t)
        x, y = moment_entries(c, classify_regime(c), float(t))
        return MomentState(_block(*x), _block(*y))
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
