"""Entanglement criteria evaluated on a second-moment state.

Two families are implemented:

* pairwise variance sums v_ij = V(X_i - X_j) + V(Y_i + Y_j + g_k Y_k),
  bounded below by 4 for separable states, either with unit gains ("raw")
  or with the variance-minimising gains ("optimised");
* inference products obr_i = Vinf(X_i) * Vinf(Y_i) (bound 1) and
  obr_jk = Vinf(X_j + X_k) * Vinf(Y_j + Y_k) (bound 4), built from optimal
  linear estimates of one quadrature combination from another.

Every criterion is a function of quadratic forms, on the vectors e_i and
e_i +/- e_j, of the two blocks and of their adjugates: each inference
residual is a ratio of such forms, or the unconditioned form where the
conditioning variance is zero (see _residual).  A propagated state
keeps the rows r1, r2, r3 of its X propagator block in MomentState.rows,
and row_criteria reads every form as a squared norm: cx = M M' gives
q'cx q = |M'q|^2, cy = S cx S with S = diag(1, -1, -1), and the state is
pure, so adj(cx) = cy and adj(cy) = cx.  The norms are |r_i|^2 and
|r_i +/- r_j|^2, with r1 - r2 taken in a factored form that stays exact
where the two rows nearly cancel, and |r1 - r2 - r3|^2; the gains add
three dot products.  Nothing large is subtracted, so the values keep
double precision wherever the moments grow.  A state with no rows (Monte
Carlo, or blocks built by hand) reads its entries and cofactors.  Both
paths end in _values, one flat assembly of the 15 values with no per-mode
loop, which runs unchanged on floats (one state, where a call's fixed
cost dominates) and on arrays (a sweep), bit for bit alike; obr_single,
obr_pair and vlf_gains are views of evaluate_all's 15 values.
All mode indices in the public functions are 1-based.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    CriteriaReport,
    Sign,
    VlfGains,
    _check_finite,
    _check_time,
    _dot,
    _is_int,
    _is_real,
)

__all__ = [
    "UNIT_GAINS",
    "obr_single",
    "obr_pair",
    "vlf_gains",
    "vlf_value",
    "evaluate_all",
]

#: Gains of the unoptimised ("raw") pairwise sums.
UNIT_GAINS = VlfGains(1.0, 1.0, 1.0)

_VALID_PAIRS = ((1, 2), (1, 3), (2, 3))


def _is_mode(i):
    """Whether i is 1, 2 or 3 as an integer that is not a bool."""
    return _is_int(i) and i in (1, 2, 3)


def _check_mode(i):
    if not _is_mode(i):
        raise ValueError(f"mode index must be 1, 2 or 3, got {i!r}")


def _entries(block):
    r = block.tolist()
    return r[0][0], r[1][1], r[2][2], r[0][1], r[0][2], r[1][2]


def _cofactors(c):
    """adj(C) of a symmetric block, in entry order."""
    c11, c22, c33, c12, c13, c23 = c
    return (
        c22 * c33 - c23 * c23,
        c11 * c33 - c13 * c13,
        c11 * c22 - c12 * c12,
        c13 * c23 - c12 * c33,
        c12 * c23 - c13 * c22,
        c12 * c13 - c11 * c23,
    )


def _entry_forms(c):
    """The forms of a symmetric block read off its entries: (diag, plus,
    minus), where diag[i] = C_ii and plus[k], minus[k] are the forms of
    e_i + e_j and e_i - e_j for the pair i < j that leaves out mode k."""
    c11, c22, c33, c12, c13, c23 = c
    pairs = ((c22 + c33, c23), (c11 + c33, c13), (c11 + c22, c12))
    return ((c11, c22, c33),
            tuple(s + 2.0 * o for s, o in pairs),
            tuple(s - 2.0 * o for s, o in pairs))


def _residual(num, den, own):
    """The residual-variance formula: num / den clipped at 0, or own where den <= 0.

    The residual of w.Q given v.Q is the Schur complement
    w'Cw - (w'Cv)^2 / v'Cv, which by the Lagrange identity equals
    (w x v)' adj(C) (w x v) / v'Cv; num is that numerator and den = v'Cv.
    On a positive-semidefinite C, v'Cv = 0 gives Cv = 0, so the complement
    is own = w'Cw exactly; any positive den, however small, is divided by.
    """
    small = den <= 0.0
    if isinstance(small, bool):  # a batch of one: the selects as branches
        if small:
            return own
        r = num / den
        return 0.0 if r < 0.0 else r
    r = num / np.where(small, 1.0, den)
    return np.where(small, own, np.where(r < 0.0, 0.0, r))


# Entry indices (ii, jj, kk, ij, ik, jk) of the sum over modes i < j that
# leaves out mode k, by k.
_SUM_ENTRIES = ((1, 2, 0, 5, 3, 4), (0, 2, 1, 4, 3, 5), (0, 1, 2, 3, 4, 5))


def _y_sum(y, k, g):
    """V(Y_i + Y_j + g Y_k)."""
    ii, jj, kk, ij, ik, jk = _SUM_ENTRIES[k]
    return (y[ii] + y[jj] + 2.0 * y[ij]) + g * (2.0 * (y[ik] + y[jk]) + g * y[kk])


def _gain(y, k):
    """g_k = -(<Y_i Y_k> + <Y_j Y_k>) / <Y_k^2> of the float entries y of
    _entries; a zero variance gives NaN, which the finiteness check reports."""
    _, _, kk, _, ik, jk = _SUM_ENTRIES[k]
    return -(y[ik] + y[jk]) / (y[kk] if y[kk] != 0.0 else math.nan) + 0.0


def _values(fx, fy, ax, ay, totals, gains, sign):
    """The 15 criteria in CRITERIA order, in one flat pass, from the forms
    (diag, plus, minus) of cx, cy, adj(cx) and adj(cy), the unit-gain Y
    sums V(Y_i + Y_j + Y_k) by left-out mode k and the gains.  For mode i
    and j < k the other two, V(Q_i | Q_j + s Q_k) and V(Q_j + s Q_k | Q_i)
    divide one numerator n_i, the adjugate form of e_j - s e_k, by c_i, the
    form of e_j + s e_k, and by that of e_i; a zero divisor leaves the
    unconditioned form (see _residual).  The optimised sums take
    q_i = V(Y_j + Y_k | Y_i) whatever the sign.  Raises ValueError when
    sign is not a Sign or a value is not finite.
    """
    (x1, x2, x3), xp, xm = fx
    (y1, y2, y3), yp, ym = fy
    yn = ay[2]
    q1 = _residual(yn[0], y1, yp[0])
    q2 = _residual(yn[1], y2, yp[1])
    q3 = _residual(yn[2], y3, yp[2])
    if sign is Sign.PLUS:
        xc, xn, yc, p1, p2, p3 = xp, ax[2], yp, q1, q2, q3
    elif sign is Sign.MINUS:
        xc, xn, yc, yn = xm, ax[1], ym, ay[1]
        p1 = _residual(yn[0], y1, yc[0])
        p2 = _residual(yn[1], y2, yc[1])
        p3 = _residual(yn[2], y3, yc[2])
    else:
        raise ValueError(f"sign must be Sign.PLUS or Sign.MINUS, got {sign!r}")
    values = (
        xm[2] + totals[2], xm[1] + totals[1], xm[0] + totals[0],
        xm[2] + q3, xm[1] + q2, xm[0] + q1,
        gains[0], gains[1], gains[2],
        _residual(xn[0], xc[0], x1) * _residual(yn[0], yc[0], y1),
        _residual(xn[1], xc[1], x2) * _residual(yn[1], yc[1], y2),
        _residual(xn[2], xc[2], x3) * _residual(yn[2], yc[2], y3),
        _residual(xn[0], x1, xc[0]) * p1,
        _residual(xn[1], x2, xc[1]) * p2,
        _residual(xn[2], x3, xc[2]) * p3,
    )
    _check_finite(values, "criteria are not finite: a variance vanishes or overflows")
    return values


def _entry_criteria(x, y, sign):
    """Every criterion from the independent entries (c11, c22, c33, c12,
    c13, c23) of the two blocks, through their cofactors."""
    return _values(_entry_forms(x), _entry_forms(y),
                   _entry_forms(_cofactors(x)), _entry_forms(_cofactors(y)),
                   tuple(_y_sum(y, k, 1.0) for k in range(3)),
                   tuple(_gain(y, k) for k in range(3)), sign)


def _minus(u, v):
    return u[0] - v[0], u[1] - v[1], u[2] - v[2]


def row_criteria(rows, sign=Sign.PLUS):
    """Every criterion from the rows (r1, r2, r3, d = r1 - r2) of
    propagator_rows, as floats (a batch of one) or as equal-length arrays
    (a sweep, to be run under np.errstate).

    cx = mx mx' makes every form of cx a squared norm of a row
    combination; cy = S cx S swaps the plus and minus forms of the pairs
    that contain mode 1, and adj(cx) = cy, adj(cy) = cx.  Raises ValueError
    when the moments overflow.
    """
    r1, r2, r3, d = rows
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = r1, r2, r3
    p23, m23 = (b1 + c1, b2 + c2, b3 + c3), (b1 - c1, b2 - c2, b3 - c3)
    p13, m13 = (a1 + c1, a2 + c2, a3 + c3), (a1 - c1, a2 - c2, a3 - c3)
    p12, dm3 = (a1 + b1, a2 + b2, a3 + b3), (d[0] - c1, d[1] - c2, d[2] - c3)
    diag = (_dot(r1, r1), _dot(r2, r2), _dot(r3, r3))
    plus = (_dot(p23, p23), _dot(p13, p13), _dot(p12, p12))
    minus = (_dot(m23, m23), _dot(m13, m13), _dot(d, d))
    _check_finite((*diag, *plus, *minus),
                  "second moments overflow double precision; choose a smaller tau")
    fx = (diag, plus, minus)
    fy = (diag, (plus[0], minus[1], minus[2]), (minus[0], plus[1], plus[2]))
    totals = (_dot(dm3, dm3),) * 3
    gains = (_dot(r1, p23) / diag[0], _dot(r2, m13) / diag[1], _dot(d, r3) / diag[2])
    return _values(fx, fy, fy, fx, totals, gains, sign)


def _state_values(m, sign):
    """The 15 criteria of a state: from its rows if any, else its cofactors."""
    if m.rows is not None:
        return row_criteria(m.rows, sign)
    return _entry_criteria(_entries(m.cx), _entries(m.cy), sign)


def _remaining_mode(j, k):
    _check_mode(j)
    _check_mode(k)
    if j == k:
        raise ValueError("pair modes must differ")
    return 6 - j - k


def obr_single(m, i, sign=Sign.PLUS):
    """Inference product Vinf(X_i) * Vinf(Y_i); EPR evidence when below 1.

    Vinf(X_i) = V(X_i) - V(X_i, X_j +/- X_k)^2 / V(X_j +/- X_k), with j < k
    the other two modes, is evaluated without that subtraction (see
    _residual).  A combination with zero variance yields no information
    and leaves V(X_i) unchanged.
    """
    _check_mode(i)
    return _state_values(m, sign)[8 + i]


def obr_pair(m, j, k, sign=Sign.PLUS):
    """Inference product for the combined mode j, k; EPR evidence when below 4.

    Vinf(X_j +/- X_k) = V(X_j +/- X_k) - V(X_i, X_j +/- X_k)^2 / V(X_i),
    where i is the remaining mode, is evaluated without that subtraction.
    """
    i = _remaining_mode(j, k)
    return _state_values(m, sign)[11 + i]


def vlf_gains(m):
    """Gains minimising each pairwise sum.

    g_i = -(sum of mode-i Y covariances with the other two modes) / <Y_i^2>;
    each enters the sum whose Y part excludes mode i's unit weight.
    """
    return VlfGains(*_state_values(m, Sign.PLUS)[6:9])


def vlf_value(m, pair, gains=UNIT_GAINS):
    """Pairwise sum V(X_i - X_j) + V(Y_i + Y_j + g_k Y_k) for pair = (i, j).

    The gain applied is the one indexed by the mode absent from the pair.
    With the optimal gains this equals V(X_i - X_j) plus the inferred
    variance of Y_i + Y_j estimated from Y_k.  A state with rows reads
    both as squared norms of row_criteria's row combinations:
    X_i - X_j gives r_i - r_j, and Y_i + Y_j + g Y_k gives d - r3 plus
    (g - 1) r1 for k = 1 and (1 - g) r_k otherwise, so unit gains give
    evaluate_all's raw sums bit for bit.  ValueError unless pair is one of
    (1, 2), (1, 3), (2, 3) and gains three finite reals but bools, or when
    the sum is not finite.
    """
    try:
        valid = tuple(pair) in _VALID_PAIRS and all(map(_is_mode, pair))
    except TypeError:  # not iterable
        valid = False
    if not valid:
        raise ValueError(f"pair must be one of {_VALID_PAIRS}, got {pair!r}")
    try:
        g3 = tuple(gains)
        valid = len(g3) == 3 and all(_is_real(v) and math.isfinite(v) for v in g3)
    except (TypeError, OverflowError):  # not iterable, or an int past the double range
        valid = False
    if not valid:
        raise ValueError(f"gains must be three finite reals, got {gains!r}")
    k = 6 - pair[0] - pair[1] - 1
    g = float(g3[k])
    if m.rows is None:
        value = _entry_forms(_entries(m.cx))[2][k] + _y_sum(_entries(m.cy), k, g)
    else:
        r1, r2, r3, d = rows = m.rows
        x = (_minus(r2, r3), _minus(r1, r3), d)[k]
        w = g - 1.0 if k == 0 else 1.0 - g
        y = [s + w * r for s, r in zip(_minus(d, r3), rows[k])]
        value = _dot(x, x) + _dot(y, y)
    _check_finite((value,), "vlf value is not finite: a variance overflows")
    return value


def evaluate_all(m, t, sign=Sign.PLUS):
    """All criteria for one moment state, as a CriteriaReport.

    Raw pairwise sums use unit gains, optimised ones the gains from
    vlf_gains; the obr entries use the requested two-mode combination sign,
    which the report records.  ValueError unless t is a time _check_time
    admits.
    """
    return CriteriaReport.from_values(_check_time(t), sign, _state_values(m, sign))
