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
residual is a ratio of such forms (see _residual).  A state propagated
from vacuum carries the rows r1, r2, r3 of its X propagator block, and
row_criteria reads every form as a squared norm: cx = M M' gives
q'cx q = |M'q|^2, cy = S cx S with S = diag(1, -1, -1), and the state is
pure, so adj(cx) = cy and adj(cy) = cx.  The norms are |r_i|^2 and
|r_i +/- r_j|^2, with r1 - r2 taken in a factored form that stays exact
where the two rows nearly cancel, and |r1 - r2 - r3|^2; the gains add
three dot products.  Nothing large is subtracted, so the values keep
double precision wherever the moments grow.  Other states (Monte Carlo
estimates, hand-built blocks) read the forms off their entries and
cofactors.  The same arithmetic runs unchanged on floats (one state) and
on arrays (a sweep); obr_single, obr_pair and vlf_gains are views of
evaluate_all's 15 values.  All mode indices in the public functions are
1-based.
"""

from __future__ import annotations

import math

from .core import (
    CriteriaReport,
    Sign,
    VlfGains,
    _check_finite,
    _dot,
    _where,
)

__all__ = [
    "DENOMINATOR_FLOOR",
    "UNIT_GAINS",
    "obr_single",
    "obr_pair",
    "vlf_gains",
    "vlf_value",
    "evaluate_all",
]

#: Below this, a variance carries no usable information for inference and
#: the corresponding correction term is dropped instead of divided by.
DENOMINATOR_FLOOR = 1e-12

#: Gains of the unoptimised ("raw") pairwise sums.
UNIT_GAINS = VlfGains(1.0, 1.0, 1.0)

_VALID_PAIRS = ((1, 2), (1, 3), (2, 3))


def _check_mode(i):
    if i not in (1, 2, 3):
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
    """The residual-variance formula: num / den, or own when den < floor.

    The residual of w.Q given v.Q is the Schur complement
    w'Cw - (w'Cv)^2 / v'Cv, which by the Lagrange identity equals
    (w x v)' adj(C) (w x v) / v'Cv; num is that numerator and den = v'Cv.
    A variance below DENOMINATOR_FLOOR carries no information, so own =
    w'Cw is returned unchanged there.
    """
    small = den < DENOMINATOR_FLOOR
    r = num / _where(small, 1.0, den)
    return _where(small, own, _where(r < 0.0, 0.0, r))


def _mode_residuals(f, a, sign):
    """Inference residuals of one block with forms f and adjugate forms a,
    for every mode i.

    With j < k the other two modes, V(Q_i | Q_j + s Q_k) and
    V(Q_j + s Q_k | Q_i) share the numerator
    (e_i x (e_j + s e_k))' adj(C) (...), the adjugate form of e_j - s e_k.
    Returns (singles, pairs), both indexed by i.
    """
    combos, nums = (f[1], a[2]) if sign is Sign.PLUS else (f[2], a[1])
    singles = tuple(_residual(n, v, o) for n, v, o in zip(nums, combos, f[0]))
    pairs = tuple(_residual(n, o, v) for n, v, o in zip(nums, combos, f[0]))
    return singles, pairs


# Entry indices (ii, jj, kk, ij, ik, jk) of the sum over modes i < j that
# leaves out mode k, by k.
_SUM_ENTRIES = ((1, 2, 0, 5, 3, 4), (0, 2, 1, 4, 3, 5), (0, 1, 2, 3, 4, 5))
# The sums v12, v13, v23 leave out modes 3, 2, 1.
_SUM_ORDER = (2, 1, 0)


def _x_difference(x, k):
    """V(X_i - X_j) of the pair that leaves out mode k."""
    ii, jj, _, ij, _, _ = _SUM_ENTRIES[k]
    return x[ii] + x[jj] - 2.0 * x[ij]


def _y_sum(y, k, g):
    """V(Y_i + Y_j + g Y_k)."""
    ii, jj, kk, ij, ik, jk = _SUM_ENTRIES[k]
    return (y[ii] + y[jj] + 2.0 * y[ij]) + g * (2.0 * (y[ik] + y[jk]) + g * y[kk])


def _gain(y, k):
    """g_k = -(<Y_i Y_k> + <Y_j Y_k>) / <Y_k^2>; a zero variance gives NaN,
    which the finiteness check reports."""
    _, _, kk, _, ik, jk = _SUM_ENTRIES[k]
    return -(y[ik] + y[jk]) / _where(y[kk] != 0.0, y[kk], math.nan) + 0.0


def _values(fx, fy, ax, ay, totals, gains, sign):
    """The 15 criteria in CRITERIA order from the forms of cx, cy, adj(cx)
    and adj(cy), the unit-gain Y sums V(Y_i + Y_j + Y_k) by left-out mode k
    and the gains.  The optimised sum is V(X_i - X_j) plus the residual of
    Y_i + Y_j given Y_k, the minimum over the gain.  Raises ValueError when
    a value is not finite.
    """
    x_single, x_pair = _mode_residuals(fx, ax, sign)
    y_single, y_pair = _mode_residuals(fy, ay, sign)
    y_plus = y_pair if sign is Sign.PLUS else _mode_residuals(fy, ay, Sign.PLUS)[1]
    values = (
        *(fx[2][k] + totals[k] for k in _SUM_ORDER),
        *(fx[2][k] + y_plus[k] for k in _SUM_ORDER),
        *gains,
        *(p * q for p, q in zip(x_single, y_single)),
        *(p * q for p, q in zip(x_pair, y_pair)),
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


def _norm(u):
    return _dot(u, u)


def _plus(u, v):
    return u[0] + v[0], u[1] + v[1], u[2] + v[2]


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
    p23, m13 = _plus(r2, r3), _minus(r1, r3)
    diag = (_norm(r1), _norm(r2), _norm(r3))
    plus = (_norm(p23), _norm(_plus(r1, r3)), _norm(_plus(r1, r2)))
    minus = (_norm(_minus(r2, r3)), _norm(m13), _norm(d))
    _check_finite((*diag, *plus, *minus),
                  "second moments overflow double precision; choose a smaller tau")
    fx = (diag, plus, minus)
    fy = (diag, (plus[0], minus[1], minus[2]), (minus[0], plus[1], plus[2]))
    totals = (_norm(_minus(d, r3)),) * 3
    gains = (_dot(r1, p23) / diag[0], _dot(r2, m13) / diag[1], _dot(d, r3) / diag[2])
    return _values(fx, fy, fy, fx, totals, gains, sign)


def _state_values(m, sign):
    """The 15 criteria of a state: from its propagator rows when it was
    propagated from vacuum, from its cofactors otherwise."""
    rows = getattr(m, "_rows", None)
    if rows is not None:
        return row_criteria(rows, sign)
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
    _residual).  A combination variance below DENOMINATOR_FLOOR yields no
    information and leaves V(X_i) unchanged.
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
    variance of Y_i + Y_j estimated from Y_k.
    """
    if tuple(pair) not in _VALID_PAIRS:
        raise ValueError(f"pair must be one of {_VALID_PAIRS}, got {pair!r}")
    k = 6 - pair[0] - pair[1] - 1
    return (_x_difference(_entries(m.cx), k)
            + _y_sum(_entries(m.cy), k, float(gains[k])))


def evaluate_all(m, t, sign=Sign.PLUS):
    """All criteria for one moment state, as a CriteriaReport.

    Raw pairwise sums use unit gains, optimised ones the gains from
    vlf_gains; the obr entries use the requested two-mode combination sign,
    which the report records.
    """
    return CriteriaReport.from_values(t, sign, _state_values(m, sign))
