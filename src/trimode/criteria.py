"""Entanglement criteria evaluated on a second-moment state.

Two families are implemented:

* pairwise variance sums v_ij = V(X_i - X_j) + V(Y_i + Y_j + g_k Y_k),
  bounded below by 4 for separable states, either with unit gains ("raw")
  or with the variance-minimising gains ("optimised");
* inference products obr_i = Vinf(X_i) * Vinf(Y_i) (bound 1) and
  obr_jk = Vinf(X_j + X_k) * Vinf(Y_j + Y_k) (bound 4), built from optimal
  linear estimates of one quadrature combination from another.

criteria_values computes all of them from the six independent entries of
each block, as plain arithmetic that runs unchanged on floats (one state)
and on arrays (a sweep); evaluate_all and the inference, gain and sum
functions are views of the same arithmetic on one MomentState.  All mode
indices in the public functions are 1-based.
"""

from __future__ import annotations

import math

from .core import (
    CriteriaReport,
    Sign,
    VlfGains,
    _all,
    _check_finite,
    _max,
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


#: Largest defect |cx @ cy - I| / (|cx| |cy|), in max-abs entry norms, that
#: still counts as a pure state.  Rounding leaves about 1e-15 on states
#: propagated from vacuum; sampled or hand-built states sit far above.
PURITY_TOL = 1e-12

# Entry order of a symmetric block: (c11, c22, c33, c12, c13, c23); row i
# of the full matrix is the entries _FULL[i].
_FULL = ((0, 3, 4), (3, 1, 5), (4, 5, 2))


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


def _is_pure(x, y):
    """Whether cx @ cy = I to rounding, i.e. the state is pure.

    Both blocks are scaled to unit max-abs entry first, so the test holds
    up to the overflow limit of the moments themselves.
    """
    sx, sy = _max([abs(v) for v in x]), _max([abs(v) for v in y])
    rx = 1.0 / _where(sx > 0.0, sx, 1.0)
    ry = 1.0 / _where(sy > 0.0, sy, 1.0)
    xs = [v * rx for v in x]
    ys = [v * ry for v in y]
    unit = rx * ry
    defects = []
    for i, row in enumerate(_FULL):
        for j, col in enumerate(_FULL):
            entry = xs[row[0]] * ys[col[0]] + xs[row[1]] * ys[col[1]] + xs[row[2]] * ys[col[2]]
            defects.append(abs(entry - unit) if i == j else abs(entry))
    return _max(defects) <= PURITY_TOL


def _adjugates(x, y):
    """adj(cx) and adj(cy).

    A pure state has det cx = det cy = 1 and cy = cx^-1, so adj(cx) = cy
    and adj(cy) = cx exactly; only other states need the cofactors, which
    subtract products of moments.
    """
    pure = _is_pure(x, y)
    if _all(pure):
        return y, x
    ax, ay = _cofactors(x), _cofactors(y)
    if isinstance(pure, bool):
        return ax, ay
    return (tuple(_where(pure, p, q) for p, q in zip(y, ax)),
            tuple(_where(pure, p, q) for p, q in zip(x, ay)))


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


def _mode_residuals(c, a, s):
    """Inference residuals of one block with adjugate a, for every mode i.

    With j < k the other two modes, V(Q_i | Q_j + s Q_k) and
    V(Q_j + s Q_k | Q_i) share the numerator
    (e_i x (e_j + s e_k))' adj(C) (...) = A_jj + A_kk - 2 s A_jk.
    Returns (singles, pairs), both indexed by i.
    """
    c11, c22, c33, c12, c13, c23 = c
    a11, a22, a33, a12, a13, a23 = a
    two_s = 2.0 * s
    own = (c11, c22, c33)
    combos = (c22 + c33 + two_s * c23, c11 + c33 + two_s * c13,
              c11 + c22 + two_s * c12)
    nums = (a22 + a33 - two_s * a23, a11 + a33 - two_s * a13,
            a11 + a22 - two_s * a12)
    singles = tuple(_residual(n, v, o) for n, v, o in zip(nums, combos, own))
    pairs = tuple(_residual(n, o, v) for n, v, o in zip(nums, combos, own))
    return singles, pairs


def _sign_value(sign):
    return 1.0 if sign is Sign.PLUS else -1.0


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


def criteria_values(x, y, sign=Sign.PLUS):
    """Every criterion from the independent entries of the two blocks.

    x and y are (c11, c22, c33, c12, c13, c23) of cx and cy, as floats (a
    batch of one) or as equal-length arrays (a sweep, to be run under
    np.errstate).  Returns the 15 values in CRITERIA order: raw and
    optimised sums, gains, single and pair products.  The optimised sum is
    V(X_i - X_j) plus the residual of Y_i + Y_j given Y_k, the minimum over
    the gain.  Raises ValueError when a value is not finite.
    """
    ax, ay = _adjugates(x, y)
    s = _sign_value(sign)
    x_single, x_pair = _mode_residuals(x, ax, s)
    y_single, y_pair = _mode_residuals(y, ay, s)
    y_plus = y_pair if s == 1.0 else _mode_residuals(y, ay, 1.0)[1]
    diffs = [_x_difference(x, k) for k in _SUM_ORDER]
    values = (
        *(d + _y_sum(y, k, 1.0) for d, k in zip(diffs, _SUM_ORDER)),
        *(d + y_plus[k] for d, k in zip(diffs, _SUM_ORDER)),
        *(_gain(y, k) for k in range(3)),
        *(p * q for p, q in zip(x_single, y_single)),
        *(p * q for p, q in zip(x_pair, y_pair)),
    )
    _check_finite(values, "criteria are not finite: a variance vanishes or overflows")
    return values


def _residuals(m, sign):
    """((singles, pairs) of cx, (singles, pairs) of cy), both by mode."""
    x, y = _entries(m.cx), _entries(m.cy)
    ax, ay = _adjugates(x, y)
    s = _sign_value(sign)
    return _mode_residuals(x, ax, s), _mode_residuals(y, ay, s)


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
    x, y = _residuals(m, sign)
    return x[0][i - 1] * y[0][i - 1]


def obr_pair(m, j, k, sign=Sign.PLUS):
    """Inference product for the combined mode j, k; EPR evidence when below 4.

    Vinf(X_j +/- X_k) = V(X_j +/- X_k) - V(X_i, X_j +/- X_k)^2 / V(X_i),
    where i is the remaining mode, is evaluated without that subtraction.
    """
    i = _remaining_mode(j, k)
    x, y = _residuals(m, sign)
    return x[1][i - 1] * y[1][i - 1]


def vlf_gains(m):
    """Gains minimising each pairwise sum.

    g_i = -(sum of mode-i Y covariances with the other two modes) / <Y_i^2>;
    each enters the sum whose Y part excludes mode i's unit weight.
    """
    y = _entries(m.cy)
    gains = VlfGains(*(_gain(y, k) for k in range(3)))
    if not all(math.isfinite(g) for g in gains):
        raise ValueError(f"gains are not finite: {gains}")
    return gains


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

    criteria_values on a batch of one.  Raw pairwise sums use unit gains,
    optimised ones the gains from vlf_gains; the obr entries use the
    requested two-mode combination sign, which the report records.
    """
    values = criteria_values(_entries(m.cx), _entries(m.cy), sign)
    return CriteriaReport.from_values(t, sign, values)
