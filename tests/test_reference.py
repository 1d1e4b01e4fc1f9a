"""Every criterion against an independent high-precision reference.

The reference shares nothing with the package but the equations of motion:
the moment blocks are the mpmath matrix exponential of the drift applied
to the vacuum, and every criterion is then written out as a plain
quadratic form or Schur complement of those blocks.  The moments grow
like e^(2 tau) and a Schur complement can cancel them down to e^(-2 tau),
so the working precision is 30 + 4 tau / ln 10 digits: 30 digits survive
the worst cancellation.

A value a passes against its reference b when |a - b| / max(1, |b|) is
within the tolerance.
"""

import functools
import math

import mpmath as mp
import pytest

from trimode import Couplings, evaluate_all, moments_at

HYPERBOLIC = (1.2, 1.0)
PERIODIC = (1.0, 1.8)
DEGENERATE = (1.0, 1.0)
#: Relative coupling mismatch 2e-10, inside the degeneracy window 1e-9.
WINDOW = (1.0, 1.0000000002)

LONG_TAUS = (0.0, 3.0, 7.0, 15.0, 20.0, 50.0, 100.0, 300.0)
SHORT_TAUS = (0.0, 1.0, 3.0, 7.0, 15.0, 20.0)


def raw_time(kappa1, kappa2, tau):
    """t = tau / sqrt|kappa1^2 - kappa2^2|, or tau / max(kappa) when that
    rate is inside the degeneracy window."""
    gap = kappa1 * kappa1 - kappa2 * kappa2
    if abs(gap) <= 1e-9 * max(kappa1, kappa2) ** 2:
        return tau / max(kappa1, kappa2)
    return tau / math.sqrt(abs(gap))


def unit(i, j=None, sign=1):
    v = [0, 0, 0]
    v[i] = 1
    if j is not None:
        v[j] = sign
    return mp.matrix(v)


def quad(c, u, w):
    return (u.T * c * w)[0]


def schur(c, w, v):
    """V(w.q) left after the best linear estimate from v.q."""
    return quad(c, w, w) - quad(c, w, v) ** 2 / quad(c, v, v)


@functools.lru_cache(maxsize=None)
def reference(kappa1, kappa2, tau):
    """The 15 criteria in the package's order, as floats."""
    t = raw_time(kappa1, kappa2, tau)
    with mp.workdps(30 + math.ceil(4 * tau / math.log(10))):
        k1, k2 = mp.mpf(kappa1), mp.mpf(kappa2)
        drift_x = mp.matrix([[0, 0, k1], [0, 0, k2], [k1, -k2, 0]])
        drift_y = mp.matrix([[0, 0, -k1], [0, 0, k2], [-k1, -k2, 0]])
        mx = mp.expm(drift_x * mp.mpf(t))
        my = mp.expm(drift_y * mp.mpf(t))
        cx, cy = mx * mx.T, my * my.T
        raw, opt = [], []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            k = 3 - i - j
            diff = quad(cx, unit(i, j, -1), unit(i, j, -1))
            total = unit(i, j) + unit(k)
            raw.append(diff + quad(cy, total, total))
            opt.append(diff + schur(cy, unit(i, j), unit(k)))
        gains = []
        for k in range(3):
            i, j = (m for m in range(3) if m != k)
            gains.append(-(cy[i, k] + cy[j, k]) / cy[k, k])
        singles, pairs = [], []
        for i in range(3):
            j, k = (m for m in range(3) if m != i)
            rest = unit(j, k)
            singles.append(schur(cx, unit(i), rest) * schur(cy, unit(i), rest))
            pairs.append(schur(cx, rest, unit(i)) * schur(cy, rest, unit(i)))
        return tuple(float(v) for v in raw + opt + gains + singles + pairs)


def computed(kappa1, kappa2, tau):
    t = raw_time(kappa1, kappa2, tau)
    return evaluate_all(moments_at(Couplings(kappa1, kappa2), t), t).values()


def combined_errors(values, expected):
    return [abs(a - b) / max(1.0, abs(b)) for a, b in zip(values, expected)]


@pytest.mark.parametrize("tau", LONG_TAUS)
@pytest.mark.parametrize("kappas", [HYPERBOLIC, PERIODIC, DEGENERATE])
def test_inference_products_to_double_precision(kappas, tau):
    errors = combined_errors(computed(*kappas, tau)[9:], reference(*kappas, tau)[9:])
    assert max(errors) <= 1e-12, errors


@pytest.mark.parametrize("tau", SHORT_TAUS)
@pytest.mark.parametrize("kappas", [HYPERBOLIC, PERIODIC, DEGENERATE, WINDOW])
def test_every_criterion(kappas, tau):
    errors = combined_errors(computed(*kappas, tau), reference(*kappas, tau))
    assert max(errors) <= 1e-9, errors
