"""Every criterion against an independent high-precision reference.

The reference shares nothing with the package but the equations of motion:
the moment blocks are the mpmath matrix exponential of the drift applied
to the vacuum, and every criterion is then written out as a plain
quadratic form or Schur complement of those blocks.  A Schur complement
of a pure state can cancel moments of size max|C| down to 1 / max|C|, so
the working precision is 30 + 2 log10 max|C| digits, and at least
30 + 4 tau / ln 10 digits (the moments grow like e^(2 tau) in the
hyperbolic regime): 30 digits survive the worst cancellation.

A value a passes against its reference b when |a - b| / max(1, |b|) is
within the tolerance.
"""

import functools
import math

import mpmath as mp
import pytest

from trimode import Couplings, MomentMethod, evaluate_all, moments_at

HYPERBOLIC = (1.2, 1.0)
PERIODIC = (1.0, 1.8)
DEGENERATE = (1.0, 1.0)
#: Relative coupling mismatch 2e-10, inside the degeneracy window 1e-9.
WINDOW = (1.0, 1.0000000002)
#: kappa1 = sqrt(2) kappa2: rows 2 and 3 of the X propagator share their
#: growing component, so V(X2 - X3) cancels.
SHARED_GROWTH = (math.sqrt(2.0), 1.0)

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


def propagators(kappa1, kappa2, t):
    k1, k2 = mp.mpf(kappa1), mp.mpf(kappa2)
    drift_x = mp.matrix([[0, 0, k1], [0, 0, k2], [k1, -k2, 0]])
    drift_y = mp.matrix([[0, 0, -k1], [0, 0, k2], [-k1, -k2, 0]])
    return mp.expm(drift_x * mp.mpf(t)), mp.expm(drift_y * mp.mpf(t))


def reference_digits(kappa1, kappa2, t, tau):
    """max(30 + 4 tau / ln 10, 30 + 2 log10 max|C|) decimal digits, with
    max|C| from a 30-digit pass (only its magnitude matters)."""
    with mp.workdps(30):
        mx, _ = propagators(kappa1, kappa2, t)
        size = max(abs(v) for v in mx * mx.T)
    return 30 + math.ceil(max(4 * tau / math.log(10), 2 * mp.log10(size)))


@functools.lru_cache(maxsize=None)
def reference_at(kappa1, kappa2, t, tau):
    """The 15 criteria in the package's order at raw time t, as floats;
    tau sets the least working precision."""
    with mp.workdps(reference_digits(kappa1, kappa2, t, tau)):
        mx, my = propagators(kappa1, kappa2, t)
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


def reference(kappa1, kappa2, tau):
    return reference_at(kappa1, kappa2, raw_time(kappa1, kappa2, tau), tau)


def computed_at(kappa1, kappa2, t, method=MomentMethod.ANALYTIC):
    return evaluate_all(moments_at(Couplings(kappa1, kappa2), t, method), t).values()


def computed(kappa1, kappa2, tau):
    return computed_at(kappa1, kappa2, raw_time(kappa1, kappa2, tau))


def combined_errors(values, expected):
    return [abs(a - b) / max(1.0, abs(b)) for a, b in zip(values, expected)]


def rate_tau(kappa1, kappa2, t):
    """tau = sqrt|kappa1^2 - kappa2^2| t, the rate convention at any gap."""
    with mp.workdps(30):
        k1, k2 = mp.mpf(kappa1), mp.mpf(kappa2)
        return float(mp.sqrt(abs(k1 * k1 - k2 * k2)) * t)


@pytest.mark.parametrize("tau", LONG_TAUS)
@pytest.mark.parametrize("kappas", [HYPERBOLIC, PERIODIC, DEGENERATE])
def test_inference_products_to_double_precision(kappas, tau):
    errors = combined_errors(computed(*kappas, tau)[9:], reference(*kappas, tau)[9:])
    assert max(errors) <= 1e-12, errors


#: (kappas, tau) cases, with the test ids a grid of kappas x SHORT_TAUS has.
EVERY_CRITERION = [
    (kappas, tau)
    for kappas in (HYPERBOLIC, PERIODIC, DEGENERATE, WINDOW)
    for tau in SHORT_TAUS
] + [(SHARED_GROWTH, 3.0), (SHARED_GROWTH, 10.0)]


@pytest.mark.parametrize(
    "kappas,tau",
    EVERY_CRITERION,
    ids=[f"kappas{i // len(SHORT_TAUS)}-{tau}" for i, (_, tau) in enumerate(EVERY_CRITERION)],
)
def test_every_criterion(kappas, tau):
    errors = combined_errors(computed(*kappas, tau), reference(*kappas, tau))
    assert max(errors) <= 1e-9, errors


def assert_close_at(kappa1, kappa2, t, tau, method=MomentMethod.ANALYTIC):
    """Products within 1e-12 of the reference, every other criterion within
    1e-9."""
    errors = combined_errors(computed_at(kappa1, kappa2, t, method),
                             reference_at(kappa1, kappa2, t, tau))
    assert max(errors[9:]) <= 1e-12, errors
    assert max(errors[:9]) <= 1e-9, errors


@pytest.mark.parametrize("tau", (1.0, 3.0, 10.0))
@pytest.mark.parametrize("mismatch", (1e-9, 1e-7, 1e-5, 1e-4, -1e-9, -1e-7, -1e-5, -1e-4))
def test_near_degenerate_corridor(mismatch, tau):
    # kappa2 = kappa1 (1 + mismatch): periodic above kappa1 = kappa2,
    # hyperbolic below, with tau = rate * t at the actual rate.
    kappa2 = 1.0 + mismatch
    assert_close_at(1.0, kappa2, tau / math.sqrt(abs(1.0 - kappa2 * kappa2)), tau)


@pytest.mark.parametrize("t", (17.3, 300.7))
def test_degenerate_at_non_integer_time(t):
    assert_close_at(*DEGENERATE, t, 0.0)


@pytest.mark.parametrize("t", (1e3, 1e5, 3e5))
def test_window_at_long_times(t):
    # Inside the degeneracy window the motion is still periodic, with a
    # rate 2e-5: t = 1e5 is well past one radian of it.
    assert_close_at(*WINDOW, t, rate_tau(*WINDOW, t))


@pytest.mark.parametrize("tau", (15.0, 20.0))
@pytest.mark.parametrize("kappas", [HYPERBOLIC, DEGENERATE])
def test_matrix_exponential_states(kappas, tau):
    # A state from any propagator of the equations of motion reads its
    # criteria from the propagator rows, not from cofactors of its moments.
    assert_close_at(*kappas, raw_time(*kappas, tau), tau, MomentMethod.EXPM)
