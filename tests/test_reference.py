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

import trimode.propagator
from trimode import (
    CRITERIA,
    Couplings,
    RunConfig,
    closed_form_moments,
    drift_matrix,
    evaluate_all,
    moments_at,
    outer_moments,
    propagator_expm,
    time_scale,
    vlf_gains,
    vlf_value,
)

HYPERBOLIC = (1.2, 1.0)
PERIODIC = (1.0, 1.8)
DEGENERATE = (1.0, 1.0)
#: Relative coupling mismatch 2e-10, inside the degeneracy window 1e-9.
WINDOW = (1.0, 1.0000000002)
#: kappa1 = sqrt(2) kappa2: rows 2 and 3 of the X propagator share their
#: growing component, so V(X2 - X3) cancels.
SHARED_GROWTH = (math.sqrt(2.0), 1.0)
#: kappa2 << kappa1: the growing part of r1 - r3 has weight
#: kappa2^2 / (Omega (kappa1 + Omega)), so V(X1 - X3) cancels.
WEAK_COUPLING = (1.0, 1e-8)

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


def computed_at(kappa1, kappa2, t):
    return evaluate_all(moments_at(Couplings(kappa1, kappa2), t), t).values()


def computed(kappa1, kappa2, tau):
    return computed_at(kappa1, kappa2, raw_time(kappa1, kappa2, tau))


def combined_errors(values, expected):
    return [abs(a - b) / max(1.0, abs(b)) for a, b in zip(values, expected)]


def rate_tau(kappa1, kappa2, t):
    """tau = sqrt|kappa1^2 - kappa2^2| t, the rate convention at any gap."""
    with mp.workdps(30):
        k1, k2 = mp.mpf(kappa1), mp.mpf(kappa2)
        return float(mp.sqrt(abs(k1 * k1 - k2 * k2)) * t)


#: (kappas, tau) cases, with the test ids a grid of kappas x LONG_TAUS has,
#: and the weak-coupling line, which ROADMAP item 15 is to mend.
INFERENCE = [
    pytest.param(kappas, tau, id=f"kappas{i}-{tau}")
    for i, kappas in enumerate((HYPERBOLIC, PERIODIC, DEGENERATE))
    for tau in LONG_TAUS
] + [pytest.param(WEAK_COUPLING, 20.0, id="weak-20.0", marks=pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 15: r1 - r3 is formed by plain subtraction"))]


@pytest.mark.parametrize("kappas,tau", INFERENCE)
def test_inference_products_to_double_precision(kappas, tau):
    errors = combined_errors(computed(*kappas, tau)[9:], reference(*kappas, tau)[9:])
    assert max(errors) <= 1e-12, errors


#: (kappas, tau, index of a criterion that is 1 exactly on a pure state):
#: its conditioning variance is positive but below 1e-12, obr2 at weak
#: coupling and obr3 on a periodic point near xi t = pi.
SQUEEZED_DIVISORS = [
    pytest.param(WEAK_COUPLING, 20.0, 10, id="weak-obr2"),
    pytest.param((15.555780459474652, 15.555783539865523), 3.14204402379184, 11,
                 id="corridor-obr3"),
]


@pytest.mark.parametrize("kappas,tau,index", SQUEEZED_DIVISORS)
def test_a_squeezed_divisor_is_divided_by(kappas, tau, index):
    got, want = computed(*kappas, tau)[index], reference(*kappas, tau)[index]
    assert want == 1.0
    assert abs(got - want) <= 1e-12, got


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: a row combination's squared norm underflows "
                   "to an exact 0 though mx is invertible")
def test_an_underflowed_divisor_at_weak_coupling():
    # At (1, 1e-9), tau 40, obr2's divisor rounds to 0.0, so obr2 reads its
    # unconditioned 2.77e16, and obr13 reads 0; mpmath gives 1 for both.
    errors = combined_errors(computed(1.0, 1e-9, 40.0)[9:], reference(1.0, 1e-9, 40.0)[9:])
    assert max(errors[1], errors[4]) <= 1e-12, errors


#: (kappas, tau, criterion) where weak coupling misreads one criterion
#: through r1 - r3: g2 reads 2.4687e-08 (mpmath 3.3629e-09) and v13_raw
#: 3735329.03 (mpmath 3734668.76).
WEAK_MISREADS = [
    pytest.param((543.3906230554888, 3.6535163240703814e-06), 23.16459429040148, "g2",
                 id="g2"),
    pytest.param((47.42489575016558, 8.823270646219415e-11), 34.923349017542186, "v13_raw",
                 id="v13_raw"),
]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: r1 - r3 is formed by plain subtraction")
@pytest.mark.parametrize("kappas,tau,name", WEAK_MISREADS)
def test_weak_coupling_criterion(kappas, tau, name):
    index = CRITERIA.index(name)
    got, want = computed(*kappas, tau)[index], reference(*kappas, tau)[index]
    assert combined_errors([got], [want])[0] <= 1e-9, (got, want)


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


def expm_moments(c, t):
    return outer_moments(propagator_expm(c, t))


@pytest.mark.parametrize("moments", [moments_at, expm_moments])
@pytest.mark.parametrize(
    "kappas,tau",
    EVERY_CRITERION,
    ids=[f"kappas{i // len(SHORT_TAUS)}-{tau}" for i, (_, tau) in enumerate(EVERY_CRITERION)],
)
def test_unit_gain_sums_are_the_raw_criteria(kappas, tau, moments):
    # vlf_value reads the row combinations evaluate_all reads, in the same
    # order, so at unit gains the two agree bit for bit.
    t = raw_time(*kappas, tau)
    m = moments(Couplings(*kappas), t)
    sums = [vlf_value(m, p) for p in ((1, 2), (1, 3), (2, 3))]
    assert sums == list(evaluate_all(m, t).values()[:3])


def assert_close_at(kappa1, kappa2, t, tau, moments=moments_at):
    """Products within 1e-12 of the reference, every other criterion within
    1e-9, and so are the pairwise sums vlf_value gives at unit gains and at
    the vlf_gains gains."""
    m = moments(Couplings(kappa1, kappa2), t)
    expected = reference_at(kappa1, kappa2, t, tau)
    errors = combined_errors(evaluate_all(m, t).values(), expected)
    assert max(errors[9:]) <= 1e-12, errors
    assert max(errors[:9]) <= 1e-9, errors
    pairs = ((1, 2), (1, 3), (2, 3))
    sums = [vlf_value(m, p) for p in pairs] + [vlf_value(m, p, vlf_gains(m)) for p in pairs]
    errors = combined_errors(sums, expected[:6])
    assert max(errors) <= 1e-9, errors


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
    assert_close_at(*kappas, raw_time(*kappas, tau), tau, expm_moments)


@pytest.mark.parametrize("kappas", [HYPERBOLIC, PERIODIC, DEGENERATE])
def test_matrix_exponential_to_double_precision(kappas):
    # Every 10th time of the default oracle grid, tau = 3 included, against
    # the 40-digit mpmath exponential of the same drift at the same time.
    cfg = RunConfig(kappa1=kappas[0], kappa2=kappas[1])
    taus = cfg.taus()[::10]
    assert taus[-1] == 3.0
    ts = taus / time_scale(cfg.couplings, cfg.tau_convention)
    ax = drift_matrix(cfg.couplings)
    stack = trimode.propagator._expm(ax, ts)
    worst = 0.0
    with mp.workdps(40):
        drift = mp.matrix(ax.tolist())
        for i, t in enumerate(ts.tolist()):
            exact = mp.expm(drift * mp.mpf(t))
            for j in range(3):
                for k in range(3):
                    b = exact[j, k]
                    worst = max(worst, float(abs(stack[j, k, i] - b) / max(1, abs(b))))
    assert worst <= 1e-14, worst


#: Couplings whose rate powers leave the normal doubles when formed as
#: written: rate^4 is subnormal at (1e-80, 5e-81), underflows to zero at
#: (1e-100, 5e-101) and overflows at the others.
EXTREME_RATES = [(1e-80, 5e-81), (1e100, 5e99), (5e99, 1e100), (1e-100, 5e-101),
                 (1.5e-154, 1.3e154)]


#: Periodic couplings, whose closed forms are the hyperbolic ones continued
#: to an imaginary rate, and taus just either side of pi/2, pi, 3 pi/2 and
#: 2 pi, where cos or sin changes sign and a wrong sign of a continued term
#: would show.
PERIODIC_RATES = [(1.0, 1.8), (0.3, 2.5), (1.0, 10.0)]
SIGN_CHANGE_TAUS = tuple(k * math.pi / 2 + d for k in (1, 2, 3, 4) for d in (-1e-6, 1e-6))


@pytest.mark.parametrize("tau", (0.5, 3.0) + SIGN_CHANGE_TAUS)
@pytest.mark.parametrize("kappas", EXTREME_RATES + PERIODIC_RATES)
def test_closed_forms_at_extreme_rates(kappas, tau):
    t = raw_time(*kappas, tau)
    cx = closed_form_moments(Couplings(*kappas), t).cx
    with mp.workdps(30):
        mx, _ = propagators(*kappas, t)
        exact = mx * mx.T
        errors = [float(abs(cx[i, j] - exact[i, j]) / max(1, abs(exact[i, j])))
                  for i in range(3) for j in range(3)]
    assert max(errors) <= 1e-12, errors
