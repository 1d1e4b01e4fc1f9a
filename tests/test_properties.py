"""Properties of the moments and the criteria core over random couplings and times."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trimode import (
    DENOMINATOR_FLOOR,
    Couplings,
    MomentState,
    RegimeKind,
    RunConfig,
    Sign,
    classify_regime,
    closed_form_moments,
    evaluate_all,
    moments_at,
    obr_pair,
    obr_single,
    run_sweep,
)
from support import mp_residual

kappas = st.floats(min_value=0.2, max_value=3.0)
#: Couplings anywhere, including exactly and nearly degenerate pairs.
couplings = st.one_of(
    st.tuples(kappas, kappas),
    st.tuples(kappas, st.floats(min_value=-4e-10, max_value=4e-10)).map(
        lambda p: (p[0], p[0] * (1.0 + p[1]))
    ),
)
taus = st.floats(min_value=0.0, max_value=20.0)
signs = st.sampled_from(list(Sign))


def state(kappa_pair, tau):
    c = Couplings(*kappa_pair)
    return moments_at(c, tau / c.kappa_max)


@settings(max_examples=100, deadline=None)
@given(st.tuples(kappas, kappas), st.one_of(st.just(0.0), st.floats(1e-3, 20.0)),
       st.integers(min_value=-400, max_value=400))
def test_closed_forms_ignore_the_scale_of_time(kappa_pair, tau, k):
    # kappa -> kappa 2^k, t -> t 2^-k leaves every rate * t unchanged, and
    # every product stays a normal double, so the moments keep their bits.
    c = Couplings(*kappa_pair)
    regime = classify_regime(c)
    assume(regime.kind is not RegimeKind.DEGENERATE)
    t = tau / regime.rate
    scaled = Couplings(*(math.ldexp(v, k) for v in kappa_pair))
    got = closed_form_moments(scaled, math.ldexp(t, -k)).cx
    assert got.tobytes() == closed_form_moments(c, t).cx.tobytes()


@settings(max_examples=40, deadline=None)
@given(couplings, st.floats(min_value=0.5, max_value=20.0), signs,
       st.integers(min_value=2, max_value=9))
def test_sweep_row_is_the_batch_of_one(kappa_pair, tau_max, sign, points):
    cfg = RunConfig(kappa1=kappa_pair[0], kappa2=kappa_pair[1], tau_max=tau_max,
                    points=points, sign=sign)
    c = cfg.couplings
    for report in run_sweep(cfg).reports:
        single = evaluate_all(moments_at(c, report.t), report.t, sign)
        assert report == single


@settings(max_examples=100, deadline=None)
@given(couplings, taus, signs)
def test_products_are_nonnegative(kappa_pair, tau, sign):
    rep = evaluate_all(state(kappa_pair, tau), 0.0, sign)
    assert all(v >= 0.0 for v in rep.obr_single + rep.obr_pair)


@settings(max_examples=100, deadline=None)
@given(couplings, taus)
def test_modes_two_and_three_stay_on_the_bound(kappa_pair, tau):
    rep = evaluate_all(state(kappa_pair, tau), 0.0, Sign.PLUS)
    assert abs(rep.obr_single.obr2 - 1.0) <= 1e-12
    assert abs(rep.obr_single.obr3 - 1.0) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(couplings, st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=1.5, max_value=4.0))
def test_mixed_state_takes_the_cofactor_path(kappa_pair, tau, thermal):
    # Scaling a pure state by a thermal factor keeps both blocks positive
    # definite but breaks cx @ cy = I, so adj(cx) = cy no longer holds.
    pure = state(kappa_pair, tau)
    m = MomentState(thermal * pure.cx, thermal * pure.cy)
    for got, w, v in ((obr_single(m, 1), [1, 0, 0], [0, 1, 1]),
                      (obr_pair(m, 2, 3), [0, 1, 1], [1, 0, 0])):
        want = mp_residual(m.cx, w, v) * mp_residual(m.cy, w, v)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.49 * DENOMINATOR_FLOOR),
       st.floats(min_value=0.5, max_value=5.0))
def test_floor_returns_the_unconditioned_variance(gap, own):
    # The vacuum Y block has residuals V(Y1 | Y2 + Y3) = 1 and
    # V(Y2 + Y3 | Y1) = 2 exactly, so each product isolates its X residual.
    # V(X2 + X3) = 2 - 2 (1 - gap) = 2 gap stays below the floor.
    cx = np.eye(3)
    cx[0, 0] = own
    cx[1, 2] = cx[2, 1] = -(1.0 - gap)
    m = MomentState(cx, np.eye(3))
    assert obr_single(m, 1) == own
    # V(X1) below the floor: the pair keeps its own variance 2 + 2 c23.
    cx = np.eye(3)
    cx[0, 0] = gap
    cx[1, 2] = cx[2, 1] = 0.5 - own / 10
    m = MomentState(cx, np.eye(3))
    assert obr_pair(m, 2, 3) == (2.0 + 2.0 * cx[1, 2]) * 2.0
