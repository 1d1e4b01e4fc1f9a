"""Drift construction, closed-form propagators and moment evolution."""

import hashlib
import math
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import trimode.propagator
from trimode import (
    Couplings,
    MomentState,
    PropagatorPair,
    RegimeError,
    RunConfig,
    classify_regime,
    closed_form_moments,
    compare_moments,
    drift_matrix,
    evaluate_all,
    mc_moments,
    moments_at,
    outer_moments,
    propagator_analytic,
    propagator_expm,
    rk4_propagator,
    time_scale,
)
from trimode.core import _FLIP, _block, _row_moments
from support import (
    CX1,
    CX2,
    CY1,
    DEG,
    GRID_COUPLINGS,
    HYP,
    MX1,
    MX2_00,
    MX_DEG,
    MY_DEG,
    PER,
    T1,
    T2,
    grid_points,
    rate_of,
    row_outer,
    y_drift,
)


class TestDrift:
    def test_entries(self):
        ax, ay = drift_matrix(Couplings(1.0, 1.0)), y_drift(Couplings(1.0, 1.0))
        assert np.array_equal(ax[2], [1.0, -1.0, 0.0])
        assert np.array_equal(ay[2], [-1.0, -1.0, 0.0])
        assert np.array_equal(ax[0], [0.0, 0.0, 1.0])
        assert np.array_equal(ay[0], [0.0, 0.0, -1.0])
        assert np.array_equal(ax[1], [0.0, 0.0, 1.0])
        assert np.array_equal(ay[1], [0.0, 0.0, 1.0])

    def test_read_only(self):
        with pytest.raises(ValueError):
            drift_matrix(HYP)[0, 2] = 0.0

    def test_traceless(self):
        for c in GRID_COUPLINGS:
            assert np.trace(drift_matrix(c)) == 0.0
            assert np.trace(y_drift(c)) == 0.0

    def test_blocks_are_inverse_transposes_of_each_other(self):
        assert np.array_equal(y_drift(HYP), -drift_matrix(HYP).T)

    @pytest.mark.parametrize("c", [*GRID_COUPLINGS, DEG, Couplings(1e-150, 3e150)])
    def test_y_drift_is_the_flipped_x_drift(self, c):
        # The identity every Y block of the package rests on, exactly.
        assert np.array_equal(drift_matrix(c) * _FLIP, y_drift(c))

    @pytest.mark.parametrize("c,t", [(HYP, T1), (PER, T2), (DEG, 1.3)])
    def test_equations_of_motion_by_finite_differences(self, c, t):
        # Each propagator's mx solves dX/dt = ax X and its my, taken from
        # mx, solves the paper's Y equations dY/dt = y_drift(c) Y.
        regime = classify_regime(c)
        t_char = 1.0 / (regime.rate if regime.rate > 0 else c.kappa_max)
        h = 1e-6 * t_char
        for propagate in (propagator_analytic, propagator_expm,
                          lambda c, t: rk4_propagator(c, t, 1000)):
            for block, a in (("mx", drift_matrix(c)), ("my", y_drift(c))):
                plus = getattr(propagate(c, t + h), block)
                minus = getattr(propagate(c, t - h), block)
                deriv = (plus - minus) / (2.0 * h)
                expected = a @ getattr(propagate(c, t), block)
                rel = np.abs(deriv - expected) / np.maximum(1.0, np.abs(expected))
                assert rel.max() < 1e-5


class TestHyperbolic:
    def test_identity_at_zero(self):
        pair = propagator_analytic(HYP, 0.0)
        assert np.array_equal(pair.mx, np.eye(3))
        assert np.array_equal(pair.my, np.eye(3))

    def test_witness_point(self):
        pair = propagator_analytic(HYP, T1)
        assert pair.mx[0, 0] == pytest.approx(MX1[0, 0], rel=1e-12)
        np.testing.assert_allclose(pair.mx, MX1, rtol=1e-12, atol=1e-13)
        cosh1 = (1.44 * math.cosh(1.0) - 1.0) / 0.44
        assert pair.mx[0, 0] == pytest.approx(cosh1, rel=1e-12)

    def test_symplectic_at_witness(self):
        assert propagator_analytic(HYP, T1).symplectic_defect() < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagator_analytic(HYP, -0.1)


class TestPeriodic:
    def test_identity_at_zero(self):
        pair = propagator_analytic(PER, 0.0)
        assert np.array_equal(pair.mx, np.eye(3))

    def test_full_revival(self):
        xi = rate_of(PER)
        pair = propagator_analytic(PER, 2.0 * math.pi / xi)
        assert np.max(np.abs(pair.mx - np.eye(3))) < 1e-10
        assert np.max(np.abs(pair.my - np.eye(3))) < 1e-10

    def test_witness_point(self):
        pair = propagator_analytic(PER, T2)
        assert pair.mx[0, 0] == pytest.approx(MX2_00, rel=1e-12)
        assert pair.mx[0, 0] == pytest.approx(3.24 / 2.24, rel=1e-12)


class TestDegenerate:
    def test_identity_at_zero(self):
        pair = propagator_analytic(DEG, 0.0)
        assert np.array_equal(pair.mx, np.eye(3))

    def test_exact_polynomial(self):
        pair = propagator_analytic(DEG, 1.0)
        np.testing.assert_allclose(pair.mx, MX_DEG, rtol=0, atol=1e-15)
        np.testing.assert_allclose(pair.my, MY_DEG, rtol=0, atol=1e-15)
        assert pair.mx[2, 2] == 1.0

    def test_matches_expm(self):
        for t in (0.3, 1.0, 2.7):
            poly = propagator_analytic(DEG, t)
            via_expm = propagator_expm(DEG, t)
            assert np.max(np.abs(poly.mx - via_expm.mx)) < 1e-10
            assert np.max(np.abs(poly.my - via_expm.my)) < 1e-10

    def test_symplectic(self):
        for t in (0.5, 1.5, 3.0):
            assert propagator_analytic(DEG, t).symplectic_defect() < 1e-10


class TestExpm:
    def test_identity_at_zero(self):
        pair = propagator_expm(HYP, 0.0)
        assert np.max(np.abs(pair.mx - np.eye(3))) < 1e-15

    def test_matches_hyperbolic_witness(self):
        via_expm = propagator_expm(HYP, T1)
        closed = propagator_analytic(HYP, T1)
        assert np.max(np.abs(via_expm.mx - closed.mx)) < 1e-10
        assert np.max(np.abs(via_expm.my - closed.my)) < 1e-10

    def test_matches_periodic_witness(self):
        via_expm = propagator_expm(PER, T2)
        closed = propagator_analytic(PER, T2)
        assert np.max(np.abs(via_expm.mx - closed.mx)) < 1e-10

    def test_long_time_scaling(self):
        # large ||A t|| exercises several squarings
        c = Couplings(2.0, 1.0)
        t = 3.0 / rate_of(c)
        closed = propagator_analytic(c, t)
        via_expm = propagator_expm(c, t)
        rel = np.abs(via_expm.mx - closed.mx) / np.maximum(1.0, np.abs(closed.mx))
        assert rel.max() < 1e-12


class TestMoments:
    def test_identity_at_zero(self):
        m = moments_at(HYP, 0.0)
        assert np.array_equal(m.cx, np.eye(3))

    def test_witness_values(self):
        m = moments_at(HYP, T1)
        np.testing.assert_allclose(m.cx, CX1, rtol=1e-12)
        np.testing.assert_allclose(m.cy, CY1, rtol=1e-12)
        assert m.cx[0, 0] == pytest.approx(14.427399424045523, rel=1e-12)
        assert m.cx[0, 1] == pytest.approx(8.227241511954793, rel=1e-12)
        assert m.cy[0, 1] == pytest.approx(-8.227241511954793, rel=1e-12)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, 10**400],
                             ids=["negative", "nan", "inf", "int-past-double"])
    def test_rejects_a_bad_time(self, t):
        with pytest.raises(ValueError, match="^t must be finite and >= 0, got"):
            moments_at(HYP, t)

    def test_finite_entries_whose_sum_overflows(self):
        # The six entries are finite, the largest 1.7977e308, but their sum
        # is not.
        m = moments_at(HYP, 533.7539347243663)
        assert np.isfinite(m.cx).all()
        assert m.cx.max() > 1.797e308

    def test_methods_agree(self):
        for c, t, _ in grid_points(n_tau=7):
            a = moments_at(c, t)
            b = outer_moments(propagator_expm(c, t))
            assert compare_moments(a, b, 1e-9).passed

    @pytest.mark.parametrize("c", [HYP, PER, DEG, Couplings(1.0, 1.0000000011),
                                   Couplings(1.0, 1.00001)])
    def test_classifies_the_regime_once(self, c, monkeypatch):
        # One point, counted in calls rather than timed: no regime
        # classification, one validated MomentState and no PropagatorPair.
        counts = dict.fromkeys(("classify_regime", "MomentState", "PropagatorPair"), 0)

        def counting(*args, **kwargs):
            counts["classify_regime"] += 1
            return classify_regime(*args, **kwargs)

        monkeypatch.setattr(trimode.propagator, "classify_regime", counting)
        for cls in (MomentState, PropagatorPair):
            def counting_init(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                counts[_cls.__name__] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        evaluate_all(moments_at(c, 1.3), 1.3)
        assert counts == {"classify_regime": 0, "MomentState": 1, "PropagatorPair": 0}
        propagator_analytic(c, 1.3)
        assert counts["classify_regime"] == 0


class TestClosedFormMoments:
    def test_identity_at_zero(self):
        m = closed_form_moments(HYP, 0.0)
        assert np.max(np.abs(m.cx - np.eye(3))) < 1e-15

    def test_hyperbolic_witness(self):
        m = closed_form_moments(HYP, T1)
        np.testing.assert_allclose(m.cx, CX1, rtol=1e-12)
        assert m.cx[1, 2] == pytest.approx(6.297816666697201, rel=1e-12)

    def test_periodic_witness(self):
        m = closed_form_moments(PER, T2)
        np.testing.assert_allclose(m.cx, CX2, rtol=1e-12)
        explicit = 1.0 + 2.0 * (2.0 * 3.24 - 1.0) / 2.24**2
        assert m.cx[0, 0] == pytest.approx(explicit, rel=1e-12)

    def test_degenerate_unsupported(self):
        with pytest.raises(RegimeError):
            closed_form_moments(DEG, 1.0)

    def test_large_couplings_in_range(self):
        c = Couplings(1e30, 5e29)
        t = 1.0 / classify_regime(c).rate
        assert compare_moments(moments_at(c, t), closed_form_moments(c, t), 1e-12).passed

    #: sha256 of the six entry rows of _closed_form_entries on the default
    #: oracle grid, captured before the periodic forms became the hyperbolic
    #: ones continued to an imaginary rate: the hyperbolic forms kept every bit.
    HYPERBOLIC_DIGESTS = {
        (1.2, 1.0): "ab11eaa0fe878582a3fbd1cb870660aeed9a4368b3ac7ab559118fcb57e1cd9a",
        (3.0, 1.0): "796e2eed5259d5931086d507d6215d372431a4286f7a19a97aba90ef95ced365",
        (1e-80, 5e-81): "f5b26d4f252d8966d689eaee6a5426ab90af8886165cd0fa232ee4b02301c788",
    }

    @pytest.mark.parametrize("kappas", list(HYPERBOLIC_DIGESTS))
    def test_hyperbolic_entries_keep_their_bytes(self, kappas):
        cfg = RunConfig(kappa1=kappas[0], kappa2=kappas[1])
        ts = cfg.taus() / time_scale(cfg.couplings, cfg.tau_convention)
        x = np.array(trimode.propagator._closed_form_entries(cfg.couplings, ts))
        assert x.shape == (6, 301)
        assert hashlib.sha256(x.tobytes()).hexdigest() == self.HYPERBOLIC_DIGESTS[kappas]


@pytest.mark.parametrize("path", [moments_at, propagator_analytic, propagator_expm,
                                  closed_form_moments], ids=lambda path: path.__name__)
def test_an_overflow_names_tau(path):
    # At (1.2, 1.0), t = 2000, sinh(rate t) overflows; at (1, 1e100),
    # t = 1e300, rate t is infinite and its sin and cos are nan.  Each path
    # says so and names tau, with no warning, rather than reporting a
    # non-finite block or a bare math domain error.
    for c, t in ((HYP, 2000.0), (Couplings(1.0, 1e100), 1e300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow.*; choose a smaller tau$"):
                path(c, t)


class TestGridInvariants:
    def test_oracle_equivalence(self):
        points = grid_points(n_tau=26)
        assert len(points) >= 100
        for c, t, tau in points:
            closed = closed_form_moments(c, t)
            analytic = moments_at(c, t)
            via_expm = outer_moments(propagator_expm(c, t))
            assert compare_moments(closed, analytic, 1e-9, tau).passed
            assert compare_moments(closed, via_expm, 1e-9, tau).passed
            assert compare_moments(analytic, via_expm, 1e-9, tau).passed

    def test_symplectic_everywhere(self):
        for c, t, _ in grid_points(n_tau=16):
            assert propagator_analytic(c, t).symplectic_defect() < 1e-10
            assert propagator_expm(c, t).symplectic_defect() < 1e-10

    def test_variance_parity_and_sign_pattern(self):
        for c, t, _ in grid_points(n_tau=16):
            m = moments_at(c, t)
            assert np.max(np.abs(np.diag(m.cx) - np.diag(m.cy))) < 1e-10
            scale = max(1.0, np.max(np.abs(m.cx)))
            assert abs(m.cx[0, 1] + m.cy[0, 1]) < 1e-10 * scale
            assert abs(m.cx[0, 2] + m.cy[0, 2]) < 1e-10 * scale
            assert abs(m.cx[1, 2] - m.cy[1, 2]) < 1e-10 * scale

    def test_positive_semidefinite(self):
        for c, t, _ in grid_points(n_tau=16):
            m = moments_at(c, t)
            assert np.min(np.linalg.eigvalsh(m.cx)) > -1e-10
            assert np.min(np.linalg.eigvalsh(m.cy)) > -1e-10

    def test_periodic_revival_of_moments(self):
        xi = rate_of(PER)
        for tau in np.linspace(0.1, 3.0, 7):
            a = moments_at(PER, tau / xi)
            b = moments_at(PER, (tau + 2.0 * math.pi) / xi)
            assert compare_moments(a, b, 1e-9).passed

    def test_degenerate_continuity(self):
        ts = np.linspace(0.0, 3.0, 13)
        for direction in (+1, -1):
            diffs = []
            for k in range(3, 9):
                c = Couplings(1.0 + direction * 10.0**-k, 1.0)
                worst = 0.0
                for t in ts:
                    near = moments_at(c, t)
                    exact = outer_moments(propagator_expm(DEG, t))
                    worst = max(worst, compare_moments(exact, near, 1.0).max_rel_err)
                diffs.append(worst)
            assert all(a > b for a, b in zip(diffs, diffs[1:]))
            assert diffs[-1] < 1e-6


@pytest.mark.parametrize("c, propagate", [
    (HYP, propagator_analytic), (PER, propagator_analytic), (DEG, propagator_analytic),
    (HYP, propagator_expm), (HYP, lambda c, t: rk4_propagator(c, t, 400))])
def test_numpy_times_propagate_as_floats(c, propagate):
    # A float32 time once ran the analytic rows in float32, 5.5e-8 off
    # moments_at at the float time.
    t = np.float32(0.7)
    pair, ref = propagate(c, t), propagate(c, float(t))
    assert type(pair.t) is float and pair.t == float(t)
    assert pair.mx.tobytes() == ref.mx.tobytes() and pair.my.tobytes() == ref.my.tobytes()
    if propagate is propagator_analytic:
        assert outer_moments(pair).cx.tobytes() == moments_at(c, t).cx.tobytes()


#: Every public function that takes a time, called at time t.
TIMED = {
    "moments_at": lambda t: moments_at(HYP, t),
    "closed_form_moments": lambda t: closed_form_moments(HYP, t),
    "propagator_analytic": lambda t: propagator_analytic(HYP, t),
    "propagator_expm": lambda t: propagator_expm(HYP, t),
    "rk4_propagator": lambda t: rk4_propagator(HYP, t, 4),
    "mc_moments": lambda t: mc_moments(HYP, t, 10, 1),
    "PropagatorPair": lambda t: PropagatorPair(np.eye(3), t),
    "evaluate_all": lambda t: evaluate_all(moments_at(HYP, 0.5), t),
}


@pytest.mark.parametrize("call", TIMED.values(), ids=TIMED.keys())
@pytest.mark.parametrize("t", [True, np.True_, "1", 1j, Decimal("1"), None],
                         ids=["bool", "np-bool", "str", "complex", "Decimal", "None"])
def test_a_time_must_be_a_real_number(call, t):
    # A bool time once ran at t = 1 or 0, and a str or complex one raised
    # a bare TypeError; couplings reject both by name.
    with pytest.raises(ValueError, match=re.escape(f"t must be a real number, got {t!r}")):
        call(t)


@pytest.mark.parametrize("call", TIMED.values(), ids=TIMED.keys())
def test_real_times_that_are_not_floats_run_at_their_float(call):
    for t in (Fraction(1, 2), np.int64(2), 2):
        got, want = call(t), call(float(t))
        for name in ("mx", "my", "cx", "cy"):
            if hasattr(want, name):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        if hasattr(want, "t"):
            assert type(got.t) is float and got.t == want.t


class TestOuterMoments:
    def test_matches_moments_at(self):
        pair = propagator_analytic(HYP, T1)
        m = outer_moments(pair)
        np.testing.assert_allclose(m.cx, CX1, rtol=1e-12)

    def test_every_pair_keeps_its_rows(self):
        # A pair is its X block: the state keeps the rows of mx, cx is their
        # Gram matrix, exactly symmetric with no symmetrising step, and cy
        # is S cx S.
        rng = np.random.default_rng(17)
        for _ in range(200):
            mx = rng.standard_normal((3, 3)) * 10.0 ** rng.uniform(-3, 3)
            m = outer_moments(PropagatorPair(mx, T1))
            r1, r2, r3 = mx
            table = (r1, r2, r3, r1 - r2, r1 - r3, r2 - r3, r1 + r2, r1 + r3, r2 + r3,
                     r1 - r2 - r3)
            assert m.rows == tuple(tuple(v.tolist()) for v in table)
            assert np.array_equal(m.cx, m.cx.T)
            assert np.array_equal(m.cx, row_outer(mx))
            assert m.cy.tobytes() == (m.cx * _FLIP).tobytes()

    def test_overflow_is_one_value_error_and_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                outer_moments(PropagatorPair(np.full((3, 3), 1e200), 0.0))

    @pytest.mark.parametrize("c, t", [(HYP, T1), (PER, T2), (DEG, 2.0), (HYP, 12.0)])
    def test_propagated_states_take_their_blocks_from_their_rows(self, c, t):
        for m in (moments_at(c, t), outer_moments(propagator_analytic(c, t)),
                  outer_moments(propagator_expm(c, t)),
                  outer_moments(rk4_propagator(c, t, 400))):
            assert m.rows is not None
            cx = _block(_row_moments(m.rows[:3]))
            assert cx.tobytes() == m.cx.tobytes()
            assert (cx * _FLIP).tobytes() == m.cy.tobytes()

    @pytest.mark.parametrize("c, t", [(HYP, T1), (PER, T2), (DEG, 2.0), (HYP, 12.0)])
    def test_pure_states_have_cy_equal_to_s_cx_s(self, c, t):
        states = [moments_at(c, t), outer_moments(propagator_analytic(c, t)),
                  outer_moments(propagator_expm(c, t)), outer_moments(rk4_propagator(c, t, 400))]
        if c is not DEG:
            states.append(closed_form_moments(c, t))
        for m in states:
            assert m.cy.tobytes() == (m.cx * _FLIP).tobytes()
