"""Drift construction, closed-form propagators and moment evolution."""

import math

import numpy as np
import pytest

import trimode.propagator
from trimode import (
    Couplings,
    MomentMethod,
    RegimeError,
    classify_regime,
    closed_form_moments,
    compare_moments,
    drift_matrices,
    moments_at,
    outer_moments,
    propagator_analytic,
    propagator_degenerate,
    propagator_expm,
    propagator_hyperbolic,
    propagator_periodic,
)
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
)


class TestDrift:
    def test_entries(self):
        ax, ay = drift_matrices(Couplings(1.0, 1.0))
        assert np.array_equal(ax[2], [1.0, -1.0, 0.0])
        assert np.array_equal(ay[2], [-1.0, -1.0, 0.0])
        assert np.array_equal(ax[0], [0.0, 0.0, 1.0])
        assert np.array_equal(ay[0], [0.0, 0.0, -1.0])
        assert np.array_equal(ax[1], [0.0, 0.0, 1.0])
        assert np.array_equal(ay[1], [0.0, 0.0, 1.0])

    def test_traceless(self):
        for c in GRID_COUPLINGS:
            ax, ay = drift_matrices(c)
            assert np.trace(ax) == 0.0
            assert np.trace(ay) == 0.0

    def test_blocks_are_inverse_transposes_of_each_other(self):
        ax, ay = drift_matrices(HYP)
        assert np.array_equal(ay, -ax.T)

    @pytest.mark.parametrize("c,t", [(HYP, T1), (PER, T2), (DEG, 1.3)])
    def test_equations_of_motion_by_finite_differences(self, c, t):
        regime = classify_regime(c)
        t_char = 1.0 / (regime.rate if regime.rate > 0 else c.kappa_max)
        h = 1e-6 * t_char
        ax, ay = drift_matrices(c)
        for block, a in (("mx", ax), ("my", ay)):
            plus = getattr(propagator_analytic(c, t + h), block)
            minus = getattr(propagator_analytic(c, t - h), block)
            deriv = (plus - minus) / (2.0 * h)
            expected = a @ getattr(propagator_analytic(c, t), block)
            rel = np.abs(deriv - expected) / np.maximum(1.0, np.abs(expected))
            assert rel.max() < 1e-5


class TestHyperbolic:
    def test_identity_at_zero(self):
        pair = propagator_hyperbolic(HYP, 0.0)
        assert np.array_equal(pair.mx, np.eye(3))
        assert np.array_equal(pair.my, np.eye(3))

    def test_witness_point(self):
        pair = propagator_hyperbolic(HYP, T1)
        assert pair.mx[0, 0] == pytest.approx(MX1[0, 0], rel=1e-12)
        np.testing.assert_allclose(pair.mx, MX1, rtol=1e-12, atol=1e-13)
        cosh1 = (1.44 * math.cosh(1.0) - 1.0) / 0.44
        assert pair.mx[0, 0] == pytest.approx(cosh1, rel=1e-12)

    def test_symplectic_at_witness(self):
        assert propagator_hyperbolic(HYP, T1).symplectic_defect() < 1e-12

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            propagator_hyperbolic(PER, 1.0)
        with pytest.raises(RegimeError):
            propagator_hyperbolic(DEG, 1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagator_hyperbolic(HYP, -0.1)


class TestPeriodic:
    def test_identity_at_zero(self):
        pair = propagator_periodic(PER, 0.0)
        assert np.array_equal(pair.mx, np.eye(3))

    def test_full_revival(self):
        xi = rate_of(PER)
        pair = propagator_periodic(PER, 2.0 * math.pi / xi)
        assert np.max(np.abs(pair.mx - np.eye(3))) < 1e-10
        assert np.max(np.abs(pair.my - np.eye(3))) < 1e-10

    def test_witness_point(self):
        pair = propagator_periodic(PER, T2)
        assert pair.mx[0, 0] == pytest.approx(MX2_00, rel=1e-12)
        assert pair.mx[0, 0] == pytest.approx(3.24 / 2.24, rel=1e-12)

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            propagator_periodic(HYP, 1.0)


class TestDegenerate:
    def test_identity_at_zero(self):
        pair = propagator_degenerate(DEG, 0.0)
        assert np.array_equal(pair.mx, np.eye(3))

    def test_exact_polynomial(self):
        pair = propagator_degenerate(DEG, 1.0)
        np.testing.assert_allclose(pair.mx, MX_DEG, rtol=0, atol=1e-15)
        np.testing.assert_allclose(pair.my, MY_DEG, rtol=0, atol=1e-15)
        assert pair.mx[2, 2] == 1.0

    def test_matches_expm(self):
        for t in (0.3, 1.0, 2.7):
            poly = propagator_degenerate(DEG, t)
            via_expm = propagator_expm(DEG, t)
            assert np.max(np.abs(poly.mx - via_expm.mx)) < 1e-10
            assert np.max(np.abs(poly.my - via_expm.my)) < 1e-10

    def test_symplectic(self):
        for t in (0.5, 1.5, 3.0):
            assert propagator_degenerate(DEG, t).symplectic_defect() < 1e-10

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            propagator_degenerate(HYP, 1.0)


class TestExpm:
    def test_identity_at_zero(self):
        pair = propagator_expm(HYP, 0.0)
        assert np.max(np.abs(pair.mx - np.eye(3))) < 1e-15

    def test_matches_hyperbolic_witness(self):
        via_expm = propagator_expm(HYP, T1)
        closed = propagator_hyperbolic(HYP, T1)
        assert np.max(np.abs(via_expm.mx - closed.mx)) < 1e-10
        assert np.max(np.abs(via_expm.my - closed.my)) < 1e-10

    def test_matches_periodic_witness(self):
        via_expm = propagator_expm(PER, T2)
        closed = propagator_periodic(PER, T2)
        assert np.max(np.abs(via_expm.mx - closed.mx)) < 1e-10

    def test_long_time_scaling(self):
        # large ||A t|| exercises several squarings
        c = Couplings(2.0, 1.0)
        t = 3.0 / rate_of(c)
        closed = propagator_hyperbolic(c, t)
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

    def test_methods_agree(self):
        for c, t, _ in grid_points(n_tau=7):
            a = moments_at(c, t, MomentMethod.ANALYTIC)
            b = moments_at(c, t, MomentMethod.EXPM)
            assert compare_moments(a, b, 1e-9).passed

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            moments_at(HYP, 1.0, "analytic")

    @pytest.mark.parametrize("c", [HYP, PER, DEG])
    def test_classifies_the_regime_once(self, c, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return classify_regime(*args, **kwargs)

        monkeypatch.setattr(trimode.propagator, "classify_regime", counting)
        moments_at(c, 1.3)
        assert len(calls) == 0
        propagator_analytic(c, 1.3)
        assert len(calls) == 0


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


class TestGridInvariants:
    def test_oracle_equivalence(self):
        points = grid_points(n_tau=26)
        assert len(points) >= 100
        for c, t, tau in points:
            closed = closed_form_moments(c, t)
            analytic = moments_at(c, t, MomentMethod.ANALYTIC)
            via_expm = moments_at(c, t, MomentMethod.EXPM)
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
                    near = moments_at(c, t, MomentMethod.ANALYTIC)
                    exact = moments_at(DEG, t, MomentMethod.EXPM)
                    worst = max(worst, compare_moments(exact, near, 1.0).max_rel_err)
                diffs.append(worst)
            assert all(a > b for a, b in zip(diffs, diffs[1:]))
            assert diffs[-1] < 1e-6


class TestOuterMoments:
    def test_matches_moments_at(self):
        pair = propagator_analytic(HYP, T1)
        m = outer_moments(pair)
        np.testing.assert_allclose(m.cx, CX1, rtol=1e-12)
