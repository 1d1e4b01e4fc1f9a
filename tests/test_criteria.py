"""Entanglement criteria: variances, inference products and gain-weighted sums."""

import dataclasses
import math
import re

import numpy as np
import pytest

from trimode import (
    UNIT_GAINS,
    Couplings,
    MomentState,
    Sign,
    TauConvention,
    VlfGains,
    evaluate_all,
    moments_at,
    obr_pair,
    obr_single,
    time_scale,
    vlf_gains,
    vlf_value,
)
from trimode.criteria import _VALID_PAIRS
from trimode.propagator import propagator_rows
from support import (
    CY1,
    G1,
    G2,
    G3,
    HYP,
    OBR1,
    OBR1_P2,
    OBR12,
    OBR13,
    OBR23,
    PER,
    T1,
    T2,
    V12_OPT,
    V12_OPT_P2,
    V12_RAW,
    V12_RAW_P2,
    V12_X,
    V13_OPT,
    V13_RAW,
    V23_OPT,
    V23_RAW,
    VINF_X1,
    VINFPAIR_X23,
    VY12_OPT,
    VY_UNIT,
    grid_points,
    mp_residual,
)

#: (w, v) of the residual V(w.Q | v.Q) behind obr_single(m, i) and
#: obr_pair(m, j, k) with the plus sign, by mode i (j, k the other two).
SINGLE = {1: ([1, 0, 0], [0, 1, 1]), 2: ([0, 1, 0], [1, 0, 1]),
          3: ([0, 0, 1], [1, 1, 0])}
PAIR = {i: (v, w) for i, (w, v) in SINGLE.items()}


def mp_product(m, w, v):
    """The inference product of V(w.X | v.X) and V(w.Y | v.Y), at 50 digits."""
    return mp_residual(m.cx, w, v) * mp_residual(m.cy, w, v)


@pytest.fixture(scope="module")
def m1():
    return moments_at(HYP, T1)


@pytest.fixture(scope="module")
def m2():
    return moments_at(PER, T2)


class TestInferredSingle:
    """Residuals V(Q_i | Q_j + Q_k), read through obr_single."""

    def test_vacuum(self):
        for i in (1, 2, 3):
            for sign in Sign:
                assert obr_single(MomentState(np.eye(3), np.eye(3)), i, sign) == 1.0

    def test_witness_mode_1(self, m1):
        assert mp_residual(m1.cx, *SINGLE[1]) == pytest.approx(VINF_X1, rel=1e-12)
        assert obr_single(m1, 1) == pytest.approx(mp_product(m1, *SINGLE[1]),
                                                  rel=1e-12)

    def test_modes_2_and_3_stay_at_vacuum_level(self, m1, m2):
        for m in (m1, m2):
            for i in (2, 3):
                for block in (m.cx, m.cy):
                    assert mp_residual(block, *SINGLE[i]) == pytest.approx(
                        1.0, abs=1e-10
                    )
                assert obr_single(m, i) == pytest.approx(1.0, abs=1e-10)

    def test_never_exceeds_own_variance(self, m1):
        for i in (1, 2, 3):
            own = m1.cx[i - 1, i - 1] * m1.cy[i - 1, i - 1]
            assert 0.0 <= obr_single(m1, i) <= own + 1e-12
            assert obr_single(m1, i) == pytest.approx(
                mp_product(m1, *SINGLE[i]), rel=1e-12, abs=1e-12
            )

    def test_uninformative_combination_leaves_variance(self):
        # V(X2 + X3) = 5e-13 is uncorrelated with X1, so it leaves V(X1) as it is
        cx = np.eye(3)
        cx[1, 2] = cx[2, 1] = -(1.0 - 2.5e-13)
        m = MomentState(cx, np.eye(3))
        assert obr_single(m, 1) == 1.0

    def test_invalid_mode(self, m1):
        with pytest.raises(ValueError):
            obr_single(m1, 4)


class TestObrSingle:
    def test_vacuum_boundary(self):
        assert obr_single(MomentState(np.eye(3), np.eye(3)), 1) == 1.0

    def test_witness(self, m1):
        assert obr_single(m1, 1) == pytest.approx(OBR1, rel=1e-12)

    def test_periodic_witness(self, m2):
        assert obr_single(m2, 1) == pytest.approx(OBR1_P2, rel=1e-12)

    def test_modes_2_3_equal_one(self):
        for c in (HYP, PER):
            rate = abs(c.kappa1**2 - c.kappa2**2) ** 0.5
            for tau in np.linspace(0.2, 3.0, 8):
                m = moments_at(c, tau / rate)
                assert obr_single(m, 2) == pytest.approx(1.0, abs=1e-10)
                assert obr_single(m, 3) == pytest.approx(1.0, abs=1e-10)

    def test_mode_1_product_is_a_square(self, m1):
        vx = mp_residual(m1.cx, *SINGLE[1])
        vy = mp_residual(m1.cy, *SINGLE[1])
        assert abs(vx - vy) < 1e-10
        assert obr_single(m1, 1) == pytest.approx(vx * vx, rel=1e-10)

    def test_minus_sign_variant(self, m1):
        v = obr_single(m1, 1, Sign.MINUS)
        assert v >= 0.0
        assert v != pytest.approx(obr_single(m1, 1), rel=1e-6)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: the cofactor path of a pure state rebuilt "
                       "from its blocks certifies falsely from rounding")
    @pytest.mark.parametrize("tau", [10.0, 18.0, 20.0])
    def test_a_rebuilt_pure_state_does_not_certify(self, tau):
        # Rebuilt from its blocks, the state drops its rows and takes the
        # cofactor path, whose residual variances lose their digits to
        # cancellation at large tau: the products read below 1.
        t = tau / time_scale(HYP, TauConvention.RATE)
        m = moments_at(HYP, t)
        assert not evaluate_all(m, t).obr_single_flag
        for rebuilt in (MomentState(m.cx, m.cy), dataclasses.replace(m)):
            assert not evaluate_all(rebuilt, t).obr_single_flag


class TestInferredPair:
    """Residuals V(Q_j + Q_k | Q_i), read through obr_pair."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 15: r1 - r3 is formed by plain subtraction, and "
                       "the weight of its growing part vanishes with kappa2")
    @pytest.mark.parametrize("tau", [10.0, 20.0])
    def test_weak_coupling_does_not_certify(self, tau):
        # Mode 2 is decoupled at kappa2 = 1e-150, so obr13 = V(X1 + X3) V(Y1 + Y3)
        # is 4 exactly, on its threshold; the row path reads it below 4.
        c = Couplings(1.0, 1e-150)
        t = tau / time_scale(c, TauConvention.RATE)
        report = evaluate_all(moments_at(c, t), t)
        assert not report.obr_pair_flag
        assert abs(report.obr_pair.obr13 - 4.0) <= 1e-12

    def test_vacuum(self):
        for j, k in ((2, 3), (1, 3), (1, 2)):
            for sign in Sign:
                assert obr_pair(MomentState(np.eye(3), np.eye(3)), j, k, sign) == 4.0

    def test_witness(self, m1):
        assert mp_residual(m1.cx, *PAIR[1]) == pytest.approx(VINFPAIR_X23, rel=1e-12)
        assert obr_pair(m1, 2, 3) == pytest.approx(mp_product(m1, *PAIR[1]),
                                                   rel=1e-12)

    def test_sign_pattern_makes_x_and_y_equal(self, m1):
        vx = mp_residual(m1.cx, *PAIR[1])
        vy = mp_residual(m1.cy, *PAIR[1])
        assert vx == pytest.approx(vy, rel=1e-10)
        assert obr_pair(m1, 2, 3) == pytest.approx(vx * vx, rel=1e-10)

    def test_equal_modes_rejected(self, m1):
        with pytest.raises(ValueError):
            obr_pair(m1, 2, 2)


class TestObrPair:
    def test_vacuum_boundary(self):
        assert obr_pair(MomentState(np.eye(3), np.eye(3)), 2, 3) == 4.0

    def test_witnesses(self, m1):
        assert obr_pair(m1, 2, 3) == pytest.approx(OBR23, rel=1e-12)
        assert obr_pair(m1, 1, 3) == pytest.approx(OBR13, rel=1e-12)
        assert obr_pair(m1, 1, 2) == pytest.approx(OBR12, rel=1e-12)

    def test_evidence_from_small_times_onwards(self):
        for c in (HYP, PER):
            rate = abs(c.kappa1**2 - c.kappa2**2) ** 0.5
            for tau in (0.05, 0.3, 1.0, 2.0, 3.0):
                m = moments_at(c, tau / rate)
                for j, k in ((2, 3), (1, 3), (1, 2)):
                    assert obr_pair(m, j, k) < 4.0


class TestVlfGains:
    def test_vacuum(self):
        assert vlf_gains(MomentState(np.eye(3), np.eye(3))) == VlfGains(0.0, 0.0, 0.0)

    def test_witness(self, m1):
        gains = vlf_gains(m1)
        assert gains.g1 == pytest.approx(G1, rel=1e-12)
        assert gains.g2 == pytest.approx(G2, rel=1e-12)
        assert gains.g3 == pytest.approx(G3, rel=1e-12)
        explicit = (CY1[0, 2] + CY1[1, 2]) / CY1[2, 2]
        assert gains.g3 == pytest.approx(-explicit, rel=1e-12)

    def test_stationarity_residuals(self):
        for c, t, _ in grid_points(n_tau=6):
            m = moments_at(c, t)
            g = vlf_gains(m)
            cy = m.cy
            assert abs(g.g1 * cy[0, 0] + cy[0, 1] + cy[0, 2]) < 1e-10 * cy[0, 0]
            assert abs(g.g2 * cy[1, 1] + cy[0, 1] + cy[1, 2]) < 1e-10 * cy[1, 1]
            assert abs(g.g3 * cy[2, 2] + cy[0, 2] + cy[1, 2]) < 1e-10 * cy[2, 2]


class TestVlfValue:
    def test_vacuum_with_optimal_gains_sits_on_the_bound(self):
        m = MomentState(np.eye(3), np.eye(3))
        g = vlf_gains(m)
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert vlf_value(m, pair, g) == 4.0

    def test_vacuum_with_unit_gains_is_five(self):
        # V(X_i - X_j) = 2 plus V(Y_1 + Y_2 + Y_3) = 3 on vacuum input
        m = MomentState(np.eye(3), np.eye(3))
        for pair in ((1, 2), (1, 3), (2, 3)):
            assert vlf_value(m, pair, UNIT_GAINS) == 5.0

    def test_witness_values(self, m1):
        g = vlf_gains(m1)
        assert vlf_value(m1, (1, 2), g) == pytest.approx(V12_OPT, rel=1e-12)
        assert vlf_value(m1, (1, 2), UNIT_GAINS) == pytest.approx(V12_RAW, rel=1e-12)
        assert vlf_value(m1, (1, 2), UNIT_GAINS) == pytest.approx(
            V12_X + VY_UNIT, rel=1e-12
        )

    def test_optimised_sum_equals_difference_plus_inferred_pair(self):
        for c, t, _ in grid_points(n_tau=6):
            m = moments_at(c, t)
            g = vlf_gains(m)
            rep = evaluate_all(m, t)
            for (i, j), opt in zip(((1, 2), (1, 3), (2, 3)), rep.vlf_opt):
                wx = np.zeros(3)
                wx[i - 1], wx[j - 1] = 1.0, -1.0
                rhs = wx @ m.cx @ wx + mp_residual(m.cy, *PAIR[6 - i - j])
                assert vlf_value(m, (i, j), g) == pytest.approx(
                    rhs, abs=1e-10, rel=1e-10
                )
                assert opt == pytest.approx(rhs, abs=1e-10, rel=1e-10)

    def test_witness_inferred_component(self, m1):
        assert mp_residual(m1.cy, *PAIR[3]) == pytest.approx(VY12_OPT, rel=1e-11)
        wx = np.array([1.0, -1.0, 0.0])
        got = evaluate_all(m1, T1).vlf_opt.v12 - wx @ m1.cx @ wx
        assert got == pytest.approx(VY12_OPT, rel=1e-11)

    def test_invalid_pair(self, m1):
        with pytest.raises(ValueError):
            vlf_value(m1, (2, 1), UNIT_GAINS)
        with pytest.raises(ValueError):
            vlf_value(m1, (1, 1), UNIT_GAINS)

    def test_gain_perturbations_never_win(self):
        rng = np.random.default_rng(99)
        for c, t in ((HYP, T1), (PER, T2)):
            m = moments_at(c, t)
            g = vlf_gains(m)
            base = {p: vlf_value(m, p, g) for p in ((1, 2), (1, 3), (2, 3))}
            for _ in range(200):
                delta = rng.uniform(-0.1, 0.1, size=3)
                bumped = VlfGains(g.g1 + delta[0], g.g2 + delta[1], g.g3 + delta[2])
                for pair, value in base.items():
                    assert vlf_value(m, pair, bumped) >= value - 1e-12


class TestEvaluateAll:
    def test_vacuum_boundary_report(self):
        rep = evaluate_all(MomentState(np.eye(3), np.eye(3)), 0.0)
        assert all(v == 4.0 for v in rep.vlf_opt)
        assert all(v == 5.0 for v in rep.vlf_raw)
        assert all(v == 1.0 for v in rep.obr_single)
        assert all(v == 4.0 for v in rep.obr_pair)
        assert not rep.vlf_flag
        assert not rep.obr_single_flag
        assert not rep.obr_pair_flag

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_an_indefinite_block_does_not_certify(self):
        # cx has eigenvalues -1, 1 and 3 but no negative variance, which is
        # all MomentState checks of the semidefiniteness the criteria
        # assume; both signs read v12_raw = -3 and obr_pair = (0, 0, 0).
        cx = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        cy = np.array([[1.0, -2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for sign in Sign:
            rep = evaluate_all(MomentState(cx, cy), 0.0, sign)
            assert not (rep.vlf_flag or rep.obr_single_flag or rep.obr_pair_flag), sign

    def test_witness_report(self, m1):
        rep = evaluate_all(m1, T1)
        assert rep.t == T1
        assert rep.sign is Sign.PLUS
        assert rep.vlf_raw.v13 == pytest.approx(V13_RAW, rel=1e-12)
        assert rep.vlf_opt.v13 == pytest.approx(V13_OPT, rel=1e-12)
        assert rep.vlf_raw.v23 == pytest.approx(V23_RAW, rel=1e-12)
        assert rep.vlf_opt.v23 == pytest.approx(V23_OPT, rel=1e-12)
        assert rep.obr_pair.obr23 == pytest.approx(OBR23, rel=1e-12)
        assert rep.obr_pair_flag
        assert not rep.obr_single_flag

    def test_periodic_witness_report(self, m2):
        rep = evaluate_all(m2, T2)
        assert rep.vlf_raw.v12 == pytest.approx(V12_RAW_P2, rel=1e-12)
        assert rep.vlf_opt.v12 == pytest.approx(V12_OPT_P2, rel=1e-12)

    def test_optimised_never_exceeds_raw(self):
        for c, t, _ in grid_points(n_tau=10):
            rep = evaluate_all(moments_at(c, t), t)
            for opt, raw in zip(rep.vlf_opt, rep.vlf_raw):
                assert opt <= raw + 1e-12

    def test_all_products_nonnegative(self):
        for c, t, _ in grid_points(n_tau=10):
            rep = evaluate_all(moments_at(c, t), t)
            assert all(v >= 0.0 for v in rep.obr_single)
            assert all(v >= 0.0 for v in rep.obr_pair)

    @pytest.mark.parametrize("t,message", [
        ("1", "t must be a real number, got '1'"),
        (True, "t must be a real number, got True"),
        (1j, "t must be a real number, got 1j"),
        (-5, "t must be finite and >= 0, got -5"),
        (math.nan, "t must be finite and >= 0, got nan"),
        (math.inf, "t must be finite and >= 0, got inf"),
    ], ids=["str", "bool", "complex", "negative", "nan", "inf"])
    def test_checks_its_time(self, m1, t, message):
        # Each once reached the report as float(t), or raised a bare TypeError.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_all(m1, t)

    def test_records_its_time_as_a_float(self, m1):
        for t in (np.float64(T1), np.float32(0.5), 2):
            rep = evaluate_all(m1, t)
            assert type(rep.t) is float and rep.t == float(t)

    def test_minus_sign_recorded(self, m1):
        rep = evaluate_all(m1, T1, Sign.MINUS)
        assert rep.sign is Sign.MINUS
        assert rep.obr_single.obr1 >= 0.0

    @pytest.mark.parametrize("sign", ["plus", "minus", None])
    def test_sign_must_be_a_sign(self, m1, sign):
        # A string must not silently select a branch, on either path.
        for m in (m1, MomentState(m1.cx, m1.cy)):
            with pytest.raises(ValueError, match="sign must be"):
                evaluate_all(m, T1, sign)
            with pytest.raises(ValueError, match="sign must be"):
                obr_single(m, 1, sign)

    @pytest.mark.parametrize("entry", range(3, 10))
    def test_reads_the_row_combinations_it_is_given(self, entry):
        # Every criterion reads each row combination off the state's table
        # and forms none itself, so a NaN planted in one entry must reach it.
        rows = list(propagator_rows(HYP, T1))
        rows[entry] = (math.nan,) * 3
        m = MomentState._from_rows(tuple(rows))
        with pytest.raises(ValueError, match="second moments overflow|criteria are not finite"):
            evaluate_all(m, T1)
        for pair in {3: [(1, 2)], 4: [(1, 3)], 5: [(2, 3)], 9: _VALID_PAIRS}.get(entry, []):
            with pytest.raises(ValueError, match="vlf value is not finite"):
                vlf_value(m, pair)

    @pytest.mark.parametrize("sign", [Sign.PLUS, Sign.MINUS])
    def test_the_biseparable_point_does_not_certify(self, sign):
        # At (1.0, 1.8) and rate-convention tau = pi, b = sin(pi) / rate is
        # zero up to rounding: mode 3 factors off (3 | 12).
        t = math.pi / time_scale(PER, TauConvention.RATE)
        rep = evaluate_all(moments_at(PER, t), t, sign)
        assert not (rep.vlf_flag or rep.obr_single_flag or rep.obr_pair_flag)
        assert rep.obr_single.obr2 == rep.obr_single.obr3 == 1.0
        assert abs(rep.obr_pair.obr12 - 4.0) <= 1e-12

    def test_rescaling_invariance(self):
        for scale in (0.5, 2.0, 3.7):
            for c, t in ((HYP, T1), (PER, T2)):
                rep = evaluate_all(moments_at(c, t), t)
                scaled = Couplings(scale * c.kappa1, scale * c.kappa2)
                rep_s = evaluate_all(moments_at(scaled, t / scale), t / scale)
                for a, b in zip(
                    (*rep.vlf_raw, *rep.vlf_opt, *rep.obr_single, *rep.obr_pair),
                    (*rep_s.vlf_raw, *rep_s.vlf_opt, *rep_s.obr_single,
                     *rep_s.obr_pair),
                ):
                    assert a == pytest.approx(b, abs=1e-10, rel=1e-10)


class TestModeIndices:
    @pytest.mark.parametrize("call", [
        lambda m: obr_single(m, 1.0),
        lambda m: obr_single(m, True),
        lambda m: obr_pair(m, 2.0, 3),
    ], ids=["single-float", "single-bool", "pair-float"])
    def test_rejects_non_integer_modes(self, m1, call):
        with pytest.raises(ValueError, match="mode index must be 1, 2 or 3"):
            call(m1)

    @pytest.mark.parametrize("pair", [(1.0, 2), (True, 2)], ids=["float", "bool"])
    def test_vlf_value_rejects_non_integer_pairs(self, m1, pair):
        with pytest.raises(ValueError, match="pair must be one of"):
            vlf_value(m1, pair)

    @pytest.mark.parametrize("rows", [True, False], ids=["rows", "cofactors"])
    @pytest.mark.parametrize("pair,gains,message", [
        (12, UNIT_GAINS, "pair must be one of"),
        ((2, 3), (math.nan,) * 3, "gains must be three finite reals"),
        ((1, 2), (1.0, 1.0, math.inf), "gains must be three finite reals"),
        ((1, 2), (1.0,), "gains must be three finite reals"),
        ((1, 2), 1.0, "gains must be three finite reals"),
        ((1, 2), (1.0, 1.0, "1"), "gains must be three finite reals"),
        ((1, 2), (1.0, 1.0, 10**400), "gains must be three finite reals"),
        ((1, 2), (True, True, True), "gains must be three finite reals"),
        ((1, 3), (1.0, 1e300, 1.0), "vlf value is not finite"),
    ], ids=["int-pair", "nan-gains", "inf-gain", "one-gain", "float-gains", "str-gain",
            "int-gain-past-double", "bool-gains", "sum-overflows"])
    def test_vlf_value_checks_its_inputs(self, rows, pair, gains, message):
        # Named like evaluate_all's errors, where a nan was returned or a
        # bare IndexError or TypeError raised.
        m = moments_at(HYP, 1.0)
        if not rows:
            m = MomentState(m.cx, m.cy)
        with pytest.raises(ValueError, match=message):
            vlf_value(m, pair, gains)
        assert math.isfinite(vlf_value(m, (1, 3), np.array([1.0, 2.0, 3.0])))

    def test_numpy_integers_are_modes(self, m1):
        two = np.int64(2)
        assert obr_single(m1, two) == obr_single(m1, 2)
        assert obr_pair(m1, 1, two) == obr_pair(m1, 1, 2)
        assert vlf_value(m1, (1, two)) == vlf_value(m1, (1, 2))
