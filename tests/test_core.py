"""Data model, regime classification and vacuum state."""

import dataclasses
import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimode import (
    Couplings,
    CriteriaReport,
    InvalidCouplingError,
    MomentState,
    ObrPairs,
    ObrSingles,
    PropagatorPair,
    RegimeKind,
    RunConfig,
    Sign,
    SweepResult,
    VlfGains,
    VlfTriple,
    classify_regime,
    evaluate_all,
    mc_moments,
    moments_at,
)
from trimode.core import _FLIP, _block, _each, _frozen_matrix
from support import DEG, HYP, PER, T1


class TestCouplings:
    def test_valid(self):
        c = Couplings(1.2, 1.0)
        assert c.kappa_max == 1.2

    @pytest.mark.parametrize("k1,k2", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                       (math.inf, 1.0), (math.nan, 1.0),
                                       pytest.param(10**400, 1.0, id="int-past-double"),
                                       pytest.param(1.0, -10**400, id="negative-int-past-double")])
    def test_invalid(self, k1, k2):
        with pytest.raises(InvalidCouplingError):
            Couplings(k1, k2)

    @pytest.mark.parametrize("kappa", [1.5e-154, 1e-10, 1e10, 1.34e154])
    def test_squares_are_normal_doubles(self, kappa):
        assert Couplings(kappa, 1.0).kappa1 == Couplings(1.0, kappa).kappa2 == kappa

    @pytest.mark.parametrize("kappa", [5e-324, 1e-170, 1.49e-154, 1.35e154, 2e160, 1e300])
    def test_squares_outside_the_normal_range(self, kappa):
        # (2e160, 1e160) read as periodic with rate nan and (2e-170, 1e-170)
        # as degenerate when their squares overflowed or underflowed.
        for k1, k2 in ((kappa, 1.0), (1.0, kappa), (2 * kappa, kappa)):
            with pytest.raises(InvalidCouplingError, match="normal double"):
                Couplings(k1, k2)

    @pytest.mark.parametrize("value", [np.int64(4_000_000_000), np.float32(1.2), 3,
                                       Fraction(6, 5)])
    def test_stores_python_floats(self, value):
        c = Couplings(value, 1)
        assert type(c.kappa1) is float and type(c.kappa2) is float
        assert c.kappa1 == float(value)

    def test_numpy_integers_do_not_overflow(self):
        # kappa1**2 overflowed int64, and the couplings read as periodic.
        c = Couplings(np.int64(4_000_000_000), np.int64(1))
        assert classify_regime(c).kind is RegimeKind.HYPERBOLIC
        ref = moments_at(Couplings(4e9, 1.0), 1e-9)
        assert moments_at(c, 1e-9).cx.tobytes() == ref.cx.tobytes()

    def test_float32_computes_in_float64(self):
        c, ref = Couplings(np.float32(1.2), 1.0), Couplings(float(np.float32(1.2)), 1.0)
        m = moments_at(c, 2.0)
        assert m.cx.tobytes() == moments_at(ref, 2.0).cx.tobytes()
        assert type(evaluate_all(m, 2.0).obr_pair.obr23) is float

    @pytest.mark.parametrize("value", [Decimal("1.2"), "1.2", True, False, 1 + 0j, None])
    @pytest.mark.parametrize("name", ["kappa1", "kappa2"])
    def test_rejects_values_that_are_not_real_numbers(self, name, value):
        with pytest.raises(InvalidCouplingError, match=f"^{name} must be a real number"):
            Couplings(**{"kappa1": 1.0, "kappa2": 1.0, name: value})


class TestClassifyRegime:
    def test_hyperbolic(self):
        r = classify_regime(HYP)
        assert r.kind is RegimeKind.HYPERBOLIC
        assert r.rate == pytest.approx(math.sqrt(0.44), rel=1e-15)
        assert r.rate == pytest.approx(0.663325, abs=1e-6)

    def test_periodic(self):
        r = classify_regime(PER)
        assert r.kind is RegimeKind.PERIODIC
        assert r.rate == pytest.approx(math.sqrt(2.24), rel=1e-15)
        assert r.rate == pytest.approx(1.496663, abs=1e-6)

    def test_degenerate(self):
        r = classify_regime(DEG)
        assert r.kind is RegimeKind.DEGENERATE
        assert r.rate == 0.0

    def test_tolerance_window(self):
        inside = Couplings(1.0 + 1e-10, 1.0)
        outside = Couplings(1.0 + 1e-8, 1.0)
        assert classify_regime(inside).kind is RegimeKind.DEGENERATE
        assert classify_regime(outside).kind is RegimeKind.HYPERBOLIC

    def test_rate_squared_closes_the_gap(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            k1, k2 = rng.uniform(0.1, 5.0, size=2)
            if abs(k1 - k2) < 1e-3:
                continue
            r = classify_regime(Couplings(k1, k2))
            lo, hi = min(k1**2, k2**2), max(k1**2, k2**2)
            assert r.rate**2 + lo == pytest.approx(hi, rel=1e-12)
        r = classify_regime(Couplings(0.7, 0.7))
        assert r.rate**2 + 0.49 == pytest.approx(0.49, rel=1e-12)


class TestVacuum:
    def test_identity_blocks(self):
        m = MomentState(np.eye(3), np.eye(3))
        assert np.array_equal(m.cx, np.eye(3))
        assert np.array_equal(m.cy, np.eye(3))

    def test_uncertainty_product_saturates(self):
        m = MomentState(np.eye(3), np.eye(3))
        for i in range(3):
            assert m.cx[i, i] * m.cy[i, i] == 1.0


#: Complex blocks as an array, as nested lists of Python complex numbers,
#: as a list of numpy rows and as an object array with one complex entry,
#: a Python complex or a numpy complex128 (which numpy would cast to float
#: with only a ComplexWarning).
COMPLEX_KINDS = ("complex", "complex-lists", "complex-rows", "complex-objects",
                 "complex128-objects")


class TestMomentState:
    def test_rejects_asymmetry(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-10
        with pytest.raises(ValueError, match="symmetric"):
            MomentState(bad, np.eye(3))

    def test_rejects_asymmetry_whose_difference_overflows(self):
        # cx[0, 1] - cx[1, 0] overflows to inf, which is asymmetric, with no
        # RuntimeWarning on the way (the suite makes warnings errors).
        bad = np.eye(3)
        bad[0, 1], bad[1, 0] = 1e308, -1e308
        with pytest.raises(ValueError, match="^cx is not symmetric$"):
            MomentState(bad, np.eye(3))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            MomentState(np.eye(2), np.eye(2))

    def test_rejects_nonfinite(self):
        bad = np.eye(3)
        bad[2, 2] = math.inf
        with pytest.raises(ValueError):
            MomentState(np.eye(3), bad)

    def test_blocks_are_readonly(self):
        m = MomentState(np.eye(3), np.eye(3))
        with pytest.raises(ValueError):
            m.cx[0, 0] = 2.0

    def test_propagated_states_validate(self):
        # An exactly propagated state never drops below the vacuum floor,
        # is positive semidefinite, and has equal X and Y variances.
        for c, t in ((HYP, T1), (PER, 0.8), (DEG, 2.0)):
            m = moments_at(c, t)
            for block in (m.cx, m.cy):
                assert np.min(np.diag(block)) >= 1.0 - 1e-12
                assert np.min(np.linalg.eigvalsh(block)) >= -1e-10
            assert np.max(np.abs(np.diag(m.cx) - np.diag(m.cy))) <= 1e-10

    def test_accepts_asymmetry_within_tolerance(self):
        near = np.eye(3)
        near[0, 1] = 5e-15
        for cx, cy in ((near, np.eye(3)), (np.eye(3), near)):
            m = MomentState(cx, cy)
            assert np.array_equal(m.cx, cx) and np.array_equal(m.cy, cy)

    def test_copies_its_inputs(self):
        cx, cy = 2.0 * np.eye(3), 3.0 * np.eye(3)
        m = MomentState(cx, cy)
        cx[0, 0] = cy[0, 0] = 7.0
        assert m.cx[0, 0] == 2.0 and m.cy[0, 0] == 3.0

    def test_accepts_nested_lists_as_readonly_floats(self):
        rows = [[2, 1, 0], [1, 2, 0], [0, 0, 1]]
        m = MomentState(rows, rows)
        for block in (m.cx, m.cy):
            assert block.dtype == float
            assert np.array_equal(block, np.array(rows, dtype=float))
            with pytest.raises(ValueError):
                block[0, 0] = 5.0

    @pytest.mark.parametrize("where", ["first", "second", "both"])
    @pytest.mark.parametrize("kind", ["shape", "nan", "inf", "-inf", "asymmetry",
                                      *COMPLEX_KINDS])
    def test_rejection_messages(self, kind, where):
        cx, cy = _bad_blocks(kind, where)
        name = "cy" if where == "second" else "cx"
        with pytest.raises(ValueError, match=_message(kind, name)):
            MomentState(cx, cy)

    def test_finiteness_of_both_blocks_comes_before_symmetry(self):
        asym, _ = _bad_blocks("asymmetry", "first")
        _, nonfinite = _bad_blocks("nan", "second")
        with pytest.raises(ValueError, match="^cy contains non-finite entries$"):
            MomentState(asym, nonfinite)

    def test_rows_is_a_declared_field_outside_the_repr(self):
        m = moments_at(HYP, T1)
        assert "rows" in [f.name for f in dataclasses.fields(MomentState)]
        assert "rows" not in repr(m)
        assert repr(m) == repr(MomentState(m.cx, m.cy))

    def test_states_from_blocks_carry_no_rows(self):
        m = moments_at(HYP, T1)
        assert m.rows is not None
        for other in (MomentState(m.cx, m.cy), dataclasses.replace(m),
                      dataclasses.replace(m, cy=m.cx), mc_moments(HYP, T1, 1000, 3)):
            assert other.rows is None
        with pytest.raises(ValueError):
            dataclasses.replace(m, rows=m.rows)


def _bad_blocks(kind, where):
    """(first, second) with a fault of the given kind in the first, the
    second or both blocks, the other left the identity."""
    if kind in ("complex-objects", "complex128-objects"):
        bad = np.eye(3).astype(object)
        bad[0, 0] = 1 + 1j if kind == "complex-objects" else np.complex128(1 + 1j)
    elif kind in COMPLEX_KINDS:
        bad = np.eye(3) * (1 + 1j)
        bad = {"complex": bad, "complex-lists": bad.tolist(),
               "complex-rows": list(bad)}[kind]
    elif kind == "shape":
        bad = np.eye(2)
    else:
        bad = np.eye(3)
        bad[1, 2] = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                     "asymmetry": 1e-10}[kind]
        if kind in ("inf", "-inf"):
            bad[2, 1] = bad[1, 2]
    return (bad if where != "second" else np.eye(3),
            bad if where != "first" else np.eye(3))


def _message(kind, name):
    if kind in COMPLEX_KINDS:
        return f"^{name} has complex entries$"
    if kind == "shape":
        return rf"^{name} must be a 3x3 matrix, got shape \(2, 2\)$"
    if kind == "asymmetry":
        return f"^{name} is not symmetric$"
    return f"^{name} contains non-finite entries$"


class TestPropagatorPair:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            PropagatorPair(np.eye(3), -1.0)

    def test_negative_zero_time_is_positive_zero(self):
        assert math.copysign(1.0, PropagatorPair(np.eye(3), -0.0).t) == 1.0

    def test_symplectic_defect_of_identity(self):
        pair = PropagatorPair(np.eye(3), 0.0)
        assert pair.symplectic_defect() == 0.0

    def test_accepts_asymmetric_blocks_and_copies_them(self):
        mx, _ = _bad_blocks("asymmetry", "first")
        pair = PropagatorPair(mx, 0.5)
        mx[1, 2] = 9.0
        assert pair.mx[1, 2] == 1e-10 and pair.mx[2, 1] == 0.0
        # The Y block is derived, S mx S, and cannot be written either.
        assert pair.my.tobytes() == (pair.mx * _FLIP).tobytes()
        assert pair.my[1, 2] == 1e-10 and pair.my[0, 1] == 0.0
        for block in (pair.mx, pair.my):
            with pytest.raises(ValueError):
                block[0, 0] = 5.0
        assert pair.my[0, 0] == 1.0

    @pytest.mark.parametrize("where", ["first", "both"])
    @pytest.mark.parametrize("kind", ["shape", "nan", "inf", "-inf", *COMPLEX_KINDS])
    def test_rejection_messages(self, kind, where):
        mx, _ = _bad_blocks(kind, where)
        # The block is checked before the time.
        with pytest.raises(ValueError, match=_message(kind, "mx")):
            PropagatorPair(mx, -1.0)

    def test_has_no_y_block_field(self):
        assert [f.name for f in dataclasses.fields(PropagatorPair)] == ["mx", "t"]
        with pytest.raises(TypeError):
            PropagatorPair(np.eye(3), np.eye(3), 0.0)

    def test_stores_a_python_float_time(self):
        t = PropagatorPair(np.eye(3), np.float32(0.5)).t
        assert type(t) is float and t == 0.5

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_time_message(self, t):
        with pytest.raises(ValueError, match="^t must be finite and >= 0, got"):
            PropagatorPair(np.eye(3), t)


def _report(**overrides):
    fields = dict(
        t=0.0,
        sign=Sign.PLUS,
        vlf_raw=VlfTriple(5.0, 5.0, 5.0),
        vlf_opt=VlfTriple(4.0, 4.0, 4.0),
        gains=VlfGains(0.0, 0.0, 0.0),
        obr_single=ObrSingles(1.0, 1.0, 1.0),
        obr_pair=ObrPairs(4.0, 4.0, 4.0),
    )
    fields.update(overrides)
    return CriteriaReport(**fields)


class TestCriteriaReportFlags:
    def test_boundary_report_has_no_flags(self):
        rep = _report()
        assert not rep.vlf_flag
        assert not rep.obr_single_flag
        assert not rep.obr_pair_flag

    def test_two_vlf_violations_suffice(self):
        rep = _report(vlf_opt=VlfTriple(3.0, 3.5, 4.0))
        assert rep.vlf_flag
        rep = _report(vlf_opt=VlfTriple(3.0, 4.0, 4.0))
        assert not rep.vlf_flag

    def test_obr_flags_need_all_three(self):
        assert _report(obr_single=ObrSingles(0.5, 0.9, 0.99)).obr_single_flag
        assert not _report(obr_single=ObrSingles(0.5, 0.9, 1.0)).obr_single_flag
        assert _report(obr_pair=ObrPairs(3.9, 0.1, 2.0)).obr_pair_flag
        assert not _report(obr_pair=ObrPairs(3.9, 0.1, 4.0)).obr_pair_flag

    def test_threshold_noise_does_not_certify(self):
        rep = _report(
            obr_single=ObrSingles(0.5, 1.0 - 1e-14, 1.0 - 1e-13),
            obr_pair=ObrPairs(4.0 - 1e-12, 1.0, 1.0),
        )
        assert not rep.obr_single_flag
        assert not rep.obr_pair_flag


class TestCriteriaReportFromValues:
    def test_matches_the_keyword_report(self):
        built = _report(t=1.5, sign=Sign.MINUS, gains=VlfGains(0.5, -0.25, 2.0),
                        vlf_opt=VlfTriple(3.0, 3.5, 4.0),
                        obr_single=ObrSingles(0.5, 0.9, 0.99))
        rep = CriteriaReport.from_values(1.5, Sign.MINUS, list(built.values()))
        assert rep == built and hash(rep) == hash(built) and repr(rep) == repr(built)
        for name, kind in (("vlf_raw", VlfTriple), ("vlf_opt", VlfTriple),
                           ("gains", VlfGains), ("obr_single", ObrSingles),
                           ("obr_pair", ObrPairs)):
            assert type(getattr(rep, name)) is kind
            assert getattr(rep, name) == getattr(built, name)
        assert type(rep.t) is float
        for flag in ("vlf_flag", "obr_single_flag", "obr_pair_flag"):
            assert getattr(rep, flag) == getattr(built, flag)
        assert rep.vlf_flag and rep.obr_single_flag and not rep.obr_pair_flag

    @pytest.mark.parametrize("count", [0, 14, 16])
    def test_rejects_any_count_but_15(self, count):
        values = [1.0] * count
        with pytest.raises(ValueError, match=f"^expected 15 criterion values, got {count}$"):
            CriteriaReport.from_values(0.0, Sign.PLUS, values)


class TestBlock:
    """_block lays out six independent entries as the symmetric block, and
    _FLIP turns it into S m S: together they give, bit for bit, the (cx, cy)
    pair the package once gathered from (c11, c22, c33, c12, c13, c23,
    -c12, -c13) with the table PAIR_LAYOUT."""

    PAIR_LAYOUT = (((0, 3, 4), (3, 1, 5), (4, 5, 2)), ((0, 6, 7), (6, 1, 5), (7, 5, 2)))
    ENTRIES = [(1.5, -2.0, 3.25, 0.0, -0.0, math.inf),
               (-0.0, 0.0, -math.inf, -math.inf, math.inf, -1e-300),
               (math.nan, 2.0, -math.nan, 5e-324, -1e300, math.nan),
               (4.0, 5.0, 6.0, math.nan, -math.nan, 0.0)]

    @staticmethod
    def _pair(x):
        gathered = (*x, -x[3], -x[4])
        return np.array([[[gathered[k] for k in row] for row in block]
                         for block in TestBlock.PAIR_LAYOUT])

    def test_floats(self):
        for x in self.ENTRIES:
            cx, cy = self._pair(x)
            assert _block(x).shape == (3, 3)
            assert _block(x).tobytes() == cx.tobytes()
            if not any(math.isnan(v) for v in x):  # IEEE leaves -1.0 * nan's sign open
                assert (_block(x) * _FLIP).tobytes() == cy.tobytes()

    def test_arrays(self):
        stack = _block(tuple(np.array(column) for column in zip(*self.ENTRIES)))
        assert stack.shape == (len(self.ENTRIES), 3, 3)
        assert stack.tobytes() == np.array([self._pair(x)[0] for x in self.ENTRIES]).tobytes()


#: Floats of every IEEE class: any float, or one of the edge values named.
EDGE_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, math.inf, -math.inf,
     math.nan, -math.nan]))


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[EDGE_FLOATS] * 6))
@example((0.0, -0.0, 5e-324, -math.inf, math.nan, -math.nan))
@example((-5e-324, math.inf, -0.0, 2.2250738585072009e-308, 1.0, -1e300))
def test_block_of_floats_is_row_0_of_length_1_arrays(x):
    stack = _block(tuple(np.array([v]) for v in x))
    assert stack.shape == (1, 3, 3)
    assert _block(x).tobytes() == stack[0].tobytes()


#: The independent (i, j) entries of a symmetric 3x3 block, diagonal first.
UPPER = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


@st.composite
def blocks(draw):
    """A 3x3 block as MomentState may get it: finite entries or any, and
    symmetric or with one off-diagonal pair one ulp apart or 0.0 against
    -0.0; as float64 (half the time), complex or object entries, or nested
    lists."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    entries = finite if draw(st.booleans()) else EDGE_FLOATS
    block = np.empty((3, 3))
    for (i, j), v in zip(UPPER, draw(st.tuples(*[entries] * 6))):
        block[i, j] = block[j, i] = v
    i, j = draw(st.sampled_from(UPPER[3:]))
    skew = draw(st.sampled_from(["none", "ulp", "zero-sign"]))
    if skew == "ulp":
        block[j, i] = math.nextafter(block[i, j], math.inf)
    elif skew == "zero-sign":
        block[i, j], block[j, i] = 0.0, -0.0
    kind = draw(st.one_of(st.just("float"),
                          st.sampled_from(["complex", "object", "object-complex", "list"])))
    if kind == "complex":
        return block + 1j * draw(EDGE_FLOATS)
    if kind.startswith("object"):
        block = block.astype(object)
        if kind == "object-complex":
            block[i, j] = complex(block[i, j], draw(EDGE_FLOATS))
        return block
    return block.tolist() if kind == "list" else block


def _outcome(build):
    """The two blocks build() returns, or its ValueError message, and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            cx, cy = build()
        except ValueError as e:
            result = str(e)
        else:
            result = [(a.dtype, a.shape, a.flags.writeable, a.tobytes()) for a in (cx, cy)]
    return result, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=300, deadline=None)
@given(blocks(), blocks())
def test_moment_state_checks_as_block_by_block(cx, cy):
    # MomentState accepts finite, exactly symmetric float blocks in one
    # reduction; every other pair must come out as the block-by-block
    # checks have it: the same arrays, or the same first fault.
    def state():
        m = MomentState(cx, cy)
        return m.cx, m.cy

    def block_by_block():
        x, y = _frozen_matrix(cx, "cx"), _frozen_matrix(cy, "cy")
        with np.errstate(over="ignore"):
            for name, arr in (("cx", x), ("cy", y)):
                if np.max(np.abs(arr - arr.T)) > 1e-14:
                    raise ValueError(f"{name} is not symmetric")
        return x, y

    assert _outcome(state) == _outcome(block_by_block)


class TestEach:
    @pytest.mark.parametrize("x", [1000.0, -1000.0])
    def test_overflow_is_a_signed_infinity(self, x):
        assert _each(math.sinh, x) == math.copysign(math.inf, x)
        got = _each(math.sinh, np.array([x, 0.5, -x]))
        assert got.dtype == float
        assert got.tolist() == [math.copysign(math.inf, x), math.sinh(0.5),
                                math.copysign(math.inf, -x)]

    @pytest.mark.parametrize("x", [1000.0, -1000.0])
    def test_cosh_overflow_is_positive_infinity(self, x):
        assert _each(math.cosh, x) == math.inf
        got = _each(math.cosh, np.array([x, 0.5, -x]))
        assert got.dtype == float
        assert got.tolist() == [math.inf, math.cosh(0.5), math.inf]

    def test_one_libm_call_per_entry(self):
        xs = np.linspace(-30.0, 30.0, 601)
        assert _each(math.sinh, xs).tolist() == [math.sinh(x) for x in xs.tolist()]


class TestSweepResult:
    def test_requires_increasing_taus(self):
        values = np.array([_report().values()] * 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepResult(np.array([0.0, 0.0]), np.array([0.0, 0.0]), values, RunConfig())

    def test_requires_matching_lengths(self):
        values = np.array([_report().values()] * 2)
        taus = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="matching lengths"):
            SweepResult(taus, taus, values, RunConfig())


def _array_values():
    m = moments_at(HYP, T1)
    pair = PropagatorPair(np.eye(3), 0.0)
    values = np.array([_report().values()] * 2)
    sweep = SweepResult(np.array([0.0, 1.0]), np.array([0.0, 1.0]), values, RunConfig())
    return [(m, MomentState(m.cx, m.cy)), (pair, dataclasses.replace(pair)),
            (sweep, dataclasses.replace(sweep))]


@pytest.mark.parametrize("value, twin", _array_values(), ids=["state", "pair", "sweep"])
def test_array_value_types_compare_and_hash_by_identity(value, twin):
    assert value == value and not value != value
    assert value != twin and not value == twin
    assert hash(value) == hash(value)
    assert value in {value} and twin not in {value}

