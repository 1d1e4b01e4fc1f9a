"""The CSV body encoder: byte for byte the text of '%.17g' per value.

sweep._csv_body lays most values out in numpy and sends the rest through
sweep._scalar_fields.  The reference here formats every value on its own;
it lives in the tests so that the program has one way to write a table.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import trimode.sweep
from trimode import RunConfig, run_sweep
from trimode.sweep import _BLOCK_ROWS, _csv_body


def reference(table):
    """'%.17g' of each value, joined with ',' and each row ended with '\\n'."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


def assert_encodes(values, columns=1):
    table = np.asarray(values, dtype=np.float64).reshape(-1, columns)
    assert _csv_body(table) == reference(table)


def _neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


def _edge_values():
    values = []
    for j in range(-20, 21):
        values += _neighbours(10.0 ** j)
    values += _neighbours(1e-4) + _neighbours(1e16)
    # Every binade edge from below 1e-4 to above 1e16: where the decimal
    # exponent is read off the binary one.
    for j in range(-14, 55):
        values += _neighbours(2.0 ** j)
    values += [1200.0, 10.0, 100.5, 1e15 + 0.5, 9999999999999998.0, 0.5, 1.0, 3.0]
    # A point exactly when not whole, and whole values ending in 0 sent
    # through _scalar_fields: values next to 2**52 and 2**53, where the
    # last fractions and then the odd integers end, and whole multiples
    # of ten up to the largest below 1e16.
    values += [4503599627370495.5, 4503599627370494.5, 2.0 ** 52 - 1, 2.0 ** 52 + 1,
               2.0 ** 53 - 2, 2.0 ** 53 - 1, 2.0 ** 53 + 2, 2.0 ** 53 + 4]
    values += [float(m * 10 ** k) for k in range(1, 16) for m in (1, 3, 99, 123)
               if m * 10 ** k < 10 ** 16] + [9999999999999990.0, 9999999999999980.0]
    values += [float(v) for v in range(10 ** 16 - 20, 10 ** 16, 2)]
    values += [-0.0, 0.0, math.nan, math.inf, -math.inf]
    values += [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    return values


EDGES = _edge_values()


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_edge_values(sign):
    assert_encodes([sign * v for v in EDGES])


def test_decimal_exponent_is_exact_on_every_binade():
    # A binade [2**(b-1), 2**b) spans a factor 2 < 10, so the encoder's
    # floor((b - 1) log10 2) must be the E with 10**E <= 2**(b-1) < 10**(E+1)
    # on every binade in [2**-14, 2**54), and the entry of _POW10 it compares
    # with must be the smallest double >= its power of ten.
    for b in range(-13, 55):
        e = int(np.floor((b - 1) * trimode.sweep._LOG10_2))
        assert Fraction(10) ** e <= Fraction(2) ** (b - 1) < Fraction(10) ** (e + 1)
    for j, x in enumerate(trimode.sweep._POW10.tolist()):
        assert Fraction(np.nextafter(x, -math.inf)) < Fraction(10) ** (j - 4) <= Fraction(x)


def test_exact_ties_round_half_even():
    # Both lie halfway between two 17-digit decimals.
    table = np.array([[1000000000000000.25, 1000000000000000.75]])
    assert _csv_body(table) == "1000000000000000.2,1000000000000000.8\n" == reference(table)


def test_integers_and_half_integers_of_every_length():
    # Whether a value is whole decides its decimal point and whether it
    # ends in integer zeros, so integers of 1 to 17 digits, some ending in
    # zeros, their half-integers, and both scaled by 10**-k are all checked.
    rng = np.random.default_rng(29)
    n = 26_000
    digits = rng.integers(1, 18, size=n)
    zeros = rng.integers(0, digits)
    head = np.floor(rng.uniform(10.0 ** (digits - zeros - 1), 10.0 ** (digits - zeros)))
    whole = head * 10.0 ** zeros
    values = np.concatenate([whole, whole + 0.5])
    values = np.concatenate([values, values * 10.0 ** -rng.integers(1, 21, size=2 * n)])
    assert values.size >= 10 ** 5
    assert_encodes(values, columns=8)


def test_last_column_negative():
    table = np.array([[0.25, -0.5], [3.0, -1e-3], [1.5, -2e20]])
    assert _csv_body(table) == "0.25,-0.5\n3,-0.001\n1.5,-2e+20\n" == reference(table)


def test_random_bits_across_blocks():
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, size=(2 * _BLOCK_ROWS + 7, 5), dtype=np.uint64)
    table = bits.view(np.float64)
    table[::3] = rng.uniform(-1e3, 1e3, size=table[::3].shape)
    assert_encodes(table, columns=5)


def test_no_rows():
    assert _csv_body(np.empty((0, 16))) == ""


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_any_table(table):
    assert _csv_body(table) == reference(table)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                | st.floats(min_value=-1e-300, max_value=1e-300)
                | st.floats(min_value=1e-5, max_value=1e17), min_size=1, max_size=40))
def test_any_column(values):
    assert_encodes(values)


@pytest.mark.parametrize("kappas", [(1.2, 1.0), (1.0, 1.8), (1.0, 1.0)])
def test_preset_sweeps_stay_vectorised(kappas, monkeypatch):
    # A fallback to '%.17g' per entry would keep every byte and lose the
    # speed, so the entries sent through the scalar branch are recorded:
    # exactly those whose own '%.17g' text is in exponent form, nan or inf,
    # of |x| >= 1e16, or an integer text ending in 0, under 2 % of them.
    sent = []

    def recording(values):
        sent.append(values.copy())
        return scalar_fields(values)

    scalar_fields = trimode.sweep._scalar_fields
    monkeypatch.setattr(trimode.sweep, "_scalar_fields", recording)
    result = run_sweep(RunConfig(kappa1=kappas[0], kappa2=kappas[1], points=1001))
    table = np.column_stack([result.taus, result.values])
    assert _csv_body(table) == reference(table)

    def scalar(v):
        text = "%.17g" % v
        return ("e" in text or not math.isfinite(v) or abs(v) >= 1e16
                or text.lstrip("-").isdigit() and text.endswith("0"))

    entries = table.ravel()
    expected = entries[[scalar(v) for v in entries.tolist()]]
    assert np.concatenate(sent).tobytes() == expected.tobytes()
    assert expected.size < 0.02 * table.size
