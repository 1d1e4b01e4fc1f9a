"""Shared data model: couplings, regimes, propagators, moments and criteria records.

Conventions used throughout the package:

* quadratures X = a + a^dag, Y = -i(a - a^dag), so a vacuum mode has
  V(X) = V(Y) = 1 and the uncertainty product saturates at 1;
* three modes, indexed 1..3 in all public interfaces;
* means vanish identically (vacuum inputs, linear dynamics), so every
  second moment is already a variance or covariance;
* X and Y blocks never mix, hence moments are stored as two symmetric
  3x3 blocks and no X-Y cross block exists.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "REGIME_TOL",
    "FLAG_MARGIN",
    "InvalidCouplingError",
    "RegimeError",
    "RegimeKind",
    "Quadrature",
    "Sign",
    "TauConvention",
    "Couplings",
    "Regime",
    "PropagatorPair",
    "MomentState",
    "VlfTriple",
    "VlfGains",
    "ObrSingles",
    "ObrPairs",
    "CRITERIA",
    "CriteriaReport",
    "SweepResult",
    "classify_regime",
]

#: Relative tolerance on |kappa1^2 - kappa2^2| below which the couplings
#: count as degenerate.  It picks the time scale (the rate convention falls
#: back to max(kappa1, kappa2) there) and guards closed_form_moments, whose
#: forms divide by rate^3 and rate^4; the propagator itself is exact for
#: every gap and never consults it.
REGIME_TOL = 1e-9

#: Margin below a criterion threshold before a violation counts as evidence.
#: Some products sit exactly on their threshold analytically, so rounding
#: noise of order 1e-14 must not flip an entanglement flag.
FLAG_MARGIN = 1e-10

#: Criterion names in the order the criteria core returns them and the sweep
#: CSV lists them after its tau column.
CRITERIA = (
    "v12_raw", "v13_raw", "v23_raw",
    "v12_opt", "v13_opt", "v23_opt",
    "g1", "g2", "g3",
    "obr1", "obr2", "obr3",
    "obr23", "obr13", "obr12",
)


# Entrywise arithmetic shared by the two forms of the core: a batch of one
# as Python floats, a sweep as float64 arrays.  Plain +, -, *, / round the
# same way in both, so every helper here keeps the two bit-for-bit equal.

def _dot(u, v):
    """u . v of two 3-vectors whose entries are floats or equal-shape arrays."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _libm(fn, v):
    """fn(v) of a float as IEEE has it: a result too large for a float is
    +inf for the even cosh and an infinity signed like v for the others,
    and sin or cos of an infinite v is nan."""
    try:
        return fn(v)
    except OverflowError:
        return math.inf if fn is math.cosh else math.copysign(math.inf, v)
    except ValueError:
        if math.isinf(v):
            return math.nan
        raise


def _each(fn, x):
    """fn of a float, or of every entry of a 1-D array through the same libm
    call.  numpy's own float64 kernels round differently and are chosen
    per CPU: np.sinh with AVX-512 differs from math.sinh on about one
    argument in eight, and not at all with it disabled, so output bytes
    would depend on the machine.  An array is mapped at C level, and entry
    by entry through _libm only when an entry overflows or leaves fn's domain."""
    if isinstance(x, np.ndarray):
        values = x.tolist()
        try:
            return np.fromiter(map(fn, values), float, len(values))
        except (OverflowError, ValueError):
            return np.array([_libm(fn, v) for v in values], dtype=float)
    return _libm(fn, x)


def _check_finite(values, message):
    """ValueError(message) unless every entry of every value is finite:
    0 * v is 0 for a finite entry and nan for any other, so sums never overflow."""
    total = 0.0
    for v in values:
        total = total + 0.0 * v
    if isinstance(total, np.ndarray):
        total = total.sum()
    if not math.isfinite(total):
        raise ValueError(message)


def _is_int(x):
    """Whether x is a Python or numpy integer, and not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x):
    """Whether x is a real number (a numbers.Real), and not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _row_moments(rows):
    """The six independent entries (c11, c22, c33, c12, c13, c23) of the Gram
    matrix cx_ij = r_i . r_j of three rows; ValueError when they overflow."""
    r1, r2, r3 = rows
    x = (_dot(r1, r1), _dot(r2, r2), _dot(r3, r3),
         _dot(r1, r2), _dot(r1, r3), _dot(r2, r3))
    _check_finite(x, "second moments overflow double precision; choose a smaller tau")
    return x


#: Where each entry of a symmetric 3x3 block sits in its six independent
#: entries (c11, c22, c33, c12, c13, c23).
_BLOCK_INDEX = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])

#: S m S entrywise, S = diag(1, -1, -1): the exact sign flips that turn an
#: X block, a propagator mx or moments cx, into its Y block.
_FLIP = np.array([[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])


def _block(x):
    """The symmetric block of six independent entries: a (3, 3) array for
    floats, an (..., 3, 3) stack over the reversed axes of arrays."""
    x = np.array(x)
    # A plain index is 2.5x faster on six floats; no form beat this one on stacks.
    return x[_BLOCK_INDEX] if x.ndim == 1 else x.T[..., _BLOCK_INDEX]


def _check_time(value, name="t"):
    """The time value, called name, as a float, +0.0 for -0.0; ValueError
    unless it is a real number but a bool, finite and >= 0."""
    if not (isinstance(value, float) or _is_real(value)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        t = float(value)
    except OverflowError:  # an int past the double range
        t = math.inf
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return t + 0.0


def _check_count(value, name):
    """The count value, called name, as an int; ValueError unless it is an
    integer but a bool and lies in [1, the largest float]."""
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if value > sys.float_info.max:
        raise ValueError(f"{name} must fit in a float, got {value!r}")
    return int(value)


def _check_seed(value):
    """The Monte Carlo seed value as an int; ValueError unless it is an
    integer but a bool and a Philox key, in [0, 2**128)."""
    if not _is_int(value):
        raise ValueError(f"seed must be an integer, got {value!r}")
    if not 0 <= value < 2**128:
        raise ValueError(f"seed must lie in [0, 2**128), got {value!r}")
    return int(value)


class InvalidCouplingError(ValueError):
    """Couplings outside the valid domain."""


class RegimeError(ValueError):
    """Operation invoked for a coupling regime it does not support."""


class RegimeKind(Enum):
    HYPERBOLIC = "hyperbolic"
    PERIODIC = "periodic"
    DEGENERATE = "degenerate"


class Quadrature(Enum):
    X = "x"
    Y = "y"


class Sign(Enum):
    """Relative sign of the two-mode combination used in inference criteria."""

    PLUS = "plus"
    MINUS = "minus"


class TauConvention(Enum):
    """How the dimensionless sweep time tau maps to raw time t.

    RATE uses tau = rate * t where rate is Omega (hyperbolic) or xi
    (periodic); MAX_KAPPA uses tau = max(kappa1, kappa2) * t.  Degenerate
    couplings have rate 0, so RATE falls back to the MAX_KAPPA scale there.
    """

    RATE = "rate"
    MAX_KAPPA = "maxkappa"


@dataclass(frozen=True)
class Couplings:
    """Effective interaction strengths (inverse time units), each positive
    with a normal double as its square: about 1.5e-154 to 1.3e154.  Any
    real number but a bool is accepted and stored as a Python float."""

    kappa1: float
    kappa2: float

    def __post_init__(self):
        for name, value in (("kappa1", self.kappa1), ("kappa2", self.kappa2)):
            if not _is_real(value):
                raise InvalidCouplingError(f"{name} must be a real number, got {value!r}")
            try:
                kappa = float(value)
            except OverflowError:  # an int past the double range
                raise InvalidCouplingError(f"{name} exceeds the double range") from None
            if not math.isfinite(kappa):
                raise InvalidCouplingError(f"{name} must be finite, got {value!r}")
            if kappa <= 0:
                raise InvalidCouplingError(f"{name} must be positive, got {value!r}")
            if not sys.float_info.min <= kappa * kappa <= sys.float_info.max:
                raise InvalidCouplingError(
                    f"{name} must lie in about [1.5e-154, 1.3e154], where its square "
                    f"is a normal double, got {value!r}")
            object.__setattr__(self, name, kappa)

    @property
    def kappa_max(self):
        return max(self.kappa1, self.kappa2)


@dataclass(frozen=True)
class Regime:
    """Classified dynamical regime with its characteristic rate.

    rate is Omega = sqrt(kappa1^2 - kappa2^2) in the hyperbolic regime,
    xi = sqrt(kappa2^2 - kappa1^2) in the periodic one and 0 when degenerate.
    """

    kind: RegimeKind
    rate: float


def _frozen_matrix(value, name):
    if isinstance(value, np.ndarray) and value.dtype == object:
        # An object array hides its complex entries from iscomplexobj.
        value = value.tolist()
    if np.iscomplexobj(value):
        raise ValueError(f"{name} has complex entries")
    arr = np.array(value, dtype=float)
    if arr.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PropagatorPair:
    """Linear maps taking initial X and Y quadrature vectors to time t.

    Only the X block mx is stored.  The Y drift is S ax S with
    S = diag(1, -1, -1), so every Y block is my = S mx S exactly, derived
    and read-only.  An exact propagator satisfies
    mx @ my.T = identity (canonical commutators are preserved); numerical
    integrators only approach that identity at their accuracy level, so it
    is checked by the verification paths rather than enforced here.
    """

    mx: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "mx", _frozen_matrix(self.mx, "mx"))
        object.__setattr__(self, "t", _check_time(self.t))

    @property
    def my(self):
        """The Y block S mx S, a read-only array."""
        my = self.mx * _FLIP
        my.setflags(write=False)
        return my

    def symplectic_defect(self):
        """Max-abs deviation of mx @ my.T from the identity."""
        return float(np.max(np.abs(self.mx @ self.my.T - np.eye(3))))


@dataclass(frozen=True, eq=False)
class MomentState:
    """Symmetric second-moment blocks cx[i][j] = <X_i X_j>, cy[i][j] = <Y_i Y_j>."""

    cx: np.ndarray
    cy: np.ndarray
    #: X propagator rows (r1, r2, r3, r1 - r2) of a propagated state, else None.
    rows: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def _from_rows(cls, rows):
        """The pure state cx_ij = r_i . r_j, cy = S cx S, that keeps its rows."""
        cx = _block(_row_moments(rows[:3]))
        m = cls(cx, cx * _FLIP)
        object.__setattr__(m, "rows", rows)
        return m

    def __post_init__(self):
        # Finite, exactly symmetric float blocks pass in one reduction over one
        # (2, 3, 3) copy, made without a cast so that a complex block cannot
        # lose its imaginary part on the way.  Anything else is checked block
        # by block: complex entries, the shape and finiteness of cx then cy,
        # then the symmetry of each to 1e-14, so the first fault found names
        # its block.
        try:
            blocks = np.array((self.cx, self.cy))
        except (TypeError, ValueError):
            blocks = None
        if (blocks is not None and blocks.dtype == float
                and blocks.shape == (2, 3, 3)
                and (np.isfinite(blocks) & (blocks == blocks.swapaxes(1, 2))).all()):
            blocks.setflags(write=False)
            cx, cy = blocks[0], blocks[1]
        else:
            cx = _frozen_matrix(self.cx, "cx")
            cy = _frozen_matrix(self.cy, "cy")
            with np.errstate(over="ignore"):  # an overflowing difference is asymmetric
                for name, arr in (("cx", cx), ("cy", cy)):
                    if np.max(np.abs(arr - arr.T)) > 1e-14:
                        raise ValueError(f"{name} is not symmetric")
        object.__setattr__(self, "cx", cx)
        object.__setattr__(self, "cy", cy)


class VlfTriple(NamedTuple):
    """Values of the three pairwise sum criteria (threshold 4 each)."""

    v12: float
    v13: float
    v23: float


class VlfGains(NamedTuple):
    """Gains weighting the third mode in each pairwise sum criterion."""

    g1: float
    g2: float
    g3: float


class ObrSingles(NamedTuple):
    """Single-mode inference products obr_i (EPR evidence when < 1)."""

    obr1: float
    obr2: float
    obr3: float


class ObrPairs(NamedTuple):
    """Combined-mode inference products obr_jk (EPR evidence when < 4)."""

    obr23: float
    obr13: float
    obr12: float


@dataclass(frozen=True)
class CriteriaReport:
    """Every criterion value at one instant.

    vlf_raw uses unit gains, vlf_opt the variance-minimising gains; the obr
    entries are the inference products for single modes (threshold 1) and
    mode pairs (threshold 4).  sign records which two-mode combination
    (j + k or j - k) the inference used.  The flags require violations
    beyond FLAG_MARGIN so that products sitting exactly on a threshold
    never certify entanglement through rounding noise.
    """

    t: float
    sign: Sign
    vlf_raw: VlfTriple
    vlf_opt: VlfTriple
    gains: VlfGains
    obr_single: ObrSingles
    obr_pair: ObrPairs

    @classmethod
    def from_values(cls, t, sign, values):
        """A report at float time t from the 15 values in CRITERIA order; else ValueError."""
        if len(values) != len(CRITERIA):
            raise ValueError(f"expected {len(CRITERIA)} criterion values, got {len(values)}")
        new = tuple.__new__
        return cls(t, sign, new(VlfTriple, values[0:3]), new(VlfTriple, values[3:6]),
                   new(VlfGains, values[6:9]), new(ObrSingles, values[9:12]),
                   new(ObrPairs, values[12:15]))

    def values(self):
        """The 15 criterion values in CRITERIA order."""
        return (*self.vlf_raw, *self.vlf_opt, *self.gains, *self.obr_single,
                *self.obr_pair)

    @property
    def vlf_flag(self):
        """Tripartite entanglement: at least two optimised sums below 4."""
        return sum(v < 4.0 - FLAG_MARGIN for v in self.vlf_opt) >= 2

    @property
    def obr_single_flag(self):
        """Tripartite entanglement: all three single-mode products below 1."""
        return all(v < 1.0 - FLAG_MARGIN for v in self.obr_single)

    @property
    def obr_pair_flag(self):
        """Tripartite entanglement: all three pair products below 4."""
        return all(v < 4.0 - FLAG_MARGIN for v in self.obr_pair)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Every criterion on a strictly increasing dimensionless time grid.

    ts holds the raw times of the taus, and values one row per grid point
    and one column per criterion, in CRITERIA order, which the CSV writers
    read directly.  meta is the RunConfig that produced the sweep; its sign
    is the inference sign of every row.
    """

    taus: np.ndarray
    ts: np.ndarray
    values: np.ndarray
    meta: object

    def __post_init__(self):
        taus = np.array(self.taus, dtype=float)
        ts = np.array(self.ts, dtype=float)
        values = np.array(self.values, dtype=float)
        if (taus.ndim != 1 or ts.shape != taus.shape
                or values.shape != (len(taus), len(CRITERIA))):
            raise ValueError("taus, ts and values must have matching lengths")
        if np.any(np.diff(taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        for name, arr in (("taus", taus), ("ts", ts), ("values", values)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def reports(self):
        """The CriteriaReport of every grid point, built on each read."""
        sign = self.meta.sign
        return [CriteriaReport.from_values(t, sign, row)
                for t, row in zip(self.ts.tolist(), self.values.tolist())]


def classify_regime(c):
    """Classify couplings as hyperbolic, periodic or degenerate.

    Degenerate means |kappa1^2 - kappa2^2| <= REGIME_TOL * max(kappa1^2,
    kappa2^2); the returned rate is 0 there and sqrt(|kappa1^2 - kappa2^2|)
    otherwise.
    """
    gap = c.kappa1 * c.kappa1 - c.kappa2 * c.kappa2
    scale = max(c.kappa1 * c.kappa1, c.kappa2 * c.kappa2)
    if abs(gap) <= REGIME_TOL * scale:
        return Regime(RegimeKind.DEGENERATE, 0.0)
    if gap > 0:
        return Regime(RegimeKind.HYPERBOLIC, math.sqrt(gap))
    return Regime(RegimeKind.PERIODIC, math.sqrt(-gap))
