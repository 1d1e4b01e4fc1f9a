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
from collections.abc import Sequence
from dataclasses import dataclass
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
    "MomentMethod",
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
    "CriteriaTable",
    "SweepResult",
    "classify_regime",
    "vacuum_moments",
    "validate_moment_state",
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

def _where(cond, a, b):
    """a where cond holds, else b; a Python bool picks one whole operand."""
    if isinstance(cond, bool):
        return a if cond else b
    return np.where(cond, a, b)


def _dot(u, v):
    """u . v of two 3-vectors whose entries are floats or equal-shape arrays."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _each(fn, x):
    """fn of a float, or of every entry of an array through the same libm
    call (numpy's own transcendental kernels may round differently); a
    result too large for a float becomes an infinity."""

    def safe(v):
        try:
            return fn(v)
        except OverflowError:
            return math.copysign(math.inf, v)

    if isinstance(x, np.ndarray):
        return np.array([safe(v) for v in x.tolist()], dtype=float)
    return safe(x)


def _check_finite(values, message):
    """ValueError(message) unless every entry of every value is finite."""
    total = 0.0
    for v in values:
        total = total + abs(v)
    if isinstance(total, float):
        finite = math.isfinite(total)
    else:
        finite = np.isfinite(total).all()
    if not finite:
        raise ValueError(message)


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


class MomentMethod(Enum):
    ANALYTIC = "analytic"
    EXPM = "expm"


def _require_finite(name, value):
    if not math.isfinite(value):
        raise InvalidCouplingError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Couplings:
    """Effective interaction strengths (inverse time units), both positive."""

    kappa1: float
    kappa2: float

    def __post_init__(self):
        for name, value in (("kappa1", self.kappa1), ("kappa2", self.kappa2)):
            _require_finite(name, value)
            if value <= 0:
                raise InvalidCouplingError(f"{name} must be positive, got {value!r}")

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
    arr = np.array(value, dtype=float)
    if arr.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PropagatorPair:
    """Linear maps taking initial X and Y quadrature vectors to time t.

    The X block mx and Y block my of any exact propagator satisfy
    mx @ my.T = identity (canonical commutators are preserved); numerical
    integrators only approach that identity at their accuracy level, so it
    is checked by the verification paths rather than enforced here.
    """

    mx: np.ndarray
    my: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "mx", _frozen_matrix(self.mx, "mx"))
        object.__setattr__(self, "my", _frozen_matrix(self.my, "my"))
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"t must be finite and >= 0, got {self.t!r}")

    def symplectic_defect(self):
        """Max-abs deviation of mx @ my.T from the identity."""
        return float(np.max(np.abs(self.mx @ self.my.T - np.eye(3))))


@dataclass(frozen=True)
class MomentState:
    """Symmetric second-moment blocks cx[i][j] = <X_i X_j>, cy[i][j] = <Y_i Y_j>."""

    cx: np.ndarray
    cy: np.ndarray

    def __post_init__(self):
        cx = _frozen_matrix(self.cx, "cx")
        cy = _frozen_matrix(self.cy, "cy")
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
        """A report from the 15 criterion values in CRITERIA order."""
        return cls(
            t=float(t),
            sign=sign,
            vlf_raw=VlfTriple(*values[0:3]),
            vlf_opt=VlfTriple(*values[3:6]),
            gains=VlfGains(*values[6:9]),
            obr_single=ObrSingles(*values[9:12]),
            obr_pair=ObrPairs(*values[12:15]),
        )

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


class CriteriaTable(Sequence):
    """The CriteriaReports of a time grid, stored as one array.

    values has one row per grid point and one column per criterion, in
    CRITERIA order; ts holds the raw times and sign the inference sign of
    every row.  Indexing builds a CriteriaReport on demand.
    """

    def __init__(self, ts, values, sign):
        ts = np.array(ts, dtype=float)
        values = np.array(values, dtype=float).reshape(len(ts), len(CRITERIA))
        ts.setflags(write=False)
        values.setflags(write=False)
        self.ts = ts
        self.values = values
        self.sign = sign

    def __len__(self):
        return len(self.ts)

    def __getitem__(self, index):
        return CriteriaReport.from_values(
            self.ts[index], self.sign, self.values[index].tolist()
        )

    def __iter__(self):
        for t, row in zip(self.ts.tolist(), self.values.tolist()):
            yield CriteriaReport.from_values(t, self.sign, row)


@dataclass(frozen=True)
class SweepResult:
    """Criteria reports on a strictly increasing dimensionless time grid.

    reports is a CriteriaTable, whose array the CSV writers read directly.
    meta is the RunConfig that produced the sweep.
    """

    taus: np.ndarray
    reports: CriteriaTable
    meta: object

    def __post_init__(self):
        taus = np.array(self.taus, dtype=float)
        if taus.ndim != 1 or len(taus) != len(self.reports):
            raise ValueError("taus and reports must have matching lengths")
        if np.any(np.diff(taus) <= 0):
            raise ValueError("taus must be strictly increasing")
        taus.setflags(write=False)
        object.__setattr__(self, "taus", taus)


def classify_regime(c, tol=REGIME_TOL):
    """Classify couplings as hyperbolic, periodic or degenerate.

    Degenerate means |kappa1^2 - kappa2^2| <= tol * max(kappa1^2, kappa2^2);
    the returned rate is 0 there and sqrt(|kappa1^2 - kappa2^2|) otherwise.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    gap = c.kappa1 * c.kappa1 - c.kappa2 * c.kappa2
    scale = max(c.kappa1 * c.kappa1, c.kappa2 * c.kappa2)
    if abs(gap) <= tol * scale:
        return Regime(RegimeKind.DEGENERATE, 0.0)
    if gap > 0:
        return Regime(RegimeKind.HYPERBOLIC, math.sqrt(gap))
    return Regime(RegimeKind.PERIODIC, math.sqrt(-gap))


def vacuum_moments():
    """Initial vacuum state: identity moment blocks."""
    return MomentState(np.eye(3), np.eye(3))


def validate_moment_state(m, *, floor_tol=1e-12, parity_tol=1e-10, psd_tol=1e-10):
    """Check the physical invariants an exactly propagated state must satisfy.

    Raises ValueError when a diagonal drops below the vacuum floor, the X
    and Y variances disagree, or a block has an eigenvalue below -psd_tol.
    Statistical estimates (finite Monte Carlo samples) fluctuate around
    these properties and should not be passed through this check.
    """
    for name, arr in (("cx", m.cx), ("cy", m.cy)):
        if np.min(np.diag(arr)) < 1.0 - floor_tol:
            raise ValueError(f"{name} diagonal below the vacuum floor: {np.diag(arr)}")
        if np.min(np.linalg.eigvalsh(arr)) < -psd_tol:
            raise ValueError(f"{name} is not positive semidefinite")
    if np.max(np.abs(np.diag(m.cx) - np.diag(m.cy))) > parity_tol:
        raise ValueError("cx and cy diagonals disagree")
