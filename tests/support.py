"""Shared fixtures: witness points and expected values frozen from an
independent oracle (matrix exponential plus direct formula transcription,
cross-checked against each other to 1e-12 before freezing).
"""

import mpmath as mp
import numpy as np

from trimode import Couplings

# Hyperbolic witness: kappa1 = 1.2, kappa2 = 1.0 at Omega * t = 1.
HYP = Couplings(1.2, 1.0)
OMEGA = 0.6633249580710799
T1 = 1.5075567228888183

MX1 = np.array([
    [2.7773548048498884, -1.4811290040415737, 2.1260189522696114],
    [1.481129004041574, -0.23427417003464512, 1.7716824602246768],
    [2.1260189522696114, -1.7716824602246763, 1.543080634815243],
])
CX1 = np.array([
    [14.427399424045523, 8.227241511954793, 11.809417904575865],
    [8.227241511954793, 5.387486253226369, 6.297816666697201],
    [11.809417904575865, 6.297816666697201, 10.039913170819156],
])
CY1 = np.array([
    [14.427399424045523, -8.227241511954793, -11.809417904575865],
    [-8.227241511954793, 5.387486253226369, 6.297816666697201],
    [-11.809417904575865, 6.297816666697201, 10.039913170819156],
])

VINF_X1 = 0.10105137852715629
OBR1 = 0.010211381102238622
VINFPAIR_X23 = 0.1962769593757372
OBR23 = 0.038524644781784786
OBR13 = 1.405683693669923
OBR12 = 1.2091255590857217
G1 = 1.388792174363484
G2 = 0.35813081548043485
G3 = 0.5489690143833159
V12_X = 3.360402653362307           # V(X1 - X2)
VY_UNIT = 2.3771133484241354        # V(Y1 + Y2 + Y3)
VY12_OPT = 0.3347043541301931       # V(Y1 + Y2 + g3 Y3) at the optimum
V12_RAW = 5.737516001786442
V12_OPT = 3.6951070074925
V13_RAW = 3.225590134137086
V13_OPT = 1.005967078185586
V23_RAW = 5.208879439075259
V23_OPT = 3.0280430500268674

# Periodic witness: kappa1 = 1.0, kappa2 = 1.8 at xi * t = pi / 2.
PER = Couplings(1.0, 1.8)
XI = 1.4966629547095767
T2 = 1.049532442726696

MX2_00 = 1.4464285714285712
CX2 = np.array([
    [3.1843112244897953, 2.324617346938775, 1.9328714816880688],
    [2.324617346938775, 2.2914540816326525, 1.0738174898267048],
    [1.9328714816880688, 1.0738174898267048, 1.8928571428571428],
])
OBR1_P2 = 0.10345930650207238
V12_RAW_P2 = 1.8278103836242106
V12_OPT_P2 = 1.2631882941855985

# Degenerate point kappa1 = kappa2 = 1 at t = 1: the drift is nilpotent and
# the propagator is an exact polynomial.
DEG = Couplings(1.0, 1.0)
MX_DEG = np.array([[1.5, -0.5, 1.0], [0.5, 0.5, 1.0], [1.0, -1.0, 1.0]])
MY_DEG = np.array([[1.5, 0.5, -1.0], [-0.5, 0.5, 1.0], [-1.0, -1.0, 1.0]])

#: Coupling pairs spanning both non-degenerate regimes.
GRID_COUPLINGS = (
    Couplings(1.2, 1.0),
    Couplings(1.0, 1.8),
    Couplings(2.0, 1.0),
    Couplings(1.0, 2.0),
)


def y_drift(c):
    """The Y drift of the paper's equations of motion, dY/dt = y_drift(c) @ Y
    with rows = modes 1..3, written out:

        dY1/dt = -kappa1 * Y3
        dY2/dt =  kappa2 * Y3
        dY3/dt = -kappa1 * Y1 - kappa2 * Y2

    The package states only the X drift and takes every Y block from it by
    S = diag(1, -1, -1); this is the independent reference they are
    checked against."""
    k1, k2 = c.kappa1, c.kappa2
    return np.array([[0.0, 0.0, -k1], [0.0, 0.0, k2], [-k1, -k2, 0.0]])


def rate_of(c):
    return abs(c.kappa1**2 - c.kappa2**2) ** 0.5


def grid_points(n_tau=26, tau_max=3.0):
    """(couplings, t) samples across both regimes, tau = rate * t."""
    points = []
    for c in GRID_COUPLINGS:
        r = rate_of(c)
        for tau in np.linspace(0.0, tau_max, n_tau):
            points.append((c, tau / r, tau))
    return points


def relclose(actual, expected, rtol=1e-12):
    return abs(actual - expected) <= rtol * abs(expected)


def row_outer(m):
    """m @ m.T, entry (i, j) the dot product of rows i and j summed left to
    right."""
    return np.array([[ri[0] * rj[0] + ri[1] * rj[1] + ri[2] * rj[2] for rj in m] for ri in m])


def mp_residual(block, w, v):
    """w'Cw - (w'Cv)^2 / v'Cv of the float entries, at 50 digits: the
    residual variance of w.Q after the best linear estimate from v.Q."""
    with mp.workdps(50):
        c = mp.matrix(block.tolist())
        w, v = mp.matrix(w), mp.matrix(v)
        ww, wv, vv = ((a.T * c * b)[0] for a, b in ((w, w), (w, v), (v, v)))
        return float(ww - wv * wv / vv)
