"""High-precision reference values of every criterion, from mpmath alone.

Moments are the mpmath matrix exponential of the quadrature drift applied
to the vacuum (identity) covariance; every criterion is then a quadratic
form or a Schur complement of those blocks, evaluated at a working
precision of 30 + 4 tau / ln 10 digits.  The moments grow like e^(2 tau)
in the hyperbolic regime and a Schur complement can cancel them down to
e^(-2 tau), so that precision leaves 30 digits after the worst
cancellation.  Nothing here imports or transcribes the trimode package.

Run `python3 bench/reference.py` from the repository root to regenerate
the cached reference of the fixed point set (bench/reference_points.json).
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp

from inputs import fixed_points

#: Criterion order, as in the sweep CSV after its tau column.
CRITERIA = (
    "v12_raw", "v13_raw", "v23_raw",
    "v12_opt", "v13_opt", "v23_opt",
    "g1", "g2", "g3",
    "obr1", "obr2", "obr3",
    "obr23", "obr13", "obr12",
)

#: A program value a passes against a reference b when
#: |a - b| / max(1, |b|) <= TOLERANCE for every criterion.
TOLERANCE = 1e-8

CACHE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference_points.json")

_PAIRS = ((0, 1), (0, 2), (1, 2))


def digits_for(tau):
    return 30 + math.ceil(4.0 * tau / math.log(10.0))


def _vec(i, j=None, sign=1):
    """Weights of q_i, or of q_i + sign * q_j."""
    w = [0, 0, 0]
    w[i] = 1
    if j is not None:
        w[j] = sign
    return mp.matrix(w)


def _form(c, u, w):
    return (u.T * c * w)[0]


def _residual(c, w, v):
    """Variance of w.q left after the best linear estimate from v.q."""
    return _form(c, w, w) - _form(c, w, v) ** 2 / _form(c, v, v)


def _moment_blocks(k1, k2, t):
    """Vacuum-evolved X and Y covariances for the equations of motion

    dX1 =  k1 X3, dX2 = k2 X3, dX3 = k1 X1 - k2 X2,
    dY1 = -k1 Y3, dY2 = k2 Y3, dY3 = -k1 Y1 - k2 Y2.
    """
    ax = mp.matrix([[0, 0, k1], [0, 0, k2], [k1, -k2, 0]])
    ay = mp.matrix([[0, 0, -k1], [0, 0, k2], [-k1, -k2, 0]])
    mx = mp.expm(ax * t)
    my = mp.expm(ay * t)
    return mx * mx.T, my * my.T


def criteria(kappa1, kappa2, t, tau):
    """The 15 criteria, in CRITERIA order, for float inputs taken exactly."""
    with mp.workdps(digits_for(tau)):
        cx, cy = _moment_blocks(mp.mpf(kappa1), mp.mpf(kappa2), mp.mpf(t))
        raw, opt = [], []
        for i, j in _PAIRS:
            k = 3 - i - j
            x_part = _form(cx, _vec(i, j, -1), _vec(i, j, -1))
            y_pair = _vec(i, j)
            raw.append(x_part + _form(cy, y_pair + _vec(k), y_pair + _vec(k)))
            opt.append(x_part + _residual(cy, y_pair, _vec(k)))
        gains = []
        for k in range(3):
            i, j = (m for m in range(3) if m != k)
            gains.append(-_form(cy, _vec(k), _vec(i, j)) / cy[k, k])
        singles = []
        for i in range(3):
            j, k = (m for m in range(3) if m != i)
            rest = _vec(j, k)
            singles.append(_residual(cx, _vec(i), rest) * _residual(cy, _vec(i), rest))
        pairs = []
        for j, k in ((1, 2), (0, 2), (0, 1)):
            i = 3 - j - k
            both = _vec(j, k)
            pairs.append(_residual(cx, both, _vec(i)) * _residual(cy, both, _vec(i)))
        return [float(v) for v in raw + opt + gains + singles + pairs]


def combined_error(values, reference):
    """Worst |a - b| / max(1, |b|) over the criteria of one point."""
    return max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(values, reference))


def _key(p):
    return [p.kind, p.kappa1.hex(), p.kappa2.hex(), p.tau.hex(), p.t.hex()]


def load_cached():
    """Reference of fixed_points(), keyed by the exact inputs.

    Raises ValueError when the cache does not describe the current fixed
    point set, so that a changed generator cannot be checked against stale
    values.
    """
    with open(CACHE_PATH, encoding="utf-8") as fh:
        cached = json.load(fh)
    expected = [_key(p) for p in fixed_points()]
    if [entry["input"] for entry in cached["points"]] != expected:
        raise ValueError(f"{CACHE_PATH} does not match the fixed point set; regenerate it")
    return {tuple(entry["input"]): entry["values"] for entry in cached["points"]}


def cached_or_computed(points):
    """Reference values for each point, from the cache where it has them."""
    cache = load_cached()
    out = []
    for p in points:
        values = cache.get(tuple(_key(p)))
        out.append(values if values is not None else criteria(p.kappa1, p.kappa2, p.t, p.tau))
    return out


def regenerate():
    entries = [
        {"input": _key(p), "values": criteria(p.kappa1, p.kappa2, p.t, p.tau)}
        for p in fixed_points()
    ]
    header = {
        "about": "mpmath reference of bench/inputs.py fixed_points(); "
                 "input = [kind, kappa1, kappa2, tau, t] as float.hex",
        "criteria": list(CRITERIA),
        "mpmath": mp.__version__,
    }
    lines = [json.dumps(header)[:-1] + ', "points": [']
    lines += [json.dumps(e) + "," for e in entries[:-1]] + [json.dumps(entries[-1]), "]}"]
    with open(CACHE_PATH, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(entries)


if __name__ == "__main__":
    print(f"wrote {regenerate()} reference points to {CACHE_PATH}", file=sys.stderr)
