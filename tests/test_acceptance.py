"""Acceptance gate: every deliverable claim, one test per criterion.

Each test prints a `criterion NN ...: PASS/FAIL` line (visible with
`pytest -s`).  Criterion 03 is split: the optimised sums and both product
families sit exactly on their thresholds at tau = 0, while the unit-gain
sums sit exactly g_k^2 = 1 above the bound 4.  On vacuum every quadrature
has variance 1 and distinct modes are uncorrelated, so
V(X_i - X_j) = 2 and V(Y_i + Y_j + g_k Y_k) = 2 + g_k^2, giving
4 + g_k^2 = 5 with unit gains; only the optimised gain g_k = 0 reaches 4.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from trimode import (
    Couplings,
    MomentState,
    RunConfig,
    VlfGains,
    compare_moments,
    evaluate_all,
    mc_moments,
    moments_at,
    outer_moments,
    propagator_analytic,
    propagator_expm,
    reproduce_figure,
    rk4_propagator,
    run_sweep,
    vlf_gains,
    vlf_value,
)
from trimode.propagator import closed_form_moments
from support import (
    GRID_COUPLINGS,
    HYP,
    OBR1,
    OBR23,
    PER,
    T1,
    V12_OPT,
    V12_RAW,
    rate_of,
)

MC_SEED = 20250808


def announce(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{label}]: {status}{suffix}")


@pytest.fixture(scope="module")
def grid():
    """>= 100 (couplings, t, tau) points spanning both regimes."""
    points = []
    for c in GRID_COUPLINGS:
        r = rate_of(c)
        for tau in np.linspace(0.0, 3.0, 26):
            points.append((c, tau / r, tau))
    assert len(points) >= 100
    return points


@pytest.fixture(scope="module")
def preset_sweeps():
    return {
        "hyp": run_sweep(RunConfig(kappa1=1.2, kappa2=1.0, points=301)),
        "per": run_sweep(RunConfig(kappa1=1.0, kappa2=1.8, points=301)),
    }


def test_criterion_01_oracle_equivalence(grid):
    start = time.perf_counter()
    worst_moments = 0.0
    worst_rk4 = 0.0
    for c, t, tau in grid:
        closed = closed_form_moments(c, t)
        analytic = moments_at(c, t)
        via_expm = outer_moments(propagator_expm(c, t))
        for a, b in ((closed, analytic), (closed, via_expm), (analytic, via_expm)):
            worst_moments = max(worst_moments, compare_moments(a, b, 1e-9).max_rel_err)
        steps = max(1, int(math.ceil(10_000 * tau)))
        via_rk4 = outer_moments(rk4_propagator(c, t, steps))
        worst_rk4 = max(worst_rk4, compare_moments(analytic, via_rk4, 1e-8).max_rel_err)
    elapsed = time.perf_counter() - start
    ok = worst_moments <= 1e-9 and worst_rk4 <= 1e-8 and elapsed < 5.0
    announce(1, "oracle equivalence", ok,
             f"moments {worst_moments:.2e}, rk4 {worst_rk4:.2e}, {elapsed:.2f}s")
    assert worst_moments <= 1e-9
    assert worst_rk4 <= 1e-8
    assert elapsed < 5.0


def test_criterion_02_symplectic_identity(grid):
    worst = 0.0
    for c, t, _ in grid:
        worst = max(worst, propagator_analytic(c, t).symplectic_defect())
        worst = max(worst, propagator_expm(c, t).symplectic_defect())
    for t in np.linspace(0.0, 3.0, 26):
        worst = max(worst, propagator_analytic(Couplings(1.0, 1.0), t).symplectic_defect())
        worst = max(worst, propagator_expm(Couplings(1.0, 1.0), t).symplectic_defect())
    ok = worst <= 1e-10
    announce(2, "symplectic identity", ok, f"worst defect {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_03_boundary_exactness():
    rep = evaluate_all(MomentState(np.eye(3), np.eye(3)), 0.0)
    devs = {
        "vlf_opt": max(abs(v - 4.0) for v in rep.vlf_opt),
        "obr_single": max(abs(v - 1.0) for v in rep.obr_single),
        "obr_pair": max(abs(v - 4.0) for v in rep.obr_pair),
    }
    worst = max(devs.values())
    ok = worst <= 1e-12
    announce(3, "boundary exactness (optimised sums, products)", ok,
             f"worst deviation {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_03_boundary_exactness_raw_sums():
    """Unit-gain sums at tau = 0 against their vacuum value 4 + g_k^2.

    Vacuum quadratures have unit variance and no cross-mode correlations,
    so V(X_i - X_j) = 1 + 1 and V(Y_i + Y_j + g_k Y_k) = 1 + 1 + g_k^2.
    With the unit gain g_k = 1 each raw sum is 2 + 3 = 5: exactly g_k^2
    above the separability bound 4, so no raw sum reads as a violation.
    """
    vacuum_variance = 1.0
    unit_gain = 1.0
    x_part = 2 * vacuum_variance
    y_part = (2 + unit_gain**2) * vacuum_variance
    expected = x_part + y_part
    assert expected == 4.0 + unit_gain**2

    rep = evaluate_all(MomentState(np.eye(3), np.eye(3)), 0.0)
    worst = max(abs(v - expected) for v in rep.vlf_raw)
    above_bound = all(v >= 4.0 for v in rep.vlf_raw)
    ok = worst <= 1e-12 and above_bound
    announce(3, "boundary exactness (raw sums)", ok,
             f"raw sums {tuple(rep.vlf_raw)} vs 4 + g^2 = {expected}, "
             f"deviation {worst:.2e}")
    assert worst <= 1e-12, (
        f"unit-gain sums should equal 2 + (2 + g^2) = {expected} on vacuum"
    )
    assert above_bound, "a unit-gain sum at tau = 0 falls below the bound 4"


def test_criterion_04_single_mode_products(preset_sweeps):
    worst_unit = 0.0
    found_below = {}
    for name, sweep in preset_sweeps.items():
        below = 0
        for tau, rep in zip(sweep.taus, sweep.reports):
            if tau == 0.0:
                continue
            worst_unit = max(worst_unit, abs(rep.obr_single.obr2 - 1.0))
            worst_unit = max(worst_unit, abs(rep.obr_single.obr3 - 1.0))
            if rep.obr_single.obr1 < 1.0 - 1e-10:
                below += 1
        found_below[name] = below

    # witness at Omega * t = 1 against the frozen independent oracle value
    pipeline = evaluate_all(moments_at(HYP, T1), T1).obr_single.obr1
    rel_closed = abs(pipeline - OBR1) / OBR1
    sampled = evaluate_all(mc_moments(HYP, T1, 10**6, MC_SEED), T1).obr_single.obr1
    rel_mc = abs(pipeline - sampled) / pipeline

    ok = (
        worst_unit <= 1e-10
        and all(n > 0 for n in found_below.values())
        and rel_closed <= 1e-3
        and rel_mc <= 1e-2
    )
    announce(4, "single-mode products", ok,
             f"|obr2,3 - 1| <= {worst_unit:.2e}, obr1 ~ {pipeline:.4f}, "
             f"oracle dev {rel_closed:.1e}, mc dev {rel_mc:.1e}")
    assert worst_unit <= 1e-10
    assert all(n > 0 for n in found_below.values())
    assert rel_closed <= 1e-3
    assert rel_mc <= 1e-2


def test_criterion_05_pair_products(preset_sweeps):
    worst = -np.inf
    for sweep in preset_sweeps.values():
        for tau, rep in zip(sweep.taus, sweep.reports):
            if tau <= 0.01:
                continue
            worst = max(worst, max(rep.obr_pair))
    pipeline = evaluate_all(moments_at(HYP, T1), T1).obr_pair.obr23
    rel_closed = abs(pipeline - OBR23) / OBR23
    sampled = evaluate_all(mc_moments(HYP, T1, 10**6, MC_SEED), T1).obr_pair.obr23
    rel_mc = abs(pipeline - sampled) / pipeline
    ok = worst < 4.0 and rel_closed <= 1e-3 and rel_mc <= 1e-2
    announce(5, "pair products", ok,
             f"closest approach 4 - {4.0 - worst:.2e}, obr23 ~ {pipeline:.4f}, "
             f"oracle dev {rel_closed:.1e}, mc dev {rel_mc:.1e}")
    assert worst < 4.0
    assert rel_closed <= 1e-3
    assert rel_mc <= 1e-2


def test_criterion_06_optimisation_widens_violations(preset_sweeps):
    for name, sweep in preset_sweeps.items():
        raw = np.array([tuple(r.vlf_raw) for r in sweep.reports])
        opt = np.array([tuple(r.vlf_opt) for r in sweep.reports])
        assert np.all(opt <= raw + 1e-12), name
        raw_counts = (raw < 4.0).sum(axis=0)
        opt_counts = (opt < 4.0).sum(axis=0)
        assert np.all(opt_counts > raw_counts), (name, raw_counts, opt_counts)

    rep = evaluate_all(moments_at(HYP, T1), T1)
    rel_opt = abs(rep.vlf_opt.v12 - V12_OPT) / V12_OPT
    rel_raw = abs(rep.vlf_raw.v12 - V12_RAW) / V12_RAW
    ok = rel_opt <= 1e-3 and rel_raw <= 1e-3
    announce(6, "optimised sums widen violations", ok,
             f"v12 opt ~ {rep.vlf_opt.v12:.4f} raw ~ {rep.vlf_raw.v12:.4f}, "
             f"oracle devs {rel_opt:.1e}/{rel_raw:.1e}")
    assert rel_opt <= 1e-3
    assert rel_raw <= 1e-3


def test_criterion_07_gain_optimality():
    rng = np.random.default_rng(1234)
    states = [
        (moments_at(HYP, T1), T1),
        (moments_at(PER, 1.0 / rate_of(PER)), 1.0),
        (moments_at(Couplings(2.0, 1.0), 0.8), 0.8),
        (moments_at(Couplings(1.0, 2.0), 1.1), 1.1),
    ]
    trials = 0
    worst_gain = 0.0
    for m, _ in states:
        g = vlf_gains(m)
        base = {p: vlf_value(m, p, g) for p in ((1, 2), (1, 3), (2, 3))}
        for _ in range(250):
            trials += 1
            d = rng.uniform(-0.1, 0.1, size=3)
            bumped = VlfGains(g.g1 + d[0], g.g2 + d[1], g.g3 + d[2])
            for pair, value in base.items():
                drop = value - vlf_value(m, pair, bumped)
                worst_gain = max(worst_gain, drop)
    ok = trials >= 1000 and worst_gain <= 1e-12
    announce(7, "gain optimality", ok,
             f"{trials} trials, worst decrease {worst_gain:.2e}")
    assert trials >= 1000
    assert worst_gain <= 1e-12


def test_criterion_08_monte_carlo_consistency():
    start = time.perf_counter()
    analytic = moments_at(HYP, T1)
    sampled = mc_moments(HYP, T1, 10**6, MC_SEED)
    worst = compare_moments(analytic, sampled, 1e-2).max_rel_err

    ns = (10**4, 10**5, 10**6)
    mean_abs = []
    for n in ns:
        errors = [
            abs(mc_moments(HYP, T1, n, 1000 + s).cx[0, 0] - analytic.cx[0, 0])
            for s in range(32)
        ]
        mean_abs.append(np.mean(errors))
    slope = np.polyfit(np.log(ns), np.log(mean_abs), 1)[0]
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-2 and -0.6 <= slope <= -0.4 and elapsed < 30.0
    announce(8, "monte carlo consistency", ok,
             f"worst rel {worst:.2e}, scaling exponent {slope:.3f}, {elapsed:.1f}s")
    assert worst <= 1e-2
    assert -0.6 <= slope <= -0.4
    assert elapsed < 30.0


def test_criterion_09_periodic_revival():
    xi = rate_of(PER)
    worst = 0.0
    for tau in np.linspace(0.0, 3.0, 16):
        a = moments_at(PER, tau / xi)
        b = moments_at(PER, (tau + 2.0 * math.pi) / xi)
        worst = max(worst, compare_moments(a, b, 1e-9).max_rel_err)
    ok = worst <= 1e-9
    announce(9, "periodic revival", ok, f"worst deviation {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_10_degenerate_continuity():
    worst = 0.0
    for ratio in (1.0 + 1e-8, 1.0 - 1e-8):
        c = Couplings(ratio, 1.0)
        for t in np.linspace(0.0, 3.0, 31):
            near = moments_at(c, t)
            exact = outer_moments(propagator_expm(c, t))
            worst = max(worst, compare_moments(exact, near, 1e-6).max_rel_err)
    ok = worst <= 1e-6
    announce(10, "degenerate continuity", ok, f"worst deviation {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_11_figure_determinism(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    mismatches = []
    for which in (1, 2, 3, 4, 5):
        a_csv, _ = reproduce_figure(which, first)
        b_csv, _ = reproduce_figure(which, second)
        if Path(a_csv).read_bytes() != Path(b_csv).read_bytes():
            mismatches.append(which)
    ok = not mismatches
    announce(11, "figure determinism", ok,
             "all byte-identical" if ok else f"mismatches: {mismatches}")
    assert not mismatches
