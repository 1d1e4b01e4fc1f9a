"""Numerical verification paths: RK4 integration, Monte Carlo sampling,
structured comparisons.
"""

import math
import re
import subprocess
import sys

import numpy as np
import pytest

import trimode
from trimode import (
    Couplings,
    MomentState,
    Quadrature,
    RegimeKind,
    RunConfig,
    TauConvention,
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
    run_oracle_check,
    time_scale,
)
from support import CX1, HYP, OMEGA, PER, T1, grid_points, rate_of, row_outer, y_drift


class TestRk4:
    def test_identity_at_zero(self):
        pair = rk4_propagator(HYP, 0.0, 1)
        assert np.array_equal(pair.mx, np.eye(3))

    def test_matches_closed_form(self):
        closed = propagator_analytic(HYP, T1)
        pair = rk4_propagator(HYP, T1, 10_000)
        assert np.max(np.abs(pair.mx - closed.mx)) < 1e-8
        assert np.max(np.abs(pair.my - closed.my)) < 1e-8

    def test_fourth_order_convergence(self):
        t = 2.0 / OMEGA
        exact = propagator_expm(HYP, t)
        errors = []
        for steps in (10, 20, 40):
            pair = rk4_propagator(HYP, t, steps)
            errors.append(np.max(np.abs(pair.mx - exact.mx)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 12.0 < coarse / fine < 20.0

    def test_accuracy_over_grid(self):
        for c, t, tau in grid_points(n_tau=6):
            steps = max(1, int(np.ceil(10_000 * tau)))
            a = outer_moments(rk4_propagator(c, t, steps))
            b = moments_at(c, t)
            assert compare_moments(b, a, 1e-8, tau).passed

    def test_commutator_drift_stays_at_accuracy_level(self):
        for c, t, tau in grid_points(n_tau=6):
            steps = max(1, int(np.ceil(10_000 * tau)))
            assert rk4_propagator(c, t, steps).symplectic_defect() < 1e-8

    @pytest.mark.parametrize("steps", [0, -3, 2.5, True, False])
    def test_invalid_steps(self, steps):
        # True is an int, and must not run one step.
        message = f"steps must be a positive integer, got {steps!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            rk4_propagator(HYP, 1.0, steps)

    @pytest.mark.parametrize("steps", [2**1024, 10**400], ids=["2**1024", "10**400"])
    def test_steps_past_the_double_range(self, steps):
        # 1.0 / steps once raised a bare OverflowError.
        message = f"steps must fit in a float, got {steps!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            rk4_propagator(HYP, 1.0, steps)


class TestMcMoments:
    def test_same_seed_bit_identical(self):
        a = mc_moments(HYP, T1, 50_000, seed=123)
        b = mc_moments(HYP, T1, 50_000, seed=123)
        assert np.array_equal(a.cx, b.cx)
        assert np.array_equal(a.cy, b.cy)

    def test_different_seeds_differ(self):
        a = mc_moments(HYP, T1, 10_000, seed=1)
        b = mc_moments(HYP, T1, 10_000, seed=2)
        assert not np.array_equal(a.cx, b.cx)

    def test_close_to_analytic_at_a_million_samples(self):
        m = mc_moments(HYP, T1, 10**6, seed=20250808)
        assert abs(m.cx[0, 0] - CX1[0, 0]) / CX1[0, 0] < 0.01

    def test_statistical_error_bands(self):
        for n, seed in ((10_000, 11), (100_000, 12)):
            m = mc_moments(HYP, T1, n, seed)
            rel = abs(m.cx[0, 0] - CX1[0, 0]) / CX1[0, 0]
            assert rel < 6.0 * np.sqrt(2.0 / n)

    def test_vacuum_statistics_at_zero_time(self):
        m = mc_moments(HYP, 0.0, 200_000, seed=5)
        assert np.max(np.abs(m.cx - np.eye(3))) < 0.02
        assert np.max(np.abs(m.cy - np.eye(3))) < 0.02

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 2**40, 2**63, 2**70])
    def test_finite_and_exactly_symmetric(self, n):
        m = mc_moments(HYP, 0.1, n, seed=9)
        for block in (m.cx, m.cy):
            assert np.all(np.isfinite(block))
            assert np.array_equal(block, block.T)

    def test_cost_does_not_grow_with_the_sample_count(self):
        # 2^40 samples drawn one by one would take hours
        m = mc_moments(HYP, T1, 2**40, seed=9)
        assert compare_moments(moments_at(HYP, T1), m, 1e-4).max_abs_err < 1e-4

    @pytest.mark.parametrize("n", [2, 5])
    def test_entries_follow_the_wishart_law(self, n):
        # n S is Wishart: mean n C and Var(n S_ij) = n (C_ij^2 + C_ii C_jj),
        # for the direct sum (n = 2) and the Bartlett draw (n = 5) alike.
        t = 0.5
        exact = moments_at(HYP, t)
        draws = [mc_moments(HYP, t, n, seed) for seed in range(4000)]
        root_k = np.sqrt(len(draws))
        for quad, c in (("cx", exact.cx), ("cy", exact.cy)):
            ns = n * np.array([getattr(m, quad) for m in draws])
            mean = ns.mean(axis=0)
            dev2 = (ns - mean) ** 2
            var = n * (c * c + np.outer(np.diag(c), np.diag(c)))
            assert np.all(np.abs(mean - n * c) < 5.0 * ns.std(axis=0) / root_k)
            assert np.all(np.abs(dev2.mean(axis=0) - var) < 5.0 * dev2.std(axis=0) / root_k)

    @pytest.mark.parametrize("n", [0, -5, 1.5, True, False])
    def test_invalid_sample_count(self, n):
        # A bool must not reach numpy, which raises a bare TypeError.
        message = f"n must be a positive integer, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mc_moments(HYP, 1.0, n, seed=1)

    @pytest.mark.parametrize("n", [2**1024, 10**400], ids=["2**1024", "10**400"])
    def test_sample_count_past_the_double_range(self, n):
        # The Wishart draw once raised a bare OverflowError.
        message = f"n must fit in a float, got {n!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mc_moments(HYP, 1.0, n, seed=1)

    def test_overflowing_sums_name_the_sample_count_and_moments_tau(self):
        # At t = 1 the analytic moments C are finite and n C is not; at
        # t = 900 C itself overflows, even for one sample.
        message = "samples overflow double precision; choose a smaller sample count"
        with pytest.raises(ValueError, match=re.escape(message)) as info:
            mc_moments(HYP, 1.0, 2**1023, 1)
        assert "tau" not in str(info.value)
        with pytest.raises(ValueError, match="^second moments overflow double precision; "
                                             "choose a smaller tau$"):
            mc_moments(HYP, 900.0, 1, 1)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, np.float64(2.0), "1", None, math.nan])
    def test_seed_must_be_an_integer(self, seed):
        # A float seed must not be truncated to another seed, and the type
        # is checked before the range, which a str or None cannot be
        # compared with.
        message = f"seed must be an integer, got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            mc_moments(HYP, 1.0, 1000, seed)
        mc_moments(HYP, 1.0, 1000, np.int64(1))
        mc_moments(HYP, 1.0, 1000, np.uint64(5))

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_outside_the_philox_key_range(self, seed):
        with pytest.raises(ValueError, match="seed must lie in"):
            mc_moments(HYP, 1.0, 10, seed)
        mc_moments(HYP, 1.0, 10, 2**128 - 1)

    def test_criteria_from_sampled_moments_match_analytic(self):
        analytic = moments_at(HYP, T1)
        rep = evaluate_all(analytic, T1)
        targets = {
            "obr1": rep.obr_single.obr1,
            "obr23": rep.obr_pair.obr23,
            "v12_opt": rep.vlf_opt.v12,
        }
        samples = {key: [] for key in targets}
        for s in range(10):
            m = mc_moments(HYP, T1, 100_000, seed=5000 + s)
            r = evaluate_all(m, T1)
            samples["obr1"].append(r.obr_single.obr1)
            samples["obr23"].append(r.obr_pair.obr23)
            samples["v12_opt"].append(r.vlf_opt.v12)
        for key, values in samples.items():
            values = np.array(values)
            se = values.std(ddof=1) / np.sqrt(len(values))
            assert abs(values.mean() - targets[key]) < 3.0 * se


class TestCompareMoments:
    def test_identical_states(self):
        m = MomentState(np.eye(3), np.eye(3))
        report = compare_moments(m, m, 1e-12)
        assert report.passed
        assert report.max_abs_err == 0.0
        assert report.max_rel_err == 0.0

    @pytest.mark.parametrize("tol", [math.nan, -1e-12, -math.inf, True, "1e-9", None, 1j])
    def test_rejects_a_tolerance_that_is_not_a_real_number_ge_0(self, tol):
        m = MomentState(np.eye(3), np.eye(3))
        with pytest.raises(ValueError, match="tol"):
            compare_moments(m, m, tol)

    @pytest.mark.parametrize("tol", [0, 0.0, 1e-9, math.inf, np.float64(1e-3)])
    def test_any_real_tolerance_ge_0_passes_identical_states(self, tol):
        m = MomentState(np.eye(3), np.eye(3))
        assert compare_moments(m, m, tol).passed

    def test_analytic_paths_agree_at_tight_tolerance(self):
        for c, t, tau in grid_points(n_tau=6):
            a = moments_at(c, t)
            b = outer_moments(propagator_expm(c, t))
            assert compare_moments(a, b, 1e-9, tau).passed

    def test_sampling_noise_fails_tight_tolerance(self):
        analytic = moments_at(HYP, T1)
        sampled = mc_moments(HYP, T1, 10_000, seed=4)
        report = compare_moments(analytic, sampled, 1e-9)
        assert not report.passed

    def test_coarse_integration_fails_tight_tolerance(self):
        analytic = moments_at(HYP, T1)
        coarse = outer_moments(rk4_propagator(HYP, T1, 10))
        assert not compare_moments(analytic, coarse, 1e-9).passed

    def test_worst_entry_is_labelled(self):
        a = MomentState(np.eye(3), np.eye(3))
        cy = np.eye(3)
        cy[1, 2] = cy[2, 1] = 0.5
        b = MomentState(np.eye(3), cy)
        report = compare_moments(a, b, 1e-3, t=2.5)
        quad, i, j, t = report.worst_entry
        assert quad is Quadrature.Y
        assert {i, j} == {1, 2}
        assert t == 2.5
        assert report.max_abs_err == 0.5

    def test_rate_scale_does_not_leak_between_regimes(self):
        a = moments_at(HYP, 1.0 / rate_of(HYP))
        b = moments_at(PER, 1.0 / rate_of(PER))
        assert not compare_moments(a, b, 1e-9).passed


# The oracle one grid point at a time: the matrix exponential in Python
# floats, its moments as row dot products, the comparison per point, RK4
# stepped along the grid in Python floats, and the first worst point kept.

def product(x, y):
    """x @ y of two 3x3 nested lists, entry (i, k) summed left to right."""
    return [[x[i][0] * y[0][k] + x[i][1] * y[1][k] + x[i][2] * y[2][k] for k in range(3)]
            for i in range(3)]


def expm_per_point(a, t):
    """exp(a t) for one drift a and one time t, as _expm forms it: the
    20-term Taylor series of a1 = a 2^-e, ||a1||_1 in [0.5, 1), evaluated
    by Horner at sigma = t 2^(e - s), then squared s times, where s is the
    least count with ||a t||_1 2^-s <= 0.5."""
    rows = a.tolist()
    norm = max(abs(rows[0][j]) + abs(rows[1][j]) + abs(rows[2][j]) for j in range(3))
    e = math.frexp(norm)[1]
    a1 = [[math.ldexp(v, -e) for v in row] for row in rows]
    mantissa, s = math.frexp(max(t * norm / 0.5, 1.0))
    if mantissa == 0.5:
        s -= 1
    sigma = math.ldexp(t, e - s)
    terms = [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]]
    for k in range(1, 21):
        terms.append([[v / k for v in row] for row in product(terms[-1], a1)])
    result = [[v * sigma for v in row] for row in terms[20]]
    for k in range(19, 0, -1):
        result = [[(v + w) * sigma for v, w in zip(row, term)]
                  for row, term in zip(result, terms[k])]
    result = [[v + w for v, w in zip(row, term)] for row, term in zip(result, terms[0])]
    for _ in range(s):
        result = product(result, result)
    return np.array(result)


def rk4_step_matrix(a, h):
    """One classical RK4 step of length h from the identity, in Python
    floats: k1 = a, k2 = a (I + h/2 k1), k3 = a (I + h/2 k2), k4 = a (I + h k3)
    and I + (h/6) (k1 + 2 k2 + 2 k3 + k4)."""
    a = a.tolist()
    eye = np.eye(3).tolist()

    def stage(k, c):
        return product(a, [[e + c * v for e, v in zip(er, kr)] for er, kr in zip(eye, k)])

    k1 = a
    k2 = stage(k1, 0.5 * h)
    k3 = stage(k2, 0.5 * h)
    k4 = stage(k3, h)
    return [[eye[i][j] + (h / 6.0) * (k1[i][j] + 2.0 * k2[i][j] + 2.0 * k3[i][j] + k4[i][j])
             for j in range(3)] for i in range(3)]


def binary_power(z, n):
    """z^n: the product of z^(2^k) over the set bits k of n, lowest first."""
    result, square = None, z
    for bit in reversed(bin(n)[2:]):
        if bit == "1":
            result = square if result is None else product(result, square)
        square = product(square, square)
    return result


def rk4_counts(taus):
    """(n0, m): the steps to the first point and across each interval, in
    Python ints: n0 = max(1, ceil(10^4 tau_0)), and m the least count of at
    least max(1, ceil(10^4 dtau)) that gives every point i at least
    ceil(10^4 tau_i) steps in all."""
    need = [max(1, math.ceil(10_000 * tau)) for tau in taus.tolist()]
    n0 = need[0]
    m = max(1, math.ceil(10_000 * ((taus[-1] - taus[0]) / (len(taus) - 1))))
    while any(n0 + i * m < k for i, k in enumerate(need)):
        m += 1
    return n0, m


def rk4_per_point(a, ts, n0, m):
    """The RK4 blocks of a grid one point at a time, as numpy arrays: the
    first z(t0/n0)^n0, Z = z(dt/m)^m, dt = (t_last - t0) / (N - 1), and
    point i the first times Z^(2^k) for each set bit k of i, lowest first,
    Z^(2^(k+1)) = Z^(2^k) Z^(2^k)."""
    t0 = float(ts[0])
    first = binary_power(rk4_step_matrix(a, t0 / n0), n0)
    squares = [binary_power(rk4_step_matrix(a, float(ts[-1] - ts[0]) / (len(ts) - 1) / m), m)]
    while len(squares) < len(ts).bit_length():
        squares.append(product(squares[-1], squares[-1]))
    for i in range(len(ts)):
        row = first
        for k, square in enumerate(squares):
            if i >> k & 1:
                row = product(row, square)
        yield np.array(row)


def compare_per_point(a, b, tol, t):
    """(max_rel, max_abs, worst_entry, passed) of two (cx, cy) pairs."""
    max_abs = 0.0
    max_rel = 0.0
    worst = (Quadrature.X, 0, 0, t)
    for quad, ma, mb in zip((Quadrature.X, Quadrature.Y), a, b):
        diff = np.abs(ma - mb)
        rel = diff / np.maximum(1.0, np.abs(ma))
        max_abs = max(max_abs, float(diff.max()))
        if float(rel.max()) > max_rel:
            max_rel = float(rel.max())
            i, j = np.unravel_index(int(np.argmax(rel)), rel.shape)
            worst = (quad, int(i), int(j), t)
    return (max_rel, max_abs, worst, max_rel <= tol)


def oracle_per_point(cfg):
    c = cfg.couplings
    ax, ay = drift_matrix(c), y_drift(c)
    scale = time_scale(c, cfg.tau_convention)
    degenerate = classify_regime(c).kind is RegimeKind.DEGENERATE
    names = ["analytic vs expm", "rk4 vs analytic"]
    if not degenerate:
        names += ["closed-form vs analytic", "closed-form vs expm"]
    worst = dict.fromkeys(names)

    def keep(name, report):
        if worst[name] is None or report[0] > worst[name][0]:
            worst[name] = report

    taus = cfg.taus()
    ts = taus / scale
    n0, steps = rk4_counts(taus)
    rk4 = zip(*(rk4_per_point(a, ts, n0, steps) for a in (ax, ay)))
    for tau, (rk4_x, rk4_y) in zip(taus, rk4):
        t = tau / scale
        m = moments_at(c, t)
        analytic = (m.cx, m.cy)
        via_expm = row_outer(expm_per_point(ax, t)), row_outer(expm_per_point(ay, t))
        via_rk4 = row_outer(rk4_x), row_outer(rk4_y)
        keep("analytic vs expm", compare_per_point(analytic, via_expm, 1e-9, tau))
        keep("rk4 vs analytic", compare_per_point(analytic, via_rk4, 1e-8, tau))
        if not degenerate:
            m = closed_form_moments(c, t)
            closed = (m.cx, m.cy)
            keep("closed-form vs analytic", compare_per_point(closed, analytic, 1e-9, tau))
            keep("closed-form vs expm", compare_per_point(closed, via_expm, 1e-9, tau))

    worst["mc vs analytic"] = None
    for idx in sorted({len(taus) // 4, len(taus) // 2, len(taus) - 1}):
        tau = taus[idx]
        if tau <= 0:
            continue
        t = tau / scale
        exact, sampled = moments_at(c, t), mc_moments(c, t, cfg.mc_samples, cfg.seed)
        keep("mc vs analytic",
             compare_per_point((exact.cx, exact.cy), (sampled.cx, sampled.cy), 1e-2, tau))
    return list(worst.items())


#: Grids that mix tau = 0 (no squarings, one RK4 step of length 0) with
#: large tau, odd and even RK4 interval step counts (1 on the smallest
#: grid, 5 10^8 on the longest), grid sizes that are and are not powers of
#: two, a first point past 0, a Monte Carlo failure, the degenerate point
#: and the near-degenerate corridor.
STACKED_GRIDS = [
    dict(points=31),
    dict(tau_max=4.5e-4, points=10),
    dict(kappa1=1.0, kappa2=1.8, tau_max=8.0, points=77),
    dict(kappa1=1.0, kappa2=1.8, tau_max=1e5, points=3),
    dict(kappa1=1.0, kappa2=1.0, points=13),
    dict(points=5, mc_samples=200),
    dict(kappa1=1.0, kappa2=1.0000000011, tau_max=5.0, points=16),
    dict(kappa1=2.0, kappa2=1.0, tau_min=0.5, points=21,
         tau_convention=TauConvention.MAX_KAPPA),
]


class TestStackedOracle:
    @pytest.mark.parametrize("grid", STACKED_GRIDS)
    def test_matches_the_per_point_loop(self, grid):
        cfg = RunConfig(**grid)
        got = run_oracle_check(cfg)
        want = oracle_per_point(cfg)
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, report), (_, (max_rel, max_abs, worst, passed)) in zip(got, want):
            assert report.max_rel_err == max_rel, name
            assert report.max_abs_err == max_abs, name
            assert report.worst_entry == worst, name
            assert report.passed == passed, name

    def test_grids_cover_small_odd_and_even_step_counts(self):
        grids = [RunConfig(**grid).taus() for grid in STACKED_GRIDS]
        n0, m = zip(*map(rk4_counts, grids))
        assert 1 in m and max(m) >= 10**8
        assert any(n > 3 and n % 2 for n in m)
        assert any(n > 3 and not n % 2 for n in m)
        assert max(n0) > 1
        sizes = {len(taus) for taus in grids}
        assert 3 in sizes and any(n & (n - 1) == 0 for n in sizes)

    @pytest.mark.parametrize("grid", STACKED_GRIDS + [dict(tau_min=0.5, tau_max=3.5),
                                                      dict(tau_min=2.0, tau_max=5.0, points=31)])
    def test_every_point_gets_the_rk4_step_density(self, grid, monkeypatch):
        # n0 + i m steps reach point i: z(t0/n0)^n0 reaches the first
        # point and z(dt/m)^m spans each interval.  The last two grids are
        # ones where m = ceil(10^4 dtau) would leave points short by the
        # rounding of tau_i; m may exceed it by one step, no more.
        steps, powers = [], []
        for name, seen in (("_rk4_step", steps), ("_power", powers)):

            def recording(z, k, _seen=seen, _original=getattr(trimode.oracle, name)):
                _seen.append(k)
                return _original(z, k)

            monkeypatch.setattr(trimode.oracle, name, recording)
        cfg = RunConfig(**grid)
        run_oracle_check(cfg)
        taus, density = cfg.taus(), trimode.RK4_STEPS_PER_UNIT_TAU
        ts, n = oracle_times(cfg), len(taus)
        [n0, m] = powers
        assert steps == [float(ts[0]) / n0, float(ts[-1] - ts[0]) / (n - 1) / m]
        assert (n0, m) == rk4_counts(taus)
        for i, tau in enumerate(taus.tolist()):
            assert n0 + i * m >= density * tau
        assert m <= math.ceil(density * ((taus[-1] - taus[0]) / (n - 1))) + 1

    def test_a_failing_run_is_covered(self):
        reports = dict(run_oracle_check(RunConfig(points=5, mc_samples=200)))
        assert not reports["mc vs analytic"].passed

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 1024, 30000, 2**64 + 3])
    def test_rk4_power_is_the_binary_power_bit_for_bit(self, steps):
        t = 1.3
        pair = rk4_propagator(HYP, t, steps)
        for a, m in zip((drift_matrix(HYP), y_drift(HYP)), (pair.mx, pair.my)):
            z = rk4_step_matrix(a, t / steps)
            assert np.array_equal(m, binary_power(z, steps))
            np.testing.assert_allclose(m, np.linalg.matrix_power(np.array(z), steps),
                                       rtol=1e-12, atol=1e-12)

    def test_expm_is_the_per_point_expm_bit_for_bit(self):
        for c, t, _ in grid_points(n_tau=6, tau_max=20.0):
            pair = propagator_expm(c, t)
            for a, m in zip((drift_matrix(c), y_drift(c)), (pair.mx, pair.my)):
                assert np.array_equal(m, expm_per_point(a, t))


def oracle_times(cfg):
    """The times of an oracle run's grid."""
    return cfg.taus() / time_scale(cfg.couplings, cfg.tau_convention)


def mc_per_point(c, t, n, seed):
    """(cx, cy) sampled as mc_moments first drew them: a Philox stream of
    its own per point, one Wishart factor A per block, and each block the
    Gram matrix of the rows of m @ A, divided by n."""
    pair = propagator_analytic(c, t)
    rng = np.random.Generator(np.random.Philox(key=seed))
    return np.array([row_outer(m @ trimode.oracle._scatter(rng, n)) / n
                     for m in (pair.mx, pair.my)])


#: The default grid and an irregular one.
PIN_GRIDS = [dict(), dict(points=997, tau_max=7.3)]
REGIMES = [(1.2, 1.0), (1.0, 1.8), (1.0, 1.0)]


class TestBitIdentity:
    """Work the oracle shares between grid points gives each point exactly
    what a call of its own gives.  Also run on older CPU kernels below."""

    @pytest.mark.parametrize("grid", PIN_GRIDS)
    @pytest.mark.parametrize("kappas", REGIMES)
    def test_rk4_stack_rows_are_the_single_point_propagators(self, kappas, grid):
        cfg = RunConfig(kappa1=kappas[0], kappa2=kappas[1], **grid)
        c, taus, ts = cfg.couplings, cfg.taus(), oracle_times(cfg)
        (n0, m), n = rk4_counts(taus), len(ts)
        ax = drift_matrix(c)
        stack = trimode.oracle._rk4_grid(ax, taus, ts)
        assert stack.shape == (3, 3, n)
        for i, want in enumerate(rk4_per_point(ax, ts, n0, m)):
            assert np.array_equal(stack[..., i], want)
        assert np.array_equal(stack[..., 0], rk4_propagator(c, ts[0], n0).mx)
        # At tau_min = 0 point i is i m steps from the identity, as one
        # power of its own step matrix, up to rounding.
        assert cfg.tau_min == 0
        for i, t in enumerate(ts.tolist()[1:], 1):
            want = rk4_propagator(c, t, i * m).mx
            assert np.abs(stack[..., i] - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 7), (5, 1), (10**6, 1), (2**70, 2**100)])
    @pytest.mark.parametrize("kappas", REGIMES)
    def test_mc_stack_rows_are_mc_moments(self, kappas, n, seed):
        c = Couplings(*kappas)
        ts = oracle_times(RunConfig(kappa1=kappas[0], kappa2=kappas[1]))[[75, 150, 300]]
        mx = np.array([propagator_analytic(c, t).mx for t in ts.tolist()])
        stack = trimode.oracle._mc_blocks(mx, n, seed)
        assert stack.shape == (3, 2, 3, 3)
        for row, t in zip(stack, ts.tolist()):
            m = mc_moments(c, t, n, seed)
            assert np.array_equal(row, [m.cx, m.cy])
            assert np.array_equal(row, mc_per_point(c, t, n, seed))

    @pytest.mark.parametrize("grid", PIN_GRIDS)
    @pytest.mark.parametrize("kappas", REGIMES)
    def test_expm_stack_columns_are_the_single_point_propagators(self, kappas, grid):
        cfg = RunConfig(kappa1=kappas[0], kappa2=kappas[1], **grid)
        c, ts = cfg.couplings, oracle_times(cfg)
        ax = drift_matrix(c)
        stack = trimode.propagator._expm(ax, ts)
        assert stack.shape == (3, 3, len(ts))
        for i, t in enumerate(ts.tolist()):
            assert np.array_equal(stack[..., i], propagator_expm(c, t).mx)
            assert np.array_equal(stack[..., i], expm_per_point(ax, t))

    @pytest.mark.parametrize("fn,sign", [(math.sinh, 1.0), (math.sinh, -1.0), (math.cosh, 1.0),
                                         (math.sin, 1.0), (math.cos, 1.0), (math.log2, 1.0)])
    def test_each_maps_like_the_comprehension(self, fn, sign):
        x = sign * np.random.default_rng(5).uniform(0.0, 700.0, 1000)
        for values in (x, np.append(x, sign * 800.0)):  # the second overflows sinh, cosh
            want = np.array([trimode.core._libm(fn, v) for v in values.tolist()])
            got = trimode.core._each(fn, values)
            assert got.dtype == np.float64
            assert np.array_equal(got, want)


def test_bit_identity_pins_hold_on_older_cpu_kernels():
    # Run TestBitIdentity with numpy's AVX2 and AVX-512 kernels and
    # OpenBLAS's newer matmul kernels off (names this numpy does not know
    # are ignored): the shared work must not lean on a kernel's rounding.
    from test_sweep_cli import CLI_ENV

    env = {**CLI_ENV, "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
           "OPENBLAS_CORETYPE": "Nehalem"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           f"{__file__}::TestBitIdentity"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def count_oracle_work(monkeypatch):
    """Counters of MomentState constructions and of the per-point public
    paths, installed in every trimode module that holds them."""
    counts = dict.fromkeys(
        ("MomentState", "compare_moments", "rk4_propagator", "closed_form_moments",
         "propagator_expm"), 0)
    modules = (trimode, trimode.core, trimode.propagator, trimode.oracle, trimode.sweep)
    for name in list(counts)[1:]:
        original = getattr(trimode, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    init = MomentState.__init__

    def counting_init(self, *args, **kwargs):
        counts["MomentState"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(MomentState, "__init__", counting_init)
    return counts


class TestOracleWork:
    @pytest.mark.parametrize("kappas", [(1.2, 1.0), (1.0, 1.8), (1.0, 1.0)])
    def test_does_not_grow_with_the_grid(self, kappas, monkeypatch):
        counts = count_oracle_work(monkeypatch)
        seen = []
        for points in (11, 301):
            run_oracle_check(RunConfig(kappa1=kappas[0], kappa2=kappas[1], points=points))
            seen.append(dict(counts))
            counts.update(dict.fromkeys(counts, 0))
        assert seen[0] == seen[1]
        assert seen[0]["MomentState"] <= 6

    @pytest.mark.parametrize("kappas", [(1.2, 1.0), (1.0, 1.8), (1.0, 1.0)])
    def test_each_kernel_runs_one_x_stack(self, kappas, monkeypatch):
        # The Y blocks come from the X ones, so the matrix exponential sees
        # one drift and the (N,) time column of an N-point grid, and RK4
        # runs one N-point grid in ceil(log2 N) stacked products, the one
        # at width w appending Z^w to the w points it extends.
        calls = {"_expm": [], "_rk4_grid": [], "_product": []}
        for module, name in ((trimode.oracle, "_expm"), (trimode.oracle, "_rk4_grid"),
                             (trimode.oracle, "_product")):

            def recording(*args, _name=name, _original=getattr(module, name)):
                calls[_name].append(tuple(getattr(a, "shape", a) for a in args))
                return _original(*args)

            monkeypatch.setattr(module, name, recording)
        for points in (11, 301):
            cfg = RunConfig(kappa1=kappas[0], kappa2=kappas[1], points=points)
            run_oracle_check(cfg)
            widths = [min(2**k, points - 2**k) for k in range(math.ceil(math.log2(points)))]
            assert calls["_expm"] == [((3, 3), (points,))]
            assert calls["_rk4_grid"] == [((3, 3), (points,), (points,))]
            assert calls["_product"] == [((3, 3, w + 1), (3, 3, 1)) for w in widths]
            for shapes in calls.values():
                shapes.clear()

    @pytest.mark.parametrize("kappas,closed", [((1.2, 1.0), 2), ((1.0, 1.8), 2),
                                               ((1.0, 1.0), 0)])
    def test_deterministic_paths_compare_cx_alone(self, kappas, closed, monkeypatch):
        # Their cy is S cx S on both sides, so only Monte Carlo, whose cy is
        # an independent draw, compares both blocks.
        shapes = []
        original = trimode.oracle._compare

        def recording(a, b, *args):
            shapes.append((a.shape, b.shape))
            return original(a, b, *args)

        monkeypatch.setattr(trimode.oracle, "_compare", recording)
        run_oracle_check(RunConfig(kappa1=kappas[0], kappa2=kappas[1], points=11))
        assert shapes == [((11, 3, 3),) * 2] * (2 + closed) + [((3, 2, 3, 3),) * 2]
