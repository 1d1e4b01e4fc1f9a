"""Numerical verification paths: RK4 integration, Monte Carlo sampling,
structured comparisons.
"""

import numpy as np
import pytest

from trimode import (
    MomentMethod,
    MomentState,
    Quadrature,
    compare_moments,
    evaluate_all,
    mc_moments,
    moments_at,
    outer_moments,
    propagator_expm,
    propagator_hyperbolic,
    rk4_propagator,
    vacuum_moments,
)
from support import CX1, HYP, OMEGA, PER, T1, grid_points, rate_of


class TestRk4:
    def test_identity_at_zero(self):
        pair = rk4_propagator(HYP, 0.0, 1)
        assert np.array_equal(pair.mx, np.eye(3))

    def test_matches_closed_form(self):
        closed = propagator_hyperbolic(HYP, T1)
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

    @pytest.mark.parametrize("steps", [0, -3, 2.5])
    def test_invalid_steps(self, steps):
        with pytest.raises(ValueError):
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

    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 2**40])
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

    @pytest.mark.parametrize("n", [0, -5, 1.5])
    def test_invalid_sample_count(self, n):
        with pytest.raises(ValueError):
            mc_moments(HYP, 1.0, n, seed=1)

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
        m = vacuum_moments()
        report = compare_moments(m, m, 1e-12)
        assert report.passed
        assert report.max_abs_err == 0.0
        assert report.max_rel_err == 0.0

    def test_analytic_paths_agree_at_tight_tolerance(self):
        for c, t, tau in grid_points(n_tau=6):
            a = moments_at(c, t, MomentMethod.ANALYTIC)
            b = moments_at(c, t, MomentMethod.EXPM)
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
        a = vacuum_moments()
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
