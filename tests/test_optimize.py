import numpy as np
import pytest

import oracles
from ptqubit import (
    ParameterError,
    PtParams,
    Regime,
    correlators,
    ep_discontinuity,
    max_k3_over_T,
    sweep_gamma,
)
from ptqubit.optimize import DEFAULT_PTB_RANGE, DEFAULT_PTS_RANGE, GRID_POINTS, WIDE_PTS_RANGE


class TestMaxK3OverT:
    def test_hermitian_luders_maximum(self):
        t_star, k3_max = max_k3_over_T(
            PtParams(gamma=0.0), t_range=(0.0, np.pi / 2), tol=1e-8
        )
        assert k3_max == pytest.approx(1.5, abs=1e-9)
        assert t_star == pytest.approx(np.pi / 6, abs=1e-6)

    def test_near_break_peaks_at_window_edge(self):
        t_star, k3_max = max_k3_over_T(PtParams(gamma=0.95))
        assert abs(t_star - np.pi / 4) < 0.01
        assert 2.85 <= k3_max <= 2.86

    def test_degenerate_range(self):
        t_star, k3_max = max_k3_over_T(PtParams(gamma=0.6), t_range=(0.3, 0.3))
        assert t_star == 0.3
        assert k3_max == correlators(0.3, PtParams(gamma=0.6)).k3

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            max_k3_over_T(PtParams(), t_range=(0.5, 0.1))
        with pytest.raises(ParameterError):
            max_k3_over_T(PtParams(), tol=0.0)
        with pytest.raises(ParameterError):
            max_k3_over_T(PtParams(), tol=float("nan"))
        for t_range in ((0.0, np.inf), (-np.inf, 0.5), (0.0, np.nan), (np.nan, 0.5)):
            with pytest.raises(ParameterError):
                max_k3_over_T(PtParams(gamma=1.5), t_range=t_range)

    def test_refinement_only_improves(self, rng):
        for _ in range(50):
            gamma = rng.uniform(0.0, 0.99)
            hi = rng.uniform(0.3, np.pi / 2)
            _, k3_max = max_k3_over_T(PtParams(gamma=gamma), t_range=(0.0, hi), tol=1e-8)
            grid = np.linspace(0.0, hi, GRID_POINTS)
            scan_max = float(np.max(oracles.k3_curve_unbroken(gamma, grid)))
            assert scan_max <= k3_max + 1e-8

    def test_matches_brute_force_scan(self, rng):
        # independent vectorized amplitude-algebra scan, 1e5 points
        for _ in range(20):
            gamma = rng.uniform(0.0, 0.99)
            _, ours = max_k3_over_T(PtParams(gamma=gamma), t_range=(0.0, np.pi / 4))
            _, brute = oracles.brute_force_k3_max(gamma, 0.0, np.pi / 4, 100_000)
            assert ours == pytest.approx(brute, abs=1e-6)

    def test_nondecreasing_in_ratio(self):
        ratios = np.arange(0.0, 0.991, 0.01)
        values = [max_k3_over_T(PtParams(gamma=r))[1] for r in ratios]
        assert np.all(np.diff(values) >= -1e-9)

    def test_hermitian_maximum_independent_of_window(self):
        # any window containing [0, pi/2] sees the same global maximum
        for hi in (np.pi / 2, 2.0, np.pi):
            _, k3_max = max_k3_over_T(PtParams(gamma=0.0), t_range=(0.0, hi))
            assert k3_max == pytest.approx(1.5, abs=1e-9)


class TestSweepGamma:
    def test_hermitian_point(self):
        (point,) = sweep_gamma([0.0])
        assert point.k3_max == pytest.approx(1.5, abs=1e-9)
        assert point.regime is Regime.PTS

    def test_near_break_point(self):
        (point,) = sweep_gamma([0.95])
        assert point.k3_max == pytest.approx(2.8528, abs=1e-3)

    def test_approaching_the_algebraic_bound(self):
        (point,) = sweep_gamma([0.999])
        assert point.k3_max >= 2.99

    def test_broken_regime_window(self):
        (point,) = sweep_gamma([1.5])
        assert point.regime is Regime.PTB
        assert DEFAULT_PTB_RANGE[0] <= point.t_star <= DEFAULT_PTB_RANGE[1]
        _, brute = oracles.brute_force_k3_max(1.5, *DEFAULT_PTB_RANGE, 100_000)
        assert point.k3_max == pytest.approx(brute, abs=1e-6)

    def test_break_band_excluded_by_default(self):
        for grid in ([1.0], [0.5, 1.0 + 1e-10], [-0.2, 1.0]):
            with pytest.raises(ParameterError, match="exceptional point"):
                sweep_gamma(grid)
        # the optimizer itself evaluates the EP: the coalesced eigenvector
        # freezes the start state, so K3 sits at 1
        assert max_k3_over_T(PtParams(gamma=1.0))[1] == pytest.approx(1.0, abs=1e-12)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ParameterError):
            sweep_gamma([-0.2])

    def test_ordering_follows_input(self):
        points = sweep_gamma([0.9, 0.0, 0.5])
        assert [p.gamma_over_j for p in points] == [0.9, 0.0, 0.5]


class TestEpDiscontinuity:
    def test_left_limit_reaches_algebraic_bound(self):
        report = ep_discontinuity(eps=1e-2)
        assert report.left_limit == pytest.approx(3.0, abs=1e-3)
        assert report.eps_sequence == (1e-2, 1e-3, 1e-4)

    def test_right_value_matches_brute_force(self):
        report = ep_discontinuity(eps=1e-2)
        brute = [
            oracles.brute_force_k3_max(1.0 + e, *DEFAULT_PTB_RANGE, 10_000)[1]
            for e in report.eps_sequence
        ]
        f0, f1, f2 = brute
        g0 = (10.0 * f1 - f0) / 9.0
        g1 = (10.0 * f2 - f1) / 9.0
        brute_limit = (100.0 * g1 - g0) / 99.0
        assert report.right_value == pytest.approx(brute_limit, abs=1e-6)

    def test_jump_is_consistent(self):
        report = ep_discontinuity(eps=0.1)
        assert report.jump == report.right_value - report.left_limit
        assert np.isfinite(report.jump)

    def test_eps_domain(self):
        with pytest.raises(ParameterError):
            ep_discontinuity(eps=0.0)
        with pytest.raises(ParameterError):
            ep_discontinuity(eps=0.2)


def test_default_ranges_are_the_documented_windows():
    assert DEFAULT_PTS_RANGE == (0.0, np.pi / 4)
    assert WIDE_PTS_RANGE == (0.0, np.pi / 2)
    assert DEFAULT_PTB_RANGE == (0.0, 10.0)
