import numpy as np
import pytest

import oracles
from ptqubit import (
    DEFAULT_SCENARIO,
    DegenerateSpectrumError,
    MeasurementScenario,
    ParameterError,
    PtParams,
    RegimeError,
    conditional_prob,
    correlators,
    k3_curve,
    minus_y,
    plus_y,
    pt_via_dilation,
    quantum_witness,
    witness_initial_state,
)
from ptqubit.qstate import IDENTITY2, SIGMA_Z


class TestMeasurementScenario:
    def test_default_eigenstates_are_y_pair(self):
        assert DEFAULT_SCENARIO.eigenstate(+1).fidelity(plus_y()) == pytest.approx(1.0, abs=1e-12)
        assert DEFAULT_SCENARIO.eigenstate(-1).fidelity(minus_y()) == pytest.approx(1.0, abs=1e-12)

    def test_times_layout(self):
        assert DEFAULT_SCENARIO.times(0.3) == (0.0, 0.3, 0.6)

    def test_custom_observable(self):
        scenario = MeasurementScenario(observable=SIGMA_Z)
        np.testing.assert_allclose(scenario.eigenstate(+1).amplitudes, [1.0, 0.0], atol=1e-12)

    def test_degenerate_observable_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            MeasurementScenario(observable=IDENTITY2)

    def test_bad_outcome_label(self):
        with pytest.raises(ParameterError):
            DEFAULT_SCENARIO.eigenstate(0)


class TestConditionalProb:
    def test_zero_time_is_deterministic(self):
        params = PtParams(gamma=0.6)
        for q in (+1, -1):
            assert conditional_prob(q, q, 0.0, params) == pytest.approx(1.0, abs=1e-12)
            assert conditional_prob(-q, q, 0.0, params) == pytest.approx(0.0, abs=1e-12)

    def test_hermitian_half_flip(self):
        assert conditional_prob(+1, -1, np.pi / 4, PtParams(gamma=0.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6, 0.95])
    def test_complete_flip_at_quarter_period(self, gamma):
        assert conditional_prob(+1, -1, np.pi / 2, PtParams(gamma=gamma)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_outcomes_are_complementary(self, rng):
        for _ in range(30):
            params = PtParams(gamma=rng.uniform(0.0, 1.6))
            tau = rng.uniform(0.0, 2.0)
            for q_in in (+1, -1):
                total = conditional_prob(+1, q_in, tau, params) + conditional_prob(
                    -1, q_in, tau, params
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_expm_route(self, rng):
        for _ in range(25):
            gamma = rng.uniform(0.0, 0.99)
            tau = rng.uniform(0.0, np.pi / 2)
            for q_out, q_in in ((+1, -1), (-1, -1), (+1, +1)):
                ours = conditional_prob(q_out, q_in, tau, PtParams(gamma=gamma))
                ref = oracles.conditional(q_out, q_in, tau, 1.0, gamma)
                assert ours == pytest.approx(ref, abs=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            conditional_prob(+1, -1, -0.1, PtParams())


class TestCorrelators:
    def test_zero_interval(self):
        cs = correlators(0.0, PtParams(gamma=0.6))
        assert (cs.c12, cs.c23, cs.c13) == pytest.approx((1.0, 1.0, 1.0), abs=1e-12)
        assert cs.k3 == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_luders_point(self):
        cs = correlators(np.pi / 6, PtParams(gamma=0.0))
        assert cs.c12 == pytest.approx(0.5, abs=1e-12)
        assert cs.c23 == pytest.approx(0.5, abs=1e-12)
        assert cs.c13 == pytest.approx(-0.5, abs=1e-12)
        assert cs.k3 == pytest.approx(1.5, abs=1e-12)

    def test_near_break_quarter_interval(self):
        # frozen oracle value: K3 = 2.8525 with the flip ratio k^2 = 1/39
        cs = correlators(np.pi / 4, PtParams(gamma=0.95))
        assert cs.c13 == pytest.approx(-1.0, abs=1e-12)
        assert cs.k3 == pytest.approx(2.8525, abs=1e-9)
        ref = oracles.correlator_set(np.pi / 4, 1.0, 0.95)
        assert (cs.c12, cs.c23, cs.c13, cs.k3) == pytest.approx(ref, abs=1e-10)

    def test_k3_assembled_exactly(self, rng):
        for _ in range(20):
            cs = correlators(rng.uniform(0.0, np.pi / 2), PtParams(gamma=rng.uniform(0.0, 0.99)))
            assert cs.k3 == cs.c12 + cs.c23 - cs.c13
            for value in (cs.c12, cs.c23, cs.c13):
                assert abs(value) <= 1.0 + 1e-12
            assert -3.0 <= cs.k3 <= 3.0

    def test_c23_matches_outcome_enumeration(self, rng):
        # independent route: sum Q2 Q3 p(Q2) p(Q3|Q2) over the four pairs
        for _ in range(20):
            params = PtParams(gamma=rng.uniform(0.0, 1.5))
            t_interval = rng.uniform(0.0, np.pi / 2)
            cs = correlators(t_interval, params)
            total = 0.0
            for q2 in (+1, -1):
                p_q2 = conditional_prob(q2, -1, t_interval, params)
                for q3 in (+1, -1):
                    total += q2 * q3 * p_q2 * conditional_prob(q3, q2, t_interval, params)
            assert cs.c23 == pytest.approx(total, abs=1e-15)

    def test_interval_domain(self):
        with pytest.raises(ParameterError):
            correlators(-0.1, PtParams())
        # beyond one flip period the oscillatory side is periodic, not invalid
        assert correlators(np.pi / 2 + 0.1, PtParams(gamma=0.5)).k3 == pytest.approx(
            float(oracles.k3_curve_unbroken(0.5, [np.pi / 2 + 0.1])[0]), abs=1e-10
        )
        assert correlators(3.0, PtParams(gamma=1.5)).k3 == pytest.approx(
            float(oracles.k3_curve_broken(1.5, [3.0])[0]), abs=1e-10
        )

    def test_dilation_backed_path_agrees(self, rng):
        # rebuild the correlators from post-selected dilation runs only
        def dilated_prob(q_out, q_in, tau, params):
            selected, _ = pt_via_dilation(DEFAULT_SCENARIO.eigenstate(q_in), params, tau)
            return DEFAULT_SCENARIO.eigenstate(q_out).fidelity(selected)

        for _ in range(10):
            params = PtParams(gamma=rng.uniform(0.0, 0.99))
            t_interval = rng.uniform(0.0, np.pi / 2)
            cs = correlators(t_interval, params)
            a = dilated_prob(+1, -1, t_interval, params)
            b = dilated_prob(+1, +1, t_interval, params)
            c = dilated_prob(+1, -1, 2.0 * t_interval, params)
            c12 = 1.0 - 2.0 * a
            c13 = 1.0 - 2.0 * c
            c23 = a * b - a * (1.0 - b) - (1.0 - a) * a + (1.0 - a) ** 2
            assert cs.c12 == pytest.approx(c12, abs=1e-10)
            assert cs.c23 == pytest.approx(c23, abs=1e-10)
            assert cs.c13 == pytest.approx(c13, abs=1e-10)
            assert cs.k3 == pytest.approx(c12 + c23 - c13, abs=1e-10)


class TestK3Curve:
    def test_hermitian_curve_respects_luders_cap(self):
        grid = np.linspace(0.0, np.pi / 2, 301)
        values = k3_curve(grid, PtParams(gamma=0.0)).k3
        assert max(values) <= 1.5 + 1e-9

    def test_moderate_gain_breaks_the_cap(self):
        grid = np.linspace(0.0, np.pi / 4, 201)
        values = k3_curve(grid, PtParams(gamma=0.6)).k3
        assert max(values) > 1.5

    def test_near_break_curve_peaks_at_quarter_interval(self):
        grid = np.linspace(0.0, np.pi / 4, 101)
        values = k3_curve(grid, PtParams(gamma=0.95)).k3
        assert max(values) == pytest.approx(2.8525, abs=2e-3)
        assert values[-1] == pytest.approx(2.8525, abs=1e-9)

    def test_matches_vectorized_oracle(self, rng):
        for gamma in (0.0, 0.4, 0.8):
            grid = np.linspace(0.0, np.pi / 2, 41)
            ours = k3_curve(grid, PtParams(gamma=gamma)).k3
            np.testing.assert_allclose(ours, oracles.k3_curve_unbroken(gamma, grid), atol=1e-10)


class TestQuantumWitness:
    def test_hermitian_bound(self):
        result = quantum_witness(PtParams(gamma=0.0))
        assert result.p_without == pytest.approx(1.0, abs=1e-12)
        assert result.p_with == pytest.approx(0.5, abs=1e-12)
        assert result.w == pytest.approx(0.5, abs=1e-12)

    def test_approaches_algebraic_bound(self):
        assert quantum_witness(PtParams(gamma=0.999)).w > 0.99

    def test_near_break_value(self):
        # frozen oracle value 0.975; trend target window (0.9, 1)
        w = quantum_witness(PtParams(gamma=0.95)).w
        assert w == pytest.approx(0.975, abs=1e-10)
        assert 0.9 < w < 1.0

    def test_matches_expm_route(self, rng):
        for gamma in rng.uniform(0.0, 0.99, size=15):
            ours = quantum_witness(PtParams(gamma=gamma))
            ref_with, ref_without, ref_w = oracles.witness(1.0, gamma)
            assert ours.p_with == pytest.approx(ref_with, abs=1e-10)
            assert ours.p_without == pytest.approx(ref_without, abs=1e-10)
            assert ours.w == pytest.approx(ref_w, abs=1e-10)

    def test_nondecreasing_in_ratio(self):
        ratios = np.arange(0.0, 0.991, 0.01)
        values = [quantum_witness(PtParams(gamma=r)).w for r in ratios]
        assert np.all(np.diff(values) >= -1e-12)

    def test_hermitian_cap_over_time_grid(self):
        taus = np.linspace(0.0, np.pi / 2, 101)
        values = [quantum_witness(PtParams(gamma=0.0), tau=t).w for t in taus]
        assert max(values) <= 0.5 + 1e-9

    def test_rejected_above_break(self):
        with pytest.raises(RegimeError):
            quantum_witness(PtParams(gamma=1.2))
        with pytest.raises(RegimeError):
            witness_initial_state(PtParams(gamma=1.2))

    def test_preparation_is_normalized(self, rng):
        for gamma in rng.uniform(0.0, 1.0 - 1e-6, size=10):
            assert witness_initial_state(PtParams(gamma=gamma)).norm == pytest.approx(
                1.0, abs=1e-12
            )


def test_monotone_enhancement_at_quarter_interval():
    # closed form at T = pi/4: K3 = 3 - 3 e + e^2 with e = 1 - gamma/j
    ratios = np.arange(0.0, 0.991, 0.01)
    values = []
    for ratio in ratios:
        k3 = correlators(np.pi / 4, PtParams(gamma=ratio)).k3
        eps = 1.0 - ratio
        assert k3 == pytest.approx(3.0 - 3.0 * eps + eps**2, abs=1e-12)
        values.append(k3)
    assert np.all(np.diff(values) >= -1e-12)
