import numpy as np
import pytest

from ptqubit import (
    PtParams,
    PureState,
    RegimeError,
    VanishingNormError,
    dilation_report,
    dilation_unitary,
    embed_initial,
    evolve_state_scaled,
    metric_operator,
    minus_y,
    plus_y,
    postselect,
    propagator_scaled,
    pt_via_dilation,
)
from ptqubit.qstate import IDENTITY2, SIGMA_X

from conftest import random_pure_state_amplitudes


class TestMetricOperator:
    def test_hermitian_limit_is_identity(self):
        np.testing.assert_allclose(metric_operator(PtParams(gamma=0.0)), IDENTITY2, atol=1e-15)

    def test_eigenvalues_moderate_gain(self):
        eta = metric_operator(PtParams(gamma=0.6))
        np.testing.assert_allclose(np.linalg.eigvalsh(eta), [0.5, 2.0], atol=1e-12)

    def test_eigenvalues_near_break(self):
        eta = metric_operator(PtParams(gamma=0.95))
        expected = [np.sqrt(0.05 / 1.95), np.sqrt(1.95 / 0.05)]
        np.testing.assert_allclose(np.linalg.eigvalsh(eta), expected, atol=1e-12)

    def test_intertwining_relation(self, rng):
        from ptqubit import hamiltonian

        for gamma in rng.uniform(0.0, 0.999, size=50):
            params = PtParams(gamma=gamma)
            eta = metric_operator(params)
            h = hamiltonian(params)
            np.testing.assert_allclose(eta, eta.conj().T, atol=1e-12)
            assert np.max(np.abs(eta @ h - h.conj().T @ eta)) < 1e-12
            assert np.all(np.linalg.eigvalsh(eta) > 0.0)

    @pytest.mark.parametrize("gamma", [1.0, 1.5])
    def test_rejected_outside_unbroken(self, gamma):
        with pytest.raises(RegimeError):
            metric_operator(PtParams(gamma=gamma))


class TestEmbedInitial:
    def test_hermitian_limit_splits_evenly(self):
        psi = minus_y()
        state = embed_initial(psi, PtParams(gamma=0.0))
        np.testing.assert_allclose(
            state,
            np.concatenate([psi.amplitudes, psi.amplitudes]) / np.sqrt(2.0),
            atol=1e-12,
        )

    def test_block_weight_ratio_near_break(self):
        state = embed_initial(minus_y(), PtParams(gamma=0.95))
        ratio = np.linalg.norm(state[2:]) ** 2 / np.linalg.norm(state[:2]) ** 2
        assert ratio == pytest.approx(1.0 / 39.0, rel=1e-10)

    def test_equal_block_norms_without_gain(self, rng):
        for amps in random_pure_state_amplitudes(rng, 10):
            state = embed_initial(PureState(amps), PtParams(gamma=0.0))
            assert np.linalg.norm(state[:2]) == pytest.approx(
                np.linalg.norm(state[2:]), abs=1e-12
            )

    def test_unit_total_norm(self, rng):
        for amps in random_pure_state_amplitudes(rng, 10):
            state = embed_initial(PureState(amps), PtParams(gamma=0.9))
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)


class TestDilationUnitary:
    def test_zero_time_is_identity(self):
        u = dilation_unitary(PtParams(gamma=0.4), 0.0)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-15)

    def test_hermitian_quarter_period_blocks(self):
        u = dilation_unitary(PtParams(gamma=0.0), np.pi / 2)
        np.testing.assert_allclose(u[:2, :2], -1j * SIGMA_X, atol=1e-12)
        np.testing.assert_allclose(u[:2, 2:], np.zeros((2, 2)), atol=1e-15)

    def test_block_normalization(self):
        u = dilation_unitary(PtParams(gamma=0.6), np.pi / 4)
        f, g = u[:2, :2], u[:2, 2:]
        np.testing.assert_allclose(f.conj().T @ f + g.conj().T @ g, IDENTITY2, atol=1e-12)

    def test_block_layout(self):
        u = dilation_unitary(PtParams(gamma=0.6), 0.9)
        np.testing.assert_array_equal(u[2:, 2:], u[:2, :2])
        np.testing.assert_array_equal(u[2:, :2], -u[:2, 2:])

    def test_rejected_outside_unbroken(self):
        with pytest.raises(RegimeError):
            dilation_unitary(PtParams(gamma=1.2), 0.3)


class TestPostselect:
    def test_state_fully_in_system_block(self):
        state = np.concatenate([plus_y().amplitudes, np.zeros(2)])
        selected, success = postselect(state)
        assert success == pytest.approx(1.0, abs=1e-12)
        assert selected.fidelity(plus_y()) == pytest.approx(1.0, abs=1e-12)

    def test_low_success_near_break(self):
        # embed, rotate a scaled quarter period, post-select: 2.5% survive
        params = PtParams(gamma=0.95)
        rotated = dilation_unitary(params, np.pi / 2) @ embed_initial(minus_y(), params)
        selected, success = postselect(rotated)
        assert success == pytest.approx(0.025, abs=1e-12)
        assert selected.fidelity(plus_y()) == pytest.approx(1.0, abs=1e-10)

    def test_half_weight_without_gain(self):
        # with eta = I the ancilla mirrors the system block exactly, so the
        # post-selection success sits at 1/2 for every time
        params = PtParams(gamma=0.0)
        for tau in (0.0, 0.3, np.pi / 2):
            rotated = dilation_unitary(params, tau) @ embed_initial(minus_y(), params)
            _, success = postselect(rotated)
            assert success == pytest.approx(0.5, abs=1e-12)

    def test_vanishing_block_rejected(self):
        state = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
        with pytest.raises(VanishingNormError):
            postselect(state)


class TestPtViaDilation:
    def test_zero_time_returns_input(self):
        psi = minus_y()
        params = PtParams(gamma=0.6)
        selected, success = pt_via_dilation(psi, params, 0.0)
        assert selected.fidelity(psi) == pytest.approx(1.0, abs=1e-12)
        # success at tau = 0 is the system-block weight 1/(1 + |eta psi|^2)
        eta = metric_operator(params)
        expected = 1.0 / (1.0 + np.linalg.norm(eta @ psi.amplitudes) ** 2)
        assert success == pytest.approx(expected, abs=1e-12)

    def test_reproduces_direct_evolution(self):
        params = PtParams(gamma=0.6)
        selected, _ = pt_via_dilation(minus_y(), params, np.pi / 4)
        direct = evolve_state_scaled(minus_y(), params, np.pi / 4)
        assert selected.fidelity(direct) >= 1.0 - 1e-10

    def test_complete_flip_at_quarter_period(self):
        selected, success = pt_via_dilation(minus_y(), PtParams(gamma=0.95), np.pi / 2)
        assert selected.fidelity(plus_y()) == pytest.approx(1.0, abs=1e-10)
        assert success == pytest.approx(0.025, abs=1e-12)

    def test_success_probability_formula(self, rng):
        for _ in range(30):
            params = PtParams(gamma=rng.uniform(0.0, 0.99))
            tau = rng.uniform(0.0, np.pi / 2)
            psi = PureState(random_pure_state_amplitudes(rng, 1)[0])
            _, success = pt_via_dilation(psi, params, tau)
            eta = metric_operator(params)
            propagated = propagator_scaled(params, tau) @ psi.amplitudes
            denominator = 1.0 + np.linalg.norm(eta @ psi.amplitudes) ** 2
            assert success == pytest.approx(
                np.linalg.norm(propagated) ** 2 / denominator, rel=1e-10
            )

    def test_exactness_on_random_samples(self, rng):
        # block identity, unitarity, intertwining, and fidelity in one sweep
        from ptqubit import hamiltonian

        for _ in range(100):
            params = PtParams(gamma=rng.uniform(0.0, 0.999))
            tau = rng.uniform(0.0, np.pi / 2)
            u = dilation_unitary(params, tau)
            eta = metric_operator(params)
            h = hamiltonian(params)
            block_identity = u[:2, :2] + u[:2, 2:] @ eta - propagator_scaled(params, tau)
            assert np.max(np.abs(block_identity)) < 1e-12
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12
            assert np.max(np.abs(eta @ h - h.conj().T @ eta)) < 1e-12
            selected, success = pt_via_dilation(minus_y(), params, tau)
            direct = evolve_state_scaled(minus_y(), params, tau)
            assert selected.fidelity(direct) >= 1.0 - 1e-10
            assert 0.0 < success <= 1.0 + 1e-12

    def test_success_continuous_in_time(self):
        # closed-form slope bound: |d success/d tau| <= (1 - k^2)/(1 + k^2) < 1
        params = PtParams(gamma=0.95)
        taus = np.linspace(0.0, np.pi / 2, 400)
        successes = np.array([pt_via_dilation(minus_y(), params, t)[1] for t in taus])
        step = taus[1] - taus[0]
        assert np.max(np.abs(np.diff(successes))) <= 1.0 * step * 1.05


class TestDilationReport:
    def test_reports_clean_residuals(self):
        report = dilation_report(PtParams(gamma=0.95), np.pi / 2)
        assert report["unitarity_residual"] < 1e-12
        assert report["intertwining_residual"] < 1e-12
        assert report["block_identity_residual"] < 1e-12
        assert report["fidelity_vs_direct"] >= 1.0 - 1e-10
        assert report["success_prob"] == pytest.approx(0.025, abs=1e-6)
