import numpy as np
import pytest

from ptqubit import (
    DensityMatrix,
    NormalizationError,
    PureState,
    bloch_from,
    fubini_study_distance,
    minus_y,
    plus_y,
)
from ptqubit.qstate import IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z

from conftest import random_pure_state_amplitudes


class TestPauliConstants:
    def test_squares_are_identity(self):
        for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
            np.testing.assert_allclose(sigma @ sigma, IDENTITY2, atol=1e-15)

    def test_constants_are_readonly(self):
        with pytest.raises(ValueError):
            SIGMA_X[0, 0] = 5.0


class TestPureState:
    def test_y_eigenstates(self):
        np.testing.assert_allclose(SIGMA_Y @ plus_y().amplitudes, plus_y().amplitudes, atol=1e-15)
        np.testing.assert_allclose(
            SIGMA_Y @ minus_y().amplitudes, -minus_y().amplitudes, atol=1e-15
        )

    def test_normalized_restores_unit_norm(self, rng):
        for amps in 3.7 * random_pure_state_amplitudes(rng, 20):
            state = PureState(amps).normalized()
            assert abs(state.norm**2 - 1.0) < 1e-12

    def test_fidelity_ignores_global_phase(self):
        psi = plus_y()
        rotated = PureState(np.exp(0.831j) * psi.amplitudes)
        assert abs(psi.fidelity(rotated) - 1.0) < 1e-12


class TestBlochFrom:
    def test_sigma_z_eigenstate(self):
        np.testing.assert_allclose(bloch_from(PureState([1.0, 0.0])), (0.0, 0.0, 1.0), atol=1e-15)

    def test_sigma_y_eigenstate(self):
        np.testing.assert_allclose(bloch_from(minus_y()), (0.0, -1.0, 0.0), atol=1e-15)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            bloch_from(DensityMatrix(IDENTITY2 / 2.0)), (0.0, 0.0, 0.0), atol=1e-15
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(NormalizationError):
            bloch_from(PureState([1.0, 1.0]))
        with pytest.raises(NormalizationError):
            bloch_from(DensityMatrix(IDENTITY2))

    def test_pure_states_sit_on_the_sphere(self, rng):
        for amps in random_pure_state_amplitudes(rng, 100):
            assert abs(np.linalg.norm(bloch_from(PureState(amps))) - 1.0) < 1e-10


class TestFubiniStudy:
    def test_identical_states(self):
        psi = plus_y()
        assert fubini_study_distance(psi, psi) == 0.0

    def test_orthogonal_states(self):
        assert fubini_study_distance(minus_y(), plus_y()) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_equal_superposition(self):
        # (|->_y + |+>_y)/sqrt(2) has overlap 1/sqrt(2) with either component
        mid = PureState(minus_y().amplitudes + plus_y().amplitudes).normalized()
        assert fubini_study_distance(minus_y(), mid) == pytest.approx(np.pi / 4, abs=1e-12)

    def test_symmetry_and_phase_invariance(self, rng):
        for a_amp, b_amp in zip(
            random_pure_state_amplitudes(rng, 25), random_pure_state_amplitudes(rng, 25)
        ):
            a, b = PureState(a_amp), PureState(b_amp)
            d_ab = fubini_study_distance(a, b)
            assert d_ab == pytest.approx(fubini_study_distance(b, a), abs=1e-15)
            b_phase = PureState(np.exp(1.234j) * b_amp)
            assert d_ab == pytest.approx(fubini_study_distance(a, b_phase), abs=1e-12)
            assert 0.0 <= d_ab <= np.pi / 2 + 1e-15

    def test_small_angle_keeps_every_digit(self):
        # frozen closed form: |1> and cos(e)|1> + sin(e)|2> lie e apart; arccos
        # of the overlap cos(e) = 1 - 5e-19 rounds to 1 and would return 0
        e = 1e-9
        near = PureState([np.cos(e), np.sin(e)])
        assert fubini_study_distance(PureState([1.0, 0.0]), near) == pytest.approx(e, rel=1e-15)

    def test_triangle_inequality(self, rng):
        states = [PureState(a) for a in random_pure_state_amplitudes(rng, 90)]
        for a, b, c in zip(states[0::3], states[1::3], states[2::3]):
            d_ac = fubini_study_distance(a, c)
            d_ab = fubini_study_distance(a, b)
            d_bc = fubini_study_distance(b, c)
            assert d_ac <= d_ab + d_bc + 1e-9
