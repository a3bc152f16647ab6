import numpy as np
import pytest

import oracles
from ptqubit import (
    DensityMatrix,
    NormalizationError,
    ParameterError,
    PtParams,
    PureState,
    Regime,
    VanishingNormError,
    evolve_density_nonlinear,
    evolve_state,
    evolve_state_scaled,
    hamiltonian,
    minus_y,
    plus_y,
    propagator,
    propagator_scaled,
    speed_profile,
    trajectory,
)
from ptqubit.qstate import IDENTITY2, SIGMA_X, SIGMA_Z


class TestPtParams:
    def test_validation(self):
        with pytest.raises(ParameterError):
            PtParams(j=0.0)
        with pytest.raises(ParameterError):
            PtParams(j=-1.0)
        with pytest.raises(ParameterError):
            PtParams(gamma=-0.1)
        with pytest.raises(ParameterError):
            PtParams(j=1e-300)  # j^2 underflows to 0
        for value in (np.nan, np.inf, 1e300):  # 1e300 squared overflows
            with pytest.raises(ParameterError):
                PtParams(j=value)
            with pytest.raises(ParameterError):
                PtParams(gamma=value)

    @pytest.mark.parametrize(
        "gamma,regime",
        [
            (0.0, Regime.PTS),
            (1.0 - 1e-6, Regime.PTS),
            (1.0 - 1e-10, Regime.EP),
            (1.0, Regime.EP),
            (1.0 + 1e-10, Regime.EP),
            (1.0 + 1e-6, Regime.PTB),
            (2.0, Regime.PTB),
        ],
    )
    def test_regime_classification(self, gamma, regime):
        assert PtParams(j=1.0, gamma=gamma).regime is regime

    def test_omega_squared(self, rng):
        for j, gamma in rng.uniform(0.1, 3.0, size=(100, 2)):
            params = PtParams(j=j, gamma=gamma)
            assert abs(params.omega**2 - abs(j**2 - gamma**2)) < 1e-12

    def test_time_round_trip(self):
        # the raw time maps back to tau = Omega t (PTS), j t (EP), w t (PTB)
        for gamma in (0.0, 0.6, 1.0, 1.7):
            params = PtParams(gamma=gamma)
            rate = params.j if gamma == 1.0 else np.sqrt(abs(params.j**2 - gamma**2))
            assert params.time_from_scaled(0.83) * rate == pytest.approx(0.83, abs=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "j,gamma", [(1e-10, 0.0), (0.5, 0.0), (1e-150, 1e-150), (1.0, 0.6), (1e-100, 3e-100)]
    )
    def test_raw_time_beyond_double_range(self, j, gamma):
        # tau / rate overflows once tau exceeds rate * max double; the largest
        # accepted tau still divides to a finite raw time
        params = PtParams(j=j, gamma=gamma)
        rate = params.j if params.regime is Regime.EP else params.omega
        limit = rate * np.nextafter(np.finfo(float).max, 0.0)
        assert np.isfinite(params.time_from_scaled(limit))
        for tau in (np.nextafter(limit, np.inf), np.array([0.0, 1.0, 1.7e308])):
            with pytest.raises(ParameterError, match="double range"):
                params.time_from_scaled(tau)


class TestHamiltonian:
    def test_hermitian_limit(self):
        np.testing.assert_array_equal(hamiltonian(PtParams(gamma=0.0)), SIGMA_X)

    def test_ep_nilpotency(self):
        h = hamiltonian(PtParams(gamma=1.0))
        np.testing.assert_array_equal(h, SIGMA_X + 1j * SIGMA_Z)
        np.testing.assert_allclose(h @ h, np.zeros((2, 2)), atol=1e-15)

    def test_square_below_break(self):
        h = hamiltonian(PtParams(gamma=0.6))
        np.testing.assert_allclose(h @ h, 0.64 * IDENTITY2, atol=1e-12)

    def test_square_identity_random(self, rng):
        for j, gamma in rng.uniform(0.1, 3.0, size=(100, 2)):
            h = hamiltonian(PtParams(j=j, gamma=gamma))
            np.testing.assert_allclose(h @ h, (j**2 - gamma**2) * IDENTITY2, atol=1e-12)


class TestPropagator:
    def test_zero_time(self):
        np.testing.assert_array_equal(propagator(PtParams(gamma=0.7), 0.0), IDENTITY2)

    def test_negative_time_rejected(self):
        with pytest.raises(ParameterError):
            propagator(PtParams(), -0.1)

    def test_broken_regime_overflow_is_reported(self):
        # cosh(w t) leaves the double range near w t = 710
        params = PtParams(gamma=2.0)
        with pytest.raises(ParameterError):
            propagator(params, params.time_from_scaled(800.0))
        with pytest.raises(ParameterError):
            propagator(params, np.array([0.0, 1.0, params.time_from_scaled(800.0)]))

    def test_hermitian_quarter_period(self):
        np.testing.assert_allclose(
            propagator(PtParams(gamma=0.0), np.pi / 2),
            oracles.expm_propagator(1.0, 0.0, np.pi / 2),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            propagator(PtParams(gamma=0.0), np.pi / 2), -1j * SIGMA_X, atol=1e-12
        )

    def test_matches_expm_across_regimes(self, rng):
        # includes near-break ratios where the series bridge engages
        ratios = np.concatenate(
            [
                rng.uniform(0.0, 0.999, size=30),
                rng.uniform(1.001, 3.0, size=30),
                [1.0, 1.0 - 1e-5, 1.0 + 1e-5],
            ]
        )
        for ratio in ratios:
            j = 1.3
            t = rng.uniform(0.0, 2.0)
            ours = propagator(PtParams(j=j, gamma=ratio * j), t)
            ref = oracles.expm_propagator(j, ratio * j, t)
            np.testing.assert_allclose(ours, ref, atol=1e-10)

    def test_composition(self, rng):
        for _ in range(40):
            params = PtParams(j=1.0, gamma=rng.uniform(0.0, 1.5))
            t1, t2 = rng.uniform(0.0, 1.5, size=2)
            np.testing.assert_allclose(
                propagator(params, t1) @ propagator(params, t2),
                propagator(params, t1 + t2),
                atol=1e-10,
            )

    def test_continuity_at_the_break(self):
        t = 1.7
        ep_form = IDENTITY2 - 1j * t * hamiltonian(PtParams(gamma=1.0))
        for gamma in (1.0 - 1e-8, 1.0 + 1e-8):
            delta = np.max(np.abs(propagator(PtParams(gamma=gamma), t) - ep_form))
            assert delta < 1e-6

    def test_flip_amplitude_near_break(self):
        # scaled quarter period turns |->_y into |+>_y with squared norm
        # (j - gamma)/(j + gamma) = 1/39 at ratio 0.95
        params = PtParams(gamma=0.95)
        out = propagator_scaled(params, np.pi / 2) @ minus_y().amplitudes
        norm_sq = float(np.linalg.norm(out) ** 2)
        assert norm_sq == pytest.approx(1.0 / 39.0, rel=1e-10)
        projected = PureState(out).normalized()
        assert projected.fidelity(plus_y()) == pytest.approx(1.0, abs=1e-12)


class TestEvolveState:
    def test_hermitian_eighth_period(self):
        out = evolve_state_scaled(minus_y(), PtParams(gamma=0.0), np.pi / 4)
        expected = PureState(
            np.cos(np.pi / 4) * minus_y().amplitudes - np.sin(np.pi / 4) * plus_y().amplitudes
        )
        assert out.fidelity(expected) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.6, 0.95])
    def test_complete_flip_below_break(self, gamma):
        out = evolve_state_scaled(minus_y(), PtParams(gamma=gamma), np.pi / 2)
        assert out.fidelity(plus_y()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_time_identity(self):
        out = evolve_state(minus_y(), PtParams(gamma=1.4), 0.0)
        assert out.fidelity(minus_y()) == pytest.approx(1.0, abs=1e-15)

    def test_matches_expm_route(self, rng):
        for _ in range(30):
            gamma = rng.uniform(0.0, 0.99)
            tau = rng.uniform(0.0, np.pi / 2)
            ours = evolve_state_scaled(minus_y(), PtParams(gamma=gamma), tau)
            ref = oracles.evolve(oracles.MINUS_Y, 1.0, gamma, tau)
            assert abs(np.vdot(ours.amplitudes, ref)) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_vanishing_input_rejected(self):
        with pytest.raises(VanishingNormError):
            evolve_state(PureState([0.0, 0.0]), PtParams(), 0.5)


def _hex_matrix(*entries):
    # row-major (real, imag) float.hex pairs -> exact 2x2 complex matrix
    return np.array([complex(float.fromhex(re), float.fromhex(im)) for re, im in entries]).reshape(2, 2)


# RK4 matrices captured from the numpy-array integrator; any reordering of the
# floating-point operations in the flow shows up here as a changed bit.
FROZEN_FLOWS = {
    "pts": (
        minus_y().density(), PtParams(gamma=0.6), PtParams(gamma=0.6).time_from_scaled(np.pi / 4), None,
        _hex_matrix(("0x1.999999999af06p-4", "0x0.0p+0"), ("0x0.0p+0", "0x1.33333333332e1p-2"),
                    ("0x0.0p+0", "-0x1.33333333332e1p-2"), ("0x1.cccccccccca19p-1", "0x0.0p+0")),
    ),
    "ep": (
        PureState([0.8, 0.36 + 0.48j]).density(), PtParams(j=0.7, gamma=0.7), 1.3, None,
        _hex_matrix(("0x1.c9c63d3e967bap-1", "0x0.0p+0"), ("0x1.09d20c2dc75c2p-4", "0x1.34050a35c2933p-2"),
                    ("0x1.09d20c2dc75c2p-4", "-0x1.34050a35c2933p-2"),
                    ("0x1.b1ce160b4c210p-4", "-0x1.f58603d1470f0p-63")),
    ),
    "ptb": (
        PureState([0.6, 0.48 - 0.64j]).density(), PtParams(gamma=2.0), 0.9, None,
        _hex_matrix(("0x1.d4fb5ac370880p-1", "0x0.0p+0"), ("0x1.94ac26c0ac1b0p-5", "0x1.17891f96511f8p-2"),
                    ("0x1.94ac26c0ac1b0p-5", "-0x1.17891f96511f8p-2"),
                    ("0x1.582529e47bc1dp-4", "0x1.e58837b7a09a2p-64")),
    ),
    "mixed": (
        DensityMatrix([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]]), PtParams(j=0.8, gamma=0.5), 2.0, 0.0125,
        _hex_matrix(("0x1.1d9feba299c29p-1", "0x0.0p+0"), ("0x1.2db543dc14413p-4", "0x1.dfc746db9c6a1p-2"),
                    ("0x1.2db543dc14413p-4", "-0x1.dfc746db9c6a1p-2"), ("0x1.c4c028bacc7a3p-2", "0x0.0p+0")),
    ),
}


class TestNonlinearFlow:
    def test_zero_horizon_returns_input(self):
        rho0 = minus_y().density()
        out = evolve_density_nonlinear(rho0, PtParams(gamma=0.9), 0.0)
        np.testing.assert_array_equal(out.matrix, rho0.matrix)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_parameter_validation(self):
        rho0 = minus_y().density()
        with pytest.raises(ParameterError):
            evolve_density_nonlinear(rho0, PtParams(), 1.0, dt=0.0)
        with pytest.raises(ParameterError):
            evolve_density_nonlinear(rho0, PtParams(), -1.0, dt=1e-3)
        # non-finite horizons and steps, and horizons beyond MAX_RK4_STEPS
        # steps (1e7 steps; 1e308 / 1e-300 overflows the step count itself)
        for t, dt in [(np.nan, 1e-3), (np.inf, 1e-3), (1.0, np.nan), (1.0, np.inf),
                      (1.0, 1e-7), (1e308, 1e-300), (np.inf, None)]:
            with pytest.raises(ParameterError):
                evolve_density_nonlinear(rho0, PtParams(), t, dt=dt)

    @pytest.mark.parametrize("case", sorted(FROZEN_FLOWS))
    def test_matrices_are_frozen(self, case):
        rho0, params, t, dt, expected = FROZEN_FLOWS[case]
        out = evolve_density_nonlinear(rho0, params, t, dt)
        assert np.array_equal(out.matrix, expected)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_start_rejected(self, bad):
        rho0 = DensityMatrix([[0.5, bad], [0.0, 0.5]])
        for t in (0.0, 1.0):
            with pytest.raises(ParameterError):
                evolve_density_nonlinear(rho0, PtParams(gamma=0.5), t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "matrix,gamma,t,dt",
        [
            (np.diag([-5.0, 6.0]), 2.0, 5.0, None),  # unit trace and hermitian, not positive
            (np.diag([1.0, 0.0]), 2.0, 1e300, 1e300),  # a valid start, one overflowing step
        ],
    )
    def test_diverging_flow_raises(self, matrix, gamma, t, dt):
        # flows that leave the double range: an error, not a NaN matrix
        with pytest.raises(NormalizationError):
            evolve_density_nonlinear(DensityMatrix(matrix), PtParams(gamma=gamma), t, dt)

    @pytest.mark.parametrize(
        "matrix",
        [
            np.diag([-5.0, 1.0]),  # trace -4
            np.diag([1e300, 0.0]),
            np.diag([0.5, 0.0]),  # trace 0.5; the flow kept it near 0.400 at gamma 0.5, t 3
            np.array([[0.5, 0.3], [0.1, 0.5]]),  # not hermitian
            np.array([[0.5, 0.0], [0.0, 0.5 + 1e-6j]]),
            np.array([[1.0 + 2e-9, 0.0], [0.0, 0.0]]),
        ],
    )
    def test_start_off_the_density_contract_rejected(self, matrix):
        with pytest.raises(ParameterError):
            evolve_density_nonlinear(DensityMatrix(matrix), PtParams(gamma=0.5), 3.0)

    def test_start_within_the_gate_accepted(self):
        # rounding-level departures from unit trace and hermiticity pass the 1e-9 gate
        rho0 = np.array([[0.5 + 5e-10, 0.25 + 1e-10j], [0.25, 0.5]])
        out = evolve_density_nonlinear(DensityMatrix(rho0), PtParams(gamma=0.5), 0.1)
        assert abs(out.trace - 1.0) < 1e-8

    def test_hermitian_flip(self):
        params = PtParams(gamma=0.0)
        out = evolve_density_nonlinear(
            minus_y().density(), params, params.time_from_scaled(np.pi / 2), dt=1e-3
        )
        target = plus_y().density().matrix
        assert np.max(np.abs(out.matrix - target)) < 1e-8

    @pytest.mark.parametrize("gamma,tau", [(0.6, np.pi / 4), (0.95, np.pi / 3)])
    def test_pure_state_consistency(self, gamma, tau):
        params = PtParams(gamma=gamma)
        t_raw = params.time_from_scaled(tau)
        dt_raw = params.time_from_scaled(1e-3)
        rho = evolve_density_nonlinear(minus_y().density(), params, t_raw, dt=dt_raw)
        psi = evolve_state_scaled(minus_y(), params, tau)
        fidelity = float(np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real)
        assert fidelity >= 1.0 - 1e-8

    def test_trace_and_hermiticity_preserved(self):
        params = PtParams(gamma=0.8)
        t_raw = params.time_from_scaled(np.pi)
        rho = evolve_density_nonlinear(minus_y().density(), params, t_raw, dt=1e-3)
        assert abs(rho.trace - 1.0) < 1e-8
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12
        assert np.all(np.linalg.eigvalsh(rho.matrix) >= -1e-10)


class TestTrajectory:
    def test_uniform_speed_below_gain(self):
        grid = np.linspace(0.0, np.pi / 2, 79)
        traj = trajectory(minus_y(), PtParams(gamma=0.0), grid)
        np.testing.assert_allclose(traj.distance, grid, atol=1e-12)

    def test_accelerating_flip_near_break(self):
        grid = np.linspace(0.0, np.pi / 2, 101)
        traj = trajectory(minus_y(), PtParams(gamma=0.95), grid)
        assert traj.distance[-1] == pytest.approx(np.pi / 2, abs=1e-9)
        halfway = traj.distance[50]
        assert halfway < 0.5 * traj.distance[-1]

    def test_single_point_grid(self):
        traj = trajectory(minus_y(), PtParams(gamma=0.6), [0.0])
        assert len(traj) == 1
        assert traj.distance[0] == 0.0

    def test_grid_validation(self):
        params = PtParams()
        with pytest.raises(ParameterError):
            trajectory(minus_y(), params, [])
        with pytest.raises(ParameterError):
            trajectory(minus_y(), params, [0.1, 0.2])
        with pytest.raises(ParameterError):
            trajectory(minus_y(), params, [0.0, 0.2, 0.2])

    def test_bloch_stays_in_yz_plane(self):
        grid = np.linspace(0.0, np.pi / 2, 31)
        traj = trajectory(minus_y(), PtParams(gamma=0.6), grid)
        assert np.max(np.abs(traj.bloch[:, 0])) < 1e-12


class TestSpeedProfile:
    def test_uniform_speed(self):
        grid = np.arange(0.0, 0.2, 1e-3)
        traj = trajectory(minus_y(), PtParams(gamma=0.0), grid)
        np.testing.assert_allclose(speed_profile(traj), np.ones(len(grid)), atol=1e-6)

    def test_increasing_speed_near_break(self):
        grid = np.linspace(0.0, np.pi / 2, 201)
        traj = trajectory(minus_y(), PtParams(gamma=0.95), grid)
        speeds = speed_profile(traj)
        interior = speeds[1:-1]
        assert np.all(np.diff(interior) > 0.0)

    def test_needs_two_points(self):
        traj = trajectory(minus_y(), PtParams(), [0.0])
        with pytest.raises(ParameterError):
            speed_profile(traj)
