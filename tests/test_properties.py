"""Generated-input properties of the propagation, dilation and flow paths.

Inputs: a random coupling j and a ratio gamma/j below the break, above it, or
inside the exceptional-point band, with time grids that always contain 0 and
points where |Omega t| < 1e-6.  Array results are compared element by element
with the scipy-expm route in oracles.py, a scalar call must reproduce the
matching element of the array call, and the invariants of the Leggett-Garg
quantities must hold.  The dilation's success probability and the RK4 density
flow are checked against the same expm route.  RuntimeWarnings are errors
here, so an overflow or a 0/0 in any branch fails the test instead of hiding
behind a masked value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ptqubit import (
    EP_THRESHOLD,
    DensityMatrix,
    PtParams,
    PureState,
    conditional_prob,
    correlators,
    evolve_density_nonlinear,
    evolve_state_scaled,
    propagator,
    pt_via_dilation,
    trajectory,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

#: Slack for probabilities computed as |<q|psi>|^2 of a renormalized state.
ROUNDING = 4 * np.finfo(float).eps

#: Scalar and array calls run the same closed form, but numpy sums one 2x2
#: product and a stack of them in different orders: equal up to rounding.
SAME = 1e-13

couplings = st.floats(0.2, 3.0)
# Ratios that round to just outside the EP band give Omega ~ 1e-5 j and raw
# times ~ 1e5, where the expm oracle itself drifts by ~1e-9 (the closed form
# agrees with a 60-digit reference there), so the band case is kept inside.
ratios = st.one_of(
    st.floats(0.0, 0.99),  # unbroken
    st.floats(1.01, 3.0),  # broken
    st.floats(-EP_THRESHOLD, EP_THRESHOLD)
    .map(lambda d: 1.0 + d)
    .filter(lambda r: abs(r - 1.0) <= EP_THRESHOLD),  # EP band
)
# 0, points with |Omega t| < 1e-6 (Omega <= 3 j for these ratios), and a spread
tiny_times = st.lists(st.floats(0.0, 3e-7), min_size=1, max_size=3)
spread_times = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12)
amplitudes = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda a: np.hypot(np.hypot(a[0], a[1]), np.hypot(a[2], a[3])) > 0.1
)

# derandomized, so every tier-1 run checks the same generated examples
examples = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def time_grid(tiny, spread):
    return np.concatenate([[0.0], tiny, spread])


@examples
@given(couplings, ratios, tiny_times, spread_times)
def test_propagator_matches_expm_and_scalar_calls(j, ratio, tiny, spread):
    params = PtParams(j=j, gamma=ratio * j)
    t = time_grid(tiny, spread) / j
    ours = propagator(params, t)
    assert ours.shape == t.shape + (2, 2)
    for k, t_k in enumerate(t):
        ref = oracles.expm_propagator(j, ratio * j, t_k)
        scale = max(1.0, np.max(np.abs(ref)))
        np.testing.assert_allclose(ours[k], ref, rtol=0.0, atol=1e-10 * scale)
        np.testing.assert_allclose(propagator(params, t_k), ours[k], rtol=SAME, atol=SAME)
    grid = t.reshape(-1, 1)
    assert propagator(params, grid).shape == grid.shape + (2, 2)


@examples
@given(couplings, ratios, tiny_times, spread_times)
def test_conditional_probabilities_match_expm_route(j, ratio, tiny, spread):
    params = PtParams(j=j, gamma=ratio * j)
    tau = time_grid(tiny, spread)
    for q_in in (+1, -1):
        p_plus = conditional_prob(+1, q_in, tau, params)
        p_minus = conditional_prob(-1, q_in, tau, params)
        assert p_plus.shape == tau.shape
        assert np.all((p_plus >= 0.0) & (p_plus <= 1.0 + ROUNDING))
        np.testing.assert_allclose(p_plus + p_minus, 1.0, rtol=0.0, atol=1e-12)
        for k, tau_k in enumerate(tau):
            ref = oracles.conditional(+1, q_in, tau_k, j, ratio * j)
            assert p_plus[k] == pytest.approx(ref, abs=1e-9)
            scalar = conditional_prob(+1, q_in, tau_k, params)
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(p_plus[k], abs=SAME)


@examples
@given(couplings, ratios, tiny_times, spread_times)
def test_k3_matches_expm_route_and_respects_bounds(j, ratio, tiny, spread):
    params = PtParams(j=j, gamma=ratio * j)
    t = time_grid(tiny, spread)
    cs = correlators(t, params)
    assert cs.k3.shape == t.shape
    assert np.all(cs.k3 <= 3.0 + 1e-12)
    for value in (cs.c12, cs.c23, cs.c13):
        assert np.all(np.abs(value) <= 1.0 + 1e-12)
    for k, t_k in enumerate(t):
        ref = oracles.correlator_set(t_k, j, ratio * j)
        assert (cs.c12[k], cs.c23[k], cs.c13[k], cs.k3[k]) == pytest.approx(ref, abs=1e-9)
        assert correlators(t_k, params).k3 == pytest.approx(cs.k3[k], abs=SAME)


@examples
@given(couplings, ratios, amplitudes, tiny_times, spread_times)
def test_trajectory_matches_expm_route(j, ratio, amps, tiny, spread):
    params = PtParams(j=j, gamma=ratio * j)
    grid = np.unique(time_grid(tiny, spread))
    psi0 = PureState([complex(amps[0], amps[1]), complex(amps[2], amps[3])]).normalized()
    traj = trajectory(psi0, params, grid)
    assert traj.states.shape == (grid.size, 2)
    assert traj.bloch.shape == (grid.size, 3)
    assert traj.distance.shape == (grid.size,)
    assert traj.distance[0] == 0.0
    np.testing.assert_allclose(np.linalg.norm(traj.states, axis=1), 1.0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(traj.bloch, axis=1), 1.0, rtol=0.0, atol=1e-12)
    for k, tau_k in enumerate(grid):
        ref = oracles.evolve(psi0.amplitudes, j, ratio * j, tau_k)
        np.testing.assert_allclose(traj.states[k], ref, rtol=0.0, atol=1e-9)
        scalar = evolve_state_scaled(psi0, params, tau_k).amplitudes
        np.testing.assert_allclose(scalar, traj.states[k], rtol=0.0, atol=SAME)


@examples
@given(couplings, st.floats(1.01, 3.0), st.floats(1e2, 1e6))
def test_broken_regime_long_horizons_stay_finite(j, ratio, horizon):
    # the raw propagator overflows past w t ~ 710; normalized paths must not
    params = PtParams(j=j, gamma=ratio * j)
    tau = np.array([0.0, 1.0, horizon, 2.0 * horizon])
    cs = correlators(tau, params)
    assert np.all(np.isfinite(cs.k3)) and np.all(cs.k3 <= 3.0 + 1e-12)
    traj = trajectory(PureState([1.0, -1.0j]).normalized(), params, tau)
    assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.distance))
    # at the fixed point the state no longer moves
    np.testing.assert_allclose(traj.bloch[2], traj.bloch[3], rtol=0.0, atol=1e-12)


def _state(amps):
    return PureState([complex(amps[0], amps[1]), complex(amps[2], amps[3])]).normalized()


@examples
@given(couplings, st.floats(0.0, 0.99), amplitudes, st.floats(0.0, 3.0))
def test_dilation_success_matches_expm_route(j, ratio, amps, tau):
    # success = |U psi|^2 / <psi|(I + eta^2)|psi>, with eta = (j I + gamma sigma_y)/Omega
    # in closed form and U the expm propagator at the raw time tau/Omega
    gamma = ratio * j
    psi = _state(amps)
    _, success = pt_via_dilation(psi, PtParams(j=j, gamma=gamma), tau)
    omega = np.sqrt(j * j - gamma * gamma)
    eta = (j * oracles.I2 + gamma * oracles.SY) / omega
    u = oracles.expm_propagator(j, gamma, oracles.raw_time(j, gamma, tau))
    psi_amps = psi.amplitudes
    expected = np.linalg.norm(u @ psi_amps) ** 2 / (1.0 + np.linalg.norm(eta @ psi_amps) ** 2)
    assert 0.0 < success <= 1.0 + ROUNDING
    assert success == pytest.approx(expected, rel=1e-9)


@examples
@given(couplings, ratios, amplitudes, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_rk4_flow_tracks_the_exact_normalized_flow(j, ratio, amps, purity, tau):
    # exact solution U rho0 U^dag / Tr(U rho0 U^dag) (Brody & Graefe, PRL 109,
    # 230405 (2012)) for a mixture of a pure state with the maximally mixed one
    gamma = ratio * j
    params = PtParams(j=j, gamma=gamma)
    a = _state(amps).amplitudes
    rho0 = purity * np.outer(a, a.conj()) + (1.0 - purity) * oracles.I2 / 2.0
    t = oracles.raw_time(j, gamma, tau)
    dt = 1e-2 / (j + gamma)  # a fixed fraction of the fastest rate, even next to the EP
    rho = evolve_density_nonlinear(DensityMatrix(rho0), params, t, dt).matrix
    u = oracles.expm_propagator(j, gamma, t)
    exact = u @ rho0 @ u.conj().T
    exact /= np.trace(exact).real
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
    np.testing.assert_allclose(rho, exact, rtol=0.0, atol=1e-6)
