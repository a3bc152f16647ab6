"""Independent reference route for the benchmark's correctness gate.

Nothing here imports ptqubit.  Propagation goes through a numpy
eigendecomposition of H = j sigma_x + i gamma sigma_z, not through the
package's closed-form trigonometric/hyperbolic propagator, so it is valid
away from the exceptional point (the workloads keep |gamma/j - 1| >= 0.05
wherever a value is compared against it).  Times are scaled as in the
package: tau = Omega t below the break and w t above it.
"""

from __future__ import annotations

import numpy as np

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PLUS_Y = np.array([1.0, 1.0j]) / np.sqrt(2.0)
MINUS_Y = np.array([1.0, -1.0j]) / np.sqrt(2.0)


def _rate(j, gamma):
    return np.sqrt(np.abs(np.asarray(j, float) ** 2 - np.asarray(gamma, float) ** 2))


def propagators(j, gamma, tau):
    """exp(-iHt) at scaled times tau, shape broadcast(j, gamma, tau) + (2, 2).

    One eigendecomposition per (j, gamma) pair; the times only enter the
    phases, so a long time grid at fixed parameters costs no extra eig calls.
    """
    j, gamma = np.broadcast_arrays(np.asarray(j, float), np.asarray(gamma, float))
    h = j[..., None, None] * SX + 1j * gamma[..., None, None] * SZ
    evals, vecs = np.linalg.eig(h)
    t = np.asarray(tau, float) / _rate(j, gamma)
    phases = np.exp(-1j * evals * t[..., None])
    return (vecs * phases[..., None, :]) @ np.linalg.inv(vecs)


def evolve(j, gamma, tau, psi):
    """Normalized U(tau) psi; psi has shape (2,) or broadcasts against the times."""
    out = (propagators(j, gamma, tau) @ np.asarray(psi, complex)[..., None])[..., 0]
    return out / np.linalg.norm(out, axis=-1, keepdims=True)


def prob_plus(j, gamma, tau, psi):
    """Born probability of reading sigma_y = +1 after evolving psi for tau."""
    return np.abs(evolve(j, gamma, tau, psi) @ PLUS_Y.conj()) ** 2


def bloch(states):
    """Bloch vectors (x, y, z) of normalized states, shape (..., 3)."""
    a1, a2 = states[..., 0], states[..., 1]
    cross = np.conj(a1) * a2
    return np.stack([2 * cross.real, 2 * cross.imag, np.abs(a1) ** 2 - np.abs(a2) ** 2], axis=-1)


def correlator_table(j, gamma, t):
    """Columns (C12, C23, C13, K3) along interval array t, shape (..., 4)."""
    a = prob_plus(j, gamma, t, MINUS_Y)
    b = prob_plus(j, gamma, t, PLUS_Y)
    c = prob_plus(j, gamma, 2.0 * np.asarray(t), MINUS_Y)
    c12 = 1.0 - 2.0 * a
    c13 = 1.0 - 2.0 * c
    c23 = a * b - a * (1.0 - b) - (1.0 - a) * a + (1.0 - a) ** 2
    return np.stack([c12, c23, c13, c12 + c23 - c13], axis=-1)


def k3(j, gamma, t):
    return correlator_table(j, gamma, t)[..., 3]


def k3_max(j, gamma, lo, hi, points=4096):
    """Dense-scan maximum of K3 on [lo, hi], then a fine scan of the best cell."""
    grid = np.linspace(lo, hi, points)
    values = k3(j, gamma, grid)
    i = int(np.argmax(values))
    best_t, best_v = float(grid[i]), float(values[i])
    step = (hi - lo) / (points - 1)
    fine = np.linspace(max(lo, best_t - step), min(hi, best_t + step), 2001)
    values = k3(j, gamma, fine)
    i = int(np.argmax(values))
    return float(fine[i]), max(best_v, float(values[i]))


def witness_state(j, gamma):
    """The witness preparation (-sqrt(j-gamma)|+y> + sqrt(j+gamma)|-y>)/sqrt(2j)."""
    j, gamma = np.asarray(j, float), np.asarray(gamma, float)
    plus = -np.sqrt(np.maximum(j - gamma, 0.0))[..., None] * PLUS_Y
    minus = np.sqrt(j + gamma)[..., None] * MINUS_Y
    return (plus + minus) / np.sqrt(2.0 * j)[..., None]


def witness(j, gamma, tau=np.pi / 4.0):
    """(p_without, p_with, W) for gamma <= j, vectorized over gamma."""
    psi0 = witness_state(j, gamma)
    p_without = prob_plus(j, gamma, tau, psi0)
    p0 = np.abs(psi0 @ PLUS_Y.conj()) ** 2
    p_with = p0 * prob_plus(j, gamma, tau, PLUS_Y) + (1.0 - p0) * prob_plus(j, gamma, tau, MINUS_Y)
    return p_without, p_with, np.abs(p_with - p_without)


def metric_operator(j, gamma):
    """eta = (j I + gamma sigma_y)/Omega, the intertwiner named in the README."""
    eta = (j * np.eye(2) + gamma * SY) / _rate(j, gamma)
    h = j * SX + 1j * gamma * SZ
    if np.max(np.abs(eta @ h - h.conj().T @ eta)) > 1e-12:
        raise ArithmeticError("metric operator does not intertwine H")
    return eta


def dilation_success(j, gamma, tau, psi):
    """Post-selection success |U psi|^2 / <psi|(I + eta^2)|psi> for normalized psi."""
    psi = np.asarray(psi, complex)
    eta = metric_operator(j, gamma)
    raw = propagators(j, gamma, tau) @ psi
    return float(np.vdot(raw, raw).real / np.vdot(psi, (np.eye(2) + eta @ eta) @ psi).real)


def density_flow(j, gamma, t_raw, rho0):
    """Exact normalized solution U rho0 U^dag / Tr(U rho0 U^dag) at raw time t."""
    u = propagators(j, gamma, t_raw * _rate(j, gamma))
    rho = u @ rho0 @ u.conj().T
    return rho / np.trace(rho).real
