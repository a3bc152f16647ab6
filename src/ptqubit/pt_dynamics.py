"""Gain-loss qubit generator and exact propagation over arrays of times.

The generator H = J sigma_x + i Gamma sigma_z squares to (J^2 - Gamma^2) I,
so exp(-iHt) closes in terms of two scalars per time:

    U(t) = cos(Omega t) I - i sin(Omega t)/Omega * H         (Gamma < J)
    U(t) = I - i t H                                          (Gamma = J)
    U(t) = cosh(w t) I - i sinh(w t)/w * H,  w = sqrt(G^2-J^2) (Gamma > J)

Inside the package Gamma may also be an array broadcasting against the
times, and each entry takes the branch of its own sign of J^2 - Gamma^2; a
scalar Gamma picks one branch and evaluates it over its whole time array.
The sine terms are divided by the rate, never by the time, so t = 0 gives
the identity without a 0/0; only the exact point Gamma = J, where the rate
vanishes, takes the polynomial form, and near it the other two tend smoothly
to I - i t H.

Times may be a scalar or an array of any shape; matrices come back with
shape t.shape + (2, 2) and states with shape t.shape + (2,).  U is generally
non-unitary for Gamma > 0.  Normalized-state evolution only needs U up to a
positive factor, so above the break it uses the scale-free form
U/cosh(w t) = I - i tanh(w t)/w * H, which stays bounded and reaches the
fixed point at long times instead of overflowing.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import NormalizationError, ParameterError, VanishingNormError
from .qstate import (
    ATOL_NORM,
    NORM_FLOOR,
    SIGMA_X,
    SIGMA_Z,
    DensityMatrix,
    Operator2,
    PureState,
    _distance,
)

#: Width of the |Gamma/J - 1| band classified as the exceptional point.
EP_THRESHOLD = 1e-9

#: Rates lie within [1/RATE_LIMIT, RATE_LIMIT] (gamma may also be 0), so that
#: j^2 - gamma^2 neither overflows nor underflows to zero.
RATE_LIMIT = 1e150

#: One ulp below the largest double: tau <= rate * _TIME_LIMIT keeps tau / rate
#: finite for any rate < 1, the rounding of the product included.
_TIME_LIMIT = math.nextafter(sys.float_info.max, 0.0)

#: Largest number of fixed steps of the nonlinear-flow integrator.
MAX_RK4_STEPS = 10**6


class Regime(str, enum.Enum):
    """Symmetry regime of the gain-loss qubit."""

    PTS = "PTS"  # unbroken: Gamma < J, real spectrum
    EP = "EP"  # exceptional point: Gamma = J, coalesced spectrum
    PTB = "PTB"  # broken: Gamma > J, complex-conjugate spectrum


def _as_times(t):
    # Times as floats, rejecting negative, NaN and infinite entries.  A scalar
    # comes back as a numpy scalar, whose arithmetic and ufunc calls cost a
    # fraction of a 0-d array's; an array comes back as an array.
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        t = t[()]
        if not 0.0 <= t < math.inf:
            raise ParameterError(f"time must be finite and >= 0, got {t}")
    elif not ((t >= 0.0) & (t < math.inf)).all():
        raise ParameterError(f"times must be finite and >= 0, got min {t.min()}")
    return t


@dataclass(frozen=True)
class PtParams:
    """Physical configuration: coupling rate j and balanced gain/loss rate gamma.

    All rates are naturally expressed relative to j (default 1); regime and
    characteristic frequency are derived, with an EP band of half-width
    EP_THRESHOLD on the ratio gamma/j.
    """

    j: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if not 1.0 / RATE_LIMIT <= self.j <= RATE_LIMIT:
            raise ParameterError(
                f"coupling rate j must lie in [{1.0 / RATE_LIMIT:g}, {RATE_LIMIT:g}], got {self.j}"
            )
        if not 0.0 <= self.gamma <= RATE_LIMIT:
            raise ParameterError(
                f"gain/loss rate gamma must lie in [0, {RATE_LIMIT:g}], got {self.gamma}"
            )

    @property
    def ratio(self) -> float:
        return self.gamma / self.j

    @property
    def regime(self) -> Regime:
        r = self.ratio
        if _in_ep_band(r):
            return Regime.EP
        return Regime.PTS if r < 1.0 else Regime.PTB

    @property
    def omega(self) -> float:
        """|sqrt(j^2 - gamma^2)|: oscillation rate (PTS) or growth rate (PTB)."""
        return math.sqrt(abs(self.j**2 - self.gamma**2))

    def time_from_scaled(self, tau):
        """Raw times for scaled times: tau = Omega t (PTS), j t (EP), w t (PTB).

        Accepts a scalar or an array; rejects negative or non-finite entries,
        and scaled times whose raw time leaves the double range.
        """
        return _raw_times(self.j, self.gamma, tau)


def _in_ep_band(ratio):
    # gamma/j within EP_THRESHOLD of 1; elementwise on an array
    return abs(ratio - 1.0) <= EP_THRESHOLD


def _raw_times(j, gamma, tau):
    # PtParams.time_from_scaled elementwise over gamma, a scalar or an array
    # broadcasting against tau: tau = Omega t below the break, j t in the EP
    # band and w t above it.  tau / rate can overflow only for a rate below 1.
    tau = _as_times(tau)
    if isinstance(gamma, np.ndarray):
        rate = np.where(_in_ep_band(gamma / j), j, np.sqrt(abs(j**2 - gamma**2)))
        over = tau > np.where(rate < 1.0, rate, math.inf) * _TIME_LIMIT
    else:
        rate = j if _in_ep_band(gamma / j) else math.sqrt(abs(j**2 - gamma**2))
        over = tau > rate * _TIME_LIMIT if rate < 1.0 else np.False_
    if over.any() if over.ndim else over:  # .any() on a numpy scalar is slow
        raise ParameterError(
            f"scaled time {np.max(tau)} over rate {np.min(rate)} leaves the double range"
        )
    return tau / rate


@dataclass(frozen=True)
class Trajectory:
    """States, Bloch vectors, and distance-from-start along a scaled-time grid.

    times holds the scaled variable (tau for PTS/EP, w*t for PTB), shape (n,);
    states the unit-norm amplitudes, shape (n, 2); bloch the (x, y, z)
    components, shape (n, 3); distance the arccos|<psi0|psi>| values, (n,).
    """

    times: np.ndarray
    states: np.ndarray = field(repr=False)
    bloch: np.ndarray = field(repr=False)
    distance: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.times)


def hamiltonian(params: PtParams) -> Operator2:
    """The non-Hermitian generator j*sigma_x + i*gamma*sigma_z."""
    return params.j * SIGMA_X + 1j * params.gamma * SIGMA_Z


def _closed_form(j, gamma, t: np.ndarray, scale_free: bool) -> np.ndarray:
    # c I - i s H over validated raw times t, built from its four entries.
    # gamma is a scalar, or an array broadcasting against t whose entries each
    # take the branch of their own sign of j^2 - gamma^2.  With scale_free,
    # the broken branch is divided by cosh(w t).
    d = j * j - gamma * gamma
    if isinstance(d, np.ndarray):
        d, t = np.broadcast_arrays(d, t)
        c, s = np.ones(d.shape), t.copy()  # the EP branch
        for sign in (1.0, -1.0):
            part = sign * d > 0.0
            c[part], s[part] = _branch(sign, np.sqrt(sign * d[part]), t[part], scale_free)
    else:
        c, s = _branch(d, math.sqrt(abs(d)), t, scale_free)
    u = np.empty(t.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = c + gamma * s
    u[..., 0, 1] = u[..., 1, 0] = -1j * j * s
    u[..., 1, 1] = c - gamma * s
    return u


def _branch(sign, w, t, scale_free: bool):
    # (c, s) for one sign of j^2 - gamma^2, with w = sqrt|j^2 - gamma^2|:
    # rotation below the break, hyperbolic above it, polynomial at the EP
    if sign > 0.0:
        return np.cos(w * t), np.sin(w * t) / w
    if sign < 0.0:
        if scale_free:
            return 1.0, np.tanh(w * t) / w
        return np.cosh(w * t), np.sinh(w * t) / w
    return 1.0, t


def propagator(params: PtParams, t) -> np.ndarray:
    """Closed-form exp(-iHt) at raw times t >= 0; non-unitary when gamma > 0.

    t is a scalar or an array; the result has shape t.shape + (2, 2).  Above
    the break the entries grow like exp(w t) and raise ParameterError once
    they leave the double range; normalized evolution has no such limit.
    """
    t = _as_times(t)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as non-finite
        u = _closed_form(params.j, params.gamma, t, scale_free=False)
    if not np.isfinite(u).all():
        raise ParameterError(f"exp(-iHt) overflows at t = {t.max()}; w t is too large")
    return u


def propagator_scaled(params: PtParams, tau) -> np.ndarray:
    """Propagator at scaled times (tau in PTS/EP, w*t in PTB), shape tau.shape + (2, 2)."""
    return propagator(params, params.time_from_scaled(tau))


def _evolve(amplitudes: np.ndarray, j, gamma, t) -> np.ndarray:
    # Unit-norm U(t) psi over validated raw times t at gain/loss rates gamma
    # (see _closed_form).  U is complex symmetric (sigma_x and sigma_z are),
    # so psi U = U psi.  One state (2,) meets every matrix; a stack of states
    # (..., 2) pairs with the matrices by broadcasting, one state per rate.
    u = _closed_form(j, gamma, t, scale_free=True)
    raw = amplitudes @ u if amplitudes.ndim == 1 else (amplitudes[..., None, :] @ u)[..., 0, :]
    mag = abs(raw)
    norm = np.hypot(mag[..., 0], mag[..., 1])  # no overflow in the squares
    valid = (norm >= NORM_FLOOR) & (norm < math.inf)
    if not (valid.all() if valid.ndim else valid):  # .all() on a numpy scalar is slow
        if np.any(norm < NORM_FLOOR):
            raise VanishingNormError(f"propagated state annihilated (norm {np.min(norm):.3e})")
        raise NormalizationError("propagated state norm is not finite")
    return raw / norm[..., None]


def evolve_state(psi0: PureState, params: PtParams, t: float) -> PureState:
    """Propagate and renormalize a pure state over one raw time t."""
    return PureState(_evolve(psi0.amplitudes, params.j, params.gamma, _as_times(t)))


def evolve_state_scaled(psi0: PureState, params: PtParams, tau: float) -> PureState:
    """Propagate and renormalize over one scaled time (tau in PTS/EP, w*t in PTB)."""
    t = params.time_from_scaled(tau)
    return PureState(_evolve(psi0.amplitudes, params.j, params.gamma, t))


def evolve_density_nonlinear(
    rho0: DensityMatrix, params: PtParams, t: float, dt: float | None = None
) -> DensityMatrix:
    """Integrate the trace-preserving nonlinear flow of the density operator.

    The cubic collective term -2 gamma rho Tr(sigma_z rho) keeps Tr(rho) = 1
    along exact solutions; a classical fourth-order fixed-step integrator is
    used, with the step shrunk (never grown) so the horizon t is hit exactly.
    Both t and dt are raw time; dt defaults to 1e-3 scaled-time units.  The
    integrator runs on the four entries of rho as complex scalars, with the
    right-hand side written out entry by entry.  No per-step renormalization
    is applied, so trace drift is a direct measure of integration error.  A
    horizon needing more than MAX_RK4_STEPS steps, or a rho0 with a
    non-finite entry, a trace off 1 or an entry of rho0 - rho0^dag larger
    than ATOL_NORM, raises ParameterError; positivity is not checked.  A
    flow that leaves the double range (a non-positive rho0 or a step too
    long for the rates can drive it there) raises NormalizationError.
    """
    t = float(_as_times(t))
    if dt is None:
        dt = params.time_from_scaled(1e-3)
    if not 0.0 < dt < math.inf:
        raise ParameterError(f"step dt must be finite and positive, got {dt}")
    # compared before dividing, so t / dt cannot overflow
    if t / MAX_RK4_STEPS > dt:
        raise ParameterError(f"horizon {t} needs more than {MAX_RK4_STEPS} steps of {dt}")
    rho = rho0.matrix
    if not np.isfinite(rho).all():
        raise ParameterError("density matrix has a non-finite entry")
    if np.max(abs(rho - rho.conj().T)) > ATOL_NORM:
        raise ParameterError(f"density matrix is not hermitian within {ATOL_NORM}")
    trace = np.trace(rho)
    if abs(trace - 1.0) > ATOL_NORM:
        raise ParameterError(f"density matrix trace {trace.real} is not 1 within {ATOL_NORM}")
    if t == 0.0:
        return rho0
    steps = max(1, math.ceil(t / dt))
    h = t / steps
    half, sixth = 0.5 * h, h / 6.0
    gamma = params.gamma
    mij, g2 = -1j * params.j, 2.0 * gamma

    def rhs(a, b, c, d):
        # -i j [sx, rho] + gamma {sz, rho} - 2 gamma rho Tr(sz rho) on the entries
        # [[a, b], [c, d]]: [sx, rho] = [[c-b, d-a], [a-d, b-c]], {sz, rho} =
        # diag(2a, -2d) and Tr(sz rho) = a - d, real for a hermitian rho.  Keep
        # each sum in this order: the frozen matrices of the tests pin every bit.
        w = g2 * (a - d).real
        return (
            mij * (c - b) + gamma * (a + a) - w * a,
            mij * (d - a) - w * b,
            mij * (a - d) - w * c,
            mij * (b - c) - gamma * (d + d) - w * d,
        )

    a, b, c, d = rho.ravel().tolist()
    for _ in range(steps):
        k1a, k1b, k1c, k1d = rhs(a, b, c, d)
        k2a, k2b, k2c, k2d = rhs(a + half * k1a, b + half * k1b, c + half * k1c, d + half * k1d)
        k3a, k3b, k3c, k3d = rhs(a + half * k2a, b + half * k2b, c + half * k2c, d + half * k2d)
        k4a, k4b, k4c, k4d = rhs(a + h * k3a, b + h * k3b, c + h * k3c, d + h * k3d)
        a += sixth * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b += sixth * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        c += sixth * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        d += sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
    rho = np.array([[a, b], [c, d]])
    if not np.isfinite(rho).all():
        raise NormalizationError("nonlinear flow left the double range")
    return DensityMatrix(rho)


def trajectory(psi0: PureState, params: PtParams, t_grid: Sequence[float]) -> Trajectory:
    """Evolve psi0 along a scaled-time grid, recording Bloch vectors and distance.

    The grid must be 1-d, strictly increasing and start at 0, so
    distance[0] = 0.  All n points are propagated in one call; the result
    holds (n,) times and distances, (n, 2) states and (n, 3) Bloch vectors.
    """
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ParameterError("time grid must be a non-empty 1-d sequence")
    if grid[0] != 0.0:
        raise ParameterError(f"time grid must start at 0, got {grid[0]}")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ParameterError("time grid must be strictly increasing")
    start = psi0.normalized().amplitudes
    states = _evolve(start, params.j, params.gamma, params.time_from_scaled(grid))
    a1, a2 = states[:, 0], states[:, 1]
    cross = a1.conj() * a2
    bloch = np.stack([2.0 * cross.real, 2.0 * cross.imag, abs(a1) ** 2 - abs(a2) ** 2], axis=-1)
    distance = _distance(start, states)
    distance[0] = 0.0  # grid[0] = 0 is psi0 itself, whatever the last-bit rounding
    return Trajectory(times=grid, states=states, bloch=bloch, distance=distance)


def speed_profile(traj: Trajectory) -> np.ndarray:
    """Evolution speed ds/dtau by central differences, one-sided at the ends."""
    if len(traj) < 2:
        raise ParameterError("speed profile needs at least 2 trajectory points")
    return np.gradient(traj.distance, traj.times, edge_order=1)
