"""Prepare-and-measure conditional probabilities, two-time correlators, and
the temporal-correlation figures of merit K3 and W.

All correlators are assembled from conditional probabilities p_tau(Q'|Q): the
chance of reading outcome Q' after evolving for a scaled time tau from the
eigenstate |Q> of sigma_y, the one observable the protocol prepares and
reads (Leggett & Garg, PRL 54, 857 (1985)).  Measurements at the
three instants (0, T, 2T) then give

    C12 = -p_T(+|-) + p_T(-|-)
    C13 = -p_2T(+|-) + p_2T(-|-)
    C23 = p_T(+|-) p_T(+|+) - p_T(+|-) p_T(-|+)
        - p_T(-|-) p_T(+|-) + p_T(-|-) p_T(-|-)

and K3 = C12 + C23 - C13 (see assemble_k3, shared with the finite-shot
estimates).  C13 deliberately uses a single uninterrupted evolution of
duration 2T, while C23 factorizes through the collapse at T.  Intervals may
be scalars or arrays: a whole grid of T is propagated in one call, and so is
a whole grid of gain/loss rates for the witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RegimeError
from .pt_dynamics import RATE_LIMIT, PtParams, Regime, _evolve, _in_ep_band, _raw_times
from .qstate import PureState, minus_y, plus_y


#: Eigenstates of sigma_y by outcome Q = +1, -1: the protocol prepares and
#: reads these and no other observable.  math.sqrt(0.5) is 1/sqrt(2)
#: correctly rounded; dividing by np.sqrt(2) lands one ulp lower, which
#: would move seeded Monte Carlo draws.
_EIGENSTATES = {q: PureState(math.sqrt(0.5) * np.array([1.0, q * 1j])) for q in (+1, -1)}


def _eigenstate(q: int) -> PureState:
    """sigma_y eigenstate for outcome q in {+1, -1}."""
    try:
        return _EIGENSTATES[q]
    except KeyError:
        raise ParameterError(f"outcome must be +1 or -1, got {q}") from None


@dataclass(frozen=True)
class CorrelatorSet:
    """Two-time correlators and K3 = C12 + C23 - C13 at intervals T.

    Fields are floats for a single interval and arrays of T's shape for a grid.
    """

    t: float | np.ndarray
    c12: float | np.ndarray
    c23: float | np.ndarray
    c13: float | np.ndarray
    k3: float | np.ndarray


@dataclass(frozen=True)
class WitnessResult:
    """Outcome probabilities with/without the earlier measurement, and their gap."""

    p_with: float
    p_without: float
    w: float


def conditional_prob(q_out: int, q_in: int, tau, params: PtParams):
    """p_tau(q_out | q_in): Born probability after evolving a sigma_y eigenstate.

    tau is scaled time (tau in PTS/EP, w*t in PTB), a scalar or an array;
    the result is a float, or an array of tau's shape.  For each q_in the
    two outcomes are complementary to machine precision because the evolved
    state is renormalized before projection.
    """
    p = _conditional(q_out, q_in, params.j, params.gamma, params.time_from_scaled(tau))
    return p if p.ndim else float(p)


def _conditional(q_out: int, q_in: int, j, gamma, t):
    # p(q_out | q_in) after raw times t at gain/loss rates gamma (see _evolve)
    evolved = _evolve(_eigenstate(q_in).amplitudes, j, gamma, t)
    return np.abs(evolved @ _eigenstate(q_out).amplitudes.conj()) ** 2


def assemble_k3(a1, c, a2, b, a3):
    """(C12, C23, C13, K3) from the five conditional probabilities of +1.

    a1 = p_T(+|-) for C12, c = p_2T(+|-) for C13, and for C23 the collapse
    probability a2 = p_T(+|-) with the re-evolution branches b = p_T(+|+)
    and a3 = p_T(+|-).  The exact path passes a1 = a2 = a3; finite-shot
    estimates draw each slot independently.  Works elementwise on arrays.
    """
    c12 = 1.0 - 2.0 * a1
    c13 = 1.0 - 2.0 * c
    c23 = a2 * b - a2 * (1.0 - b) - (1.0 - a2) * a3 + (1.0 - a2) * (1.0 - a3)
    return c12, c23, c13, c12 + c23 - c13


def k3_gradient(a1, c, a2, b, a3):
    """Partial derivatives of K3 = assemble_k3(...)[3] in argument order.

    Used for first-order (delta-method) error propagation.
    """
    return (-2.0, 2.0, 2.0 * b + 2.0 * a3 - 2.0, 2.0 * a2, -2.0 * (1.0 - a2))


def assemble_witness(p0, p_without, q_plus, q_minus):
    """(p_with, W) from the four probabilities of reading +1 in the witness protocol.

    p0 is the chance of +1 at the time-zero measurement, p_without the readout
    without it, and q_plus, q_minus the readouts after each collapse branch:
    p_with = p0 q_plus + (1 - p0) q_minus and W = |p_with - p_without|.
    Shared by the exact witness and the finite-shot estimate; works
    elementwise on arrays.
    """
    p_with = p0 * q_plus + (1.0 - p0) * q_minus
    return p_with, abs(p_with - p_without)


def correlators(t_interval, params: PtParams) -> CorrelatorSet:
    """Correlator set at measurement intervals T (scaled units).

    T is a scalar or an array; every field of the result then has T's shape
    (floats for a scalar T).  The protocol window is T in [0, pi/2] below
    the break (one flip period; everything is periodic beyond it) and any
    T >= 0 on the hyperbolic side.
    """
    t = np.asarray(t_interval, dtype=float)
    a = conditional_prob(+1, -1, t, params)
    b = conditional_prob(+1, +1, t, params)
    c = conditional_prob(+1, -1, 2.0 * t, params)
    c12, c23, c13, k3 = assemble_k3(a, c, a, b, a)
    return CorrelatorSet(t=t if t.ndim else float(t), c12=c12, c23=c23, c13=c13, k3=k3)


def _witness_amplitudes(j, gamma) -> np.ndarray:
    # The witness preparation before normalization, shape gamma.shape + (2,)
    w_plus = -np.sqrt(np.maximum(j - gamma, 0.0))
    w_minus = np.sqrt(j + gamma)
    amps = w_plus[..., None] * plus_y().amplitudes + w_minus[..., None] * minus_y().amplitudes
    return amps / math.sqrt(2.0 * j)


def witness_initial_state(params: PtParams) -> PureState:
    """The witness preparation (-sqrt(j-gamma)|+>_y + sqrt(j+gamma)|->_y)/sqrt(2j).

    Chosen so that one quarter-period flips it exactly onto |+>_y for every
    gamma < j.  Requires gamma <= j; clamped at the EP where the |+>_y weight
    vanishes.
    """
    if params.regime is Regime.PTB:
        raise RegimeError(
            f"witness preparation needs gamma <= j, got gamma/j = {params.ratio}"
        )
    # defensive: analytically normalized already
    return PureState(_witness_amplitudes(params.j, params.gamma)).normalized()


def _witness(j: float, gamma, tau: float = math.pi / 4.0):
    # (p_without, p_with, w) at scaled time tau for gain/loss rates gamma, a
    # scalar or a 1-d array, evaluated elementwise in one pass.  The first
    # rate in order that PtParams or witness_initial_state rejects raises
    # their error.
    ratio = gamma / j
    valid = (0.0 <= gamma) & (gamma <= RATE_LIMIT) & ((ratio < 1.0) | _in_ep_band(ratio))
    if not np.all(valid):
        witness_initial_state(PtParams(j=j, gamma=float(np.ravel(gamma)[np.argmin(valid)])))
    t = _raw_times(j, gamma, tau)
    amps = _witness_amplitudes(j, gamma)
    psi0 = amps / np.linalg.norm(amps, axis=-1)[..., None]
    # plus_y() is 1/np.sqrt(2), one ulp off _EIGENSTATES: these two readouts
    # keep the bits of the state-fidelity route they replace
    plus = plus_y().amplitudes.conj()
    p_without = np.abs(_evolve(psi0, j, gamma, t) @ plus) ** 2
    p_with, w = assemble_witness(
        np.abs(psi0 @ plus) ** 2,
        p_without,
        _conditional(+1, +1, j, gamma, t),
        _conditional(+1, -1, j, gamma, t),
    )
    return p_without, p_with, w


def quantum_witness(params: PtParams, tau: float = math.pi / 4.0) -> WitnessResult:
    """Disturbance |p'(+) - p(+)| inflicted by a measurement at time zero.

    p_without is the probability of reading +1 after evolving the witness
    preparation for the scaled time tau; p_with averages the same readout
    over the collapse outcomes of a sigma_y measurement performed at time 0.
    This wraps the package's witness routine for one ratio; inside, gamma
    may be an array, and a whole ratio grid is evaluated in one call.
    """
    p_without, p_with, w = _witness(params.j, params.gamma, tau)
    return WitnessResult(p_with=float(p_with), p_without=float(p_without), w=float(w))
