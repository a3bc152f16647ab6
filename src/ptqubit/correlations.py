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
be scalars or arrays: a whole grid of T is propagated in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RegimeError
from .pt_dynamics import PtParams, Regime, _evolve, evolve_state_scaled
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
    evolved = _evolve(_eigenstate(q_in).amplitudes, params, params.time_from_scaled(tau))
    p = np.abs(evolved @ _eigenstate(q_out).amplitudes.conj()) ** 2
    return p if p.ndim else float(p)


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
    w_plus = -math.sqrt(max(params.j - params.gamma, 0.0))
    w_minus = math.sqrt(params.j + params.gamma)
    amps = (w_plus * plus_y().amplitudes + w_minus * minus_y().amplitudes) / math.sqrt(
        2.0 * params.j
    )
    return PureState(amps).normalized()  # defensive: analytically normalized already


def quantum_witness(params: PtParams, tau: float = math.pi / 4.0) -> WitnessResult:
    """Disturbance |p'(+) - p(+)| inflicted by a measurement at time zero.

    p_without is the probability of reading +1 after evolving the witness
    preparation for the scaled time tau; p_with averages the same readout
    over the collapse outcomes of a sigma_y measurement performed at time 0.
    """
    psi0 = witness_initial_state(params)
    evolved = evolve_state_scaled(psi0, params, tau)
    p_without = plus_y().fidelity(evolved)

    p_with, w = assemble_witness(
        plus_y().fidelity(psi0),
        p_without,
        conditional_prob(+1, +1, tau, params),
        conditional_prob(+1, -1, tau, params),
    )
    return WitnessResult(p_with=p_with, p_without=p_without, w=w)
