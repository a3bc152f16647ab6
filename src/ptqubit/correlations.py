"""Prepare-and-measure conditional probabilities, two-time correlators, and
the temporal-correlation figures of merit K3 and W.

All correlators are assembled from conditional probabilities p_tau(Q'|Q): the
chance of reading outcome Q' after evolving for a scaled time tau from the
eigenstate |Q> of the chosen dichotomic observable.  Measurements at the
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
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, RegimeError
from .pt_dynamics import PtParams, Regime, _evolve, evolve_state_scaled
from .qstate import SIGMA_Y, Operator2, PureState, measure_projectors, minus_y, plus_y


@dataclass(frozen=True)
class MeasurementScenario:
    """Initial state, dichotomic observable, and the (0, T, 2T) instants.

    Defaults to the equatorial-flip configuration: start in the -1 eigenstate
    of sigma_y and measure sigma_y.  The observable must be Hermitian with
    two distinct eigenvalues; the larger one is mapped to Q = +1.
    """

    initial_state: PureState = field(default_factory=minus_y)
    observable: Operator2 = field(default_factory=lambda: np.array(SIGMA_Y))

    def __post_init__(self):
        obs = np.array(self.observable, dtype=complex).reshape(2, 2)
        obs.setflags(write=False)
        object.__setattr__(self, "observable", obs)
        p_plus, p_minus, _ = measure_projectors(obs)  # validates dichotomy
        # any nonzero column of a rank-1 projector spans its range
        plus = PureState(p_plus[:, int(np.argmax(np.abs(np.diag(p_plus))))]).normalized()
        minus = PureState(p_minus[:, int(np.argmax(np.abs(np.diag(p_minus))))]).normalized()
        object.__setattr__(self, "_eigenstates", {+1: plus, -1: minus})
        object.__setattr__(self, "initial_state", self.initial_state.normalized())

    def eigenstate(self, q: int) -> PureState:
        """Eigenstate for outcome q in {+1, -1}."""
        try:
            return self._eigenstates[q]
        except KeyError:
            raise ParameterError(f"outcome must be +1 or -1, got {q}") from None

    @staticmethod
    def times(t_interval: float) -> tuple[float, float, float]:
        return (0.0, t_interval, 2.0 * t_interval)


DEFAULT_SCENARIO = MeasurementScenario()


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


def conditional_prob(
    q_out: int,
    q_in: int,
    tau,
    params: PtParams,
    scenario: MeasurementScenario | None = None,
):
    """p_tau(q_out | q_in): Born probability after evolving an eigenstate.

    tau is scaled time (tau in PTS/EP, w*t in PTB), a scalar or an array;
    the result is a float, or an array of tau's shape.  For each q_in the
    two outcomes are complementary to machine precision because the evolved
    state is renormalized before projection.
    """
    scenario = scenario or DEFAULT_SCENARIO
    evolved = _evolve(
        scenario.eigenstate(q_in).amplitudes, params, params.time_from_scaled(tau)
    )
    p = np.abs(evolved @ scenario.eigenstate(q_out).amplitudes.conj()) ** 2
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


def correlators(
    t_interval,
    params: PtParams,
    scenario: MeasurementScenario | None = None,
) -> CorrelatorSet:
    """Correlator set at measurement intervals T (scaled units).

    T is a scalar or an array; every field of the result then has T's shape
    (floats for a scalar T).  The protocol window is T in [0, pi/2] below
    the break (one flip period; everything is periodic beyond it) and any
    T >= 0 on the hyperbolic side.
    """
    scenario = scenario or DEFAULT_SCENARIO
    t = np.asarray(t_interval, dtype=float)
    a = conditional_prob(+1, -1, t, params, scenario)
    b = conditional_prob(+1, +1, t, params, scenario)
    c = conditional_prob(+1, -1, 2.0 * t, params, scenario)
    c12, c23, c13, k3 = assemble_k3(a, c, a, b, a)
    return CorrelatorSet(t=t if t.ndim else float(t), c12=c12, c23=c23, c13=c13, k3=k3)


def k3_curve(
    t_grid,
    params: PtParams,
    scenario: MeasurementScenario | None = None,
) -> CorrelatorSet:
    """Correlator arrays along a grid of intervals, evaluated in one call."""
    return correlators(np.asarray(t_grid, dtype=float), params, scenario)


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

    p_plus_at_zero = plus_y().fidelity(psi0)
    p_with = p_plus_at_zero * conditional_prob(+1, +1, tau, params) + (
        1.0 - p_plus_at_zero
    ) * conditional_prob(+1, -1, tau, params)
    return WitnessResult(p_with=p_with, p_without=p_without, w=abs(p_with - p_without))
