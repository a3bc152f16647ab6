"""Unitary embedding of the gain-loss dynamics with post-selection.

The non-unitary qubit propagator is realized exactly inside a 4-level
unitary acting on the direct sum of a system block S = span{|1>, |2>} and an
ancilla block A = span{|3>, |4>}.  The embedding weights come from the
metric operator eta = (j I + gamma sigma_y)/Omega, the unique positive
Hermitian intertwiner eta H = H^dagger eta of the generator.  The block
unitary

    U(tau) = [[F, G], [-G, F]],
    F = cos(tau) I - i (Omega/j) sin(tau) sigma_x,
    G = (gamma/j) sin(tau) sigma_z,

satisfies F + G eta = U_PT(tau) identically, so discarding runs that land in
A leaves the system block carrying the exact post-selected dynamics, with no
approximation.  The construction requires the unbroken regime (eta is
positive definite only for gamma < j).
"""

from __future__ import annotations

import numpy as np

from .errors import RegimeError, VanishingNormError
from .pt_dynamics import (
    PtParams,
    Regime,
    _as_times,
    evolve_state_scaled,
    hamiltonian,
    propagator_scaled,
)
from .qstate import (
    IDENTITY2,
    NORM_FLOOR,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Operator2,
    PureState,
    minus_y,
)


def _require_unbroken(params: PtParams, what: str) -> None:
    if params.regime is not Regime.PTS:
        raise RegimeError(
            f"{what} is defined only in the unbroken regime; "
            f"gamma/j = {params.ratio} is {params.regime.value}"
        )


def metric_operator(params: PtParams) -> Operator2:
    """The positive Hermitian intertwiner (j I + gamma sigma_y)/Omega."""
    _require_unbroken(params, "the metric operator")
    return (params.j * IDENTITY2 + params.gamma * SIGMA_Y) / params.omega


def embed_initial(psi0: PureState, params: PtParams) -> np.ndarray:
    """Embed a qubit state as N (psi0 (+) eta psi0) with N the positive normalizer.

    Returns the unit-norm (4,) amplitudes on the basis (|1>, |2>, |3>, |4>):
    the system block [:2] and the ancilla block [2:].
    """
    eta = metric_operator(params)
    system = psi0.normalized().amplitudes
    total = np.concatenate([system, eta @ system])
    return total / np.linalg.norm(total)


def dilation_unitary(params: PtParams, tau: float) -> np.ndarray:
    """The (4, 4) block unitary [[F, G], [-G, F]] at scaled time tau >= 0.

    Defined in the unbroken regime only; F is the [:2, :2] block and G the
    [:2, 2:] block.
    """
    _require_unbroken(params, "the dilation unitary")
    tau = _as_times(tau)
    ratio_omega = params.omega / params.j
    ratio_gamma = params.gamma / params.j
    f = np.cos(tau) * IDENTITY2 - 1j * ratio_omega * np.sin(tau) * SIGMA_X
    g = ratio_gamma * np.sin(tau) * SIGMA_Z
    return np.block([[f, g], [-g, f]])


def postselect(state: np.ndarray) -> tuple[PureState, float]:
    """Project (4,) amplitudes onto the system block.

    Returns the renormalized system-block state together with the success
    probability, i.e. the squared norm of the block within the (normalized)
    composite state.
    """
    block = state[:2]
    norm = float(np.linalg.norm(block))
    if norm < NORM_FLOOR:
        raise VanishingNormError(f"system block annihilated (norm {norm:.3e})")
    return PureState(block / norm), norm**2


def pt_via_dilation(psi0: PureState, params: PtParams, tau: float) -> tuple[PureState, float]:
    """Run the full embed / rotate / post-select protocol for one scaled time.

    The returned state reproduces the direct normalized evolution exactly
    (F + G eta collapses to the closed-form propagator), and the success
    probability equals |U_PT psi0|^2 / <psi0|(I + eta^2)|psi0>.
    """
    return postselect(dilation_unitary(params, tau) @ embed_initial(psi0, params))


def dilation_report(params: PtParams, tau: float, psi0: PureState | None = None) -> dict:
    """Self-check residuals of the dilation construction at one (params, tau).

    Keys: unitarity_residual, intertwining_residual, block_identity_residual
    (max-abs entries), fidelity_vs_direct, success_prob.
    """
    if psi0 is None:
        psi0 = minus_y()
    u = dilation_unitary(params, tau)
    eta = metric_operator(params)
    h = hamiltonian(params)
    unitarity = np.max(np.abs(u.conj().T @ u - np.eye(4)))
    intertwining = np.max(np.abs(eta @ h - h.conj().T @ eta))
    block_identity = np.max(np.abs(u[:2, :2] + u[:2, 2:] @ eta - propagator_scaled(params, tau)))
    selected, success = pt_via_dilation(psi0, params, tau)
    direct = evolve_state_scaled(psi0, params, tau)
    return {
        "unitarity_residual": float(unitarity),
        "intertwining_residual": float(intertwining),
        "block_identity_residual": float(block_identity),
        "fidelity_vs_direct": selected.fidelity(direct),
        "success_prob": float(success),
    }
