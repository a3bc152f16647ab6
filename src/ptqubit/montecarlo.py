"""Finite-shot emulation of the prepare-and-measure experiment.

Counting statistics are binomial throughout: a run of `shots` preparations
either all reach the readout (ideal mode) or first pass the post-selection
filter of the 4-level protocol (dilated mode), and each accepted shot yields
a dichotomic outcome.  Draws come from counter-based splittable generators,
one independent substream per (operation, probability slot), so changing one
budget never reshuffles another slot's stream.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .correlations import (
    DEFAULT_SCENARIO,
    MeasurementScenario,
    assemble_k3,
    conditional_prob,
    k3_gradient,
    quantum_witness,
    witness_initial_state,
)
from .dilation import pt_via_dilation
from .errors import NoStatisticsError, ParameterError
from .pt_dynamics import PtParams

MODES = ("ideal", "dilated")

#: Parametric-bootstrap resample count when a record's bootstrap flag is set.
BOOTSTRAP_RESAMPLES = 1000


@dataclass(frozen=True)
class ShotConfig:
    """Shot budget, RNG seed, sampling mode, and error-bar method.

    `shots` counts attempted preparations per probability slot; in dilated
    mode post-selection losses reduce the accepted counts rather than
    triggering re-runs, mirroring how success rates are reported.  Standard
    errors come from first-order variance propagation by default; with
    `bootstrap` set they come from a parametric bootstrap of the slot counts
    (BOOTSTRAP_RESAMPLES resamples) instead.
    """

    shots: int
    seed: int = 0
    mode: str = "ideal"
    bootstrap: bool = False

    def __post_init__(self):
        if self.shots < 1:
            raise ParameterError(f"shots must be >= 1, got {self.shots}")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class ShotRecord:
    """Counts, point estimate, standard error, and post-selection success rate."""

    accepted: int
    attempted: int
    estimate: float
    stderr: float

    @property
    def success_rate(self) -> float:
        return self.accepted / self.attempted


def substream(seed: int, label: str, slot: int = 0) -> np.random.Generator:
    """Independent counter-based generator for one (operation, slot) pair."""
    key = zlib.crc32(label.encode("utf-8"))
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(key, slot))
    return np.random.Generator(np.random.Philox(seq))


def _slot_probabilities(q_in: int, tau: float, params, scenario, mode: str):
    """(success probability, accepted-shot probability of Q' = +1) for one slot."""
    if mode == "ideal":
        return 1.0, conditional_prob(+1, q_in, tau, params, scenario)
    selected, success = pt_via_dilation(scenario.eigenstate(q_in), params, tau)
    return success, scenario.eigenstate(+1).fidelity(selected)


def _draw_slot(p_success, p_plus, shots, seed, label, mode) -> tuple[int, int]:
    """Draw (accepted, plus-count) for one probability slot."""
    if shots == 0:
        return 0, 0
    # exact Born weights can land an ulp outside [0, 1]
    p_success = min(max(p_success, 0.0), 1.0)
    p_plus = min(max(p_plus, 0.0), 1.0)
    if mode == "ideal":
        accepted = shots
    else:
        accepted = int(substream(seed, label, 0).binomial(shots, p_success))
    if accepted == 0:
        raise NoStatisticsError(f"slot {label!r}: no shots survived post-selection")
    plus = int(substream(seed, label, 1).binomial(accepted, p_plus))
    return accepted, plus


def _proportion_variance(p_hat: float, n: int) -> float:
    return p_hat * (1.0 - p_hat) / n if n > 0 else 0.0


def _bootstrap_stderr(slot_stats, assemble, rng: np.random.Generator) -> float:
    """Spread of the assembled statistic over resampled slot counts.

    Each slot's plus-count is redrawn at its observed rate
    (zero-weight slots stay at zero), then `assemble` maps the resampled
    proportions back to the statistic.
    """
    proportions = []
    for accepted, p_hat in slot_stats:
        if accepted == 0:
            proportions.append(np.zeros(BOOTSTRAP_RESAMPLES))
            continue
        rate = min(max(p_hat, 0.0), 1.0)
        proportions.append(rng.binomial(accepted, rate, size=BOOTSTRAP_RESAMPLES) / accepted)
    return float(np.std(assemble(*proportions), ddof=1))


def sample_conditional(
    q_in: int,
    tau: float,
    params: PtParams,
    config: ShotConfig,
    scenario: MeasurementScenario | None = None,
) -> ShotRecord:
    """Estimate p_tau(+1 | q_in) from finite shots."""
    scenario = scenario or DEFAULT_SCENARIO
    p_success, p_plus = _slot_probabilities(q_in, tau, params, scenario, config.mode)
    label = f"conditional:{q_in:+d}"
    accepted, plus = _draw_slot(p_success, p_plus, config.shots, config.seed, label, config.mode)
    estimate = plus / accepted
    if config.bootstrap:
        stderr = _bootstrap_stderr(
            [(accepted, estimate)], lambda p: p, substream(config.seed, label, 2)
        )
    else:
        stderr = math.sqrt(_proportion_variance(estimate, accepted))
    return ShotRecord(
        accepted=accepted,
        attempted=config.shots,
        estimate=estimate,
        stderr=stderr,
    )


def k3_sampled(
    t_interval: float,
    params: PtParams,
    config: ShotConfig,
    scenario: MeasurementScenario | None = None,
) -> ShotRecord:
    """Estimate K3 at interval T from five independent probability slots.

    The protocol runs five separate batches, one per conditional probability
    in the correlator assembly: the C12 readout, the C13 readout at 2T, and
    for C23 the collapse distribution plus the two re-evolution branches.
    The standard error combines the five independent binomial variances to
    first order (or bootstraps them, per the config).
    """
    scenario = scenario or DEFAULT_SCENARIO
    slots = {
        "k3:c12": (-1, t_interval),
        "k3:c13": (-1, 2.0 * t_interval),
        "k3:c23:collapse": (-1, t_interval),
        "k3:c23:from+": (+1, t_interval),
        "k3:c23:from-": (-1, t_interval),
    }
    estimates, variances, counts = {}, {}, {}
    for label, (q_in, tau) in slots.items():
        p_success, p_plus = _slot_probabilities(q_in, tau, params, scenario, config.mode)
        accepted, plus = _draw_slot(
            p_success, p_plus, config.shots, config.seed, label, config.mode
        )
        estimates[label] = plus / accepted
        variances[label] = _proportion_variance(estimates[label], accepted)
        counts[label] = accepted

    ordered = list(slots)
    proportions = [estimates[s] for s in ordered]
    k3 = assemble_k3(*proportions)[3]

    if config.bootstrap:
        stderr = _bootstrap_stderr(
            [(counts[s], estimates[s]) for s in ordered],
            lambda *p: assemble_k3(*p)[3],
            substream(config.seed, "k3:bootstrap", 0),
        )
    else:
        gradient = k3_gradient(*proportions)
        stderr = math.sqrt(sum(g**2 * variances[s] for g, s in zip(gradient, ordered)))

    return ShotRecord(
        accepted=sum(counts.values()),
        attempted=len(slots) * config.shots,
        estimate=k3,
        stderr=stderr,
    )


def witness_sampled(
    params: PtParams,
    config: ShotConfig,
    tau: float = math.pi / 4.0,
) -> ShotRecord:
    """Estimate the witness W = |p_with - p_without| from finite shots.

    The no-measurement branch evolves the witness preparation directly.  The
    measurement branch draws the collapse outcome at time zero from exact
    Born weights (a measurement on a freshly prepared known state), then
    re-evolves each collapse branch through the sampling mode in use.
    """
    psi0 = witness_initial_state(params)
    exact = quantum_witness(params, tau)

    if config.mode == "ideal":
        p_success_direct = 1.0
        p_plus_direct = exact.p_without
        succ_plus, q_plus = 1.0, conditional_prob(+1, +1, tau, params)
        succ_minus, q_minus = 1.0, conditional_prob(+1, -1, tau, params)
    else:
        selected, p_success_direct = pt_via_dilation(psi0, params, tau)
        p_plus_direct = DEFAULT_SCENARIO.eigenstate(+1).fidelity(selected)
        succ_plus, q_plus = _slot_probabilities(+1, tau, params, DEFAULT_SCENARIO, "dilated")
        succ_minus, q_minus = _slot_probabilities(-1, tau, params, DEFAULT_SCENARIO, "dilated")

    shots, seed, mode = config.shots, config.seed, config.mode
    acc_direct, plus_direct = _draw_slot(
        p_success_direct, p_plus_direct, shots, seed, "witness:direct", mode
    )
    p_hat_without = plus_direct / acc_direct
    var_without = _proportion_variance(p_hat_without, acc_direct)

    p_plus_zero = min(max(DEFAULT_SCENARIO.eigenstate(+1).fidelity(psi0), 0.0), 1.0)
    n_plus = int(substream(seed, "witness:first", 0).binomial(shots, p_plus_zero))
    n_minus = shots - n_plus
    p0_hat = n_plus / shots
    var_p0 = _proportion_variance(p0_hat, shots)

    # Zero-weight branches contribute nothing; only raise when a branch that
    # actually received preparations loses every shot to post-selection.
    def branch(n, succ, q, label):
        if n == 0:
            return 0, 0.0, 0.0
        acc, plus = _draw_slot(succ, q, n, seed, label, mode)
        q_hat = plus / acc
        return acc, q_hat, _proportion_variance(q_hat, acc)

    acc_plus, q_plus_hat, var_q_plus = branch(n_plus, succ_plus, q_plus, "witness:from+")
    acc_minus, q_minus_hat, var_q_minus = branch(n_minus, succ_minus, q_minus, "witness:from-")

    p_hat_with = p0_hat * q_plus_hat + (1.0 - p0_hat) * q_minus_hat

    if config.bootstrap:
        stderr = _bootstrap_stderr(
            [
                (shots, p0_hat),
                (acc_direct, p_hat_without),
                (acc_plus, q_plus_hat),
                (acc_minus, q_minus_hat),
            ],
            lambda p0, pw, qp, qm: np.abs(p0 * qp + (1.0 - p0) * qm - pw),
            substream(seed, "witness:bootstrap", 0),
        )
    else:
        var_with = (
            (q_plus_hat - q_minus_hat) ** 2 * var_p0
            + p0_hat**2 * var_q_plus
            + (1.0 - p0_hat) ** 2 * var_q_minus
        )
        stderr = math.sqrt(var_with + var_without)

    # One branch per probability: `shots` direct evolutions and `shots`
    # measure-then-re-evolve runs.
    return ShotRecord(
        accepted=acc_direct + acc_plus + acc_minus,
        attempted=2 * shots,
        estimate=abs(p_hat_with - p_hat_without),
        stderr=stderr,
    )
