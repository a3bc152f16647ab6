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
    _eigenstate,
    assemble_k3,
    assemble_witness,
    k3_gradient,
    witness_initial_state,
)
from .dilation import pt_via_dilation
from .errors import NoStatisticsError, ParameterError
from .pt_dynamics import PtParams, evolve_state_scaled
from .qstate import PureState

MODES = ("ideal", "dilated")

#: Parametric-bootstrap resample count when a record's bootstrap flag is set.
BOOTSTRAP_RESAMPLES = 1000

#: Largest shot budget: numpy's binomial draws take int64 counts.
MAX_SHOTS = int(np.iinfo(np.int64).max)


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
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ParameterError(f"shots must lie in [1, {MAX_SHOTS}], got {self.shots}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
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


def _draw(
    psi: PureState, tau: float, shots: int, label: str, params: PtParams, config: ShotConfig
) -> tuple[int, float]:
    """(accepted, proportion of +1 readouts) for one slot of `shots` preparations of psi.

    psi evolves for the scaled time tau directly (ideal mode, every shot
    accepted) or through the dilation, whose post-selection draws the
    accepted count from substream slot 0 (dilated mode); the readouts come
    from slot 1.  A slot without preparations gives (0, 0.0); one whose every
    preparation fails post-selection raises NoStatisticsError.
    """
    if shots == 0:
        return 0, 0.0
    if config.mode == "ideal":
        accepted, evolved = shots, evolve_state_scaled(psi, params, tau)
    else:
        evolved, success = pt_via_dilation(psi, params, tau)
        # exact Born weights can land an ulp outside [0, 1]
        success = min(max(success, 0.0), 1.0)
        accepted = int(substream(config.seed, label, 0).binomial(shots, success))
        if accepted == 0:
            raise NoStatisticsError(f"slot {label!r}: no shots survived post-selection")
    p_plus = min(max(_eigenstate(+1).fidelity(evolved), 0.0), 1.0)
    plus = int(substream(config.seed, label, 1).binomial(accepted, p_plus))
    return accepted, plus / accepted


def _stderr(
    slots: dict, statistic, gradient: dict, config: ShotConfig, stream: tuple[str, int]
) -> float:
    """Standard error of statistic(*proportions) over independent binomial slots.

    slots maps labels to (count, proportion) in statistic's argument order.
    With config.bootstrap, each slot's count is redrawn BOOTSTRAP_RESAMPLES
    times at its observed rate from substream(config.seed, *stream), in slot
    order (zero-count slots stay at zero), and the spread of the statistic is
    returned.  Otherwise the variances p(1 - p)/n propagate to first order
    through gradient, which maps labels to partial derivatives and is summed
    in its own order.
    """
    if config.bootstrap:
        rng = substream(config.seed, *stream)
        resampled = [
            rng.binomial(n, p, size=BOOTSTRAP_RESAMPLES) / n if n else np.zeros(BOOTSTRAP_RESAMPLES)
            for n, p in slots.values()
        ]
        return float(np.std(statistic(*resampled), ddof=1))
    variance = 0
    for label, g in gradient.items():
        n, p = slots[label]
        variance += g**2 * (p * (1.0 - p) / n if n else 0.0)
    return math.sqrt(variance)


def sample_conditional(q_in: int, tau: float, params: PtParams, config: ShotConfig) -> ShotRecord:
    """Estimate p_tau(+1 | q_in) from finite shots."""
    label = f"conditional:{q_in:+d}"
    accepted, estimate = _draw(_eigenstate(q_in), tau, config.shots, label, params, config)
    slots = {label: (accepted, estimate)}
    stderr = _stderr(slots, lambda p: p, {label: 1.0}, config, (label, 2))
    return ShotRecord(accepted=accepted, attempted=config.shots, estimate=estimate, stderr=stderr)


def k3_sampled(t_interval: float, params: PtParams, config: ShotConfig) -> ShotRecord:
    """Estimate K3 at interval T from five independent probability slots.

    The protocol runs five separate batches, one per conditional probability
    in the correlator assembly: the C12 readout, the C13 readout at 2T, and
    for C23 the collapse distribution plus the two re-evolution branches.
    The standard error combines the five independent binomial variances to
    first order (or bootstraps them, per the config).
    """
    plan = {
        "k3:c12": (-1, t_interval),
        "k3:c13": (-1, 2.0 * t_interval),
        "k3:c23:collapse": (-1, t_interval),
        "k3:c23:from+": (+1, t_interval),
        "k3:c23:from-": (-1, t_interval),
    }
    slots = {
        label: _draw(_eigenstate(q_in), tau, config.shots, label, params, config)
        for label, (q_in, tau) in plan.items()
    }
    proportions = [p for _, p in slots.values()]
    gradient = dict(zip(slots, k3_gradient(*proportions)))
    return ShotRecord(
        accepted=sum(n for n, _ in slots.values()),
        attempted=len(slots) * config.shots,
        estimate=assemble_k3(*proportions)[3],
        stderr=_stderr(slots, lambda *p: assemble_k3(*p)[3], gradient, config, ("k3:bootstrap", 0)),
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
    re-evolves each collapse branch through the sampling mode in use; a
    branch that no collapse outcome reached contributes nothing.
    """
    psi0 = witness_initial_state(params)
    shots = config.shots
    direct = _draw(psi0, tau, shots, "witness:direct", params, config)

    p_plus_zero = min(max(_eigenstate(+1).fidelity(psi0), 0.0), 1.0)
    n_plus = int(substream(config.seed, "witness:first", 0).binomial(shots, p_plus_zero))
    first = (shots, n_plus / shots)
    from_plus = _draw(_eigenstate(+1), tau, n_plus, "witness:from+", params, config)
    from_minus = _draw(_eigenstate(-1), tau, shots - n_plus, "witness:from-", params, config)

    slots = {"first": first, "direct": direct, "from+": from_plus, "from-": from_minus}
    p0, q_plus, q_minus = first[1], from_plus[1], from_minus[1]
    # p_with's terms, then p_without's: this summation order keeps every
    # bit of the seeded error bars
    gradient = {"first": q_plus - q_minus, "from+": p0, "from-": 1.0 - p0, "direct": 1.0}
    # One branch per probability: `shots` direct evolutions and `shots`
    # measure-then-re-evolve runs.
    return ShotRecord(
        accepted=direct[0] + from_plus[0] + from_minus[0],
        attempted=2 * shots,
        estimate=assemble_witness(p0, direct[1], q_plus, q_minus)[1],
        stderr=_stderr(
            slots, lambda *p: assemble_witness(*p)[1], gradient, config, ("witness:bootstrap", 0)
        ),
    )
