"""Two- and four-level state primitives, Pauli algebra, and Bloch geometry.

Basis ordering is fixed as (|1>, |2>) = (gain level, loss level) everywhere;
the sign conventions of the gain/loss generator depend on it.  States are
compared only through fidelity |<a|b>|^2, never componentwise, since every
observable quantity in scope is insensitive to a global phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NormalizationError, VanishingNormError

# Gate on the norm (or trace) of inputs that must be normalized.
ATOL_NORM = 1e-9

# Renormalization floor: below this norm a state counts as annihilated.
NORM_FLOOR = 1e-14


def _readonly(matrix) -> np.ndarray:
    out = np.array(matrix, dtype=complex)
    out.setflags(write=False)
    return out


IDENTITY2 = _readonly([[1, 0], [0, 1]])
SIGMA_X = _readonly([[0, 1], [1, 0]])
SIGMA_Y = _readonly([[0, -1j], [1j, 0]])
SIGMA_Z = _readonly([[1, 0], [0, -1]])

#: A 2x2 complex matrix acting as gate, observable, or generator.
Operator2 = np.ndarray


@dataclass(frozen=True)
class PureState:
    """A two-level probability-amplitude pair on the basis (|1>, |2>)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(2)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "PureState":
        """Return the unit-norm state along this ray.

        Raises VanishingNormError when the norm sits below the floor, which
        signals an annihilated state rather than a recoverable rounding issue.
        """
        n = self.norm
        if n < NORM_FLOOR:
            raise VanishingNormError(f"cannot normalize state with norm {n:.3e}")
        return PureState(self.amplitudes / n)

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "PureState") -> float:
        """Phase-insensitive overlap |<self|other>|^2."""
        return float(abs(self.overlap(other)) ** 2)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """A 2x2 density operator."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex).reshape(2, 2)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def plus_y() -> PureState:
    """(|1> + i|2>)/sqrt(2), the +1 eigenstate of sigma_y."""
    return PureState(np.array([1.0, 1.0j]) / np.sqrt(2.0))


def minus_y() -> PureState:
    """(|1> - i|2>)/sqrt(2), the -1 eigenstate of sigma_y."""
    return PureState(np.array([1.0, -1.0j]) / np.sqrt(2.0))


def bloch_from(state: Union[PureState, DensityMatrix]) -> np.ndarray:
    """Pauli expectation values (x, y, z) of a normalized pure state or density matrix.

    Returns a (3,) array, like the rows of Trajectory.bloch.  Raises
    NormalizationError when the input norm (or trace) deviates from 1 by
    more than 1e-9.
    """
    if isinstance(state, PureState):
        if abs(state.norm - 1.0) > ATOL_NORM:
            raise NormalizationError(f"state norm {state.norm} is not 1 within {ATOL_NORM}")
        rho = state.density().matrix
    else:
        if abs(state.trace - 1.0) > ATOL_NORM:
            raise NormalizationError(f"trace {state.trace} is not 1 within {ATOL_NORM}")
        rho = state.matrix
    return np.array([np.trace(rho @ sigma).real for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def _distance(a: np.ndarray, b: np.ndarray):
    # s = arccos(|<a|b>| / (|a| |b|)) as atan2 of the parts of b across and
    # along a, which stays accurate near 0 and pi/2 where arccos loses half
    # the digits; both parts scale with |a| |b|, so the norms drop out.  b is
    # one state (2,) or a stack of states (n, 2).
    along = abs(b @ a.conj())
    across = abs(a[0] * b[..., 1] - a[1] * b[..., 0])
    return np.arctan2(across, along)


def fubini_study_distance(a: PureState, b: PureState) -> float:
    """Distance s = arccos(|<a|b>| / (|a| |b|)) in radians, in [0, pi/2].

    Geometrically half the geodesic angle between the two points on the
    Bloch sphere.  Symmetric and invariant under global phases and norms,
    and accurate to rounding even for nearly equal or nearly orthogonal
    states.
    """
    if a.norm < NORM_FLOOR or b.norm < NORM_FLOOR:
        raise VanishingNormError("cannot measure distance from a vanishing state")
    return float(_distance(a.amplitudes, b.amplitudes))

