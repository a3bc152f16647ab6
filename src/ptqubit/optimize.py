"""Interval optimization of K3 and gain/loss-ratio sweeps across regimes.

The objective K3(T) is smooth and cheap, so the global maximum over an
interval is located by a dense grid scan followed by golden-section
refinement inside the best grid cell.  Ratio sweeps reuse that search with
the regime-appropriate time variable (scaled tau below the symmetry-breaking
point, w*t above it) and characterize the jump of the optimum across it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import correlators
from .errors import ParameterError
from .pt_dynamics import EP_THRESHOLD, PtParams, Regime

#: Default search windows per regime: one plotted quarter-period for the
#: oscillatory side, and enough hyperbolic time for the correlators to
#: settle on their fixed points on the broken side.
DEFAULT_PTS_RANGE = (0.0, math.pi / 4.0)
WIDE_PTS_RANGE = (0.0, math.pi / 2.0)
DEFAULT_PTB_RANGE = (0.0, 10.0)

#: Samples of the dense scan that seeds the golden-section refinement.
GRID_POINTS = 2000

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepPoint:
    """Optimal interval and K3 value at one gain/loss ratio."""

    gamma_over_j: float
    regime: Regime
    t_star: float
    k3_max: float


@dataclass(frozen=True)
class EpDiscontinuity:
    """Extrapolated limits of max K3 from both sides of the symmetry break."""

    left_limit: float
    right_value: float
    jump: float
    eps_sequence: tuple


def _golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    # Maximize a unimodal f on [lo, hi] to bracket width tol.  Widths below a
    # few ulps of the bracket stop shrinking, so tol is raised to that floor.
    tol = max(tol, 4.0 * math.ulp(max(abs(lo), abs(hi))))
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 >= f2:  # ties move left, toward smaller T
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    x = a if f(a) >= f(b) else b
    return x, f(x)


def max_k3_over_T(
    params: PtParams,
    t_range: tuple[float, float] = DEFAULT_PTS_RANGE,
    tol: float = 1e-8,
) -> tuple[float, float]:
    """Global maximum of K3 over an interval range; returns (t_star, k3_max).

    Dense scan with GRID_POINTS samples, evaluated in one array call, then
    scalar golden-section refinement of the best grid cell down to
    |dT| < tol.  Ties break toward smaller T, and the refinement can only
    improve on the scan.
    """
    lo, hi = float(t_range[0]), float(t_range[1])
    if not -math.inf < lo <= hi < math.inf:
        raise ParameterError(f"invalid search range ({lo}, {hi})")
    if not tol > 0.0:
        raise ParameterError(f"tolerance must be positive, got {tol}")

    def objective(t):
        return correlators(t, params).k3

    if lo == hi:
        return lo, objective(lo)

    grid = np.linspace(lo, hi, GRID_POINTS)
    values = correlators(grid, params).k3
    best = int(np.argmax(values))  # first (smallest-T) maximizer on ties
    t_best, v_best = float(grid[best]), float(values[best])
    bracket_lo = grid[max(best - 1, 0)]
    bracket_hi = grid[min(best + 1, GRID_POINTS - 1)]
    t_ref, v_ref = _golden_section_max(objective, bracket_lo, bracket_hi, tol)
    if v_ref > v_best or (v_ref == v_best and t_ref < t_best):
        return t_ref, v_ref
    return t_best, v_best


def _touches_ep(ratios: np.ndarray) -> bool:
    # The one test of the exceptional-point band |gamma/j - 1| <= EP_THRESHOLD.
    return bool(np.any(np.abs(ratios - 1.0) <= EP_THRESHOLD))


def sweep_gamma(
    ratio_grid,
    *,
    j: float = 1.0,
    pts_range: tuple[float, float] = DEFAULT_PTS_RANGE,
    ptb_range: tuple[float, float] = DEFAULT_PTB_RANGE,
    tol: float = 1e-8,
) -> list[SweepPoint]:
    """Per-ratio K3 optimization across both regimes.

    A grid with any ratio within EP_THRESHOLD of 1 is rejected before any
    optimization, since the optimum is discontinuous there and a silent
    regime pick would mislead (ep_discontinuity reports both sides).  The
    search window follows the regime: pts_range (scaled tau) below,
    ptb_range (w*t) above.
    """
    ratios = np.asarray(ratio_grid, dtype=float)
    if _touches_ep(ratios):
        raise ParameterError(
            "the gamma/j grid touches the exceptional point 1, where the optimum is "
            "discontinuous; choose a grid that avoids gamma/j = 1, or use --ep-report "
            "for the limits on both sides"
        )
    PtParams(j=j)  # validates j before any ratio scales it
    points = []
    for ratio in ratios.tolist():  # Python floats: scalar math on np.float64 is slower
        if ratio < 0.0:
            raise ParameterError(f"gamma/j must be >= 0, got {ratio}")
        params = PtParams(j=j, gamma=ratio * j)
        t_range = ptb_range if params.regime is Regime.PTB else pts_range
        t_star, k3_max = max_k3_over_T(params, t_range, tol)
        points.append(
            SweepPoint(gamma_over_j=ratio, regime=params.regime, t_star=t_star, k3_max=k3_max)
        )
    return points


def _richardson_limit(values, eps_sequence) -> float:
    # Two elimination levels on a geometric eps sequence with ratio r:
    # kills the O(eps) then the O(eps^2) error terms.
    f0, f1, f2 = values
    r1 = eps_sequence[0] / eps_sequence[1]
    r2 = eps_sequence[1] / eps_sequence[2]
    g0 = (r1 * f1 - f0) / (r1 - 1.0)
    g1 = (r2 * f2 - f1) / (r2 - 1.0)
    rr = r1 * r2
    return (rr * g1 - g0) / (rr - 1.0)


def ep_discontinuity(
    eps: float = 1e-2,
    *,
    j: float = 1.0,
    pts_range: tuple[float, float] = DEFAULT_PTS_RANGE,
    ptb_range: tuple[float, float] = DEFAULT_PTB_RANGE,
    tol: float = 1e-8,
) -> EpDiscontinuity:
    """Limits of max K3 as gamma/j approaches 1 from both sides.

    Sweeps the six ratios gamma/j = 1 -+ eps over the geometric sequence
    (eps, eps/10, eps/100) and extrapolates each side to the symmetry point;
    an eps whose ratios round into the exceptional-point band is rejected.
    The jump is reported as a number, with no sign asserted a priori.
    """
    if not (0.0 < eps <= 0.1):
        raise ParameterError(f"eps must lie in (0, 0.1], got {eps}")
    eps_sequence = (eps, eps / 10.0, eps / 100.0)
    offsets = np.array(eps_sequence)
    ratios = np.concatenate([1.0 - offsets, 1.0 + offsets])
    if _touches_ep(ratios):
        raise ParameterError(
            f"eps = {eps} puts gamma/j = 1 -+ eps/100 inside the exceptional-point band "
            f"|gamma/j - 1| <= {EP_THRESHOLD}; choose a larger eps"
        )
    points = sweep_gamma(ratios, j=j, pts_range=pts_range, ptb_range=ptb_range, tol=tol)
    k3 = [p.k3_max for p in points]
    left_limit = _richardson_limit(k3[:3], eps_sequence)
    right_value = _richardson_limit(k3[3:], eps_sequence)
    return EpDiscontinuity(
        left_limit=left_limit,
        right_value=right_value,
        jump=right_value - left_limit,
        eps_sequence=eps_sequence,
    )
