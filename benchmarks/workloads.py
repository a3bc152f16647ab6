"""Seeded workload generators.

Every workload is a fixed cycle of operation kinds; the seed draws only the
parameter values inside each operation.  A fixed cycle keeps the op mix, and
so the position of the 50th and 90th latency percentiles, the same on every
seed: each percentile falls inside one cluster of same-sized operations
rather than on the boundary between two sizes, where noise would move it
from one cluster to the other.

An operation is either a CLI command (argv for ``ptqubit.cli.main``) or a
direct call of ``evolve_density_nonlinear``, which no CLI command reaches.
All inputs stay inside the documented ranges and at least 0.1 away from the
exceptional point gamma/j = 1, where the reference route is ill-conditioned.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: Cycles run by the traced run and by the untraced run it is compared with.
#: Fixed, not timed, so that call counts repeat exactly for a given seed.
TRACE_CYCLES = {"k3-sweep": 3, "shots": 100, "dynamics": 6}


@dataclass(frozen=True)
class Op:
    """One closed-loop operation and the inputs its check needs."""

    command: str  # CLI subcommand, or "rk4" for the direct flow call
    argv: tuple = ()
    params: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _grid(lo: float, hi: float, n: int) -> str:
    return f"{_num(lo)}:{_num(hi)}:{n}"


def _cli(command, *flags, j=None, gamma=None, fmt="csv", out=False, **params):
    argv = [command, *flags]
    if j is not None:
        argv += ["--j", _num(j)]
    if gamma is not None:
        argv += ["--gamma", _num(gamma)]
    if fmt == "json":
        argv += ["--format", "json"]
    params.update(j=1.0 if j is None else j, gamma=0.0 if gamma is None else gamma, format=fmt, out=out)
    return Op(command, tuple(argv), params)


def _pts(rng, j):
    return rng.uniform(0.0, 0.9) * j


def _ptb(rng, j):
    return rng.uniform(1.1, 2.5) * j


def _k3_sweep_cycle(rng):
    """Five two-ratio k3max sweeps straddling the break, then one EP report."""
    ops = []
    for _ in range(5):
        lo, hi = rng.uniform(0.0, 0.9), rng.uniform(1.1, 3.0)
        j = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        flags = ["--grid", _grid(lo, hi, 2)]
        pts_hi = math.pi / 4.0
        if rng.random() < 0.25:
            flags.append("--wide")
            pts_hi = math.pi / 2.0
        elif rng.random() < 0.5:
            pts_hi = rng.uniform(0.6, math.pi / 4.0)
            flags += ["--t-hi", _num(pts_hi)]
        ptb_hi = 10.0
        if rng.random() < 0.5:
            ptb_hi = rng.uniform(4.0, 10.0)
            flags += ["--ptb-t-hi", _num(ptb_hi)]
        if rng.random() < 0.5:
            flags += ["--tol", "1e-10"]
        ops.append(
            _cli(
                "k3max", *flags, j=j, fmt=rng.choice(["csv", "json"]),
                ratios=(lo, hi), pts_hi=pts_hi, ptb_hi=ptb_hi,
            )
        )
    eps = math.exp(rng.uniform(math.log(2e-3), math.log(0.1)))
    ops.append(_cli("k3max", "--ep-report", "--ep-eps", _num(eps), eps=eps))
    return ops


def _shots_cycle(rng):
    """Finite-shot estimates in both modes, with and without bootstrap, plus self-checks."""
    plan = [
        ("k3", "ideal", False, "csv"),
        ("k3", "dilated", False, "csv"),
        ("k3", "dilated", True, "csv"),
        ("witness", "ideal", False, "csv"),
        ("witness", "dilated", False, "json"),
        ("conditional", "ideal", True, "csv"),
        ("conditional", "dilated", False, "csv"),
        ("k3", "ideal", True, "json"),
    ]
    ops = []
    for quantity, mode, bootstrap, fmt in plan:
        j = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        shots = int(10 ** rng.uniform(4.0, 5.0))
        flags = ["--quantity", quantity, "--mode", mode, "--shots", str(shots)]
        flags += ["--seed", str(rng.randrange(2**31))] + ["--bootstrap"] * bootstrap
        params = dict(quantity=quantity, mode=mode, shots=shots)
        if quantity == "k3":
            params["t"] = rng.uniform(0.05, math.pi / 2.0)
            flags += ["--t", _num(params["t"])]
        else:
            params["tau"] = rng.uniform(0.05, math.pi / 2.0)
            flags += ["--tau", _num(params["tau"])]
        if quantity == "conditional":
            params["qin"] = rng.choice([-1, 1])
            flags += ["--qin", str(params["qin"])]
        ops.append(_cli("montecarlo", *flags, j=j, gamma=rng.uniform(0.0, 0.8) * j, fmt=fmt, **params))
    for fmt in ("csv", "json"):
        j = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        tau = rng.uniform(0.0, math.pi / 2.0)
        ops.append(_cli("dilation-check", "--tau", _num(tau), j=j, gamma=_pts(rng, j), fmt=fmt, tau=tau))
    return ops


def _dynamics_cycle(rng):
    """Dense trajectory, distance, correlator and witness tables, then two RK4 flows.

    Sizes are chosen so that sorted latencies read: k3, witness and the small
    distance table (40%), the three 1000-point evolve tables (30%), one
    1500-point distance table (10%) and the RK4 flows (20%).  The median then
    sits inside the evolve cluster and the 90th percentile inside the RK4 one.
    """
    ops = []

    def trajectory_op(command, n, broken, fmt, out):
        j = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        gamma = _ptb(rng, j) if broken else _pts(rng, j)
        hi = rng.uniform(2.0, 6.0) if broken else rng.uniform(1.2, math.pi / 2.0)
        ops.append(_cli(command, "--grid", _grid(0.0, hi, n), j=j, gamma=gamma, fmt=fmt, out=out, grid=(0.0, hi, n)))

    trajectory_op("evolve", 1000, False, "csv", False)
    trajectory_op("evolve", 1000, True, "json", True)
    trajectory_op("evolve", 1000, False, "csv", True)
    trajectory_op("distance", 800, False, "csv", False)
    trajectory_op("distance", 1500, True, "json", False)
    for broken, fmt, out in ((False, "csv", False), (True, "json", True)):
        j = rng.choice([1.0, rng.uniform(0.5, 2.0)])
        gamma = _ptb(rng, j) if broken else _pts(rng, j)
        lo = rng.uniform(0.0, 0.2)
        hi = rng.uniform(1.0, 5.0) if broken else rng.uniform(0.6, math.pi / 4.0)
        ops.append(_cli("k3", "--grid", _grid(lo, hi, 600), j=j, gamma=gamma, fmt=fmt, out=out, grid=(lo, hi, 600)))
    j = rng.choice([1.0, rng.uniform(0.5, 2.0)])
    hi = rng.uniform(0.5, 0.95)
    ops.append(_cli("witness", "--grid", _grid(0.0, hi, 600), j=j, grid=(0.0, hi, 600)))
    for broken in (False, True):
        ops.append(_rk4_op(rng, broken))
    return ops


def _rk4_op(rng, broken):
    j = rng.choice([1.0, rng.uniform(0.5, 2.0)])
    gamma = _ptb(rng, j) if broken else _pts(rng, j)
    rate = math.sqrt(abs(j * j - gamma * gamma))
    t = rng.uniform(1.45, 1.6) / rate  # scaled horizon 1.45..1.6
    dt = 1e-3 / rate  # the package default: 1e-3 scaled-time units
    theta, phi = math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)
    psi = (math.cos(theta / 2.0), complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0))
    return Op("rk4", (), dict(j=j, gamma=gamma, t=t, dt=dt, psi=psi, steps=max(1, math.ceil(t / dt))))


CYCLES = {"k3-sweep": _k3_sweep_cycle, "shots": _shots_cycle, "dynamics": _dynamics_cycle}
WORKLOADS = tuple(CYCLES)


def cycles(workload: str, seed: int):
    """Endless stream of op cycles for a workload; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    make = CYCLES[workload]
    while True:
        yield make(rng)
