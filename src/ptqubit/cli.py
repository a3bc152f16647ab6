"""Command-line front end: emit plot-ready data tables as CSV or JSON.

Subcommands: evolve, distance, correlators, k3, k3max, witness, montecarlo,
dilation-check.  Output goes to stdout (or --out) as CSV with 12 significant
digits, or as a single JSON document with --format json.  A --config file of
flat key=value pairs supplies defaults that explicit flags override.

Exit codes: 0 success, 2 usage or parameter error, 3 numeric failure
(vanishing or non-finite norm, empty statistics, degenerate observable, or a
failed self-check residual): every other package error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .correlations import correlators, k3_curve, quantum_witness
from .dilation import dilation_report
from .errors import ParameterError, PtQubitError, RegimeError
from .montecarlo import ShotConfig, k3_sampled, sample_conditional, witness_sampled
from .optimize import (
    DEFAULT_PTB_RANGE,
    DEFAULT_PTS_RANGE,
    WIDE_PTS_RANGE,
    ep_discontinuity,
    sweep_gamma,
)
from .pt_dynamics import EP_THRESHOLD, PtParams, speed_profile, trajectory
from .qstate import minus_y

SCHEMA_VERSION = "1"

#: Residual gates for the dilation self-check.
CHECK_TOLERANCES = {
    "unitarity_residual": 1e-12,
    "intertwining_residual": 1e-12,
    "block_identity_residual": 1e-12,
}
CHECK_MIN_FIDELITY = 1.0 - 1e-10

_DEFAULTS = {
    "j": 1.0,
    "gamma": 0.0,
    "t": math.pi / 6.0,
    "tau": math.pi / 4.0,
    "shots": 10000,
    "seed": 0,
    "mode": "ideal",
    "format": "csv",
    "quantity": "k3",
    "qin": -1,
    "tol": 1e-8,
    "t_hi": DEFAULT_PTS_RANGE[1],
    "ptb_t_hi": DEFAULT_PTB_RANGE[1],
    "ep_eps": 1e-2,
    # 50 intervals per quarter-period flip; a rendering choice, not physics.
    "grid": None,
}
_GRID_DEFAULTS = {
    "evolve": f"0:{math.pi / 2}:51",
    "distance": f"0:{math.pi / 2}:51",
    "k3": f"0:{math.pi / 4}:51",
    "k3max": "0:0.95:20",
    "witness": None,
}


def parse_grid(spec: str) -> np.ndarray:
    """Parse 'lo:hi:n' into n evenly spaced points including both endpoints."""
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ParameterError(f"grid must be lo:hi:n, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterError(f"grid must be lo:hi:n with numeric fields, got {spec!r}") from exc
    if n < 1:
        raise ParameterError(f"grid needs at least 1 point, got {n}")
    if hi < lo:
        raise ParameterError(f"grid upper bound {hi} is below lower bound {lo}")
    if n == 1 and hi != lo:
        raise ParameterError("a 1-point grid requires lo == hi")
    return np.linspace(lo, hi, n)


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ParameterError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    return values


class _Resolver:
    """Merge explicit flags over config-file values over built-in defaults."""

    def __init__(self, args: argparse.Namespace):
        self.cli = vars(args)
        self.file = _load_config_file(args.config) if args.config else {}

    def get(self, name: str, cast=float):
        if self.cli.get(name) is not None:
            return self.cli[name]
        if name in self.file:
            return cast(self.file[name])
        if name == "grid":
            return _GRID_DEFAULTS.get(self.cli["command"])
        return _DEFAULTS[name]

    def params(self) -> PtParams:
        return PtParams(j=self.get("j"), gamma=self.get("gamma"))

    def grid(self) -> np.ndarray:
        spec = self.get("grid", cast=str)
        if spec is None:
            raise ParameterError("this command requires --grid lo:hi:n")
        return spec if isinstance(spec, np.ndarray) else parse_grid(spec)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".12g")
    return str(value)


def _emit(columns, rows, args, parameters, status: int = 0) -> int:
    if args.format_ == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "parameters": parameters,
            "columns": list(columns),
            "rows": [[(v if isinstance(v, str) else _json_number(v)) for v in row] for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


def _json_number(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value)


def _cmd_evolve(resolver: _Resolver, args) -> int:
    params = resolver.params()
    grid = resolver.grid()
    traj = trajectory(minus_y(), params, grid)
    columns = [
        "tau",
        "re_a1",
        "im_a1",
        "re_a2",
        "im_a2",
        "bloch_x",
        "bloch_y",
        "bloch_z",
        "distance",
    ]
    # viewed as floats, each (a1, a2) row reads re_a1, im_a1, re_a2, im_a2
    amplitudes = traj.states.view(float)
    rows = np.column_stack([traj.times, amplitudes, traj.bloch, traj.distance]).tolist()
    return _emit(columns, rows, args, {"j": params.j, "gamma": params.gamma}, 0)


def _cmd_distance(resolver: _Resolver, args) -> int:
    params = resolver.params()
    grid = resolver.grid()
    traj = trajectory(minus_y(), params, grid)
    speeds = speed_profile(traj) if len(traj) >= 2 else np.zeros(1)
    rows = np.column_stack([traj.times, traj.distance, speeds]).tolist()
    return _emit(["tau", "distance", "speed"], rows, args, {"j": params.j, "gamma": params.gamma}, 0)


def _correlator_rows(cs):
    return np.column_stack([cs.t, cs.c12, cs.c23, cs.c13, cs.k3]).tolist()


def _cmd_correlators(resolver: _Resolver, args) -> int:
    params = resolver.params()
    t_interval = resolver.get("t")
    cs = correlators(t_interval, params)
    return _emit(
        ["T", "C12", "C23", "C13", "K3"],
        _correlator_rows(cs),
        args,
        {"j": params.j, "gamma": params.gamma, "t": t_interval},
        0,
    )


def _cmd_k3(resolver: _Resolver, args) -> int:
    params = resolver.params()
    grid = resolver.grid()
    rows = _correlator_rows(k3_curve(grid, params))
    return _emit(["T", "C12", "C23", "C13", "K3"], rows, args, {"j": params.j, "gamma": params.gamma}, 0)


def _cmd_k3max(resolver: _Resolver, args) -> int:
    j = resolver.get("j")
    tol = resolver.get("tol")
    pts_range = WIDE_PTS_RANGE if args.wide else (0.0, resolver.get("t_hi"))
    ptb_range = (0.0, resolver.get("ptb_t_hi"))
    if args.ep_report:
        eps = resolver.get("ep_eps")
        report = ep_discontinuity(eps=eps, j=j, pts_range=pts_range, ptb_range=ptb_range, tol=tol)
        rows = [[eps, report.left_limit, report.right_value, report.jump]]
        return _emit(
            ["eps", "left_limit", "right_value", "jump"],
            rows,
            args,
            {"j": j, "eps": eps},
            0,
        )
    grid = resolver.grid()
    if np.any(np.abs(grid - 1.0) <= EP_THRESHOLD):
        raise ParameterError(
            "the gamma/j grid touches the exceptional point 1, where the optimum is "
            "discontinuous; choose a grid that avoids gamma/j = 1, or use --ep-report "
            "for the limits on both sides"
        )
    points = sweep_gamma(grid, j=j, pts_range=pts_range, ptb_range=ptb_range, tol=tol)
    rows = [[p.gamma_over_j, p.regime.value, p.t_star, p.k3_max] for p in points]
    return _emit(["gamma_over_j", "regime", "t_star", "k3_max"], rows, args, {"j": j}, 0)


def _cmd_witness(resolver: _Resolver, args) -> int:
    j = resolver.get("j")
    if resolver.cli.get("grid") is not None or "grid" in resolver.file:
        ratios = resolver.grid()
    else:
        ratios = [resolver.get("gamma") / j]
    rows = []
    for ratio in np.asarray(ratios, dtype=float):
        result = quantum_witness(PtParams(j=j, gamma=ratio * j))
        rows.append([ratio, result.p_without, result.p_with, result.w])
    return _emit(["gamma_over_j", "p_without", "p_with", "witness"], rows, args, {"j": j}, 0)


def _cmd_montecarlo(resolver: _Resolver, args) -> int:
    params = resolver.params()
    config = ShotConfig(
        shots=int(resolver.get("shots", cast=int)),
        seed=int(resolver.get("seed", cast=int)),
        mode=str(resolver.get("mode", cast=str)),
        bootstrap=bool(args.bootstrap),
    )
    quantity = str(resolver.get("quantity", cast=str))
    if quantity == "conditional":
        record = sample_conditional(
            int(resolver.get("qin", cast=int)), resolver.get("tau"), params, config
        )
    elif quantity == "k3":
        record = k3_sampled(resolver.get("t"), params, config)
    elif quantity == "witness":
        record = witness_sampled(params, config, tau=resolver.get("tau"))
    else:
        raise ParameterError(f"unknown quantity {quantity!r}")
    rows = [
        [
            quantity,
            record.estimate,
            record.stderr,
            record.accepted,
            record.attempted,
            record.success_rate,
        ]
    ]
    return _emit(
        ["quantity", "estimate", "stderr", "accepted", "attempted", "success_rate"],
        rows,
        args,
        {
            "j": params.j,
            "gamma": params.gamma,
            "shots": config.shots,
            "seed": config.seed,
            "mode": config.mode,
        },
        0,
    )


def _cmd_dilation_check(resolver: _Resolver, args) -> int:
    params = resolver.params()
    tau = resolver.get("tau")
    report = dilation_report(params, tau)
    passed = all(
        report[name] < tolerance for name, tolerance in CHECK_TOLERANCES.items()
    ) and report["fidelity_vs_direct"] >= CHECK_MIN_FIDELITY
    rows = [[name, value] for name, value in report.items()]
    rows.append(["passed", int(passed)])
    status = 0 if passed else 3
    return _emit(
        ["metric", "value"],
        rows,
        args,
        {"j": params.j, "gamma": params.gamma, "tau": tau},
        status,
    )


_HANDLERS = {
    "evolve": _cmd_evolve,
    "distance": _cmd_distance,
    "correlators": _cmd_correlators,
    "k3": _cmd_k3,
    "k3max": _cmd_k3max,
    "witness": _cmd_witness,
    "montecarlo": _cmd_montecarlo,
    "dilation-check": _cmd_dilation_check,
}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--j", type=float, default=None, help="coupling rate (default 1)")
    sub.add_argument("--gamma", type=float, default=None, help="gain/loss rate (default 0)")
    sub.add_argument("--format", dest="format_", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub.add_argument("--config", default=None, help="flat key=value file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptqubit",
        description="Gain-loss qubit dynamics, dilation checks, and temporal-correlation data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("evolve", help="state, Bloch vector, and distance along a tau grid")
    sub.add_argument("--grid", default=None, help="tau grid lo:hi:n (default 0:pi/2:51)")
    _add_common(sub)

    sub = commands.add_parser("distance", help="distance from start and evolution speed vs tau")
    sub.add_argument("--grid", default=None, help="tau grid lo:hi:n (default 0:pi/2:51)")
    _add_common(sub)

    sub = commands.add_parser("correlators", help="correlator set at a single interval T")
    sub.add_argument("--t", type=float, default=None, help="measurement interval T (scaled)")
    _add_common(sub)

    sub = commands.add_parser("k3", help="correlator curve over an interval grid")
    sub.add_argument("--grid", default=None, help="interval grid lo:hi:n (default 0:pi/4:51)")
    _add_common(sub)

    sub = commands.add_parser("k3max", help="optimal K3 swept over gamma/j ratios")
    sub.add_argument("--grid", default=None, help="gamma/j grid lo:hi:n (default 0:0.95:20)")
    sub.add_argument("--t-hi", dest="t_hi", type=float, default=None,
                     help="upper interval bound below the break (default pi/4)")
    sub.add_argument("--wide", action="store_true", help="widen the interval search to [0, pi/2]")
    sub.add_argument("--ptb-t-hi", dest="ptb_t_hi", type=float, default=None,
                     help="upper w*t bound above the break (default 10)")
    sub.add_argument("--tol", type=float, default=None, help="refinement tolerance (default 1e-8)")
    sub.add_argument("--ep-report", dest="ep_report", action="store_true",
                     help="emit left limit, right value, and jump at gamma/j = 1 instead")
    sub.add_argument("--ep-eps", dest="ep_eps", type=float, default=None,
                     help="largest offset of the extrapolation sequence (default 1e-2)")
    _add_common(sub)

    sub = commands.add_parser("witness", help="quantum witness at one ratio or over a ratio grid")
    sub.add_argument("--grid", default=None, help="gamma/j grid lo:hi:n (optional)")
    _add_common(sub)

    sub = commands.add_parser("montecarlo", help="finite-shot estimates with standard errors")
    sub.add_argument("--quantity", choices=("conditional", "k3", "witness"), default=None)
    sub.add_argument("--qin", type=int, choices=(-1, 1), default=None,
                     help="preparation outcome for quantity=conditional (default -1)")
    sub.add_argument("--tau", type=float, default=None, help="evolution time (scaled, default pi/4)")
    sub.add_argument("--t", type=float, default=None, help="interval T for quantity=k3 (default pi/6)")
    sub.add_argument("--shots", type=int, default=None, help="attempted preparations (default 10000)")
    sub.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    sub.add_argument("--mode", choices=("ideal", "dilated"), default=None)
    sub.add_argument("--bootstrap", action="store_true",
                     help="bootstrap error bars (1000 resamples) instead of propagation")
    _add_common(sub)

    sub = commands.add_parser("dilation-check", help="dilation residuals and success probability")
    sub.add_argument("--tau", type=float, default=None, help="scaled time (default pi/4)")
    _add_common(sub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolver = _Resolver(args)
        return _HANDLERS[args.command](resolver, args)
    except (ParameterError, RegimeError) as exc:
        print(f"ptqubit {args.command}: {exc}", file=sys.stderr)
        return 2
    except PtQubitError as exc:
        print(f"ptqubit {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
