"""Command-line front end: emit plot-ready data tables as CSV or JSON.

Subcommands: evolve, distance, correlators, k3, k3max, witness, montecarlo,
dilation-check.  Output goes to stdout (or --out) as CSV with 12 significant
digits, or as a single JSON document with --format json.  A --config file of
flat key=value pairs sets any flag of the subcommand by its name (switches
take 1/0/true/false); explicit flags override it and unknown keys exit 2.

Exit codes: 0 success, 2 usage or parameter error, 3 numeric failure
(vanishing or non-finite norm, empty statistics, or a failed self-check
residual): every other package error.
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
from .correlations import correlators, quantum_witness
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
from .pt_dynamics import PtParams, speed_profile, trajectory
from .qstate import minus_y

SCHEMA_VERSION = "1"

#: Residual gates for the dilation self-check.
CHECK_TOLERANCES = {
    "unitarity_residual": 1e-12,
    "intertwining_residual": 1e-12,
    "block_identity_residual": 1e-12,
}
CHECK_MIN_FIDELITY = 1.0 - 1e-10

#: Config-file spellings of the two states of a switch such as --wide.
_SWITCH_VALUES = {"1": True, "true": True, "0": False, "false": False}

# 50 intervals per quarter-period flip; a rendering choice, not physics.
_TRAJECTORY_GRID = f"0:{math.pi / 2}:51"

#: Largest number of points in a lo:hi:n grid.
MAX_GRID_POINTS = 10**6


def parse_grid(spec: str) -> np.ndarray:
    """Parse 'lo:hi:n' into n evenly spaced points including both endpoints."""
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ParameterError(f"grid must be lo:hi:n, got {spec!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ParameterError(f"grid must be lo:hi:n with numeric fields, got {spec!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"grid bounds must be finite, got {spec!r}")
    if not 1 <= n <= MAX_GRID_POINTS:
        raise ParameterError(f"grid needs 1 to {MAX_GRID_POINTS} points, got {n}")
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


def _with_config(argv: list, args: argparse.Namespace) -> list:
    """argv with the config file's entries inserted as flags before the explicit ones.

    Keys are the flag names of the invoked subcommand, so each value passes
    through that flag's type and choices, and a later explicit flag wins.
    """
    settings = vars(args)
    flags = []
    for key, value in _load_config_file(args.config).items():
        if key not in settings or key in ("command", "config"):
            raise ParameterError(
                f"{args.config}: unknown key {key!r}; keys are the flag names of {args.command}"
            )
        flag = "--" + key.replace("_", "-")
        if isinstance(settings[key], bool):  # a switch, absent unless set
            switch = _SWITCH_VALUES.get(value.lower())
            if switch is None:
                raise ParameterError(f"{args.config}: {key} takes 1/0/true/false, got {value!r}")
            flags += [flag] * switch
        else:
            flags.append(f"{flag}={value}")
    at = argv.index(args.command) + 1
    return argv[:at] + flags + argv[at:]


def _fmt(value) -> str:
    # rows hold str, int and float (np.float64 included) values
    return format(float(value), ".12g") if isinstance(value, float) else str(value)


def _emit(columns, rows, args, parameters) -> None:
    if args.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "parameters": parameters,
            "columns": list(columns),
            "rows": rows,  # json writes an np.float64 through float.__repr__
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
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_evolve(args, params):
    traj = trajectory(minus_y(), params, parse_grid(args.grid))
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
    return columns, rows, {"j": params.j, "gamma": params.gamma}


def _cmd_distance(args, params):
    traj = trajectory(minus_y(), params, parse_grid(args.grid))
    speeds = speed_profile(traj) if len(traj) >= 2 else np.zeros(1)
    rows = np.column_stack([traj.times, traj.distance, speeds]).tolist()
    return ["tau", "distance", "speed"], rows, {"j": params.j, "gamma": params.gamma}


_CORRELATOR_COLUMNS = ["T", "C12", "C23", "C13", "K3"]


def _correlator_rows(cs):
    return np.column_stack([cs.t, cs.c12, cs.c23, cs.c13, cs.k3]).tolist()


def _cmd_correlators(args, params):
    rows = _correlator_rows(correlators(args.t, params))
    return _CORRELATOR_COLUMNS, rows, {"j": params.j, "gamma": params.gamma, "t": args.t}


def _cmd_k3(args, params):
    rows = _correlator_rows(correlators(parse_grid(args.grid), params))
    return _CORRELATOR_COLUMNS, rows, {"j": params.j, "gamma": params.gamma}


def _cmd_k3max(args, params):
    search = dict(
        j=params.j,
        pts_range=WIDE_PTS_RANGE if args.wide else (0.0, args.t_hi),
        ptb_range=(0.0, args.ptb_t_hi),
        tol=args.tol,
    )
    if args.ep_report:
        eps = args.ep_eps
        report = ep_discontinuity(eps, **search)
        rows = [[eps, report.left_limit, report.right_value, report.jump]]
        return ["eps", "left_limit", "right_value", "jump"], rows, {"j": params.j, "eps": eps}
    points = sweep_gamma(parse_grid(args.grid), **search)
    rows = [[p.gamma_over_j, p.regime.value, p.t_star, p.k3_max] for p in points]
    return ["gamma_over_j", "regime", "t_star", "k3_max"], rows, {"j": params.j}


def _cmd_witness(args, params):
    j = params.j
    ratios = [params.ratio] if args.grid is None else parse_grid(args.grid)
    rows = []
    for ratio in np.asarray(ratios, dtype=float):
        result = quantum_witness(PtParams(j=j, gamma=ratio * j))
        rows.append([ratio, result.p_without, result.p_with, result.w])
    return ["gamma_over_j", "p_without", "p_with", "witness"], rows, {"j": j}


def _cmd_montecarlo(args, params):
    config = ShotConfig(shots=args.shots, seed=args.seed, mode=args.mode, bootstrap=args.bootstrap)
    if args.quantity == "conditional":
        record = sample_conditional(args.qin, args.tau, params, config)
    elif args.quantity == "k3":
        record = k3_sampled(args.t, params, config)
    else:
        record = witness_sampled(params, config, tau=args.tau)
    rows = [
        [
            args.quantity,
            record.estimate,
            record.stderr,
            record.accepted,
            record.attempted,
            record.success_rate,
        ]
    ]
    parameters = {
        "j": params.j,
        "gamma": params.gamma,
        "shots": config.shots,
        "seed": config.seed,
        "mode": config.mode,
    }
    columns = ["quantity", "estimate", "stderr", "accepted", "attempted", "success_rate"]
    return columns, rows, parameters


def _cmd_dilation_check(args, params):
    report = dilation_report(params, args.tau)
    passed = all(
        report[name] < tolerance for name, tolerance in CHECK_TOLERANCES.items()
    ) and report["fidelity_vs_direct"] >= CHECK_MIN_FIDELITY
    rows = [[name, value] for name, value in report.items()]
    rows.append(["passed", int(passed)])
    parameters = {"j": params.j, "gamma": params.gamma, "tau": args.tau}
    return ["metric", "value"], rows, parameters, 0 if passed else 3


# Each handler takes the parsed flags and the rates main resolved, and returns
# (columns, rows, parameters) for main to emit; dilation-check also returns
# its exit status.
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
    sub.add_argument("--j", type=float, default=1.0, help="coupling rate (default 1)")
    sub.add_argument("--gamma", type=float, default=0.0, help="gain/loss rate (default 0)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub.add_argument("--config", default=None,
                     help="flat key=value file of this command's flags; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptqubit",
        description="Gain-loss qubit dynamics, dilation checks, and temporal-correlation data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("evolve", help="state, Bloch vector, and distance along a tau grid")
    sub.add_argument("--grid", default=_TRAJECTORY_GRID, help="tau grid lo:hi:n (default 0:pi/2:51)")
    _add_common(sub)

    sub = commands.add_parser("distance", help="distance from start and evolution speed vs tau")
    sub.add_argument("--grid", default=_TRAJECTORY_GRID, help="tau grid lo:hi:n (default 0:pi/2:51)")
    _add_common(sub)

    sub = commands.add_parser("correlators", help="correlator set at a single interval T")
    sub.add_argument("--t", type=float, default=math.pi / 6.0,
                     help="measurement interval T (scaled, default pi/6)")
    _add_common(sub)

    sub = commands.add_parser("k3", help="correlator curve over an interval grid")
    sub.add_argument("--grid", default=f"0:{math.pi / 4}:51",
                     help="interval grid lo:hi:n (default 0:pi/4:51)")
    _add_common(sub)

    sub = commands.add_parser("k3max", help="optimal K3 swept over gamma/j ratios")
    sub.add_argument("--grid", default="0:0.95:20", help="gamma/j grid lo:hi:n (default 0:0.95:20)")
    sub.add_argument("--t-hi", type=float, default=DEFAULT_PTS_RANGE[1],
                     help="upper interval bound below the break (default pi/4)")
    sub.add_argument("--wide", action="store_true", help="widen the interval search to [0, pi/2]")
    sub.add_argument("--ptb-t-hi", type=float, default=DEFAULT_PTB_RANGE[1],
                     help="upper w*t bound above the break (default 10)")
    sub.add_argument("--tol", type=float, default=1e-8, help="refinement tolerance (default 1e-8)")
    sub.add_argument("--ep-report", action="store_true",
                     help="emit left limit, right value, and jump at gamma/j = 1 instead")
    sub.add_argument("--ep-eps", type=float, default=1e-2,
                     help="largest offset of the extrapolation sequence (default 1e-2)")
    _add_common(sub)

    sub = commands.add_parser("witness", help="quantum witness at one ratio or over a ratio grid")
    sub.add_argument("--grid", default=None, help="gamma/j grid lo:hi:n (optional)")
    _add_common(sub)

    sub = commands.add_parser("montecarlo", help="finite-shot estimates with standard errors")
    sub.add_argument("--quantity", choices=("conditional", "k3", "witness"), default="k3")
    sub.add_argument("--qin", type=int, choices=(-1, 1), default=-1,
                     help="preparation outcome for quantity=conditional (default -1)")
    sub.add_argument("--tau", type=float, default=math.pi / 4.0,
                     help="evolution time (scaled, default pi/4)")
    sub.add_argument("--t", type=float, default=math.pi / 6.0,
                     help="interval T for quantity=k3 (default pi/6)")
    sub.add_argument("--shots", type=int, default=10000, help="attempted preparations (default 10000)")
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub.add_argument("--mode", choices=("ideal", "dilated"), default="ideal")
    sub.add_argument("--bootstrap", action="store_true",
                     help="bootstrap error bars (1000 resamples) instead of propagation")
    _add_common(sub)

    sub = commands.add_parser("dilation-check", help="dilation residuals and success probability")
    sub.add_argument("--tau", type=float, default=math.pi / 4.0, help="scaled time (default pi/4)")
    _add_common(sub)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = parser.parse_args(_with_config(argv, args))
        params = PtParams(j=args.j, gamma=args.gamma)
        columns, rows, parameters, *status = _HANDLERS[args.command](args, params)
        _emit(columns, rows, args, parameters)
        return status[0] if status else 0
    except (ParameterError, RegimeError) as exc:
        print(f"ptqubit {args.command}: {exc}", file=sys.stderr)
        return 2
    except PtQubitError as exc:
        print(f"ptqubit {args.command}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
