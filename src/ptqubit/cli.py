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
from collections import namedtuple

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
    return columns, rows


def _cmd_distance(args, params):
    traj = trajectory(minus_y(), params, parse_grid(args.grid))
    speeds = speed_profile(traj) if len(traj) >= 2 else np.zeros(1)
    rows = np.column_stack([traj.times, traj.distance, speeds]).tolist()
    return ["tau", "distance", "speed"], rows


_CORRELATOR_COLUMNS = ["T", "C12", "C23", "C13", "K3"]


def _correlator_rows(cs):
    return np.column_stack([cs.t, cs.c12, cs.c23, cs.c13, cs.k3]).tolist()


def _cmd_correlators(args, params):
    return _CORRELATOR_COLUMNS, _correlator_rows(correlators(args.t, params))


def _cmd_k3(args, params):
    return _CORRELATOR_COLUMNS, _correlator_rows(correlators(parse_grid(args.grid), params))


#: The gamma/j ratios k3max sweeps when no --grid is given.
_K3MAX_GRID = "0:0.95:20"


def _cmd_k3max(args, params):
    search = dict(
        j=params.j,
        pts_range=WIDE_PTS_RANGE if args.wide else (0.0, args.t_hi),
        ptb_range=(0.0, args.ptb_t_hi),
        tol=args.tol,
    )
    if args.ep_report:
        if args.grid is not None:
            raise ParameterError("--grid is not read by --ep-report")
        report = ep_discontinuity(args.ep_eps, **search)
        rows = [[args.ep_eps, report.left_limit, report.right_value, report.jump]]
        return ["eps", "left_limit", "right_value", "jump"], rows
    points = sweep_gamma(parse_grid(_K3MAX_GRID if args.grid is None else args.grid), **search)
    rows = [[p.gamma_over_j, p.regime.value, p.t_star, p.k3_max] for p in points]
    return ["gamma_over_j", "regime", "t_star", "k3_max"], rows


def _cmd_witness(args, params):
    j = params.j
    ratios = [params.ratio] if args.grid is None else parse_grid(args.grid)
    rows = []
    for ratio in np.asarray(ratios, dtype=float):
        result = quantum_witness(PtParams(j=j, gamma=ratio * j))
        rows.append([ratio, result.p_without, result.p_with, result.w])
    return ["gamma_over_j", "p_without", "p_with", "witness"], rows


#: The flags each montecarlo quantity reads, with their defaults.  On the
#: command line all three default to None, so that an explicit value of a flag
#: the quantity does not read is told apart from an absent one and rejected.
_QUANTITY_FLAGS = {
    "conditional": {"qin": -1, "tau": math.pi / 4.0},
    "k3": {"t": math.pi / 6.0},
    "witness": {"tau": math.pi / 4.0},
}


def _cmd_montecarlo(args, params):
    reads = _QUANTITY_FLAGS[args.quantity]
    for name in ("qin", "tau", "t"):
        if getattr(args, name) is None:
            setattr(args, name, reads.get(name))
        elif name not in reads:
            raise ParameterError(f"--{name} is not read by --quantity {args.quantity}")
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
    return ["quantity", "estimate", "stderr", "accepted", "attempted", "success_rate"], rows


def _cmd_dilation_check(args, params):
    report = dilation_report(params, args.tau)
    passed = all(
        report[name] < tolerance for name, tolerance in CHECK_TOLERANCES.items()
    ) and report["fidelity_vs_direct"] >= CHECK_MIN_FIDELITY
    rows = [[name, value] for name, value in report.items()]
    rows.append(["passed", int(passed)])
    return ["metric", "value"], rows, 0 if passed else 3


# One subcommand: its --help line; its own flags, each mapped to its add_argument
# keywords in --help order; the handler, which takes the parsed flags and the
# rates main resolved and returns (columns, rows), plus the exit status for
# dilation-check; and the parsed flags that the JSON parameters object holds.
_Command = namedtuple("_Command", ["help", "flags", "handler", "parameters"])

#: Flags every subcommand takes after its own.
_COMMON_FLAGS = {
    "--j": dict(type=float, default=1.0, help="coupling rate (default 1)"),
    "--gamma": dict(type=float, default=0.0, help="gain/loss rate (default 0)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(default=None, help="write output to a file instead of stdout"),
    "--config": dict(default=None,
                     help="flat key=value file of this command's flags; flags override it"),
}

# 50 intervals per quarter-period flip; a rendering choice, not physics.
_TRAJECTORY_FLAGS = {
    "--grid": dict(default=f"0:{math.pi / 2}:51", help="tau grid lo:hi:n (default 0:pi/2:51)"),
}

_COMMANDS = {
    "evolve": _Command("state, Bloch vector, and distance along a tau grid",
                       _TRAJECTORY_FLAGS, _cmd_evolve, ("j", "gamma")),
    "distance": _Command("distance from start and evolution speed vs tau",
                         _TRAJECTORY_FLAGS, _cmd_distance, ("j", "gamma")),
    "correlators": _Command("correlator set at a single interval T", {
        "--t": dict(type=float, default=math.pi / 6.0,
                    help="measurement interval T (scaled, default pi/6)"),
    }, _cmd_correlators, ("j", "gamma", "t")),
    "k3": _Command("correlator curve over an interval grid", {
        "--grid": dict(default=f"0:{math.pi / 4}:51",
                       help="interval grid lo:hi:n (default 0:pi/4:51)"),
    }, _cmd_k3, ("j", "gamma")),
    # with --ep-report, main adds "eps" (the value of --ep-eps) to the parameters
    "k3max": _Command("optimal K3 swept over gamma/j ratios", {
        # None, so that an explicit grid is told apart from an absent one and
        # rejected with --ep-report
        "--grid": dict(default=None, help=f"gamma/j grid lo:hi:n (default {_K3MAX_GRID})"),
        "--t-hi": dict(type=float, default=DEFAULT_PTS_RANGE[1],
                       help="upper interval bound below the break (default pi/4)"),
        "--wide": dict(action="store_true", help="widen the interval search to [0, pi/2]"),
        "--ptb-t-hi": dict(type=float, default=DEFAULT_PTB_RANGE[1],
                           help="upper w*t bound above the break (default 10)"),
        "--tol": dict(type=float, default=1e-8, help="refinement tolerance (default 1e-8)"),
        "--ep-report": dict(action="store_true",
                            help="emit left limit, right value, and jump at gamma/j = 1 instead"),
        "--ep-eps": dict(type=float, default=1e-2,
                         help="largest offset of the extrapolation sequence (default 1e-2)"),
    }, _cmd_k3max, ("j",)),
    "witness": _Command("quantum witness at one ratio or over a ratio grid", {
        "--grid": dict(default=None, help="gamma/j grid lo:hi:n (optional)"),
    }, _cmd_witness, ("j",)),
    "montecarlo": _Command("finite-shot estimates with standard errors", {
        "--quantity": dict(choices=tuple(_QUANTITY_FLAGS), default="k3"),
        "--qin": dict(type=int, choices=(-1, 1), default=None,
                      help="preparation outcome for quantity=conditional (default -1)"),
        "--tau": dict(type=float, default=None, help="evolution time (scaled, default pi/4)"),
        "--t": dict(type=float, default=None, help="interval T for quantity=k3 (default pi/6)"),
        "--shots": dict(type=int, default=10000, help="attempted preparations (default 10000)"),
        "--seed": dict(type=int, default=0, help="RNG seed (default 0)"),
        "--mode": dict(choices=("ideal", "dilated"), default="ideal"),
        "--bootstrap": dict(action="store_true",
                            help="bootstrap error bars (1000 resamples) instead of propagation"),
    }, _cmd_montecarlo, ("j", "gamma", "shots", "seed", "mode")),
    "dilation-check": _Command("dilation residuals and success probability", {
        "--tau": dict(type=float, default=math.pi / 4.0, help="scaled time (default pi/4)"),
    }, _cmd_dilation_check, ("j", "gamma", "tau")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptqubit",
        description="Gain-loss qubit dynamics, dilation checks, and temporal-correlation data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = commands.add_parser(name, help=command.help)
        for flag, keywords in {**command.flags, **_COMMON_FLAGS}.items():
            sub.add_argument(flag, **keywords)
    return parser


# Built once: parse_args keeps no state between calls, and building the eight
# subparsers costs more than most commands.
_PARSER = build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _PARSER.parse_args(argv)
    try:
        if args.config is not None:
            args = _PARSER.parse_args(_with_config(argv, args))
        params = PtParams(j=args.j, gamma=args.gamma)
        command = _COMMANDS[args.command]
        columns, rows, *status = command.handler(args, params)
        parameters = {key: getattr(args, key) for key in command.parameters}
        if args.command == "k3max" and args.ep_report:
            parameters["eps"] = args.ep_eps
        _emit(columns, rows, args, parameters)
        return status[0] if status else 0
    except PtQubitError as exc:
        print(f"ptqubit {args.command}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParameterError, RegimeError)) else 3


if __name__ == "__main__":
    sys.exit(main())
