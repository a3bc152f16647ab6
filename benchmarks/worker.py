"""One workload process: import ptqubit from the checkout, run a seeded closed
loop with one client, check every output, print a JSON summary.

Protocol on stdout: the line ``ready`` as soon as ``ptqubit.cli`` is imported
(the parent times set-up up to it), then, for a workload run, one JSON line.
Commands run in this process through ``ptqubit.cli.main(argv)`` with stdout
and stderr captured, so per-command numbers are free of interpreter start-up.
Run ``python3 benchmarks/run.py``, not this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Percentiles need samples beyond them: 10 above p90 takes 100 commands.
MIN_COMMANDS = 100

#: Host-speed calibration.  On a shared host the speed of this process drifts
#: by up to 2x within seconds (other tenants, frequency changes), far more
#: than any bound a regression gate can use.  A fixed kernel of interpreter
#: work and 2x2 numpy calls is timed between commands, at least every
#: CALIBRATION_INTERVAL_S, and each latency is rescaled to a host on which the
#: kernel takes NOMINAL_KERNEL_S.  The kernel never calls ptqubit, so a change
#: to the package moves the rescaled numbers by the same factor as the raw ones.
NOMINAL_KERNEL_S = 1.5e-3
CALIBRATION_INTERVAL_S = 0.1


def _import_package():
    sys.path.insert(0, str(SRC))
    import ptqubit.cli

    if Path(ptqubit.__file__).resolve().parent != SRC / "ptqubit":
        raise ImportError(f"ptqubit imported from {ptqubit.__file__}, not from {SRC}")
    return ptqubit


def kernel_seconds() -> float:
    """Median of three timings of the calibration kernel."""
    import numpy as np

    a = np.eye(2, dtype=complex)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(400):
            acc += float(np.abs(a @ a).sum()) + i * 7 % 5
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


def execute(ptqubit, op, rundir):
    """Run one op; return (seconds, status, output) with output text or matrix."""
    if op.command == "rk4":
        psi = op.params["psi"]
        rho0 = ptqubit.DensityMatrix([[a * b.conjugate() for b in psi] for a in psi])
        params = ptqubit.PtParams(j=op.params["j"], gamma=op.params["gamma"])
        start = time.perf_counter()
        rho = ptqubit.pt_dynamics.evolve_density_nonlinear(rho0, params, op.params["t"], op.params["dt"])
        return time.perf_counter() - start, 0, rho.matrix
    argv = list(op.argv)
    target = None
    if op.params.get("out"):
        target = rundir / f"out.{op.params['format']}"
        argv += ["--out", str(target)]
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            status = ptqubit.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code
        except Exception as exc:  # a traceback is a failed command, not a failed benchmark
            status = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    text = stdout.getvalue()
    if target is not None and target.exists():
        text = target.read_text(encoding="utf-8")
        target.unlink()
    return elapsed, status, text


def run(ptqubit, workload, seed, *, seconds=0.0, cycles=0, rundir, tracer=None, check=None):
    """Closed loop over whole op cycles.

    With ``cycles`` set, runs exactly that many; otherwise runs until the
    commands have taken ``seconds`` and at least MIN_COMMANDS have completed.
    ``check(op, status, output)`` returns None or a failure reason.
    Each latency comes with its host-speed scale (see NOMINAL_KERNEL_S),
    from the calibrations taken just before and just after it.
    """
    import checks
    import workloads

    check = check or checks.check
    latencies, failures, marks = [], [], []
    kernels = [kernel_seconds()]
    calibrated = time.perf_counter()
    totals = dict(out_bytes=0, accepted_shots=0, attempted_shots=0, rk4_steps=0)
    for done, ops in enumerate(workloads.cycles(workload, seed), 1):
        for op in ops:
            if time.perf_counter() - calibrated >= CALIBRATION_INTERVAL_S:
                kernels.append(kernel_seconds())
                calibrated = time.perf_counter()
            marks.append(len(kernels) - 1)
            if tracer is not None:
                tracer.request = len(latencies)
            elapsed, status, output = execute(ptqubit, op, rundir)
            latencies.append(elapsed)
            reason = check(op, status, output)
            if reason is not None:
                failures.append(f"{' '.join(op.argv) or op.command}: {reason}")
            if op.command == "rk4":
                totals["rk4_steps"] += op.params["steps"]
                continue
            totals["out_bytes"] += len(output.encode("utf-8"))
            if op.command == "montecarlo" and reason is None:
                columns, rows = checks.table(output, op.params["format"])
                totals["accepted_shots"] += int(rows[0][columns.index("accepted")])
                totals["attempted_shots"] += int(rows[0][columns.index("attempted")])
        if cycles:
            if done == cycles:
                break
        elif sum(latencies) >= seconds and len(latencies) >= MIN_COMMANDS:
            break
    kernels.append(kernel_seconds())
    scales = [2.0 * NOMINAL_KERNEL_S / (kernels[k] + kernels[k + 1]) for k in marks]
    return dict(latencies=latencies, scales=scales, first_kernel_s=kernels[0], failures=failures, **totals)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true", help="import, report ready, exit")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--cycles", type=int, default=0)
    parser.add_argument("--rundir", type=Path, help="scratch directory for --out files")
    parser.add_argument("--spans", type=Path, help="trace the layers and write spans here")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    ptqubit = _import_package()
    import_s = time.perf_counter() - start
    print("ready", flush=True)
    if args.probe:
        print(kernel_seconds(), flush=True)
        return 0

    import gc
    import json
    import resource

    import numpy

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    result = run(
        ptqubit, args.workload, args.seed,
        seconds=args.seconds, cycles=args.cycles, rundir=args.rundir, tracer=tracer,
    )
    result.update(
        import_s=import_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        ptqubit=ptqubit.__version__,
    )
    if tracer is not None:
        result["stats"] = tracer.stats
        tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
