"""ptqubit benchmark: seeded closed-loop workloads, end to end and per layer.

    python3 benchmarks/run.py --workload k3-sweep --seed 1 --seconds 20 --trace 0

Each workload runs in a fresh Python process that imports ptqubit from this
checkout's ``src/`` and issues commands through ``ptqubit.cli.main(argv)``
(one client, closed loop).  Every output is checked against an independent
numpy route (``reference.py``) outside the timed region.

``--trace 0`` reports the end-to-end metrics: commands per second of command
time, median and 90th-percentile command latency, set-up time (spawn until
``ptqubit.cli`` is imported, bytecode warm; median of several spawns) and
peak RSS of the workload process.  ``--trace 1`` runs a fixed number of op
cycles twice, untraced and traced, and reports per-layer counts and self
times plus the tracing overhead.  ``--workload all`` runs every workload.
The last stdout line is one JSON object; the lines before it name every
metric with its unit and sample count.  Full records, including the
environment, go to ``.bench_build/results/``, and traced spans to
``.bench_build/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import NOMINAL_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKER = HERE / "worker.py"

#: Set-up samples per run: this many probe spawns plus the workload process.
SETUP_PROBES = 7
#: Worker processes are single-threaded and BLAS is pinned to one thread.
THREADS = 1
#: Upper bound on one worker process, so a hung run still ends in time.
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "cmds_per_s": "1/s",
    "cmd_p50_ms": "ms",
    "cmd_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = [
    "cli.main.calls", "cli.self_ms", "cli.build_parser.self_ms", "cli.out_bytes", "cli.self_share",
    "optimize.sweep_gamma.self_ms", "optimize.ep_discontinuity.self_ms",
    "optimize.max_k3_over_T.calls", "optimize.max_k3_over_T.self_ms", "optimize.self_share",
    "correlations.correlators.calls", "correlations.correlators.self_ms",
    "correlations.conditional_prob.calls", "correlations.conditional_prob.self_ms",
    "correlations.k3_curve.self_ms", "correlations.quantum_witness.calls",
    "correlations.quantum_witness.self_ms", "correlations.self_share",
    "pt_dynamics.propagator.calls", "pt_dynamics.propagator.self_ms",
    "pt_dynamics.evolve_state.calls", "pt_dynamics.evolve_state.self_ms",
    "pt_dynamics.trajectory.self_ms", "pt_dynamics.evolve_density_nonlinear.self_ms",
    "pt_dynamics.rk4_steps", "pt_dynamics.self_share",
    "qstate.bloch_from.calls", "qstate.bloch_from.self_ms",
    "qstate.fubini_study_distance.calls", "qstate.fubini_study_distance.self_ms", "qstate.self_share",
    "dilation.pt_via_dilation.calls", "dilation.pt_via_dilation.self_ms",
    "dilation.dilation_report.self_ms", "dilation.self_share",
    "montecarlo.k3_sampled.self_ms", "montecarlo.witness_sampled.self_ms",
    "montecarlo.sample_conditional.self_ms", "montecarlo.substream.calls",
    "montecarlo.substream.self_ms", "montecarlo.accept_ratio", "montecarlo.self_share",
    "trace.overhead_share",
]

#: Hand-timed single runs quoted in ROADMAP.md, set beside the traced figures.
ROADMAP_FIGURES = {
    "max_k3_over_T_ms_per_call": 112.0,
    "correlators_us_per_call": 43.0,
    "rk4_us_per_step": 132e3 / 1571,
    "import_ms": 111.0,
}


class BenchError(RuntimeError):
    """The benchmark could not run (missing package, crashed or hung worker)."""


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in ((".calls", "count"), ("_ms", "ms"), ("_share", "ratio"),
                         ("_ratio", "ratio"), ("_bytes", "bytes"), ("_steps", "count")):
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def _worker_env() -> dict:
    env = dict(os.environ)
    for name in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)  # set-up is timed with bytecode caches warm, inside the checkout
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


class Session:
    """Spawns worker processes for one workload run and collects their results."""

    def __init__(self, rundir: Path):
        self.rundir = rundir
        self.env = _worker_env()

    def spawn(self, *args):
        """Start a worker; return (seconds until it reported ready, process)."""
        stderr = open(self.rundir / "worker.err", "a", encoding="utf-8")
        start = time.perf_counter()
        try:
            # unbuffered, so reading the first line leaves the rest for communicate()
            proc = subprocess.Popen(
                [sys.executable, str(WORKER), *args], cwd=ROOT, env=self.env,
                stdout=subprocess.PIPE, stderr=stderr, bufsize=0,
            )
        finally:
            stderr.close()
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != b"ready":
            self._stop(proc)
            raise BenchError(f"worker {args} did not start ({line!r}):\n{self._stderr_tail()}")
        return ready, proc

    def finish(self, proc) -> str:
        """The worker's last stdout line, once it has exited cleanly."""
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._stop(proc)
            raise BenchError(f"worker {proc.args[2:]} exceeded {WORKER_TIMEOUT_S} s") from None
        if proc.returncode != 0 or not out.strip():
            raise BenchError(
                f"worker {proc.args[2:]} exited with {proc.returncode}, "
                f"stdout {out[:200]!r}:\n{self._stderr_tail()}"
            )
        return out.decode("utf-8").strip().splitlines()[-1]

    def probe(self) -> tuple[float, float]:
        """(set-up seconds, calibration kernel seconds) of one spawn."""
        ready, proc = self.spawn("--probe")
        return ready, float(self.finish(proc))

    def workload(self, workload, seed, *extra) -> tuple[float, dict]:
        ready, proc = self.spawn(
            "--workload", workload, "--seed", str(seed), "--rundir", str(self.rundir), *extra
        )
        return ready, json.loads(self.finish(proc))

    @staticmethod
    def _stop(proc) -> None:
        proc.kill()
        proc.communicate()

    def _stderr_tail(self) -> str:
        path = self.rundir / "worker.err"
        return path.read_text(encoding="utf-8")[-2000:] if path.exists() else ""


def rescaled(result: dict) -> list:
    """Latencies rescaled to the nominal host speed (see worker.NOMINAL_KERNEL_S)."""
    return [lat * scale for lat, scale in zip(result["latencies"], result["scales"])]


def _latency_figures(lat):
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return len(lat) / sum(lat), statistics.median(lat) * 1e3, p90 * 1e3


def end_to_end(result: dict, setups: list) -> tuple[dict, dict]:
    """Metric values and, per metric, its samples and the raw (unscaled) figure.

    ``setups`` holds (seconds until ready, calibration kernel seconds) pairs.
    """
    lat = rescaled(result)
    cps, p50, p90 = _latency_figures(lat)
    raw_cps, raw_p50, raw_p90 = _latency_figures(result["latencies"])
    setup = statistics.median(ready * NOMINAL_KERNEL_S / kernel for ready, kernel in setups)
    raw_setup = statistics.median(ready for ready, _ in setups)
    values = {
        "cmds_per_s": cps,
        "cmd_p50_ms": p50,
        "cmd_p90_ms": p90,
        "setup_s": setup,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    samples = {
        "cmds_per_s": f"{len(lat)} commands in {sum(lat):.2f} s of command time; raw {raw_cps:.4g}",
        "cmd_p50_ms": f"n={len(lat)}; raw {raw_p50:.4g}",
        "cmd_p90_ms": f"n={len(lat)}, {sum(x > p90 / 1e3 for x in lat)} above; raw {raw_p90:.4g}",
        "setup_s": f"median of {len(setups)} spawns; raw {raw_setup:.4g}",
        "peak_rss_mb": "workload process",
    }
    return values, samples


def per_layer(base: dict, traced: dict) -> dict:
    stats = traced["stats"]
    busy = sum(traced["latencies"])
    scale = sum(rescaled(traced)) / busy  # self times on the nominal host, like latencies

    def self_ms(fn):
        return stats.get(fn, [0, 0.0, 0.0])[1] * 1e3 * scale

    values = {}
    for name in PER_LAYER:
        layer, _, rest = name.partition(".")
        if name == "cli.self_ms":
            values[name] = self_ms("cli.main")
        elif name == "cli.out_bytes":
            values[name] = traced["out_bytes"]
        elif name == "pt_dynamics.rk4_steps":
            values[name] = traced["rk4_steps"]
        elif name == "montecarlo.accept_ratio":
            shots = traced["attempted_shots"]
            values[name] = traced["accepted_shots"] / shots if shots else 0.0
        elif name == "trace.overhead_share":
            values[name] = 1.0 - sum(rescaled(base)) / sum(rescaled(traced))
        elif rest == "self_share":
            own = sum(v[1] for fn, v in stats.items() if fn.startswith(layer + "."))
            values[name] = own / busy
        elif rest.endswith(".calls"):
            values[name] = stats.get(name[: -len(".calls")], [0])[0]
        else:
            values[name] = self_ms(name[: -len(".self_ms")])
    return values


def reconcile(traced: dict) -> dict:
    """Unscaled per-call figures of a traced run, to set beside ROADMAP_FIGURES.

    Inclusive times carry the tracing overhead of the wrapped calls inside them.
    """
    stats = traced["stats"]

    def per_call(fn, column, scale):
        calls = stats[fn][0]
        return stats[fn][column] / calls * scale if calls else None

    steps = traced["rk4_steps"]
    return {
        "max_k3_over_T_ms_per_call": per_call("optimize.max_k3_over_T", 2, 1e3),
        "max_k3_over_T_self_ms_per_call": per_call("optimize.max_k3_over_T", 1, 1e3),
        "correlators_us_per_call": per_call("correlations.correlators", 2, 1e6),
        "correlators_self_us_per_call": per_call("correlations.correlators", 1, 1e6),
        "rk4_us_per_step": stats["pt_dynamics.evolve_density_nonlinear"][2] / steps * 1e6 if steps else None,
        "import_ms": traced["import_s"] * 1e3,
    }


def environment(result: dict) -> dict:
    nproc = len(os.sched_getaffinity(0))
    if THREADS > nproc:
        raise BenchError(f"{THREADS} threads exceed nproc = {nproc}")
    return {
        "python": result["python"],
        "numpy": result["numpy"],
        "ptqubit": result["ptqubit"],
        "commit": _git_commit(),
        "nproc": nproc,
        "cpu": _cpu_model(),
        "threads": THREADS,
    }


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    BUILD.mkdir(exist_ok=True)
    rundir = BUILD / f"run-{workload}-{seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    session = Session(rundir)
    try:
        session.probe()  # compiles bytecode on a fresh checkout; not a sample
        if trace:
            cycles = str(workloads.TRACE_CYCLES[workload])
            _, base = session.workload(workload, seed, "--cycles", cycles)
            traces = BUILD / "traces"
            traces.mkdir(exist_ok=True)
            spans = traces / f"{workload}-seed{seed}.jsonl"
            _, traced = session.workload(workload, seed, "--cycles", cycles, "--spans", str(spans))
            results = [base, traced]
            values = per_layer(base, traced)
            samples = {name: f"{len(traced['latencies'])} traced commands" for name in values}
            extra = {"reconcile": reconcile(traced), "roadmap": ROADMAP_FIGURES, "spans": str(spans)}
        else:
            setups = [session.probe() for _ in range(SETUP_PROBES)]
            ready, result = session.workload(workload, seed, "--seconds", repr(seconds))
            results = [result]
            values, samples = end_to_end(result, setups + [(ready, result["first_kernel_s"])])
            extra = {}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": sum(len(r["latencies"]) for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "failures": [f for r in results for f in r["failures"]][:20],
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()},
        "samples": samples,
        "environment": environment(results[-1]),
        **extra,
    }
    out = BUILD / "results"
    out.mkdir(exist_ok=True)
    (out / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def report(record: dict) -> None:
    attempted, failed = record["attempted"], record["failed"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"closed loop, 1 client, {attempted} commands")
    for name, metric in record["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<6} ({record['samples'][name]})")
    print(f"  {'failed_share':<44} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} commands)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    for name, value in record.get("reconcile", {}).items():
        roadmap = record["roadmap"].get(name)
        shown = "n/a" if value is None else f"{value:.4g}"
        print(f"  reconcile {name:<34} {shown:>10}" + (f"  (ROADMAP {roadmap:.4g})" if roadmap else ""))
    print(f"  environment {json.dumps(record['environment'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="command time per timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    prefix = len(records) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}/{name}" if prefix else name): metric
            for r in records for name, metric in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
