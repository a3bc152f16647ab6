"""Self-tests of the benchmark: seeding, the correctness gate, tracing, layout.

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ptqubit = worker._import_package()


def first_cycle(workload, seed=7):
    return next(workloads.cycles(workload, seed))


def test_same_seed_same_ops_other_seed_other_ops():
    for name in workloads.WORKLOADS:
        assert first_cycle(name, 3) == first_cycle(name, 3)
        assert first_cycle(name, 3) != first_cycle(name, 4)
        assert [op.command for op in first_cycle(name, 3)] == [op.command for op in first_cycle(name, 4)]


def _perturb(op, output):
    """Move one value of the output by more than the gate's tolerance."""
    if op.command == "rk4":
        return output + 1e-5
    fmt = op.params["format"]
    columns, rows = checks.table(output, fmt)
    column = {
        "montecarlo": "estimate",
        "dilation-check": "value",
        "k3max": "right_value" if "eps" in op.params else "k3_max",
    }.get(op.command, columns[-1])
    delta = 0.5 if op.command == "montecarlo" else 1e-5
    row = rows[-2] if op.command == "dilation-check" else rows[-1]  # success_prob, not passed
    row[columns.index(column)] = float(row[columns.index(column)]) + delta
    if fmt == "json":
        doc = json.loads(output)
        doc["rows"] = rows
        return json.dumps(doc)
    return "\n".join(",".join(str(v) for v in r) for r in [columns, *rows]) + "\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_passes_real_output_and_rejects_a_perturbed_row(workload, tmp_path):
    for op in first_cycle(workload):
        _, status, output = worker.execute(ptqubit, op, tmp_path)
        assert checks.check(op, status, output) is None, op
        assert checks.check(op, status, _perturb(op, output)) is not None, op


def test_perturbed_rows_count_as_failed_commands(tmp_path):
    def tampered(op, status, output):
        if op.command == "montecarlo" and op.params["quantity"] == "k3":
            output = _perturb(op, output)
        return checks.check(op, status, output)

    result = worker.run(ptqubit, "shots", 5, cycles=2, rundir=tmp_path, check=tampered)
    expected = sum(
        op.command == "montecarlo" and op.params["quantity"] == "k3"
        for _, ops in zip(range(2), workloads.cycles("shots", 5))
        for op in ops
    )
    assert expected == 8
    assert len(result["failures"]) == expected
    assert len(result["latencies"]) == 20


def test_nonzero_exit_is_a_failure(tmp_path):
    op = workloads.Op("k3", ("k3", "--grid", "0:1:0"), dict(j=1.0, gamma=0.0, format="csv", out=False, grid=(0, 1, 0)))
    _, status, _ = worker.execute(ptqubit, op, tmp_path)
    assert status == 2
    assert checks.check(op, status, "") == "exit code 2, expected 0"


def _traced_worker(tmp_path, tag):
    spans = tmp_path / f"spans-{tag}.jsonl"
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "shots", "--seed", "11",
         "--cycles", "3", "--rundir", str(tmp_path), "--spans", str(spans)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.splitlines()[0] == "ready"
    return json.loads(out.stdout.splitlines()[-1]), spans


def test_traced_counts_repeat_and_every_layer_metric_is_reported(tmp_path):
    first, spans = _traced_worker(tmp_path, "a")
    second, _ = _traced_worker(tmp_path, "b")
    assert {k: v[0] for k, v in first["stats"].items()} == {k: v[0] for k, v in second["stats"].items()}
    values = run.per_layer(second, first)
    assert list(values) == run.PER_LAYER
    assert values["cli.main.calls"] == 30
    assert values["montecarlo.substream.calls"] > 0 and 0 < values["montecarlo.accept_ratio"] < 1
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    mains = [r for r in records if r["name"] == "cli.main"]
    assert len(mains) == 30 and all(r["parent"] is None for r in mains)
    ids = {r["id"]: r for r in records}
    for r in records:
        if r["parent"] is not None:
            parent = ids[r["parent"]]
            assert parent["request"] == r["request"] and parent["start"] <= r["start"] <= r["end"] <= parent["end"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "shots", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_reference_matches_closed_form_at_the_hermitian_point():
    t = np.linspace(0.0, np.pi / 2, 7)
    # gamma = 0: C12 = C23 = cos 2T and C13 = cos 4T
    np.testing.assert_allclose(checks.ref.k3(1.0, 0.0, t), 2 * np.cos(2 * t) - np.cos(4 * t), atol=1e-12)
