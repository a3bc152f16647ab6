"""The exact output bytes of every subcommand, frozen as SHA-256 digests.

Each subcommand runs with its default flags and with one non-default set, in
CSV and in JSON, once to stdout and once to --out; both destinations must
carry the same bytes.  The digests were taken from the tree before the table
emit was rewritten, so any change to a digit, a separator, a key order or a
line ending shows here.
"""

import argparse
import hashlib
import math

import pytest

from ptqubit import cli
from ptqubit.cli import main

# (argv, format) -> SHA-256 of the output bytes
FROZEN = {
    (("evolve",), "csv"): "9f9658508cdff4677c58dc5ad71ff2982c0284ce33b3c5a826bc617dd9bd4791",
    (("evolve",), "json"): "4043f44115b8e5c2c027beb11e3e7250dd12f5fe1e09bd457b0ca7034f4cca47",
    (("evolve", "--j", "2", "--gamma", "0.5", "--grid", "0:3:13"), "csv"):
        "1783d7f9df357756ffc5f5f927af089ecceae844e9469553ed65bcd582f6544c",
    (("evolve", "--j", "2", "--gamma", "0.5", "--grid", "0:3:13"), "json"):
        "b93a6f2aef05034941888167b2a63ef37c9e261a3a08fbe8b42e1acc56be2f12",
    (("evolve", "--grid", "0:1:3"), "csv"):
        "176d12d9d316a9d35a03eda93262eddb238738f9e0f07037af58e6ca5f0f1c23",
    (("evolve", "--grid", "0:1:3"), "json"):
        "479d6dafc4231c0d97b181e7d2ab0ffd3280f9be1602514ff82ce220708d7784",
    (("evolve", "--j", "0.5", "--gamma", "0.9", "--grid", "0:4:9"), "csv"):
        "05df3a960ed28d7d2c43a90be62fe141c74083f8e09c16f400ee83f072536aee",
    (("evolve", "--j", "0.5", "--gamma", "0.9", "--grid", "0:4:9"), "json"):
        "7a911bee26440de97db36a390f8ba026c1f701f8e6594cfa93ddb14d7076735e",
    (("distance",), "csv"): "bd9653e8ec83aa7600e2fece0f83ac840bd9dda4b2f5b79c77ae365dc01410c3",
    (("distance",), "json"): "0bc8ae8c7f4f710efc902fb51b7f32d072513381211d7d2329283caf8d876c3f",
    (("distance", "--j", "0.5", "--gamma", "0.25", "--grid", "0:1.5:7"), "csv"):
        "4f0844bd6fc2b44b6297d6aa21781f95198180b0bc8c142e62cfa03c7f4c3e40",
    (("distance", "--j", "0.5", "--gamma", "0.25", "--grid", "0:1.5:7"), "json"):
        "68cc4d382371a1c69ec87184c53ed0d656eccc126b3cb4620e47de2a04673d17",
    (("correlators",), "csv"): "3e4e217f74932ee0ee20a85fbdb27726d5492a3369d85a2b9981ddd19d24fb91",
    (("correlators",), "json"): "88888393a3c74a46f47060d4bf2a6e8096a4ea6d7e1f4c14b18ebd1a9d95aa3a",
    (("correlators", "--j", "3", "--gamma", "4.5", "--t", "0.25"), "csv"):
        "45f2b8cb0923534e3d4a69c52f76f33aae26cc86a3077a3c2caf42ac346eedc1",
    (("correlators", "--j", "3", "--gamma", "4.5", "--t", "0.25"), "json"):
        "938b9d89b0b8508b3a5ec50a0fa522828a08d040729980c713f16f1109430cf0",
    (("k3",), "csv"): "c6a94b72ac134761c751f2099055998e61954127e6d4921c77c9b0d25d22e6fb",
    (("k3",), "json"): "9e260108a614790c66cb454e3961e574991d9b6a322ed0a8dfca689db478d59f",
    (("k3", "--j", "2", "--gamma", "2", "--grid", "0:1.5:9"), "csv"):
        "8f2ef0aa838435128dfd61f10ffb952f4594514c1a4ec4c6fdf0473d13e56d53",
    (("k3", "--j", "2", "--gamma", "2", "--grid", "0:1.5:9"), "json"):
        "4ee1607eff448d05b7d0a8c6c089d8f2b267ddbd08db887930d788f0ffe7def4",
    (("k3max",), "csv"): "ada2f74c8d386508c0439f15459f25a38d59d5fb5967c06967cee8e3754dea47",
    (("k3max",), "json"): "cbadef1a1a367da91ef48b099cd29b1becb2a65a7c7a6cdfd38aa8a2ccbfa971",
    (("k3max", "--j", "2", "--grid", "0.25:1.5:3", "--wide", "--ptb-t-hi", "5", "--tol", "1e-6"),
     "csv"): "3fab442a190a61254fcf3f56c202aa08b5a325a58fac1a398e5c09ad4287f0ea",
    (("k3max", "--j", "2", "--grid", "0.25:1.5:3", "--wide", "--ptb-t-hi", "5", "--tol", "1e-6"),
     "json"): "db2ee514b46f1a00380f6188dc90e24b6faae7df73a595fa226fff11e670bb82",
    (("k3max", "--ep-report", "--ep-eps", "0.05"), "csv"):
        "d1e550bb41c01bccef5415bd2bee564f8678e45bca5836e50c361c2539b24d1f",
    (("k3max", "--ep-report", "--ep-eps", "0.05"), "json"):
        "688b14adc2973dad0281c1cf6bb54daea8bd10f331cd1d00dde928d13f1a4141",
    (("witness",), "csv"): "f186532402591f0868db14b134a305a0544726f2d325478fc9260210cae02d4c",
    (("witness",), "json"): "4f393f212419151ffb44c1d9195b1ad24a1f7df358adee7808d7fcdb1694f81f",
    (("witness", "--j", "2", "--grid", "0:1:5"), "csv"):
        "bd875d089ddc621f510086490db5baa0743246815eafa60f3cd82f07baa31f9b",
    (("witness", "--j", "2", "--grid", "0:1:5"), "json"):
        "c4d5de9de8998bba4d336a1467557a55d6e52137494b403c2e25bec38b5e927b",
    (("montecarlo",), "csv"): "0ed017d7129847c0bb471075b915f37e20efad31e95e3348b9ab94a0c5a098b9",
    (("montecarlo",), "json"): "ec2c56accd07c054d590812caa60df0940b362759f7e9322bc95d4db22fca04b",
    (("montecarlo", "--j", "2", "--gamma", "1", "--quantity", "conditional", "--qin", "1",
      "--tau", "0.5", "--shots", "50", "--seed", "9", "--mode", "dilated", "--bootstrap"), "csv"):
        "1980e0baed5a4738bac2f9bfd3e60c85a663b2dc51d6f1fa347142754e669398",
    (("montecarlo", "--j", "2", "--gamma", "1", "--quantity", "conditional", "--qin", "1",
      "--tau", "0.5", "--shots", "50", "--seed", "9", "--mode", "dilated", "--bootstrap"), "json"):
        "8496a264f74a24625b223e6e74eb95c86067c176877dec542adaf47385658eda",
    (("montecarlo", "--quantity", "witness", "--gamma", "0.5", "--shots", "777", "--seed", "3"),
     "csv"): "32f4d0ca4db1202df32f5bbcfd3f4465138a84fda015dd9bc6ed8869054cef57",
    (("montecarlo", "--quantity", "witness", "--gamma", "0.5", "--shots", "777", "--seed", "3"),
     "json"): "470619a10dd18174e1affe1e941251c5dae9b2575252358d6ae31397b24d87e5",
    (("dilation-check",), "csv"): "e5c236808a7850d40d1e6fde2553ed104855a613ef0009da980905303324a38b",
    (("dilation-check",), "json"): "9cf729664c886220fa55a475328c4a3bb073b3244d13f91d07f3e58003a9ef18",
    (("dilation-check", "--j", "2", "--gamma", "1", "--tau", "0.5"), "csv"):
        "ada13b5917f47a74fd5ed82b3f883ee1809651743dce034c7d939f99eae8ca8f",
    (("dilation-check", "--j", "2", "--gamma", "1", "--tau", "0.5"), "json"):
        "37ffeaccee123dfd2d1d23f710b05848af9f2a3326e2513ff6b5d902d53cc037",
}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(capsys, argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("argv,fmt", list(FROZEN))
def test_stdout_bytes_are_frozen(capsys, argv, fmt):
    status, out, err = run(capsys, [*argv, "--format", fmt])
    assert (status, err) == (0, "")
    assert digest(out) == FROZEN[argv, fmt]


@pytest.mark.parametrize("argv,fmt", list(FROZEN))
def test_out_file_bytes_are_frozen(capsys, tmp_path, argv, fmt):
    path = tmp_path / "table.out"
    status, out, err = run(capsys, [*argv, "--format", fmt, "--out", str(path)])
    assert (status, out, err) == (0, "", "")
    assert digest(path.read_bytes().decode("utf-8")) == FROZEN[argv, fmt]


def test_negative_zero_cell_is_covered(capsys):
    # the frozen evolve table on 0:1:3 at gamma 0 holds a -0.0 Bloch component
    _, out, _ = run(capsys, ["evolve", "--grid", "0:1:3"])
    assert ",-0," in out
    _, out, _ = run(capsys, ["evolve", "--grid", "0:1:3", "--format", "json"])
    assert "-0.0," in out


# NaN, infinities, -0.0, str and int cells straight through the emitter
_EDGE_COLUMNS = ["name", "count", "value"]
_EDGE_ROWS = [
    ["nan", 7, math.nan],
    ["inf", 2**63, math.inf],
    ["-inf", -3, -math.inf],
    ["zero", 0, -0.0],
    ["tiny", 10**21, 5e-324],
]
_EDGE_TEXT = {
    "csv": (
        "name,count,value\n"
        "nan,7,nan\n"
        "inf,9223372036854775808,inf\n"
        "-inf,-3,-inf\n"
        "zero,0,-0\n"
        "tiny,1000000000000000000000,4.94065645841e-324\n"
    ),
    "json": (
        "{\n"
        '  "schema_version": "1",\n'
        '  "command": "edge",\n'
        '  "parameters": {\n'
        '    "j": 1.0,\n'
        '    "label": "x"\n'
        "  },\n"
        '  "columns": [\n'
        '    "name",\n'
        '    "count",\n'
        '    "value"\n'
        "  ],\n"
        '  "rows": [\n'
        '    [\n      "nan",\n      7,\n      NaN\n    ],\n'
        '    [\n      "inf",\n      9223372036854775808,\n      Infinity\n    ],\n'
        '    [\n      "-inf",\n      -3,\n      -Infinity\n    ],\n'
        '    [\n      "zero",\n      0,\n      -0.0\n    ],\n'
        '    [\n      "tiny",\n      1000000000000000000000,\n      5e-324\n    ]\n'
        "  ]\n"
        "}\n"
    ),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_edge_cells(capsys, fmt):
    args = argparse.Namespace(command="edge", format=fmt, out=None)
    cli._emit(_EDGE_COLUMNS, _EDGE_ROWS, args, {"j": 1.0, "label": "x"})
    out = capsys.readouterr().out
    assert out == _EDGE_TEXT[fmt]
