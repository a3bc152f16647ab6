"""Correctness gate: compare each operation's output with the reference route.

``check(op, status, text)`` returns None when the output is right and a
one-line reason otherwise.  It runs outside the timed region.  Tolerances:

- deterministic values (grids, states, Bloch vectors, correlators, witness,
  K3 optima): 1e-8 absolute, against 12-significant-digit CSV; unit state
  norm and Bloch length within 1e-9;
- distances 1e-6 (arccos near 1 turns rounding x into sqrt(x)), and the
  speed column equal to the central difference of the emitted distances;
- ``k3max``: the reported maximum within 1e-8 of a 4096-point dense scan
  refined by a 2001-point scan of its best cell, and K3 at the reported
  interval equal to the reported maximum;
- ``--ep-report``: finite, left limit within 1e-4 of 3, right value within
  1e-3 of the dense-scan maximum at gamma/j = 1 + eps/100, jump = right - left;
- ``montecarlo``: 0 <= accepted <= attempted, finite values, and the
  estimate within 8 standard errors (computed from the exact slot
  probabilities and expected accepted counts) plus 8 counts of the smallest
  slot, and the accepted count within 8 sqrt(attempted) of its expectation;
- ``dilation-check``: passed = 1, residuals below 1e-12, success
  probability within 1e-10 of |U psi|^2 / <psi|(I + eta^2)|psi>;
- RK4 flow: unit trace and hermiticity within 1e-10, and the state within
  1e-8 of U rho0 U^dag / Tr(U rho0 U^dag).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as ref

ATOL = 1e-8
Z_SHOTS = 8.0


def table(text: str, fmt: str):
    """(columns, rows) of a CSV or JSON table as emitted by the CLI."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["columns"], doc["rows"]
    lines = list(csv.reader(io.StringIO(text)))
    return lines[0], [[_cell(v) for v in row] for row in lines[1:]]


def _cell(value: str):
    try:
        return float(value)
    except ValueError:
        return value


def _numeric(rows, columns, names):
    index = [columns.index(name) for name in names]
    return np.array([[row[i] for i in index] for row in rows], dtype=float)


def _far(actual, expected, atol=ATOL):
    """Largest deviation if it exceeds atol (or is not finite), else None."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    if actual.shape != expected.shape:
        return f"shape {actual.shape} != {expected.shape}"
    if not np.all(np.isfinite(actual)):
        return "non-finite value"
    worst = float(np.max(np.abs(actual - expected), initial=0.0))
    return f"deviation {worst:.3g} > {atol:g}" if worst > atol else None


def check(op, status, text):
    """None if the operation's result is right, else the reason it is not."""
    if op.command == "rk4":
        return _check_rk4(op, text)
    if status != 0:
        return f"exit code {status}, expected 0"
    try:
        columns, rows = table(text, op.params["format"])
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable {op.params['format']} output: {exc}"
    try:
        return _CHECKS[op.command](op.params, columns, rows)
    except (ValueError, IndexError, TypeError, KeyError) as exc:
        return f"malformed table: {exc}"


def _grid(params):
    lo, hi, n = params["grid"]
    return np.linspace(lo, hi, n)


def _check_trajectory(p, columns, rows):
    tau = _grid(p)
    j, gamma = p["j"], p["gamma"]
    states = ref.evolve(j, gamma, tau, ref.MINUS_Y)
    overlap = np.minimum(np.abs(states @ ref.MINUS_Y.conj()), 1.0)
    distance = np.arccos(overlap)
    if "speed" in columns:  # distance command
        got = _numeric(rows, columns, ["tau", "distance", "speed"])
        # speed is defined as the central difference of the emitted distances;
        # differencing the reference instead would amplify its rounding by 1/dtau
        speed = np.gradient(got[:, 1], tau, edge_order=1) if len(tau) > 1 else np.zeros(1)
        return _far(got[:, 0], tau) or _far(got[:, 1], distance, 1e-6) or _far(got[:, 2], speed, 1e-6)
    got = _numeric(rows, columns, ["tau", "re_a1", "im_a1", "re_a2", "im_a2", "bloch_x", "bloch_y", "bloch_z", "distance"])
    amps = got[:, 1:5]
    norm = np.hypot(amps[:, 0], amps[:, 1]) ** 2 + np.hypot(amps[:, 2], amps[:, 3]) ** 2
    if _far(norm, np.ones_like(norm), 1e-9):
        return "state norm is not 1"
    if _far(np.linalg.norm(got[:, 5:8], axis=1), np.ones(len(got)), 1e-9):
        return "Bloch vector is not unit length"
    expected = np.column_stack([
        tau, states[:, 0].real, states[:, 0].imag, states[:, 1].real, states[:, 1].imag,
        ref.bloch(states), distance,
    ])
    # distance near 0 is arccos(1 - x): rounding in x shows as sqrt(x)
    return _far(got[:, :8], expected[:, :8]) or _far(got[:, 8], expected[:, 8], 1e-6)


def _check_k3(p, columns, rows):
    t = _grid(p)
    got = _numeric(rows, columns, ["T", "C12", "C23", "C13", "K3"])
    expected = np.column_stack([t, ref.correlator_table(p["j"], p["gamma"], t)])
    return _far(got, expected)


def _check_witness(p, columns, rows):
    ratios = _grid(p)
    got = _numeric(rows, columns, ["gamma_over_j", "p_without", "p_with", "witness"])
    p_without, p_with, w = ref.witness(p["j"], ratios * p["j"])
    return _far(got, np.column_stack([ratios, p_without, p_with, w]))


def _check_k3max(p, columns, rows):
    j = p["j"]
    if "eps" in p:
        eps, left, right, jump = _numeric(rows, columns, ["eps", "left_limit", "right_value", "jump"])[0]
        if not all(math.isfinite(v) for v in (eps, left, right, jump)):
            return "non-finite EP report"
        if abs(left - 3.0) > 1e-4:
            return f"left limit {left} is not near 3"
        near = ref.k3_max(j, (1.0 + p["eps"] / 100.0) * j, 0.0, 10.0)[1]
        if abs(right - near) > 1e-3:
            return f"right value {right} far from dense-scan {near}"
        return _far(jump, right - left, 1e-10)
    if len(rows) != 2:
        return f"{len(rows)} rows for a 2-ratio grid"
    for row, ratio in zip(rows, p["ratios"]):
        gamma_over_j, regime, t_star, k3_max = row
        broken = ratio > 1.0
        if regime != ("PTB" if broken else "PTS") or abs(float(gamma_over_j) - ratio) > 1e-11:
            return f"row {row} does not match ratio {ratio}"
        hi = p["ptb_hi"] if broken else p["pts_hi"]
        if not 0.0 <= float(t_star) <= hi + 1e-9:
            return f"t_star {t_star} outside [0, {hi}]"
        best = ref.k3_max(j, ratio * j, 0.0, hi)[1]
        at_star = float(ref.k3(j, ratio * j, float(t_star)))
        reason = _far(k3_max, best) or _far(k3_max, at_star)
        if reason:
            return f"ratio {ratio}: {reason}"
    return None


def _check_dilation(p, columns, rows):
    values = {row[0]: float(row[1]) for row in rows}
    if values.get("passed") != 1.0:
        return "self-check did not pass"
    for name in ("unitarity_residual", "intertwining_residual", "block_identity_residual"):
        if not 0.0 <= values[name] < 1e-12:
            return f"{name} = {values[name]}"
    if values["fidelity_vs_direct"] < 1.0 - 1e-10:
        return f"fidelity_vs_direct = {values['fidelity_vs_direct']}"
    success = ref.dilation_success(p["j"], p["gamma"], p["tau"], ref.MINUS_Y)
    return _far(values["success_prob"], success, 1e-10)


def _slot(p, psi, tau):
    """(probability of +1, expected accepted fraction) for one shot slot."""
    j, gamma = p["j"], p["gamma"]
    success = ref.dilation_success(j, gamma, tau, psi) if p["mode"] == "dilated" else 1.0
    return float(ref.prob_plus(j, gamma, tau, psi)), success


def _shot_expectation(p):
    """Exact value, its standard error, expected accepted shots, attempted shots,
    and the smallest expected count of one slot, for one montecarlo run."""
    n = p["shots"]
    if p["quantity"] == "conditional":
        q, s = _slot(p, ref.PLUS_Y if p["qin"] > 0 else ref.MINUS_Y, p["tau"])
        return q, math.sqrt(q * (1 - q) / (n * s)), n * s, n, n * s
    if p["quantity"] == "k3":
        t = p["t"]
        a, sa = _slot(p, ref.MINUS_Y, t)
        c, sc = _slot(p, ref.MINUS_Y, 2.0 * t)
        b, sb = _slot(p, ref.PLUS_Y, t)
        # slots c12, c13, c23:collapse, c23:from+, c23:from- and dK3/dp for each
        slots = [(a, sa, -2.0), (c, sc, 2.0), (a, sa, 2 * b + 2 * a - 2), (b, sb, 2 * a), (a, sa, -2 * (1 - a))]
        var = sum(g * g * q * (1 - q) / (n * s) for q, s, g in slots)
        exact = float(ref.k3(p["j"], p["gamma"], t))
        return exact, math.sqrt(var), n * (3 * sa + sb + sc), 5 * n, n * min(sa, sb, sc)
    psi0 = ref.witness_state(p["j"], p["gamma"])
    pw, sw = _slot(p, psi0, p["tau"])
    qp, sp = _slot(p, ref.PLUS_Y, p["tau"])
    qm, sm = _slot(p, ref.MINUS_Y, p["tau"])
    p0 = float(np.abs(np.vdot(ref.PLUS_Y, psi0)) ** 2)
    var = (qp - qm) ** 2 * p0 * (1 - p0) / n + p0 * qp * (1 - qp) / (n * sp)
    var += (1 - p0) * qm * (1 - qm) / (n * sm) + pw * (1 - pw) / (n * sw)
    exact = float(ref.witness(p["j"], p["gamma"], p["tau"])[2])
    smallest = n * min(sw, p0 * sp, (1 - p0) * sm)
    return exact, math.sqrt(var), n * (sw + p0 * sp + (1 - p0) * sm), 2 * n, smallest


def _check_montecarlo(p, columns, rows):
    (quantity, estimate, stderr, accepted, attempted, success_rate), = rows
    if quantity != p["quantity"]:
        return f"quantity {quantity!r}"
    numbers = [float(v) for v in (estimate, stderr, accepted, attempted, success_rate)]
    if not all(math.isfinite(v) for v in numbers) or stderr < 0:
        return f"non-finite or negative value in {numbers}"
    exact, sigma, expected_accepted, expected_attempted, smallest = _shot_expectation(p)
    if attempted != expected_attempted or not 0 <= accepted <= attempted:
        return f"accepted {accepted} / attempted {attempted}, expected attempted {expected_attempted}"
    if abs(success_rate - accepted / attempted) > 1e-11:
        return f"success_rate {success_rate} != {accepted}/{attempted}"
    # binomial spread of the accepted count is below sqrt(attempted) in every mode
    if abs(accepted - expected_accepted) > Z_SHOTS * math.sqrt(attempted) + 1:
        return f"accepted {accepted} far from expected {expected_accepted:.1f}"
    # 8 counts in the smallest slot: the estimator's resolution where sigma -> 0
    if abs(estimate - exact) > Z_SHOTS * sigma + 8.0 / smallest:
        return f"estimate {estimate} is {abs(estimate - exact) / max(sigma, 1e-300):.1f} sigma from {exact}"
    return None


def _check_rk4(op, rho):
    p = op.params
    psi = np.array(p["psi"], dtype=complex)
    expected = ref.density_flow(p["j"], p["gamma"], p["t"], np.outer(psi, psi.conj()))
    rho = np.asarray(rho)
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        return f"trace drift {np.trace(rho).real - 1.0:.3g}"
    if np.max(np.abs(rho - rho.conj().T)) > 1e-10:
        return "density matrix is not Hermitian"
    return _far(rho.real, expected.real) or _far(rho.imag, expected.imag)


_CHECKS = {
    "evolve": _check_trajectory,
    "distance": _check_trajectory,
    "k3": _check_k3,
    "witness": _check_witness,
    "k3max": _check_k3max,
    "dilation-check": _check_dilation,
    "montecarlo": _check_montecarlo,
}
