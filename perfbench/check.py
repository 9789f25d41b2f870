"""Output check of one benchmark command against the stored reference.

The references in `reference/` are the CSV outputs of the three workload
commands with `--seed 42` (REFERENCE_SEED) at the commit that added the
benchmark.  Every output must have the reference's header, row count and
key columns.  Values are compared at the golden tolerance (relative 1e-12)
when the output is a function of the reference inputs: always for
`bounds_dense`, which draws no noise, and at the reference seed for the
sampling workloads.  The CSV carries 12 significant digits, so the value
comparison also allows one unit in the last printed digit of the
reference; a bit-level change that flips the rounding of that digit is not
a defect.  At other seeds the sampling workloads are checked against
invariants and against the reference's moments at wide statistical bounds.
"""
from __future__ import annotations

import csv
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 42
GOLDEN_RTOL = 1e-12
PRINTED_DIGITS = 12

# Columns compared as text: they label a row rather than measure anything.
KEY_COLUMNS = {
    "mc_chaos": ("T", "reps"),
    "estimate_pathwise": ("T", "rep", "method"),
    "bounds_dense": ("T", "quantity"),
}
SEEDED = {"mc_chaos", "estimate_pathwise"}


def read_csv(path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _close(value: str, ref: str) -> bool:
    if value == ref:
        return True
    try:
        a, b = float(value), float(ref)
    except ValueError:
        return False
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    ulp = 10.0 ** (math.floor(math.log10(abs(b))) - (PRINTED_DIGITS - 1)) if b else 0.0
    return abs(a - b) <= GOLDEN_RTOL * abs(b) + ulp


def _columns(header, rows) -> dict:
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def _mean_var(values) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    return mean, sum((v - mean) ** 2 for v in values) / n


def _check_mc_chaos(out: dict, ref: dict, seed: int) -> list[str]:
    problems = []
    if any(s != str(seed) for s in out["seed"]):
        problems.append(f"seed column is not {seed}")
    for i, t in enumerate(ref["T"]):
        reps = int(ref["reps"][i])
        ks, mean, var = (float(out[c][i]) for c in ("ks_distance", "sample_mean", "sample_var"))
        ks_ref, mean_ref, var_ref = (float(ref[c][i]) for c in ("ks_distance", "sample_mean", "sample_var"))
        # DKW: each empirical CDF is within 0.035 of its law except with
        # probability 2 exp(-2 * 5000 * 0.035^2) ~ 1e-5.
        if not 0.0 < ks < 1.0 or abs(ks - ks_ref) > 0.07:
            problems.append(f"T={t}: ks_distance {ks} far from reference {ks_ref}")
        if abs(mean - mean_ref) > 6.0 * math.sqrt(2.0 * var_ref / reps):
            problems.append(f"T={t}: sample_mean {mean} far from reference {mean_ref}")
        if not abs(var / var_ref - 1.0) < 0.2:
            problems.append(f"T={t}: sample_var {var} far from reference {var_ref}")
    return problems


def _check_estimate(out: dict, ref: dict, seed: int) -> list[str]:
    problems = []
    theta_hat = [float(v) for v in out["theta_hat"]]
    num = [float(v) for v in out["numerator"]]
    den = [float(v) for v in out["denominator"]]
    for i, (th, a, b) in enumerate(zip(theta_hat, num, den)):
        if not (math.isfinite(th) and b > 0 and abs(th - a / b) <= 1e-10 * abs(th) + 1e-12):
            problems.append(f"row {i}: theta_hat {th} != numerator/denominator {a}/{b}")
            break
    ref_theta = [float(v) for v in ref["theta_hat"]]
    for t in dict.fromkeys(ref["T"]):
        idx = [i for i, v in enumerate(ref["T"]) if v == t]
        mean, _ = _mean_var([theta_hat[i] for i in idx])
        mean_ref, var_ref = _mean_var([ref_theta[i] for i in idx])
        if abs(mean - mean_ref) > 6.0 * math.sqrt(2.0 * var_ref / len(idx)):
            problems.append(f"T={t}: mean theta_hat {mean} far from reference {mean_ref}")
    return problems


_SEED_CHECKS = {"mc_chaos": _check_mc_chaos, "estimate_pathwise": _check_estimate}


def check_output(workload: str, seed: int, path) -> list[str]:
    """Problems found in the output at `path`; an empty list means it passed."""
    ref_header, ref_rows = read_csv(REFERENCE_DIR / f"{workload}.csv")
    try:
        header, rows = read_csv(path)
    except OSError as exc:
        return [f"cannot read output: {exc}"]
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    if any(len(r) != len(header) for r in rows):
        return ["a row has the wrong number of fields"]
    out, ref = _columns(header, rows), _columns(header, ref_rows)
    for name in KEY_COLUMNS[workload]:
        if out[name] != ref[name]:
            return [f"column {name} differs from the reference"]
    if workload not in SEEDED or seed == REFERENCE_SEED:
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            for name, value, expected in zip(header, row, ref_row):
                if not _close(value, expected):
                    return [f"row {i} {name}: {value} != reference {expected}"]
        return []
    try:
        return _SEED_CHECKS[workload](out, ref, seed)
    except ValueError as exc:
        return [f"unparsable value: {exc}"]
