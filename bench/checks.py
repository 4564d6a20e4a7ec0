"""Output oracles for the benchmark's workloads.

Every check reads the JSON and CSV a CLI run wrote and returns a list of
problems (empty when the run is correct).  No check compares exact bits
across program versions: each one holds for any float operation order that
keeps the numerics within their stated tolerances.
"""
from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os
import re

from workloads import K_GRID, Workload

# sup |K J - I| bound of acceptance criterion 03 (flow identity).
FLOW_IDENTITY_BOUND = 0.05
# Monte Carlo tolerance, in standard errors, for the OU moment oracles.
MC_SIGMAS = 5.0

_NUMERIC = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|[+-]?(inf|nan)")


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def output_digests(out_dir: str) -> dict[str, str]:
    """File name -> sha256 as listed in the run's manifest."""
    manifest = _read_json(os.path.join(out_dir, "manifest.json"))
    return {entry["file"]: entry["sha256"] for entry in manifest["outputs"]}


def manifest_problems(out_dir: str) -> list[str]:
    problems = []
    for name, digest in output_digests(out_dir).items():
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"manifest lists missing file {name}")
        elif _sha256(path) != digest:
            problems.append(f"sha256 of {name} does not match the manifest")
    return problems


def csv_bad_cells(out_dir: str) -> int:
    """Data cells of every CSV output that are not plain numeric literals."""
    bad = 0
    for path in sorted(glob.glob(os.path.join(out_dir, "*.csv"))):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            bad += sum(1 for cell in row if not _NUMERIC.fullmatch(cell.strip()))
    return bad


def bytes_written(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)
    )


def paths_lost(out_dir: str, wl: Workload) -> tuple[int, int]:
    """(paths lost, paths attempted) read from the run's main JSON output."""
    if not wl.paths:
        return 0, 0
    data = _read_json(os.path.join(out_dir, wl.stem + ".json"))
    lost = data["diverged"] if "diverged" in data else data["meta"]["diverged"]
    return int(lost), wl.paths


def _ou_problems(out_dir: str, wl: Workload) -> list[str]:
    data = _read_json(os.path.join(out_dir, "ensemble.json"))
    problems = []
    if data["paths"] != wl.paths or data["diverged"] != 0:
        problems.append(f"paths {data['paths']}, diverged {data['diverged']}")
    # OU with x0 = 1: X_T ~ N(e^-T, (1 - e^-2T) / 2)
    mean = math.exp(-wl.horizon)
    std = math.sqrt((1.0 - math.exp(-2.0 * wl.horizon)) / 2.0)
    bias = 4.0 * wl.horizon / wl.n_steps  # O(h) weak error of the scheme
    mean_tol = MC_SIGMAS * std / math.sqrt(wl.paths) + bias
    std_tol = MC_SIGMAS * std / math.sqrt(2.0 * wl.paths) + bias
    if abs(data["mean_X_T"][0] - mean) > mean_tol:
        problems.append(f"mean_X_T {data['mean_X_T'][0]} not within {mean_tol} of {mean}")
    if data["std_X_T"] is None or abs(data["std_X_T"][0] - std) > std_tol:
        problems.append(f"std_X_T {data['std_X_T']} not within {std_tol} of {std}")
    trajectories = sorted(glob.glob(os.path.join(out_dir, "trajectory_*.csv")))
    if len(trajectories) != 2:
        problems.append(f"{len(trajectories)} trajectory files, expected 2")
    for path in trajectories:
        defect = flow_identity_defect(path)
        if not defect <= FLOW_IDENTITY_BOUND:
            problems.append(f"{os.path.basename(path)}: sup |KJ - I| = {defect}")
    return problems


def flow_identity_defect(path: str) -> float:
    """sup over rows of the Frobenius norm of K J - I in a trajectory CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    d = sum(1 for name in header if name.startswith("X_"))
    j_at = header.index("J_11")
    k_at = header.index("K_11")
    worst = 0.0
    for row in body:
        j = [float(v) for v in row[j_at : j_at + d * d]]
        k = [float(v) for v in row[k_at : k_at + d * d]]
        sq = 0.0
        for r in range(d):
            for c in range(d):
                kj = sum(k[r * d + i] * j[i * d + c] for i in range(d))
                sq += (kj - (1.0 if r == c else 0.0)) ** 2
        worst = max(worst, math.sqrt(sq))
    return worst


def tail_curve_problems(data: dict, paths: int) -> list[str]:
    """Criterion-07 rule plus bookkeeping on a tail-curve JSON."""
    problems = []
    if data["meta"]["diverged"] != 0 or data["trials"] != paths:
        problems.append(f"trials {data['trials']}, diverged {data['meta']['diverged']}")
    if [float(k) for k in data["K"]] != list(K_GRID):
        problems.append(f"K grid {data['K']}")
    p, lo, hi = data["p_hat"], data["ci_lo"], data["ci_hi"]
    for i in range(len(p)):
        if not 0.0 <= lo[i] <= p[i] <= hi[i] <= 1.0:
            problems.append(f"K={data['K'][i]}: p_hat {p[i]} outside [{lo[i]}, {hi[i]}]")
        if abs(p[i] - data["events"][i] / data["trials"]) > 1e-12:
            problems.append(f"K={data['K'][i]}: p_hat != events / trials")
    half = [(b - a) / 2.0 for a, b in zip(lo, hi)]
    for i in range(1, len(p)):
        if p[i] > p[i - 1] + max(half[i], half[i - 1]):
            problems.append(
                f"p_hat rises from K={data['K'][i - 1]} to K={data['K'][i]} "
                "by more than one Wilson half-width"
            )
    return problems


def _hormander_problems(out_dir: str, wl: Workload) -> list[str]:
    data = _read_json(os.path.join(out_dir, "hormander.json"))
    summary = data["summary"]
    problems = []
    if summary["inf_V_L"] != 1.0:
        problems.append(f"inf_V_L = {summary['inf_V_L']}, expected 1.0")
    if summary["L0_candidate"] != 3:
        problems.append(f"L0_candidate = {summary['L0_candidate']}, expected 3")
    if len(data["points"]) != wl.grid_points:
        problems.append(f"{len(data['points'])} points, expected {wl.grid_points}")
    return problems


def run_problems(out_dir: str, wl: Workload) -> list[str]:
    """Every problem found in one run's outputs; empty when the run is correct."""
    try:
        problems = manifest_problems(out_dir)
        if wl.command == "simulate":
            problems += _ou_problems(out_dir, wl)
        elif wl.command == "check-hormander":
            problems += _hormander_problems(out_dir, wl)
        else:
            data = _read_json(os.path.join(out_dir, wl.stem + ".json"))
            problems += tail_curve_problems(data, wl.paths)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return problems
