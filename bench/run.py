"""Benchmark driver: runs one workload (or all four) of the hypolab CLI.

    python3 bench/run.py --workload heis-tails --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from anywhere inside a checkout; the program is taken from its ``src``.
Each run is a fresh child process (``child.py``), started one after another
from this process, until ``--seconds`` have passed and at least a few runs
are done.  Every run's outputs are checked against the workload's oracle.

``--trace 0`` reports the end-to-end metrics, medians over the runs, with
tracing off.  The bounded run-time metric is ``run_rel``, the run's CPU time
in units of a fixed reference kernel timed in the same child (see
``child.py``); the plain ``run_s`` is printed beside it.  ``--trace 1``
alternates untraced and traced runs and reports the per-layer metrics from
the traced ones; the untraced ones give the tracing overhead and the
remaining end-to-end figures.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Raw per-run figures
and the environment go to ``.bench_out/<workload>/result-trace<0|1>.json``.

Exits 1 without a result when no run succeeded, and 2 when the checkout has
no program to run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import bytes_written, csv_bad_cells, output_digests, paths_lost, run_problems
from child import NO_PROGRAM
from spans import self_times
from workloads import WORKLOADS, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
CHILD_TIMEOUT_S = 120
# Single-threaded BLAS: runs use --workers 1 and time one core's work.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "run_rel": "ref", "peak_rss_mb": "MiB"}
# End-to-end figures without a bound: run time in seconds drifts with the
# shared host's speed, and the rest are zero or undefined on some workload.
# Printed on every run, reported in the JSON of the traced run.
END_TO_END_EXTRA = {
    "run_s": "s",
    "ref_s": "s",
    "setup_wall_s": "s",
    "run_wall_s": "s",
    "path_steps_per_s": "1/s",
    "grid_points_per_s": "1/s",
    "failed_frac": "fraction",
    "diverged_frac": "fraction",
    "csv_bad_cells": "count",
}
LAYERS = ("brownian", "simulate", "fieldlang", "integrals", "brackets", "estimators", "harness")
PER_LAYER = {
    "brownian.calls": "count",
    "brownian.self_s": "s",
    "brownian.normals_per_s": "1/s",
    "simulate.self_s": "s",
    "simulate.path_steps_per_s": "1/s",
    "simulate.blocks": "count",
    "simulate.diverged_paths": "count",
    "simulate.result_mb": "MiB",
    "fieldlang.eval_calls": "count",
    "fieldlang.self_s": "s",
    "fieldlang.rows_per_s": "1/s",
    "integrals.self_s": "s",
    "integrals.input_mb": "MiB",
    "brackets.self_s": "s",
    "brackets.points_per_s": "1/s",
    "brackets.field_evals": "count",
    "estimators.self_s": "s",
    "harness.self_s": "s",
    "harness.bytes_written": "B",
    "setup.import_s": "s",
    "setup.config_s": "s",
    "trace.overhead_frac": "fraction",
    **END_TO_END_EXTRA,
}


class NoProgram(Exception):
    """The checkout holds no importable hypolab."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("HYPO_LAB_WORKERS", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # compile hypolab from source in every run and write nothing into src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_values(spans, counts: dict) -> dict:
    """Per-layer metrics of one traced run (setup and overhead excluded)."""
    own = self_times(spans)
    t = {layer: own.get(layer, 0.0) for layer in LAYERS}
    c = lambda key: counts.get(key, 0)  # noqa: E731
    return {
        "brownian.calls": c("brownian.calls"),
        "brownian.self_s": t["brownian"],
        "brownian.normals_per_s": _rate(c("brownian.normals"), t["brownian"]),
        "simulate.self_s": t["simulate"],
        "simulate.path_steps_per_s": _rate(c("simulate.path_steps"), t["simulate"]),
        "simulate.blocks": c("simulate.blocks"),
        "simulate.diverged_paths": c("simulate.diverged_paths"),
        "simulate.result_mb": c("simulate.result_bytes") / 2**20,
        "fieldlang.eval_calls": c("fieldlang.eval_calls"),
        "fieldlang.self_s": t["fieldlang"],
        "fieldlang.rows_per_s": _rate(c("fieldlang.rows"), t["fieldlang"]),
        "integrals.self_s": t["integrals"],
        "integrals.input_mb": c("integrals.input_bytes") / 2**20,
        "brackets.self_s": t["brackets"],
        "brackets.points_per_s": _rate(c("brackets.points"), t["brackets"]),
        "brackets.field_evals": c("brackets.field_evals"),
        "estimators.self_s": t["estimators"],
        "harness.self_s": t["harness"],
    }


def run_child(wl: Workload, config_path: str, work_dir: str, seed: int, trace: bool) -> dict:
    """One fresh-process run of ``wl``, with its outputs checked."""
    out_dir = os.path.join(work_dir, "run")
    result_path = os.path.join(work_dir, "child.json")
    shutil.rmtree(out_dir, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    spawn_t = time.monotonic()
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "child.py"),
        "--command", wl.command, "--config", config_path, "--out", out_dir,
        "--seed", str(seed), "--trace", str(int(trace)),
        "--spawn-t", repr(spawn_t), "--result", result_path,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": trace, "problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    if proc.returncode == NO_PROGRAM:
        raise NoProgram(proc.stderr.strip())
    run = {"traced": trace, "exit_code": proc.returncode, "problems": []}
    if proc.returncode != 0 or not os.path.isfile(result_path):
        tail = proc.stderr.strip().splitlines()[-3:]
        run["problems"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        return run
    with open(result_path, encoding="utf-8") as fh:
        run.update(json.load(fh))
    run["problems"] = run_problems(out_dir, wl)
    if run["problems"]:
        return run
    run["lost"], run["paths"] = paths_lost(out_dir, wl)
    run["csv_bad_cells"] = csv_bad_cells(out_dir)
    run["bytes_written"] = bytes_written(out_dir)
    run["digests"] = output_digests(out_dir)
    if trace:
        run["layers"] = layer_values(run.pop("spans"), run.pop("counts"))
        run["layers"]["harness.bytes_written"] = run["bytes_written"]
    return run


def _median(runs, key) -> float:
    return statistics.median(r[key] for r in runs)


def aggregate(wl: Workload, runs: list[dict], trace: bool) -> tuple[dict, dict]:
    """(metrics, extra) of one invocation.

    ``metrics`` are the end-to-end metrics with ``trace`` off and the
    per-layer ones with it on; ``extra`` are the unbounded end-to-end figures.
    """
    good = [r for r in runs if not r["problems"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    run_s = _median(plain, "run_s")
    lost = sum(r["lost"] for r in good)
    attempted_paths = sum(r["paths"] for r in good)
    extra = {
        "run_s": run_s,
        "ref_s": _median(plain, "ref_s"),
        "setup_wall_s": _median(plain, "setup_wall_s"),
        "run_wall_s": _median(plain, "run_wall_s"),
        "path_steps_per_s": _rate(wl.path_steps, run_s),
        "grid_points_per_s": _rate(wl.grid_points, run_s),
        "failed_frac": (len(runs) - len(good)) / len(runs),
        "diverged_frac": lost / attempted_paths if attempted_paths else 0.0,
        "csv_bad_cells": _median(good, "csv_bad_cells"),
    }
    if not trace:
        return {
            "setup_s": _median(plain, "setup_s"),
            "run_rel": _median(plain, "run_rel"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
        }, extra
    layers = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    layers["setup.import_s"] = _median(good, "import_s")
    layers["setup.config_s"] = _median(good, "config_s")
    layers["trace.overhead_frac"] = _median(traced, "run_rel") / _median(plain, "run_rel") - 1.0
    layers.update(extra)
    return layers, extra


def _consistency_problems(runs: list[dict]) -> list[str]:
    """Runs of one seed must write bit-identical outputs (workers = 1)."""
    digests = [r["digests"] for r in runs if "digests" in r]
    if any(d != digests[0] for d in digests[1:]):
        return ["outputs differ between runs with the same seed"]
    return []


def bench_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = os.path.join(OUT_ROOT, wl.name)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    config_path = os.path.join(work_dir, "workload.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(wl.config)
    cli_seed = seed % 2**32  # the CLI takes a non-negative seed
    min_runs = 4 if trace else 3
    deadline = time.monotonic() + seconds
    runs: list[dict] = []
    while len(runs) < min_runs or time.monotonic() < deadline:
        traced = trace and len(runs) % 2 == 1
        runs.append(run_child(wl, config_path, work_dir, cli_seed, traced))
    consistency = _consistency_problems(runs)
    good = [r for r in runs if not r["problems"]]
    need_both = trace and not all(any(r["traced"] == t for r in good) for t in (0, 1))
    report = {
        "workload": wl.name,
        "correct": not consistency and len(good) == len(runs),
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "problems": consistency + [p for r in runs for p in r["problems"]],
        "missing": sorted({name for r in runs for name in r.get("missing", ())}),
        "env": {
            **(good[0]["env"] if good else {}),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "blas_threads": THREAD_ENV,
            "workers": 1,
            "seed": seed,
            "cli_seed": cli_seed,
            "paths": wl.paths,
            "n_steps": wl.n_steps,
            "grid_points": wl.grid_points,
            "runs": len(runs),
        },
    }
    if good and not need_both:
        report["metrics"], report["extra"] = aggregate(wl, runs, trace)
    for r in runs:
        r.pop("digests", None)
    with open(os.path.join(work_dir, f"result-trace{int(trace)}.json"), "w") as fh:
        json.dump({**report, "runs": runs}, fh, indent=1)
    return report


def _print_report(report: dict, trace: bool) -> None:
    name = report["workload"]
    print(f"== {name}: {report['attempted']} runs, {report['failed']} failed")
    print(f"env {json.dumps(report['env'], sort_keys=True)}")
    for problem in report["problems"][:10]:
        print(f"problem: {problem}")
    for entry in report["missing"]:
        print(f"missing entry point, its layer is not traced: {entry}")
    if "metrics" not in report:
        return
    units = PER_LAYER if trace else END_TO_END
    shown = dict(report["metrics"])
    if not trace:
        shown.update(report["extra"])
        units = {**units, **END_TO_END_EXTRA}
    for metric, value in shown.items():
        print(f"{name} {metric} = {value:.6g} {units[metric]}")
    if trace:
        # the harness span encloses cli.main, so the self times sum to its run_s
        total = sum(report["metrics"][f"{layer}.self_s"] for layer in LAYERS)
        for layer in LAYERS:
            share = report["metrics"][f"{layer}.self_s"] / total if total else 0.0
            print(f"{name} {layer} share of traced run_s = {100 * share:.1f} %")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hypolab", "harness", "cli.py")):
        print(f"no hypolab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    reports = []
    try:
        for name in names:
            reports.append(bench_workload(WORKLOADS[name], args.seed, args.seconds, trace))
            _print_report(reports[-1], trace)
    except NoProgram as exc:
        print(f"hypolab is not runnable from this checkout: {exc}", file=sys.stderr)
        return 2
    if any("metrics" not in r for r in reports):
        print("no successful run to report", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in reports for k, v in r["metrics"].items()}
    units = PER_LAYER if trace else END_TO_END
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            key: {"value": value, "unit": units[key.rsplit("/", 1)[-1]]}
            for key, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
