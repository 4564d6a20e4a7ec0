"""Tests of the benchmark itself: oracles, span arithmetic and metric names.

Run with ``python -m pytest bench/tests``.  Only the last test starts the
program; the others work on synthetic artifacts and spans.
"""
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import run
from spans import Tracer, self_times
from workloads import K_GRID, WORKLOADS

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)

REQUIRED_END_TO_END = (
    "setup_s", "run_rel", "run_s", "ref_s", "path_steps_per_s", "grid_points_per_s",
    "peak_rss_mb", "failed_frac", "diverged_frac", "csv_bad_cells",
)
REQUIRED_PER_LAYER = (
    "brownian.calls", "brownian.self_s", "brownian.normals_per_s",
    "simulate.self_s", "simulate.path_steps_per_s", "simulate.blocks",
    "simulate.diverged_paths", "simulate.result_mb",
    "fieldlang.eval_calls", "fieldlang.self_s", "fieldlang.rows_per_s",
    "integrals.self_s", "integrals.input_mb",
    "brackets.self_s", "brackets.points_per_s", "brackets.field_evals",
    "estimators.self_s", "harness.self_s", "harness.bytes_written",
    "setup.import_s", "setup.config_s", "trace.overhead_frac",
)


def _write_run(out_dir, files: dict) -> None:
    """Write ``files`` and a manifest listing their digests, as the CLI does."""
    os.makedirs(out_dir, exist_ok=True)
    outputs = []
    for name, text in files.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        digest = hashlib.sha256(text.encode()).hexdigest()
        outputs.append({"file": name, "sha256": digest, "claim": "test"})
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"outputs": outputs}, fh)


def _tail_json(p_hat, trials=1000):
    events = [round(p * trials) for p in p_hat]
    return {
        "K": list(K_GRID), "events": events, "trials": trials,
        "p_hat": [e / trials for e in events],
        "ci_lo": [max(e / trials - 0.02, 0.0) for e in events],
        "ci_hi": [min(e / trials + 0.02, 1.0) for e in events],
        "meta": {"diverged": 0},
    }


def _tails_run(out_dir, p_hat):
    _write_run(out_dir, {
        "tails.json": json.dumps(_tail_json(p_hat)),
        "tails.csv": "K,p_hat\n1.0,np.float64(0.5)\n",
    })


def test_valid_tail_artifact_passes(tmp_path):
    _tails_run(tmp_path, [0.9, 0.8, 0.6, 0.4, 0.2])
    assert checks.run_problems(str(tmp_path), WORKLOADS["heis-tails"]) == []


def test_corrupted_file_fails_digest_check(tmp_path):
    _tails_run(tmp_path, [0.9, 0.8, 0.6, 0.4, 0.2])
    with open(tmp_path / "tails.csv", "a", encoding="utf-8") as fh:
        fh.write("2.0,0.4\n")
    problems = checks.run_problems(str(tmp_path), WORKLOADS["heis-tails"])
    assert problems == ["sha256 of tails.csv does not match the manifest"]


def test_rising_tail_curve_fails(tmp_path):
    _tails_run(tmp_path, [0.9, 0.8, 0.6, 0.7, 0.2])
    problems = checks.run_problems(str(tmp_path), WORKLOADS["heis-tails"])
    assert any("by more than one Wilson half-width" in p for p in problems)


def test_lost_paths_fail(tmp_path):
    data = _tail_json([0.5] * 5, trials=WORKLOADS["heis-remainder"].paths - 1)
    data["meta"]["diverged"] = 1
    _write_run(tmp_path, {"remainder_tails.json": json.dumps(data)})
    problems = checks.run_problems(str(tmp_path), WORKLOADS["heis-remainder"])
    assert any(p.startswith("trials") for p in problems)


def test_hormander_oracle(tmp_path):
    wl = WORKLOADS["heis-hormander"]
    points = [{"x": [0.0, 0.0, 0.0], "V_L": 1.0}] * wl.grid_points
    good = {"points": points, "summary": {"inf_V_L": 1.0, "L0_candidate": 3}}
    _write_run(tmp_path / "good", {"hormander.json": json.dumps(good)})
    assert checks.run_problems(str(tmp_path / "good"), wl) == []
    bad = {"points": points[:-1], "summary": {"inf_V_L": 0.999, "L0_candidate": None}}
    _write_run(tmp_path / "bad", {"hormander.json": json.dumps(bad)})
    assert len(checks.run_problems(str(tmp_path / "bad"), wl)) == 3


def _trajectory(k_scale: float) -> str:
    rows = ["t,X_1,J_11,K_11"]
    for i in range(5):
        j = 1.0 - 0.01 * i
        rows.append(f"{0.1 * i!r},1.0,{j!r},{k_scale / j!r}")
    return "\n".join(rows) + "\n"


def _ou_run(out_dir, mean: float, k_scale: float = 1.0):
    wl = WORKLOADS["ou-simulate"]
    summary = {"paths": wl.paths, "diverged": 0, "mean_X_T": [mean],
               "std_X_T": [0.6575]}
    _write_run(out_dir, {
        "ensemble.json": json.dumps(summary),
        "trajectory_000000.csv": _trajectory(1.0),
        "trajectory_000001.csv": _trajectory(k_scale),
    })


def test_ou_oracle(tmp_path):
    wl = WORKLOADS["ou-simulate"]
    _ou_run(tmp_path / "good", mean=0.3679)
    assert checks.run_problems(str(tmp_path / "good"), wl) == []
    _ou_run(tmp_path / "mean", mean=0.40)
    assert any("mean_X_T" in p for p in checks.run_problems(str(tmp_path / "mean"), wl))
    _ou_run(tmp_path / "flow", mean=0.3679, k_scale=1.1)
    assert any("|KJ - I|" in p for p in checks.run_problems(str(tmp_path / "flow"), wl))


def test_unreadable_output_is_a_problem(tmp_path):
    _write_run(tmp_path, {"tails.json": "{not json"})
    problems = checks.run_problems(str(tmp_path), WORKLOADS["heis-tails"])
    assert problems and problems[0].startswith("unreadable output")


def test_csv_bad_cells_counts_non_numeric_literals(tmp_path):
    (tmp_path / "a.csv").write_text(
        "K,p,flag\nnp.float64(1.0),0.5,1\n2.0,np.float64(0.25),-3e-05\n"
    )
    (tmp_path / "b.csv").write_text("x\ninf\n1.\n.5\nnan\n")
    assert checks.csv_bad_cells(str(tmp_path)) == 2


def test_self_times_on_synthetic_tree():
    spans = [
        ["harness", 0.0, 10.0, -1],
        ["estimators", 1.0, 6.0, 0],
        ["simulate", 2.0, 5.0, 1],
        ["brownian", 3.0, 4.0, 2],
        ["fieldlang", 7.0, 8.0, 0],
        ["fieldlang", 8.5, 9.0, 0],
        ["simulate", 9.0, 9.5, 0],
    ]
    assert self_times(spans) == pytest.approx({
        "harness": 10.0 - 5.0 - 1.0 - 0.5 - 0.5,
        "estimators": 5.0 - 3.0,
        "simulate": 3.0 - 1.0 + 0.5,
        "brownian": 1.0,
        "fieldlang": 1.5,
    })
    # children overlapping each other or sticking out count once, clipped
    overlap = [["a", 0.0, 4.0, -1], ["b", 1.0, 3.0, 0], ["c", 2.0, 5.0, 0]]
    assert self_times(overlap)["a"] == pytest.approx(1.0)


def test_tracer_collapses_same_layer_calls():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return tracer.call("simulate", lambda: tracer.call("fieldlang", lambda: 7))

    assert tracer.call("simulate", inner) == 7
    assert [s[0] for s in tracer.spans] == ["simulate", "fieldlang"]
    assert tracer.spans[1][3] == 0
    assert self_times(tracer.spans) == {"simulate": 2.0, "fieldlang": 1.0}


def test_benchmark_json_matches_driver():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _synthetic_run(traced: bool) -> dict:
    layers = {name: 1.0 for name in run.PER_LAYER}
    return {
        "traced": traced, "problems": [], "setup_s": 1.0, "setup_wall_s": 1.1,
        "import_s": 0.9, "config_s": 0.1, "run_s": 2.0, "run_wall_s": 2.1,
        "ref_s": 0.2, "run_rel": 10.0,
        "peak_rss_mb": 100.0, "lost": 0, "paths": 10, "csv_bad_cells": 0,
        "layers": layers,
    }


@pytest.mark.parametrize("trace", [False, True])
def test_every_required_metric_is_printed(trace):
    for wl in WORKLOADS.values():
        runs = [_synthetic_run(trace and i % 2 == 1) for i in range(4)]
        report = {"workload": wl.name, "attempted": 4, "failed": 0, "problems": [],
                  "env": {}, "missing": []}
        report["metrics"], report["extra"] = run.aggregate(wl, runs, trace)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run._print_report(report, trace)
        printed = {line.split()[1] for line in out.getvalue().splitlines()
                   if line.startswith(wl.name + " ")}
        expected = REQUIRED_PER_LAYER if trace else REQUIRED_END_TO_END
        assert set(expected) <= printed


def test_exits_without_result_when_program_is_absent(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heis-tails", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_of_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "heis-remainder", "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["integrals.input_mb"]["value"] > 0
    assert "missing entry point" not in proc.stdout
