import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypolab
from hypolab import errors
from hypolab.brackets import BracketTable, HormanderReport, check_hormander
from hypolab.errors import ConfigError
from hypolab.fieldlang import (
    Binary,
    Const,
    Power,
    Unary,
    Var,
    compile_expression_stack,
    compile_step_kernel,
    fields,
    to_text,
)
from hypolab.harness import cli, svg
from hypolab.harness.cli import main
from hypolab.harness.config import load_config, parse_config_text, resolved_text

OU_MODEL = """
[model]
d = 1
m = 1
x0 = 1.0
drift = -x1
sigma1 = 1
"""

SIM = """
[simulation]
T = 0.5
n_steps = 256
scheme = tamed-euler
paths = 400
seed = 5
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(hypolab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_numeric_cells(path):
    """Every data cell of a CSV output parses as a float."""
    rows = path.read_text().splitlines()[1:]
    assert rows
    for row in rows:
        for cell in row.split(","):
            float(cell)


# ---------------------------------------------------------------------------
# config parsing


def test_parse_minimal_simulate_config():
    cfg = parse_config_text(OU_MODEL + SIM + "[output]\nout_dir = runs/x\n", "simulate")
    assert cfg.model["d"] == 1
    assert cfg.simulation["scheme"] == "tamed-euler"
    coeffs = cfg.coefficient_set()
    assert coeffs.drift.describe() == "-x1"
    sim = cfg.sim_config()
    assert sim.n_steps == 256


def test_unknown_key_is_rejected_by_name():
    bad = OU_MODEL + SIM + "[analysis]\nquux = 3\n"
    with pytest.raises(ConfigError, match="quux"):
        parse_config_text(bad, "simulate")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[models]\nd = 1\n", "simulate")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing key 'drift'"):
        parse_config_text("[model]\nd = 1\nm = 1\nx0 = 0.0\nsigma1 = 1\n" + SIM, "simulate")


def test_duplicate_key_rejected():
    text = OU_MODEL + SIM.replace("seed = 5", "seed = 5\nseed = 6")
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config_text(text, "simulate")


def test_x0_dimension_checked():
    text = OU_MODEL.replace("x0 = 1.0", "x0 = 1.0, 2.0") + SIM
    with pytest.raises(ConfigError, match="x0"):
        parse_config_text(text, "simulate")


def test_resolved_text_roundtrips():
    cfg = parse_config_text(OU_MODEL + SIM, "simulate")
    text = resolved_text(cfg)
    cfg2 = parse_config_text(text, "simulate")
    assert resolved_text(cfg2) == text


# ---------------------------------------------------------------------------
# CLI runs


def test_cli_simulate_writes_manifest_and_outputs(tmp_path):
    cfg = _write(tmp_path, OU_MODEL + SIM)
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    files = {entry["file"] for entry in manifest["outputs"]}
    assert "ensemble.json" in files
    assert "config.resolved.txt" in files
    assert any(f.startswith("trajectory_") for f in files)
    header = (out / "trajectory_000000.csv").read_text().splitlines()[0]
    assert header == "t,X_1,J_11,K_11"
    # every listed digest matches the file on disk
    for entry in manifest["outputs"]:
        assert _sha256(out / entry["file"]) == entry["sha256"]


def test_cli_seed_and_workers_reproducibility(tmp_path):
    cfg = _write(tmp_path, OU_MODEL + SIM)

    def digests(out, workers):
        code = main(
            ["simulate", "--config", cfg, "--out", str(out), "--workers", str(workers)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        return {e["file"]: e["sha256"] for e in manifest["outputs"]}

    d1 = digests(tmp_path / "w1", 1)
    d8 = digests(tmp_path / "w8", 8)
    assert d1 == d8
    # same config hash and seed on a rerun: identical digests
    d1b = digests(tmp_path / "w1b", 1)
    assert d1 == d1b


def test_cli_seed_override_changes_bits(tmp_path):
    cfg = _write(tmp_path, OU_MODEL + SIM)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
    e1 = json.loads((out1 / "ensemble.json").read_text())
    e2 = json.loads((out2 / "ensemble.json").read_text())
    assert e1["mean_X_T"] != e2["mean_X_T"]


def test_cli_out_of_range_seed_exits_2(tmp_path, capsys):
    big = _write(tmp_path, OU_MODEL + SIM.replace("seed = 5", "seed = 99999999999999999999"))
    assert main(["simulate", "--config", big, "--out", str(tmp_path / "a")]) == 2
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err
    cfg = _write(tmp_path, OU_MODEL + SIM, "ok.cfg")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", str(2**64)])
    assert code == 2
    assert "got 18446744073709551616" in capsys.readouterr().err


def test_cli_largest_seed_runs_with_the_same_bits_on_both_routes(tmp_path, force_route):
    cfg = _write(tmp_path, OU_MODEL + SIM)
    largest = str(2**64 - 1)

    def digests(route):
        ran, out = force_route(route), tmp_path / route
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", largest]) == 0
        assert ran == {route}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 2**64 - 1
        return {e["file"]: e["sha256"] for e in manifest["outputs"]}

    assert digests("native") == digests("numpy")


def test_cli_invalid_key_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, OU_MODEL + SIM + "[analysis]\nbogus_key = 1\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bogus_key" in capsys.readouterr().err


def test_cli_empty_k_grid_exits_2_before_simulation(tmp_path, capsys):
    text = OU_MODEL + SIM + "[analysis]\nL = 1\nK_grid =\nt = 0.5\n"
    cfg = _write(tmp_path, text)
    code = main(["tails", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize(
    "old,new,key",
    [
        ("t = 0.5", "t = nan", "t"),
        ("t = 0.5", "t = inf", "t"),
        ("t = 0.5", "t = -inf", "t"),
        ("T = 0.5", "T = nan", "T"),
        ("x0 = 1.0, 0.5, 0.0", "x0 = 1.0, inf, 0.0", "x0"),
    ],
    ids=["t-nan", "t-inf", "t-minus-inf", "T-nan", "x0-inf"],
)
def test_cli_non_finite_value_exits_2(tmp_path, capsys, old, new, key):
    text = (Path(__file__).resolve().parents[1] / "configs" / "heis_malliavin.cfg").read_text()
    assert old in text
    cfg = _write(tmp_path, text.replace(old, new))
    code = main(["malliavin", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad value for '{key}'" in err and "not a finite number" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["sigma\u00b2", "sigma3", "sigma"])
def test_cli_unknown_diffusion_field_exits_2(tmp_path, capsys, field):
    text = OU_MODEL + SIM + f"[analysis]\nL = 2\nepsilon = 0.5\nK_grid = 1, 2\nfield = {field}\n"
    cfg = _write(tmp_path, text)
    code = main(["remainder-tails", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert repr(field) in capsys.readouterr().err


DOUBLE_WELL_EULER = """
[model]
d = 1
m = 1
x0 = 16.0
drift = x1 - x1^3
sigma1 = 0.5

[simulation]
T = 1.0
n_steps = 64
scheme = euler
paths = 50
seed = 3
"""


def test_cli_unallocatable_grid_exits_5(tmp_path, capsys):
    # 32 paths x 2^40 steps of increments is 256 TiB, beyond any address
    # space, so numpy refuses the block at once and nothing is allocated
    text = OU_MODEL + SIM.replace("n_steps = 256", "n_steps = 1099511627776").replace(
        "paths = 400", "paths = 32"
    )
    code = main(["simulate", "--config", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "Traceback" not in err


def test_cli_linalg_error_exits_1(tmp_path, capsys, monkeypatch):
    def eigvalsh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    text = OU_MODEL + SIM + "[analysis]\nt = 0.5\n"
    code = main(["malliavin", "--config", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: linear algebra failed: Eigenvalues did not converge\n"


def test_cli_divergence_budget_exit_3(tmp_path, capsys):
    text = DOUBLE_WELL_EULER + "max_divergence = 0.0\ndump_paths = 0\n"
    cfg = _write(tmp_path, text)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    assert "diverged" in capsys.readouterr().err


def test_cli_simulate_skips_diverged_dump_paths(tmp_path):
    cfg = _write(tmp_path, DOUBLE_WELL_EULER + "max_divergence = 1.0\ndump_paths = 2\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((out / "ensemble.json").read_text())["diverged"] == 50
    assert not list(out.glob("trajectory_*.csv"))
    manifest = json.loads((out / "manifest.json").read_text())
    assert not any(e["file"].startswith("trajectory_") for e in manifest["outputs"])


def test_cli_malliavin_writes_null_for_an_overflowing_determinant(tmp_path, capfd):
    # C = Q = 5e239 I on every path, finite, but det Q = 2.5e479 overflows
    text = """
[model]
d = 2
m = 2
x0 = 0.0, 0.0
drift = 0, 0
sigma1 = 1e120, 0
sigma2 = 0, 1e120

[simulation]
T = 1.0
n_steps = 64
scheme = tamed-euler
paths = 16
seed = 1

[analysis]
t = 0.5
"""
    code = main(["malliavin", "--config", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 0
    assert capfd.readouterr() == ("", "")
    raw = (tmp_path / "o" / "malliavin.json").read_text()
    payload = json.loads(raw, parse_constant=_reject_constant)
    assert payload["det_Q"] == {"mean": None, "min": None}
    assert payload["lambda_min_Q"]["min"] == pytest.approx(5e239, rel=1e-12)


def test_cli_tails_refuses_a_covariance_that_overflows_its_symmetrisation(tmp_path, capfd):
    # C is finite at every checkpoint, but C + C^T overflows from t = 0.703125 on
    text = """
[model]
d = 1
m = 1
x0 = 0.0
drift = 0
sigma1 = 1.3e154

[simulation]
T = 1.0
n_steps = 64
scheme = tamed-euler
paths = 16
seed = 1

[analysis]
L = 1
K_grid = 1, 2, 4
t = 1.0
matrix = Q
fit_envelope = false
"""
    code = main(["tails", "--config", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capfd.readouterr() == ("", "error: the Malliavin covariance C or Q at t = 0.703125 "
                                      "overflows on a surviving path\n")


HUGE_POWER = """
[model]
d = 1
m = 1
x0 = 0.5
drift = x1^100000000000000000000
sigma1 = 1

[simulation]
T = 0.25
n_steps = 16
scheme = tamed-euler
paths = 4
seed = 2
"""


def test_cli_huge_exponent_keeps_its_outputs(tmp_path, capsys):
    # |x1| > 1 makes the drift inf: one of the four paths diverges
    cfg = _write(tmp_path, HUGE_POWER + "max_divergence = 1.0\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert _sha256(tmp_path / "o" / "ensemble.json") == (
        "2a5603aa1a0cf4dd02e8156928952133a2e1db8f0e905a436b45642b19268796"
    )
    capsys.readouterr()
    cfg = _write(tmp_path, HUGE_POWER, "strict.cfg")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "s")]) == 3
    assert capsys.readouterr().err == (
        "error: 1 of 4 paths diverged (fraction 0.25 exceeds the budget 0)\n"
    )


SIGMA_OVERFLOW = """
[model]
d = 1
m = 1
x0 = 1.0
drift = -x1
sigma1 = 1e200

[simulation]
T = 0.5
n_steps = 64
scheme = tamed-euler
paths = 16
seed = 1

[analysis]
"""


OVERFLOW_ANALYSIS = {
    "malliavin": "t = 0.5\n",
    "tails": "L = 1\nK_grid = 1, 2, 4\nt = 0.5\nmatrix = C\nfit_envelope = false\n",
    "det-moments": "p = 1\nt = 0.5\n",
}


@pytest.mark.parametrize("command", sorted(OVERFLOW_ANALYSIS))
def test_cli_non_finite_covariance_counts_as_divergence(tmp_path, capsys, command):
    # sigma^2 overflows, so C is infinite after one step on every path
    for budget, code in (("0.5", 3), ("1.0", 1)):  # 1: no path left to estimate from
        text = SIGMA_OVERFLOW.replace("[analysis]", f"max_divergence = {budget}\n[analysis]")
        cfg = _write(tmp_path, text + OVERFLOW_ANALYSIS[command])
        out = tmp_path / budget
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        assert "16 of 16 paths diverged" in capsys.readouterr().err
        for path in out.glob("*.json"):
            assert "Infinity" not in path.read_text() and "NaN" not in path.read_text()


DOUBLE_WELL_PARTIAL = """
[model]
d = 1
m = 1
x0 = 11.3
drift = x1 - x1^3
sigma1 = 4

[simulation]
T = 1.0
n_steps = 64
scheme = euler
paths = 50
seed = 3
"""


@pytest.mark.parametrize("budget,code", [("0.5", 3), ("1.0", 1)], ids=["tight", "loose"])
def test_cli_density_without_a_surviving_path(tmp_path, capsys, budget, code):
    # under plain Euler on 16 steps every path from x0 = 40 overflows
    text = DOUBLE_WELL_EULER.replace("x0 = 16.0", "x0 = 40.0")
    text = text.replace("n_steps = 64", "n_steps = 16")
    analysis = "[analysis]\ngrid_min = -2\ngrid_max = 2\ngrid_points = 9\n"
    cfg = _write(tmp_path, text + f"max_divergence = {budget}\n" + analysis)
    assert main(["density", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "50 of 50 paths diverged" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "density.csv").exists()


def test_cli_divergence_budget_beyond_one_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, DOUBLE_WELL_EULER + "max_divergence = 1.5\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "max_divergence must lie in [0, 1]" in capsys.readouterr().err


def test_cli_simulate_writes_null_for_an_overflowing_moment(tmp_path):
    # no path is lost, but the spread of X_T is beyond a float
    cfg = _write(tmp_path, SIGMA_OVERFLOW.replace("[analysis]\n", ""))
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "ensemble.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    payload = json.loads(text)
    assert payload["diverged"] == 0 and payload["std_X_T"] is None


def test_cli_det_moments_checks_the_divergence_budget(tmp_path, capsys):
    analysis = "[analysis]\np = 1\nt = 1.0\nt_grid = 0.5, 1.0\n"
    # 15 of the 50 paths diverge
    tight = _write(tmp_path, DOUBLE_WELL_PARTIAL + "max_divergence = 0.2\n" + analysis)
    assert main(["det-moments", "--config", tight, "--out", str(tmp_path / "a")]) == 3
    assert "15 of 50 paths diverged" in capsys.readouterr().err
    loose = _write(
        tmp_path, DOUBLE_WELL_PARTIAL + "max_divergence = 0.5\n" + analysis, name="b.cfg"
    )
    assert main(["det-moments", "--config", loose, "--out", str(tmp_path / "b")]) == 0
    payload = json.loads((tmp_path / "b" / "det_moments.json").read_text())
    assert payload["trials"] == payload["scaling"]["trials"] == 35
    assert np.isfinite(payload["estimate"])


def test_cli_det_moments_overflowing_power_is_evaluation_error(tmp_path, capsys):
    # det Q is about 3e-201 on every path, so (det Q)^-2 overflows
    text = SIGMA_OVERFLOW.replace("sigma1 = 1e200", "sigma1 = 1e-100")
    cfg = _write(tmp_path, text + "p = 2\nt = 0.5\n")
    out = tmp_path / "o"
    assert main(["det-moments", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "p = 2.0" in err and "smallest det Q = 3.1" in err
    for path in out.glob("*.json"):
        assert "Infinity" not in path.read_text() and "NaN" not in path.read_text()


def test_cli_overflowing_literal_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, SIGMA_OVERFLOW.replace("1e200", "1e400") + "t = 0.5\n")
    assert main(["malliavin", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "'1e400' is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("command,section", [
    ("simulate", SIM),
    ("check-hormander", "[analysis]\nL = 1\ngrid_min = -1\ngrid_max = 1\ngrid_points = 3\n"),
], ids=["simulate", "check-hormander"])
def test_cli_division_by_a_constant_zero_exits_2(tmp_path, capsys, command, section):
    cfg = _write(tmp_path, OU_MODEL.replace("sigma1 = 1", "sigma1 = 1 + 3/0*x1") + section)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "division by a constant zero" in err[0]


def test_cli_check_hormander_heisenberg(tmp_path):
    code = main(
        [
            "check-hormander",
            "--config",
            "configs/heisenberg_hormander.cfg",
            "--out",
            str(tmp_path / "h"),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "h" / "hormander.json").read_text())
    assert payload["summary"]["inf_V_L"] == 1.0
    assert payload["summary"]["L0_candidate"] == 3
    assert (tmp_path / "h" / "hormander_axis1.svg").exists()
    csv_lines = (tmp_path / "h" / "hormander.csv").read_text().splitlines()
    assert csv_lines[0] == "x_1,x_2,V_L,in_U_L"
    assert len(csv_lines) == 1 + 441


@pytest.mark.parametrize("x,y", [([1e300], [0.5]), ([0.0, 1.0], [-1e300, -1e300])],
                         ids=["x-axis", "y-axis"])
def test_line_chart_widens_a_one_point_axis_where_adding_one_rounds_away(tmp_path, x, y):
    path = tmp_path / "c.svg"
    svg.line_chart(str(path), x, [("v", y)])
    text = path.read_text(encoding="utf-8")
    assert "<polyline" in text and "nan" not in text and "inf" not in text


@pytest.mark.parametrize("x,y", [([1.7e308], [0.5]), ([0.0, 1.0], [1.7e308, 1.7e308]),
                                 ([-1.7e308, 1.7e308], [0.5, 0.5]),
                                 ([0.0, 1.0], [-1.7e308, 1.7e308])],
                         ids=["x-axis-one-point", "y-axis-one-point", "x-axis-both-signs",
                              "y-axis-both-signs"])
def test_line_chart_keeps_spans_past_the_largest_double_finite(tmp_path, x, y):
    # a one-point axis widened by |v|, or a span of both signs, or its 5% pad,
    # would pass the largest double: every coordinate stays a number
    path = tmp_path / "c.svg"
    svg.line_chart(str(path), x, [("v", y)])
    text = path.read_text(encoding="utf-8")
    points = re.search(r'points="([^"]*)"', text)[1].split()
    assert len(points) == len(x) and "nan" not in text and "inf" not in text
    for point in points:
        px, py = map(float, point.split(","))
        assert 70 <= px <= 620 and 40 <= py <= 350


def test_cli_check_hormander_charts_a_one_point_axis_at_1e300(tmp_path):
    cfg = _write(tmp_path, "[model]\nd = 2\nm = 1\nx0 = 0, 0\ndrift = 0, x1\nsigma1 = 1, 0\n"
                 "[analysis]\nL = 2\ngrid_min = 1e300, -1\ngrid_max = 1e300, 1\n"
                 "grid_points = 1, 5\n")
    assert main(["check-hormander", "--config", cfg, "--out", str(tmp_path / "h")]) == 0
    assert (tmp_path / "h" / "hormander_axis1.svg").exists()


# ---------------------------------------------------------------------------
# columnar writers: each must write the text of the per-row routes they replace


def _reference_csv(header, columns):
    # one repr per cell of every row
    rows = (",".join(map(repr, row)) for row in zip(*(np.asarray(c).tolist() for c in columns)))
    return "\n".join([",".join(header), *rows]) + "\n"


def _reference_hormander(report):
    # json.dumps of one record dict per point, and the CSV of the same arrays
    columns = (report.points.tolist(), report.values.tolist(), report.in_span_set.tolist())
    records = [{"x": x, "L": report.L, "V_L": v, "in_U_L": u} for x, v, u in zip(*columns)]
    text = json.dumps({"points": records, "summary": report.summary()}, sort_keys=True) + "\n"
    header = [f"x_{i + 1}" for i in range(report.points.shape[1])] + ["V_L", "in_U_L"]
    flags = report.in_span_set.astype(np.int64)
    return text, _reference_csv(header, [*report.points.T, report.values, flags])


# signed zeros, NaNs of both signs, infinities, subnormals and values that repeat
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -1e-310, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)
_TABLES = st.lists(
    st.tuples(_FLOATS, _FLOATS, _FLOATS, _FLOATS, st.integers(-(2**63), 2**63 - 1), st.booleans()),
    max_size=24,
)


def _columns(rows):
    """(points, values, int64 counts, flags) of the drawn rows, zero rows included."""
    cols = list(zip(*rows)) or [()] * 6
    points = np.ascontiguousarray(np.array(cols[:3], dtype=float).reshape(3, -1).T)
    counts = np.array(cols[4], dtype=np.int64)
    return points, np.array(cols[3], dtype=float), counts, np.array(cols[5], dtype=bool)


@pytest.mark.parametrize("chunk", [3, cli._ROWS])
@settings(max_examples=60, deadline=None)
@given(rows=_TABLES)
@example(rows=[])
@example(rows=[(-0.0, 0.0, math.nan, -math.inf, -1, True)])
def test_write_csv_matches_repr_of_every_cell(chunk, rows):
    points, values, counts, flags = _columns(rows)
    columns = [*points.T, values, counts, flags.astype(np.int64)]
    header = ["a", "b", "c", "v", "n", "f"]
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_ROWS", chunk):
        cli._write_csv(os.path.join(tmp, "t.csv"), header, columns)
        text = Path(tmp, "t.csv").read_text(encoding="utf-8")
    assert text == _reference_csv(header, columns)


@pytest.mark.parametrize("chunk", [3, cli._ROWS])
@settings(max_examples=60, deadline=None)
@given(rows=_TABLES.filter(bool), L=st.integers(1, 6))
@example(rows=[(-0.0, 0.0, math.nan, -math.inf, -1, True)], L=3)
def test_hormander_writer_matches_json_dumps_of_records(chunk, rows, L):
    points, values, _, flags = _columns(rows)
    report = HormanderReport(L, points, values, flags)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "_ROWS", chunk):
        paths = os.path.join(tmp, "h.json"), os.path.join(tmp, "h.csv")
        cli._write_hormander(report, *paths)
        texts = tuple(Path(p).read_text(encoding="utf-8") for p in paths)
    assert texts == _reference_hormander(report)


def test_cli_check_hormander_keeps_the_text_of_a_negative_zero_axis(tmp_path):
    # the benchmark's d = 3 model on a grid whose x2 axis is the one point -0.0
    model = (Path(__file__).resolve().parents[1] / "configs" / "heis_malliavin.cfg").read_text()
    cfg = _write(
        tmp_path,
        model.split("[simulation]")[0] + "[analysis]\nL = 3\n"
        "grid_min = -2, -0.0, -2\ngrid_max = 2, -0.0, 2\ngrid_points = 5, 1, 5\n",
    )
    assert main(["check-hormander", "--config", cfg, "--out", str(tmp_path / "h")]) == 0
    c = load_config(cfg, "check-hormander")
    spec = cli._grid_spec(c.analysis, 3)
    report = check_hormander(spec, 3, BracketTable(c.coefficient_set()),
                             membership_tol=c.analysis["membership_tol"])
    text, csv = _reference_hormander(report)
    assert (tmp_path / "h" / "hormander.json").read_text(encoding="utf-8") == text
    assert (tmp_path / "h" / "hormander.csv").read_text(encoding="utf-8") == csv
    assert "\n-2.0,-0.0,-2.0,1.0,1\n" in csv and '"x": [-2.0, -0.0, -2.0]' in text


def test_hormander_writers_memory_does_not_grow_with_the_points(tmp_path):
    def peak(n):
        # grid-like values, as a check writes them: every row is still its own text
        rng = np.random.default_rng(n)
        values = rng.integers(0, 9, n) / 8.0
        report = HormanderReport(3, rng.integers(-20, 21, (n, 3)) / 10.0, values, values > 0.5)
        tracemalloc.start()
        try:
            cli._write_hormander(report, str(tmp_path / "h.json"), str(tmp_path / "h.csv"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5000)
    small, large = peak(50_000), peak(250_000)
    assert abs(large - small) <= 1 << 20, (small, large)


def test_cli_tails_outputs(tmp_path):
    code = main(
        ["tails", "--config", "configs/ou_tails.cfg", "--out", str(tmp_path / "t")]
    )
    assert code == 0
    lines = (tmp_path / "t" / "tails.csv").read_text().splitlines()
    assert lines[0] == "K,events,trials,p_hat,ci_lo,ci_hi"
    _assert_numeric_cells(tmp_path / "t" / "tails.csv")
    payload = json.loads((tmp_path / "t" / "tails.json").read_text())
    p = payload["p_hat"]
    assert all(b <= a + 1e-12 for a, b in zip(p, p[1:]))


def test_cli_malliavin_and_det_moments(tmp_path):
    text = OU_MODEL + """
[simulation]
T = 1.0
n_steps = 1024
scheme = tamed-euler
paths = 64
seed = 9
""" + "[analysis]\nt = 1.0\n"
    cfg = _write(tmp_path, text)
    assert main(["malliavin", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    payload = json.loads((tmp_path / "m" / "malliavin.json").read_text())
    target = (1 - np.exp(-2)) / 2
    assert abs(payload["mean_Q"][0][0] - target) / target < 0.02
    _assert_numeric_cells(tmp_path / "m" / "malliavin.csv")

    text2 = OU_MODEL + """
[simulation]
T = 1.0
n_steps = 1024
scheme = tamed-euler
paths = 32
seed = 9
""" + "[analysis]\np = 1\nt = 1.0\nt_grid = 0.25, 0.5, 1.0\n"
    cfg2 = _write(tmp_path, text2, name="det.cfg")
    assert main(["det-moments", "--config", cfg2, "--out", str(tmp_path / "d")]) == 0
    payload = json.loads((tmp_path / "d" / "det_moments.json").read_text())
    assert payload["estimate"] > 0
    assert "scaling" in payload
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    listed = [e["file"] for e in manifest["outputs"]]
    assert listed == ["det_moments.json", "det_moments.csv", "det_moments.svg", "config.resolved.txt"]
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == sorted(listed + ["manifest.json"])


def test_cli_density_and_probe(tmp_path):
    text = OU_MODEL + """
[simulation]
T = 1.0
n_steps = 128
scheme = tamed-euler
paths = 5000
seed = 21
""" + """
[analysis]
t = 1.0
grid_min = -1.5
grid_max = 2.5
grid_points = 41
envelope = true
envelope_N = 1
"""
    cfg = _write(tmp_path, text)
    assert main(["density", "--config", cfg, "--out", str(tmp_path / "dens")]) == 0
    payload = json.loads((tmp_path / "dens" / "density.json").read_text())
    assert "envelope" in payload
    lines = (tmp_path / "dens" / "density.csv").read_text().splitlines()
    assert lines[0] == "y_1,p_hat"
    _assert_numeric_cells(tmp_path / "dens" / "density.csv")

    assert (
        main(
            [
                "probe-assumptions",
                "--config",
                "configs/double_well_probe.cfg",
                "--out",
                str(tmp_path / "p"),
            ]
        )
        == 0
    )
    payload = json.loads((tmp_path / "p" / "probe.json").read_text())
    assert payload["assumptions"]["monotonicity"]["fitted_L"] <= 1.05
    assert "moments" in payload


@pytest.mark.parametrize("budget,code", [("0.0", 3), ("1.0", 1)], ids=["tight", "loose"])
def test_cli_probe_checks_the_divergence_budget(tmp_path, capsys, budget, code):
    # under plain Euler on 16 steps every path from x0 = 40 overflows
    text = (Path(__file__).resolve().parents[1] / "configs" / "double_well_probe.cfg").read_text()
    for old, new in (
        ("scheme = tamed-euler", "scheme = euler"),
        ("n_steps = 256", "n_steps = 16"),
        ("x0_list = 1.0; 2.0; 4.0", "x0_list = 1.0; 2.0; 40.0"),
        ("seed = 11", f"seed = 11\nmax_divergence = {budget}"),
    ):
        assert old in text
        text = text.replace(old, new)
    cfg = _write(tmp_path, text)
    assert main(["probe-assumptions", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "1000 of 1000 paths diverged" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "probe.json").exists()


def _probe_json(tmp_path, drift, sigma, sim, moments):
    """Run probe-assumptions and parse probe.json as strict JSON."""
    text = f"""
[model]
d = 1
m = 1
x0 = 10.5
drift = {drift}
sigma1 = {sigma}

[simulation]
T = 1.0
n_steps = 64
paths = 2
{sim}
seed = 3

[analysis]
box_min = -2.0
box_max = 2.0
pairs = 256
p_list = 2
{moments}
"""
    cfg = _write(tmp_path, text)
    assert main(["probe-assumptions", "--config", cfg, "--out", str(tmp_path / "o")]) == 0

    def reject(name):
        raise ValueError(f"probe.json holds {name}")

    raw = (tmp_path / "o" / "probe.json").read_text()
    return json.loads(raw, parse_constant=reject)["moments"]["per_p"]["2.0"]


def test_cli_probe_writes_null_for_an_undefined_standard_error(tmp_path):
    # one of the two paths from x0 = 10.5 overflows under plain Euler
    moments = _probe_json(
        tmp_path, "x1 - x1^3", "20", "scheme = euler\nmax_divergence = 0.5", "probe_paths = 2"
    )
    assert moments["std_errors"] == [None]
    assert moments["estimates"][0] > 0


def test_cli_probe_writes_null_for_a_non_finite_ratio_band(tmp_path):
    # X stays at 0 from x0 = 0, so its ratio is 0 and the band max/min is infinite
    moments = _probe_json(
        tmp_path, "-x1", "x1", "scheme = tamed-euler", "x0_list = 0.0; 1.0\nprobe_paths = 8"
    )
    assert moments["estimates"][0] == 0.0
    assert moments["ratio_band"] is None


def _assumptions_json(tmp_path, drift, sigma, box, analysis=""):
    """Run probe-assumptions without moments, with the [analysis] lines
    ``analysis`` added, and parse its assumptions as strict JSON."""
    text = f"""
[model]
d = 1
m = 1
x0 = 0.5
drift = {drift}
sigma1 = {sigma}

[simulation]
T = 1.0
n_steps = 16
paths = 2
seed = 3

[analysis]
box_min = {-box}
box_max = {box}
{analysis}
"""
    cfg = _write(tmp_path, text)
    assert main(["probe-assumptions", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    raw = (tmp_path / "o" / "probe.json").read_text()
    return json.loads(raw, parse_constant=_reject_constant)["assumptions"]


def test_cli_probe_writes_null_for_overflowing_smoothness_norms(tmp_path):
    # sigma's derivatives 2e200 x1 and 2e200 square past the largest double
    probe = _assumptions_json(tmp_path, "-x1^3", "1e200*x1^2", 2.0)
    smooth = probe["smoothness"]
    assert smooth["diffusion_first_derivative_max"] is None
    assert smooth["diffusion_second_derivative_max"] is None
    assert smooth["drift_second_derivative_max"] == pytest.approx(12.0, rel=0.01)
    assert probe["polynomial_growth"]["fitted_N"] == pytest.approx(3.0, abs=0.4)


def test_cli_probe_writes_null_for_a_growth_fit_that_overflows(tmp_path):
    # on |x| <= 1e60 the cubic's |b(x) - b(y)|^2 is infinite for the largest
    # pairs, which the log-log fit needs: slope, N and L1 are undefined
    probe = _assumptions_json(tmp_path, "-x1^3", "1", 1e60)
    assert probe["polynomial_growth"] == {
        "log_log_slope": None, "fitted_N": None, "fitted_L1": None,
    }
    assert probe["monotonicity"]["fitted_L"] < 0


def test_cli_probe_writes_null_for_a_growth_fit_it_never_made(tmp_path):
    # on |x| <= 1e-9 every sampled pair is closer than 1e-8: no pair enters
    # the log-log fit, so slope, N and L1 are undefined, and a declared N fails
    probe = _assumptions_json(tmp_path, "-x1^3", "1", 1e-9, "declared_N = 3")
    assert probe["polynomial_growth"] == {
        "log_log_slope": None, "fitted_N": None, "fitted_L1": None,
    }
    assert probe["declared"] == {"N": 3.0} and probe["passes"] == {"N": False}


def test_only_the_step_kernels_generate_source(tmp_path, monkeypatch):
    # tails and remainder-tails on the heis configs evaluate their coefficient
    # and bracket stacks without generating source: only the engine's steps
    # are compiled
    root = Path(__file__).resolve().parents[1]
    compile_expression_stack.cache_clear()
    compile_step_kernel.cache_clear()
    labels = []
    define = fields._define

    def counting(name, label, emit):
        labels.append(label)
        return define(name, label, emit)

    monkeypatch.setattr(fields, "_define", counting)
    for command, name in (("tails", "heis_tails"), ("remainder-tails", "heis_remainder")):
        cfg = str(root / "configs" / f"{name}.cfg")
        assert main([command, "--config", cfg, "--out", str(tmp_path / name)]) == 0
    assert labels and all(label.startswith("hypolab step ") for label in labels), labels


# exit codes of cli.main: 0, each HypolabError's, and out of memory
_EXIT_CODES = {0, cli._EXIT_OUT_OF_MEMORY} | {
    cls.exit_code for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.HypolabError)
}
_MAGNITUDES = st.floats(1e-300, 1e300).map(lambda v: 10.0 ** round(math.log10(v), 1))


def _exprs_over(d):
    """Expressions over x1..xd with constants from 1e-300 to 1e300."""
    leaves = st.one_of(
        st.integers(-3, 3).map(lambda v: Const(float(v))),
        st.tuples(st.sampled_from([1.0, -1.0]), _MAGNITUDES).map(lambda p: Const(p[0] * p[1])),
        st.sampled_from([Var(i) for i in range(1, d + 1)]),
    )

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "exp", "tanh"]), children),
            st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]), children, children),
            st.builds(Power, children, st.integers(0, 3)),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def _probe_config(d, drift, sigma, bounds, seed, pairs):
    lows, highs = zip(*(sorted(b) for b in bounds))
    return f"""
[model]
d = {d}
m = 1
x0 = {", ".join(["0.5"] * d)}
drift = {", ".join(map(to_text, drift))}
sigma1 = {", ".join(map(to_text, sigma))}

[simulation]
T = 1.0
n_steps = 4
paths = 2
seed = {seed}

[analysis]
box_min = {", ".join(map(repr, lows))}
box_max = {", ".join(map(repr, highs))}
pairs = {pairs}
"""


def _probe_configs(d):
    fields = st.lists(_exprs_over(d), min_size=d, max_size=d)
    bounds = st.lists(st.tuples(*[st.floats(-1e300, 1e300)] * 2), min_size=d, max_size=d)
    return st.builds(_probe_config, st.just(d), fields, fields, bounds,
                     st.integers(0, 2**64 - 1), st.integers(8, 32))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=_probe_configs(1) | _probe_configs(2))
def test_cli_probe_assumptions_fuzz_ends_in_an_exit_code_and_strict_json(text):
    # every config ends in a documented exit code, with stderr empty or one
    # error line, no warning, and a probe.json without NaN or Infinity
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out, err = os.path.join(tmp, "exp.cfg"), os.path.join(tmp, "o"), io.StringIO()
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["probe-assumptions", "--config", cfg, "--out", out])
        assert not caught, [str(w.message) for w in caught]
        assert code in _EXIT_CODES
        lines = err.getvalue().splitlines()
        assert lines == [] if code == 0 else (len(lines) == 1 and lines[0].startswith("error: "))
        if code == 0:
            with open(os.path.join(out, "probe.json"), encoding="utf-8") as fh:
                json.loads(fh.read(), parse_constant=_reject_constant)


def test_cli_probe_needs_two_paths_per_start(tmp_path, capsys):
    text = (Path(__file__).resolve().parents[1] / "configs" / "double_well_probe.cfg").read_text()
    assert "probe_paths = 1000" in text
    cfg = _write(tmp_path, text.replace("probe_paths = 1000", "probe_paths = 1"))
    assert main(["probe-assumptions", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "probe_paths must be >= 2" in capsys.readouterr().err
    assert not (tmp_path / "o" / "probe.json").exists()


def test_cli_probe_rejects_a_negative_seed(tmp_path, capsys):
    # the assumption probe seeds its own generator before any ensemble runs
    text = (Path(__file__).resolve().parents[1] / "configs" / "double_well_probe.cfg").read_text()
    assert "seed = 11" in text
    cfg = _write(tmp_path, text.replace("seed = 11", "seed = -4"))
    assert main(["probe-assumptions", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "seed must be in [0, 2^64), got -4" in capsys.readouterr().err


def test_cli_malliavin_rejects_t_beyond_the_horizon(tmp_path, capsys):
    text = (Path(__file__).resolve().parents[1] / "configs" / "heis_malliavin.cfg").read_text()
    assert "t = 0.5" in text and "T = 0.5" in text
    cfg = _write(tmp_path, text.replace("t = 0.5", "t = 5.0"))
    assert main(["malliavin", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "t = 5.0" in err and "T = 0.5" in err and "Traceback" not in err


def test_cli_remainder_tails(tmp_path):
    text = OU_MODEL + """
[simulation]
T = 0.5
n_steps = 512
scheme = tamed-euler
paths = 200
seed = 31
""" + "[analysis]\nL = 2\nepsilon = 0.5\nK_grid = 1, 2, 4\nfield = sigma1\n"
    cfg = _write(tmp_path, text)
    assert main(["remainder-tails", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
    lines = (tmp_path / "r" / "remainder_tails.csv").read_text().splitlines()
    assert lines[0] == "K,events,trials,p_hat,ci_lo,ci_hi"
    _assert_numeric_cells(tmp_path / "r" / "remainder_tails.csv")


def test_workers_flag_ignores_the_environment(tmp_path, monkeypatch):
    # --workers is a no-op: no environment fallback, nothing recorded
    cfg = _write(tmp_path, OU_MODEL + SIM)
    monkeypatch.setenv("HYPO_LAB_WORKERS", "abc")
    out = tmp_path / "w"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--workers", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "workers" not in manifest


def test_negative_workers_flag_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, OU_MODEL + SIM)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "-3"])
    assert code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


@pytest.mark.parametrize("argv", [
    ["no-such-command", "--config", "x.cfg"],
    ["tails"],
    ["--config", "x.cfg"],
    ["tails", "--config", "x.cfg", "--seed", "one"],
    ["tails", "--config", "x.cfg", "--no-such-flag"],
])
def test_cli_bad_arguments_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: hypolab")


def test_cli_takes_its_options_before_or_after_the_command(tmp_path):
    cfg = _write(tmp_path, OU_MODEL + SIM)
    for argv in (["simulate", "--config", cfg, "--workers", "8"],
                 ["--config", cfg, "--workers", "8", "simulate"]):
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0

    def digests(name):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        return {e["file"]: e["sha256"] for e in manifest["outputs"]}

    assert digests("simulate") == digests("--config") != {}


def test_cli_evaluation_error_exits_1(tmp_path, capsys):
    text = """
[model]
d = 1
m = 1
x0 = 1.0
drift = -x1
sigma1 = 1/x1

[analysis]
L = 2
grid_min = -1.0
grid_max = 1.0
grid_points = 5
"""
    cfg = _write(tmp_path, text)
    code = main(["check-hormander", "--config", cfg, "--out", str(tmp_path / "h")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: division by zero in ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "drift,message",
    [
        # 250 terms nest 250 parentheses deep in the generated numpy source
        (" + ".join(["-x1"] + ["0.001*x1"] * 249), "'drift' in [model]: expression nested too deeply"),
        ("sin(" * 400 + "x1" + ")" * 400, "expression nested too deeply"),
    ],
    ids=["long-sum", "deep-parentheses"],
)
def test_cli_too_deep_expression_exits_2(tmp_path, capsys, drift, message):
    text = OU_MODEL.replace("drift = -x1", f"drift = {drift}") + SIM.replace(
        "n_steps = 256", "n_steps = 8"
    ).replace("paths = 400", "paths = 4")
    code = main(["simulate", "--config", _write(tmp_path, text), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_cli_commands_never_import_scipy(tmp_path):
    """scipy costs about a second of start-up; only the tests import it."""
    root = Path(__file__).resolve().parents[1]
    runs = [
        ("tails", "heis_tails"),
        ("remainder-tails", "heis_remainder"),
        ("simulate", "ou_simulate"),
    ]
    script = "\n".join(
        ["import sys", "from hypolab.harness.cli import main"]
        + [
            f"assert main([{cmd!r}, '--config', {str(root / 'configs' / f'{name}.cfg')!r}, "
            f"'--out', {str(tmp_path / name)!r}]) == 0"
            for cmd, name in runs
        ]
        + ["print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=_src_env(), capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("drift,route", [("-x1", "native"), ("-x1 + 0.1*sin(x1)", "numpy")],
                         ids=["rational", "sin"])
def test_manifest_environment_names_the_step_route(tmp_path, drift, route, force_route):
    cfg = _write(tmp_path, OU_MODEL.replace("drift = -x1", f"drift = {drift}") + SIM)
    outputs = {}
    for forced in ("native", "numpy"):
        force_route(forced)
        out = tmp_path / forced
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        environment = manifest.pop("environment")
        isa = environment.pop("native_isa")
        assert environment == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
            "step_route": route if forced == "native" else "numpy",
            "increments": route if forced == "native" else "numpy",
        }
        if route == "native" and forced == "native":
            assert isa in ("avx512f", "avx2", "default")
        else:
            assert isa is None
        outputs[forced] = manifest["outputs"]
    assert outputs["native"] == outputs["numpy"]  # only the manifest tells the routes apart


def test_import_and_check_hormander_build_and_load_nothing_native(tmp_path):
    # native code is built, probed and loaded on the first block that needs
    # it: never at import, and never for a command that simulates nothing
    out = tmp_path / "h"
    script = "\n".join([
        "import ctypes, os, subprocess",
        "def refuse(*args, **kwargs):",
        "    raise AssertionError('a process started or a library loaded')",
        "subprocess.Popen = os.fork = os.posix_spawn = refuse",
        "ctypes.CDLL.__init__ = refuse",
        "import hypolab",
        "from hypolab.harness.cli import main",
        f"assert main(['check-hormander', '--config', 'configs/heisenberg_hormander.cfg', "
        f"'--out', {str(out)!r}]) == 0",
        "import sys",
        "assert 'hypolab.native' not in sys.modules",
    ])
    root = Path(__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", script], cwd=root, env=_src_env(), check=True)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["environment"]["step_route"] is None
    assert manifest["environment"]["increments"] is None
    assert manifest["environment"]["native_isa"] is None


def test_cli_non_finite_local_bound_prints_only_its_error(tmp_path):
    # the ball of radius 1 around x0 = 1 holds x1 = 0, where 1/x1 is infinite
    text = OU_MODEL.replace("sigma1 = 1", "sigma1 = 1/x1") + SIM.replace("paths = 400", "paths = 64")
    analysis = "[analysis]\ngrid_min = -1\ngrid_max = 2\ngrid_points = 11\nenvelope = true\n"
    cfg = _write(tmp_path, text + analysis)
    done = subprocess.run(
        [sys.executable, "-m", "hypolab.harness.cli", "density", "--config", cfg,
         "--out", str(tmp_path / "o")],
        env=_src_env(), capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert done.stderr == (
        "error: field '1/x1' is non-finite inside the ball of radius 1.0 around [1.0]\n"
    )


def test_missing_out_dir_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, OU_MODEL + SIM)
    code = main(["simulate", "--config", cfg])
    assert code == 2
    assert "out" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pinned output digests of the example configs (numpy 2.4.6)
#
# A change of any output bit must be a deliberate update of this table.
# configs/ou_density.cfg is left out to keep the suite fast (about 7 s); it
# runs the state-only ensemble and the KDE, which no pinned run reaches.
# The tails outputs depend on the simulation only through event counts; the
# malliavin run of the same d = 3 model writes every eigenvalue in full.

PINNED_DIGESTS = {
    ("simulate", "ou_simulate"): {
        "config.resolved.txt": "f8dc4c67f875ee12a6afa4d01d5726a1083529e6424f0166a0a1e62e704d058e",
        "ensemble.json": "79b998ae49d27ee18dfb5a93b095bf545abc05071b2521ef6c7ee4754cafd6b8",
        "trajectory_000000.csv": "9c01b3638599b3c7140f9120f6617893a119e2009b22ccc9c35f6a1d757080e5",
        "trajectory_000001.csv": "5fbe96c6ff09610ed08be9025c088008413649ba5b25ef015de6b097a8f2b573",
    },
    ("tails", "ou_tails"): {
        "config.resolved.txt": "3a8ecac47b336ebe101188e4f61be4ee7c02739af01b2374fc3afe63adcccc22",
        "tails.csv": "92ffd8210e9c17cb8dea304e71488e5e8410575c794be9ca42ad4958a17bd467",
        "tails.json": "c5dd91ea105f4c35e8f64cc4a752a810c0bd4e1426fad01ce605149cb0575a1c",
        "tails.svg": "afc4097f9ac7566fe7970d00f92e7bb38c4a5cfe9e5d6b10ecda8cd198a1e67d",
    },
    ("check-hormander", "heisenberg_hormander"): {
        "config.resolved.txt": "1f67b462bb0620e9b8d3da126771136210dbc79405b48a579d28c9aa9f0d7ccd",
        "hormander.csv": "f71a027b90819c1f3b57e7a503d84dbef00113697c01d8df52bd80d74467d09e",
        "hormander.json": "4cca26a2caec7a97f08ac28d4e003047d0a96ae43a3da9c6f59c3c07a92bed1c",
        "hormander_axis1.svg": "cac6370a3cda2776842a567a3ee310c4c272c641f00c3f18428c7bf99ec2a9ed",
        "hormander_axis2.svg": "e6a713bbcbe2991d71a6ad19155dc0248d8968fcbc6ae17a20b4b2f848f8e96b",
    },
    ("probe-assumptions", "double_well_probe"): {
        "config.resolved.txt": "8522d3930ff36ae5c03639e18c0110451ddb6ff30e30a3b04534de60de2e84a6",
        "probe.json": "b59c606b9c112d07d2a29eee19c8de16b4db78883ef4bfb65aa4791d7b4206f6",
    },
    ("tails", "heis_tails"): {
        "config.resolved.txt": "8df0f952b0079112d4c1738aea810b79f48944e95718085686ebc452aa2cfadd",
        "tails.csv": "173b16d609ebbc03a45679cf626a9699982bc7513109b2464a8bc0ae072ed061",
        "tails.json": "950ff8f0b08ff4b0d1b9009280f7ac08ff7a0b81bbb68698ce785be0d0d7c865",
        "tails.svg": "ebb1f8509941a674959d2ef1237183598874fb5f45921f4c9a6287fa60538f4e",
    },
    ("malliavin", "heis_malliavin"): {
        "config.resolved.txt": "c9bec5fcce799986f6e5c1d211dd9e174c9629a4d50c9b0b18bd8dffbc4f44f6",
        "malliavin.csv": "06ccc8c64e9db91c6d1eef676bf2231c3e49539fd8c1c34226554dbb5f0e3e60",
        "malliavin.json": "0fe02725f7a40e58149d05970318c92f4f789b0fadde5dea38e19041fd3d4461",
    },
    ("remainder-tails", "heis_remainder"): {
        "config.resolved.txt": "66e090c608e2c123bb56f0b1f6d10382cd1c7cad14f600165fa587ec1fe8e6d2",
        "remainder_tails.csv": "084a8455ecd08c5b7e44b548682a161bb46f8399607b8c735ecf864b3be5812c",
        "remainder_tails.json": "6b5d1eb027673b2901249a4a7135efb7c981e414e4c956c12ee7496267fb774d",
        "remainder_tails.svg": "2bb8d10a773f838fa021d767251e875d59a208f9d902088136ed1fdacc956f60",
    },
}


@pytest.mark.parametrize("command,name", sorted(PINNED_DIGESTS))
def test_example_config_digests_are_pinned(tmp_path, command, name):
    out = tmp_path / name
    assert main([command, "--config", f"configs/{name}.cfg", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    digests = {e["file"]: e["sha256"] for e in manifest["outputs"]}
    assert digests == PINNED_DIGESTS[command, name]
    assert {p.name for p in out.iterdir()} == set(digests) | {"manifest.json"}
    for entry in manifest["outputs"]:
        assert _sha256(out / entry["file"]) == entry["sha256"]
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise AssertionError(f"{name} in a JSON output")
