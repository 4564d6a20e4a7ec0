"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""
import json
import time
from contextlib import contextmanager

import numpy as np

from hypolab.brackets import (
    BracketTable,
    GridSpec,
    check_hormander,
    lie_bracket,
    spanning_value,
)
from hypolab.estimators import (
    EnsembleSpec,
    density_envelope_check,
    eigenvalue_tails,
    inverse_det_moments,
    inverse_det_scaling,
    kde_density,
    terminal_samples,
)
from hypolab.brackets import MultiIndex
from hypolab.fieldlang import CoefficientSet, VectorField, evaluate, jacobian
from hypolab.flows import (
    RecordSpec,
    SimConfig,
    chaos_remainder,
    chaos_remainder_path,
    iterated_integral,
    malliavin_checkpoint_ensemble,
    malliavin_derivative,
    run_ensemble,
    sample_brownian,
    simulate_flow,
    simulate_x,
)
from hypolab.harness.cli import main as cli_main

_SUITE_START = time.perf_counter()


@contextmanager
def _criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


# ---------------------------------------------------------------------------


def test_criterion_01_symbolic_calculus():
    with _criterion(1, "symbolic-calculus"):
        corpus = [
            "x2, -x1",
            "sin(x1), cos(x2)",
            "x1*x2, x1 + x2",
            "exp(x1/3), x2^2",
            "tanh(x2), x1",
            "1, x1^2",
            "x2^3, sin(x1*x2)",
            "cos(x1) + x2, x1*x1",
            "0.5*x1, -2*x2",
            "x1 + 1, x2 - 1",
        ]
        fields = [VectorField.from_text(t, 2) for t in corpus]
        rng = np.random.default_rng(101)
        step = 1e-5
        for fld in fields:
            rows = jacobian(fld)
            for _ in range(100):
                p = rng.uniform(-2, 2, size=2)
                for j in range(2):
                    for i in range(2):
                        sym = evaluate(rows[j][i], p)
                        hi, lo = p.copy(), p.copy()
                        hi[i] += step
                        lo[i] -= step
                        fd = (
                            evaluate(fld.components[j], hi)
                            - evaluate(fld.components[j], lo)
                        ) / (2 * step)
                        assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym), abs(fd))
        triples = [
            (fields[i], fields[(i + 3) % 10], fields[(i + 6) % 10]) for i in range(10)
        ]
        for u, v, w in triples:
            cyclic = [
                lie_bracket(u, lie_bracket(v, w)),
                lie_bracket(v, lie_bracket(w, u)),
                lie_bracket(w, lie_bracket(u, v)),
            ]
            for _ in range(5):
                x = rng.uniform(-1.5, 1.5, size=2)
                total = sum(term.evaluate(x) for term in cyclic)
                assert np.max(np.abs(total)) <= 1e-7


def test_criterion_02_bracket_hormander_oracle():
    with _criterion(2, "bracket-hormander-oracle"):
        heis = CoefficientSet.from_text(2, 1, "0, x1", ["1, 0"])
        table = BracketTable(heis)
        grid = GridSpec((-2.0, -2.0), (2.0, 2.0), (21, 21))
        r1 = check_hormander(grid, 1, table)
        r3 = check_hormander(grid, 3, table)
        assert np.array_equal(r1.values, np.zeros(441))
        assert np.array_equal(r3.values, np.ones(441))

        degenerate = CoefficientSet.from_text(1, 1, "-x1", ["0"])
        dt = BracketTable(degenerate)
        for L in (1, 2, 3):
            assert spanning_value((0.7,), L, dt) == 0.0

        elliptic = CoefficientSet.from_text(2, 2, "0, 0", ["1, 0", "0, 1"])
        et = BracketTable(elliptic)
        for x in ((0.0, 0.0), (1.5, -2.0)):
            assert spanning_value(x, 1, et) == 1.0


def test_criterion_03_flow_identity():
    with _criterion(3, "flow-identity"):
        gl = CoefficientSet.from_text(1, 1, "x1 - x1^3", ["0.5"])

        def worst_defect(n_steps):
            cfg = SimConfig(horizon=1.0, n_steps=n_steps, x0=(1.0,), seed=303)
            res = run_ensemble(
                gl, cfg, 100, RecordSpec(flows=True, track_flow_identity=True)
            )
            assert res.divergence_fraction == 0.0
            return float(res.flow_identity_sup.max())

        coarse = worst_defect(4096)  # h = 2^-12
        assert coarse <= 0.05
        fine = worst_defect(16384)  # h / 4
        assert fine < coarse


def test_criterion_04_malliavin_oracle():
    with _criterion(4, "malliavin-oracle"):
        ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
        cfg = SimConfig(horizon=1.0, n_steps=4096, x0=(1.0,), seed=404)
        _, mats = malliavin_checkpoint_ensemble(ou, cfg, 10_000, [4096])
        _, q = mats[4096]
        target = (1.0 - np.exp(-2.0)) / 2.0
        assert abs(float(q.mean()) - target) / target <= 0.02

        h = cfg.h
        for sid in range(3):
            grid = sample_brownian(cfg, 1, stream_id=sid)
            traj = simulate_x(ou, cfg, grid)
            flow = simulate_flow(ou, cfg, grid, traj)
            for s_idx in (0, 512, 1024, 2048, 3072):
                for t_idx in (s_idx, 2048, 4096):
                    if t_idx < s_idx:
                        continue
                    got = malliavin_derivative(s_idx, t_idx, flow, traj, ou)[0, 0]
                    want = np.exp(-(t_idx - s_idx) * h)
                    assert abs(got - want) <= 5 * h


def test_criterion_05_stratonovich_exactness():
    with _criterion(5, "stratonovich-exactness"):
        cfg = SimConfig(horizon=1.0, n_steps=1024, x0=(0.0,), seed=505)
        grid = sample_brownian(cfg, 2, stream_id=0)
        for i in (1, 2):
            path = iterated_integral(MultiIndex((i, i)), grid)
            w = grid.path[:, i - 1]
            assert np.max(np.abs(path - w * w / 2)) <= 1e-12
        time_path = iterated_integral(MultiIndex((0,)), grid)
        assert np.array_equal(time_path, grid.times)
        a = iterated_integral(MultiIndex((0, 1)), grid)
        b = iterated_integral(MultiIndex((1, 0)), grid)
        assert np.max(np.abs(a + b - grid.times * grid.path[:, 0])) <= 1e-10


def test_criterion_06_chaos_remainder_oracle():
    with _criterion(6, "chaos-remainder-oracle"):
        ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
        cfg = SimConfig(horizon=0.5, n_steps=4096, x0=(1.0,), seed=606)
        grid = sample_brownian(cfg, 1, stream_id=0)
        traj = simulate_x(ou, cfg, grid)
        flow = simulate_flow(ou, cfg, grid, traj)
        table = BracketTable(ou)
        target = ou.diffusion[0]
        h = cfg.h
        times = cfg.times()
        for t in (0.05, 0.1, 0.2):
            idx = int(round(t / h))
            got = chaos_remainder(3, target, idx, flow, traj, table, grid)[0]
            want = np.exp(times[idx]) - 1.0 - times[idx]
            assert abs(got - want) <= 10 * h

        const = CoefficientSet.from_text(2, 1, "1, -2", ["0.5, 3"])
        ccfg = SimConfig(horizon=0.5, n_steps=256, x0=(0.0, 0.0), seed=607)
        cgrid = sample_brownian(ccfg, 1, stream_id=0)
        ctraj = simulate_x(const, ccfg, cgrid)
        cflow = simulate_flow(const, ccfg, cgrid, ctraj)
        ctable = BracketTable(const)
        for L in (2, 3):
            path = chaos_remainder_path(L, const.diffusion[0], cflow, ctraj, ctable, cgrid)
            assert np.array_equal(path, np.zeros_like(path))

        # RMS decay order in t (the remainder is deterministic for this system)
        t_grid = [2.0**-i for i in range(3, 8)]
        for L in (2, 3):
            path = chaos_remainder_path(L, target, flow, traj, table, grid)
            rms = [abs(path[int(round(t / h)), 0]) for t in t_grid]
            slope = np.polyfit(np.log(t_grid), np.log(rms), 1)[0]
            assert slope >= 0.9 * L / 2


def test_criterion_07_tail_curve_shapes():
    with _criterion(7, "tail-curve-shapes"):
        ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
        gl = CoefficientSet.from_text(1, 1, "x1 - x1^3", ["0.5"])
        k_grid = [1, 2, 4, 8, 16]
        for coeffs, x0 in ((ou, (1.0,)), (gl, (1.0,))):
            for L in (1, 2):
                spec = EnsembleSpec(
                    coeffs,
                    SimConfig(horizon=0.5, n_steps=512, x0=x0, seed=707),
                    1500,
                )
                curve = eigenvalue_tails(L, k_grid, 0.5, "Q", spec, fit_envelope=False)
                assert curve.non_increasing_within_half_width()

        degenerate = CoefficientSet.from_text(1, 1, "-x1", ["0"])
        spec = EnsembleSpec(
            degenerate, SimConfig(horizon=0.5, n_steps=512, x0=(1.0,), seed=708), 200
        )
        curve = eigenvalue_tails(1, k_grid, 0.5, "C", spec, fit_envelope=False)
        assert np.array_equal(curve.p_hat, np.ones(5))

        elliptic = CoefficientSet.from_text(1, 1, "0", ["1"])
        spec = EnsembleSpec(
            elliptic, SimConfig(horizon=0.5, n_steps=512, x0=(0.0,), seed=709), 200
        )
        curve = eigenvalue_tails(1, k_grid, 0.5, "C", spec, fit_envelope=False)
        assert curve.p_hat[0] == 1.0
        assert np.array_equal(curve.p_hat[1:], np.zeros(4))


def test_criterion_08_inverse_determinant_moments():
    with _criterion(8, "inverse-determinant-moments"):
        elliptic = CoefficientSet.from_text(2, 2, "0, 0", ["1, 0", "0, 1"])
        spec = EnsembleSpec(
            elliptic, SimConfig(horizon=1.0, n_steps=1024, x0=(0.0, 0.0), seed=808), 16
        )
        study = inverse_det_scaling(1.0, [0.125, 0.25, 0.5, 1.0], spec)
        assert abs(study.slope - (-2.0)) <= 0.05

        ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
        spec = EnsembleSpec(
            ou, SimConfig(horizon=1.0, n_steps=4096, x0=(1.0,), seed=809), 32
        )
        est = inverse_det_moments(1.0, 1.0, spec)
        target = 2.0 / (1.0 - np.exp(-2.0))
        assert abs(est.value - target) / target <= 0.02


def test_criterion_09_density_and_envelope():
    with _criterion(9, "density-and-envelope"):
        ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
        spec = EnsembleSpec(
            ou, SimConfig(horizon=1.0, n_steps=512, x0=(1.0,), seed=909), 100_000
        )
        samples = terminal_samples(spec)
        mu = np.exp(-1.0)
        var = (1.0 - np.exp(-2.0)) / 2.0
        sd = np.sqrt(var)
        grid = np.linspace(mu - 4 * sd, mu + 4 * sd, 81)[:, None]
        dens = kde_density(samples, grid)
        pdf = np.exp(-((grid[:, 0] - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert np.max(np.abs(dens.values - pdf)) <= 0.02

        # envelope on the validity region t <= (|y - x0| ^ 1) / (4 M(x0)):
        # M(x0) = 2 for this system at x0 = 1, so the region is |y - 1| >= 0.8
        t = 0.1
        spec = EnsembleSpec(
            ou, SimConfig(horizon=t, n_steps=128, x0=(1.0,), seed=910), 1_000_000
        )
        tail_samples = terminal_samples(spec)
        tail_grid = np.linspace(0.0, 0.2, 21)[:, None]
        tail_dens = kde_density(tail_samples, tail_grid)
        report = density_envelope_check(tail_dens, (1.0,), t, 1.0, 2.0)
        assert not report.region_empty
        assert report.fitted_c is not None and report.fitted_c > 0
        assert report.max_violation <= 0.05


def test_criterion_10_reproducibility_and_performance(tmp_path):
    with _criterion(10, "reproducibility-and-performance"):
        cfg_text = """
[model]
d = 1
m = 1
x0 = 1.0
drift = -x1
sigma1 = 1

[simulation]
T = 0.5
n_steps = 256
scheme = tamed-euler
paths = 2000
seed = 1010
"""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(cfg_text)
        digests = {}
        for workers in (1, 8):
            out = tmp_path / f"w{workers}"
            code = cli_main(
                [
                    "simulate",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(out),
                    "--workers",
                    str(workers),
                ]
            )
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            digests[workers] = {e["file"]: e["sha256"] for e in manifest["outputs"]}
        assert digests[1] == digests[8]

        ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
        sim = SimConfig(horizon=1.0, n_steps=1024, x0=(1.0,), seed=1011)
        start = time.perf_counter()
        res = run_ensemble(ou, sim, 100_000, RecordSpec(flows=True))
        elapsed = time.perf_counter() - start
        assert res.divergence_fraction == 0.0
        assert elapsed <= 60.0, f"flows ensemble took {elapsed:.1f}s"

        suite_elapsed = time.perf_counter() - _SUITE_START
        assert suite_elapsed <= 30 * 60.0
        print(
            f"  [suite {suite_elapsed:.0f}s; 1e5-path flows ensemble {elapsed:.1f}s]"
        )
