import ctypes
import gc
import hashlib
import itertools
import linecache
import marshal
import os
import re
import stat
import subprocess
import sys
import sysconfig
import traceback
from pathlib import Path
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hypolab.brackets import BracketTable
from hypolab.errors import (
    ConfigError,
    DegenerateSamplesError,
    DivergenceError,
    SimulationDiverged,
)
from hypolab.fieldlang import (
    CoefficientSet,
    Const,
    Kernel,
    VectorField,
    compile_diffusion,
    compile_expression_stack,
    compile_field,
    compile_jacobian,
    compile_step_kernel,
    jacobian,
    step_kernel_c,
)
from hypolab.flows import (
    SCHEMES,
    RecordSpec,
    SimConfig,
    malliavin_checkpoint_ensemble,
    malliavin_derivative,
    nearest_index,
    run_ensemble,
    sample_brownian,
    simulate_flow,
    simulate_x,
)
from hypolab import native
from hypolab.fieldlang import fields
from hypolab.fieldlang.fields import _NEWTON_MAX_ITER, _NEWTON_TOL, C_TILE
from hypolab.flows import brownian, simulate
from hypolab.flows.brownian import standard_normal_stream
from hypolab.flows.integrals import RemainderEnergy
from hypolab.flows.simulate import _block_increments, _simulate_block

# ---------------------------------------------------------------------------
# configuration


def test_config_requires_power_of_two_steps():
    with pytest.raises(ConfigError, match="power of two"):
        SimConfig(horizon=1.0, n_steps=1000, x0=(1.0,))


def test_config_rejects_large_implicit_step():
    with pytest.raises(ConfigError, match="unique root"):
        SimConfig(
            horizon=1.0,
            n_steps=2,
            x0=(1.0,),
            scheme="split-step-backward-euler",
            monotone_bound=4.0,
        )


@pytest.mark.parametrize("budget", [float("nan"), -2.0, 1.5])
def test_config_rejects_a_budget_outside_the_unit_interval(budget):
    # NaN would switch the budget off: no fraction compares greater than it
    with pytest.raises(ConfigError, match=r"max_divergence must lie in \[0, 1\]"):
        SimConfig(horizon=1.0, n_steps=8, x0=(1.0,), max_divergence=budget)


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_a_non_finite_monotone_bound(bound):
    # NaN would pass the h * L >= 1 guard that the split-step solve relies on
    with pytest.raises(ConfigError, match="monotone_bound must be finite"):
        SimConfig(
            horizon=1.0,
            n_steps=8,
            x0=(1.0,),
            scheme="split-step-backward-euler",
            monotone_bound=bound,
        )


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0])
def test_config_rejects_a_non_finite_horizon(horizon):
    with pytest.raises(ConfigError, match="positive and finite"):
        SimConfig(horizon=horizon, n_steps=8, x0=(1.0,))


@pytest.mark.parametrize("seed", [-3, 2**64, 99999999999999999999])
def test_config_rejects_a_seed_outside_the_key_range(seed):
    with pytest.raises(ConfigError, match=r"seed must be in \[0, 2\^64\)"):
        SimConfig(horizon=1.0, n_steps=8, x0=(1.0,), seed=seed)


def test_config_unknown_scheme():
    with pytest.raises(ConfigError, match="scheme"):
        SimConfig(horizon=1.0, n_steps=8, x0=(1.0,), scheme="milstein")


def test_euler_flagged_comparison_only():
    cfg = SimConfig(horizon=1.0, n_steps=8, x0=(1.0,), scheme="euler")
    assert cfg.comparison_only
    assert not SimConfig(horizon=1.0, n_steps=8, x0=(1.0,)).comparison_only


# ---------------------------------------------------------------------------
# brownian grids


def test_same_stream_is_bit_identical():
    cfg = SimConfig(horizon=2.0, n_steps=64, x0=(0.0,), seed=99)
    a = sample_brownian(cfg, 2, stream_id=5)
    b = sample_brownian(cfg, 2, stream_id=5)
    assert np.array_equal(a.path, b.path)
    c = sample_brownian(cfg, 2, stream_id=6)
    assert not np.array_equal(a.path, c.path)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n_paths", [1, 63, 65, 197])
def test_block_increments_match_stacked_streams(n_paths, m):
    # 63 is less than one chunk, 65 and 197 leave a partial last chunk
    cfg = SimConfig(horizon=0.5, n_steps=32, x0=(0.0,), seed=41)
    ids = np.arange(3, 3 + n_paths, dtype=np.int64)
    expected = np.stack([sample_brownian(cfg, m, int(s)).increments for s in ids])
    increments = _block_increments(cfg.seed, 32, cfg.h, m, ids)
    assert np.array_equal(increments, np.moveaxis(expected, 0, -1))


@pytest.mark.parametrize("route", ["native", "numpy"])
def test_layer_entry_points_stay_module_globals(monkeypatch, force_route, route):
    # the benchmark's tracer wraps these names where their callers look them up;
    # the native loop draws its own increments
    from hypolab.harness import cli

    cfg = SimConfig(horizon=0.5, n_steps=8, x0=(1.0,), seed=1)
    ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
    force_route(route)
    simulate.run_ensemble(ou, cfg, 5, RecordSpec(flows=False))  # the native loop's probe
    assert cli.run_ensemble is simulate.run_ensemble
    calls = []
    for name in ("_block_increments", "_simulate_block"):
        fn = getattr(simulate, name)

        def counted(*args, _fn=fn, _name=name):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(simulate, name, counted)
    simulate.run_ensemble(ou, cfg, 5, RecordSpec(flows=False), block_size=3)
    block = ["_simulate_block"] + ["_block_increments"] * (route == "numpy")
    assert calls == block * 2


def test_block_increments_scratch_is_one_chunk():
    n, m, n_paths = 1024, 2, 197
    cfg = SimConfig(horizon=1.0, n_steps=n, x0=(0.0,), seed=43)
    ids = np.arange(n_paths, dtype=np.int64)
    _block_increments(cfg.seed, n, cfg.h, m, ids[:2])  # first-call allocations
    tracemalloc.start()
    try:
        dw = _block_increments(cfg.seed, n, cfg.h, m, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = 64 * (n + 1) * m * 8
    # a (B, n + 1, m) path array would add 3.2 MB here, the chunk 1.05 MB;
    # the slack covers the 64 KiB transposing slab and numpy's ufunc buffers
    # for the subtraction of strided path steps into it
    assert peak - dw.nbytes <= chunk + 256 * 1024


def test_normal_stream_into_out_matches_fresh_array():
    out = np.empty((17, 2))
    standard_normal_stream(7, 4, 0, out=out)
    assert np.array_equal(out, standard_normal_stream(7, 4, 0, (17, 2)))


def test_brownian_mean_clt_bound():
    cfg = SimConfig(horizon=1.0, n_steps=8, x0=(0.0,), seed=2024)
    n_streams = 100_000
    total = 0.0
    for sid in range(n_streams):
        total += sample_brownian(cfg, 1, stream_id=sid).path[-1, 0]
    mean = total / n_streams
    assert abs(mean) <= 4.0 * np.sqrt(cfg.horizon / n_streams)


# ---------------------------------------------------------------------------
# state schemes


def test_zero_drift_identity_sigma_reproduces_brownian():
    c = CoefficientSet.from_text(2, 2, "0, 0", ["1, 0", "0, 1"])
    for scheme in ("tamed-euler", "split-step-backward-euler", "euler"):
        cfg = SimConfig(horizon=1.0, n_steps=64, x0=(0.5, -0.5), scheme=scheme, seed=3)
        g = sample_brownian(cfg, 2, stream_id=0)
        traj = simulate_x(c, cfg, g)
        expected = np.array(cfg.x0) + g.path
        assert np.allclose(traj.states, expected, atol=1e-12)


def test_ou_terminal_mean_matches_closed_form(ou):
    cfg = SimConfig(horizon=1.0, n_steps=512, x0=(1.0,), seed=11)
    res = run_ensemble(ou, cfg, 100_000, RecordSpec(flows=False))
    mean = res.final_states[:, 0].mean()
    # 3 standard errors plus the O(h) weak bias margin
    se = res.final_states[:, 0].std(ddof=1) / np.sqrt(res.n_paths)
    assert abs(mean - np.exp(-1)) <= 3 * se + 2 * cfg.h


def test_schemes_agree_for_smooth_drift(ou):
    cfg = SimConfig(horizon=1.0, n_steps=1024, x0=(1.0,), seed=5)
    g = sample_brownian(cfg, 1, stream_id=0)
    paths = {}
    for scheme in ("tamed-euler", "split-step-backward-euler", "euler"):
        traj = simulate_x(ou, replace(cfg, scheme=scheme), g)
        paths[scheme] = traj.states[:, 0]
    assert np.max(np.abs(paths["tamed-euler"] - paths["euler"])) <= 5 * cfg.h
    assert np.max(np.abs(paths["split-step-backward-euler"] - paths["euler"])) <= 5 * cfg.h


def test_tamed_paths_stay_finite_on_double_well(ginzburg_landau):
    cfg = SimConfig(horizon=1.0, n_steps=64, x0=(10.0,), scheme="tamed-euler", seed=17)
    res = run_ensemble(ginzburg_landau, cfg, 100, RecordSpec(flows=False))
    assert res.divergence_fraction == 0.0
    assert np.isfinite(res.final_states).all()


def test_euler_divergence_is_counted_not_raised(ginzburg_landau):
    # h * x0^2 > 2 puts plain Euler in the deterministic blow-up regime
    cfg = SimConfig(horizon=1.0, n_steps=64, x0=(16.0,), scheme="euler", seed=17)
    res = run_ensemble(ginzburg_landau, cfg, 100, RecordSpec(flows=False))
    assert res.divergence_fraction == 1.0
    assert np.all(res.diverged_step >= 0)
    assert np.isfinite(res.final_states).all()  # frozen at last finite value


def test_ensemble_enforces_the_divergence_budget(ginzburg_landau):
    cfg = SimConfig(
        horizon=1.0, n_steps=64, x0=(16.0,), scheme="euler", seed=17, max_divergence=0.5
    )
    with pytest.raises(DivergenceError, match=r"^100 of 100 paths diverged \(fraction 1 "):
        run_ensemble(ginzburg_landau, cfg, 100, RecordSpec(flows=False))
    loose = replace(cfg, max_divergence=1.0)
    res = run_ensemble(ginzburg_landau, loose, 100, RecordSpec(flows=False))
    with pytest.raises(DegenerateSamplesError, match="100 of 100 paths diverged; estimate"):
        res.survivors()


def test_single_path_divergence_raises(ginzburg_landau):
    cfg = SimConfig(horizon=1.0, n_steps=64, x0=(16.0,), scheme="euler", seed=17)
    g = sample_brownian(cfg, 1, stream_id=0)
    with pytest.raises(SimulationDiverged) as err:
        simulate_x(ginzburg_landau, cfg, g)
    assert err.value.scheme == "euler"
    assert err.value.step >= 0
    assert np.isfinite(err.value.magnitude)


def test_simulate_flow_does_not_accumulate_the_covariance():
    # C = h sum (K sigma)^2 overflows at the first step, X, J and K never do:
    # the checkpoint ensemble loses the path, simulate_flow keeps it
    coeffs = CoefficientSet.from_text(1, 1, "-x1", ["1e155"])
    cfg = SimConfig(horizon=1.0, n_steps=8, x0=(0.0,), seed=1)
    res, _ = malliavin_checkpoint_ensemble(coeffs, cfg, 1, [8])
    assert res.diverged_step.tolist() == [0]
    g = sample_brownian(cfg, 1, stream_id=0)
    flow = simulate_flow(coeffs, cfg, g, simulate_x(coeffs, cfg, g))
    assert np.isfinite(flow.jacobians).all() and np.isfinite(flow.inverses).all()


def test_split_step_matches_implicit_root(ou):
    # for b = -x the implicit step is z = x/(1+h), exactly solvable
    cfg = SimConfig(
        horizon=1.0, n_steps=16, x0=(1.0,), scheme="split-step-backward-euler", seed=23
    )
    g = sample_brownian(cfg, 1, stream_id=0)
    traj = simulate_x(ou, cfg, g)
    h = cfg.h
    x = 1.0
    for k in range(cfg.n_steps):
        star = x / (1 + h)
        x = star + g.increments[k, 0]
        assert traj.states[k + 1, 0] == pytest.approx(x, abs=1e-10)


# ---------------------------------------------------------------------------
# flows


def test_ou_jacobian_flow_matches_exponential(ou):
    cfg = SimConfig(horizon=1.0, n_steps=2048, x0=(1.0,), seed=31)
    g = sample_brownian(cfg, 1, stream_id=0)
    traj = simulate_x(ou, cfg, g)
    flow = simulate_flow(ou, cfg, g, traj)
    times = cfg.times()
    rel = np.abs(flow.jacobians[:, 0, 0] - np.exp(-times)) / np.exp(-times)
    assert rel.max() <= 5 * cfg.h


def test_constant_sigma_inverse_flow_matrix_exponential():
    # linear drift b = A x with constant sigma: K solves dK = -K A dt
    c = CoefficientSet.from_text(2, 1, "-x1 + 0.5*x2, -x2", ["1, 1"])
    cfg = SimConfig(horizon=1.0, n_steps=4096, x0=(1.0, 1.0), seed=37)
    g = sample_brownian(cfg, 1, stream_id=0)
    traj = simulate_x(c, cfg, g)
    flow = simulate_flow(c, cfg, g, traj)
    A = np.array([[-1.0, 0.5], [0.0, -1.0]])
    from scipy.linalg import expm

    for idx in (1024, 2048, 4096):
        t = cfg.times()[idx]
        target = expm(-A * t)
        assert np.linalg.norm(flow.inverses[idx] - target) <= 5 * cfg.h


def test_flow_identity_defect_shrinks_with_h(ou):
    defects = []
    for n in (256, 1024, 4096):
        cfg = SimConfig(horizon=1.0, n_steps=n, x0=(1.0,), seed=41)
        res = run_ensemble(ou, cfg, 1, RecordSpec(track_flow_identity=True))
        defects.append(res.flow_identity_sup[0])
    assert defects[2] < defects[1] < defects[0]
    slope = np.polyfit(np.log([1 / 256, 1 / 1024, 1 / 4096]), np.log(defects), 1)[0]
    assert slope >= 0.4


def test_flow_identity_multiplicative_noise():
    c = CoefficientSet.from_text(1, 1, "-x1", ["0.4*x1"])
    cfg = SimConfig(horizon=1.0, n_steps=4096, x0=(1.0,), seed=43)
    res = run_ensemble(c, cfg, 50, RecordSpec(flows=True, track_flow_identity=True))
    assert res.divergence_fraction == 0.0
    assert res.flow_identity_sup.max() <= 0.05


def _identity_defect(j: np.ndarray, k_inv: np.ndarray) -> np.ndarray:
    """Per-path Frobenius norm of K J - I for (d, d, B) stacks of J and K."""
    defect = (k_inv[:, :, None] * j[None]).sum(axis=1) - np.eye(len(j))[:, :, None]
    return np.sqrt(np.add.reduce(defect * defect, axis=(0, 1)))


@pytest.mark.parametrize("route", ["native", "numpy"])
def test_flow_identity_row_is_the_stored_path_defect(route, force_route):
    # the running max row of the step, against the defect of each stored
    # path summed in numpy: the same bits
    ran = force_route(route)
    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    cfg = SimConfig(horizon=0.5, n_steps=64, x0=(1.0, 0.5, -0.3), seed=6)
    res = run_ensemble(heis, cfg, 12, RecordSpec(store_paths=True, track_flow_identity=True))
    assert res.divergence_fraction == 0.0
    sup = [_identity_defect(*(np.moveaxis(a, 0, -1) for a in (j, k_inv))).max()
           for j, k_inv in zip(res.jacobians, res.inverses)]
    assert res.flow_identity_sup.tobytes() == np.array(sup).tobytes()
    assert res.flow_identity_sup.max() > 0.0
    assert ran == {route}


@pytest.mark.parametrize("route", ["native", "numpy"])
def test_square_norm_row_is_the_stored_path_sup(route, force_route):
    # the running max row of |X|^2, against the max over each stored path of
    # its squared norms, which moment_probe took before: the same bits, the
    # overflowing lost paths' frozen rows included
    ran = force_route(route)
    coeffs = CoefficientSet.from_text(3, 2, "-x1 - x1^3, x2 - x2^3, -x3",
                                      ["1, 0, -0.5*x2", "0, 20, 0.5*x1"])
    cfg = SimConfig(horizon=1.0, n_steps=64, x0=(1.0, 10.5, -0.3), scheme="euler", seed=6)
    res = run_ensemble(coeffs, cfg, 12, RecordSpec(flows=False, store_paths=True,
                                                   track_square_norm=True))
    assert 0 < res.diverged_count < res.n_paths
    x = np.moveaxis(res.states, -1, 0)  # (d, paths, n + 1)
    with np.errstate(over="ignore"):
        sup = np.add.reduce(x * x, axis=0).max(axis=1)
    assert res.square_norm_sup.tobytes() == sup.tobytes()
    assert ran == {route}


def compile_diffusion_jacobians(coeffs):
    """X (..., d) -> stacked diffusion-column Jacobians (..., m, d, d), one
    stack, for the references below."""
    exprs = tuple(e for col in coeffs.diffusion for row in jacobian(col) for e in row)
    return compile_expression_stack(exprs, (coeffs.m, coeffs.d, coeffs.d))


# The einsum form of the J/K step and the C sums, kept as an independent
# reference for the engine's generator-matrix products.


def _einsum_flow_step(j, k_inv, gb, gs, dwk, h):
    jn = (
        j
        + h * np.einsum("bij,bjk->bik", gb, j)
        + np.einsum("bmij,bjk,bm->bik", gs, j, dwk)
    )
    corr = np.einsum("bmij,bmjk->bik", gs, gs)
    kn = (
        k_inv
        - h * np.einsum("bij,bjk->bik", k_inv, gb - corr)
        - np.einsum("bij,bmjk,bm->bik", k_inv, gs, dwk)
    )
    return jn, kn


def _einsum_reference(coeffs, cfg, res, increments):
    """[(J, K, C)] at every grid index by the einsum recurrence along the
    engine's stored states and the paths' increments."""
    cgb = compile_jacobian(coeffs.drift)
    cgs = compile_diffusion_jacobians(coeffs)
    csig = compile_diffusion(coeffs)
    h = cfg.h
    j = np.tile(np.eye(coeffs.d), (res.n_paths, 1, 1))
    k_inv = j.copy()
    c = np.zeros_like(j)
    path = [(j, k_inv, c)]
    for step in range(cfg.n_steps):
        x = res.states[:, step]
        ks = np.einsum("bij,bjm->bim", k_inv, csig(x))
        c = c + h * np.einsum("bim,bjm->bij", ks, ks)
        j, k_inv = _einsum_flow_step(j, k_inv, cgb(x), cgs(x), increments[:, step], h)
        path.append((j, k_inv, c))
    return path


def _engine_and_reference(coeffs, cfg, n_paths):
    """{index: (J, K, C)} from the engine and from the reference at two
    checkpoints."""
    checkpoints = (cfg.n_steps // 2, cfg.n_steps)
    record = RecordSpec(store_paths=True, c_checkpoints=checkpoints)
    res = run_ensemble(coeffs, cfg, n_paths, record)
    assert res.divergence_fraction == 0.0
    increments = np.stack(
        [sample_brownian(cfg, coeffs.m, int(sid)).increments for sid in res.stream_ids]
    )
    ref = _einsum_reference(coeffs, cfg, res, increments)
    got = {i: (res.j_at[i], res.inverses[:, i], res.c_at[i]) for i in checkpoints}
    return got, {i: ref[i] for i in checkpoints}


_MULTIPLICATIVE_MODELS = {
    (1, 1): ("x1 - x1^3", ["0.4*x1 + 0.3"]),
    (2, 1): ("-x1 + 0.5*x2, -x2 - x2^3", ["1 + 0.3*x2, 0.2*x1"]),
    (3, 2): (
        "-x1 - x1^3, -x2 - x2^3, -x3",
        ["1 + 0.2*x3, 0, -0.5*x2", "0.1*x2, 1, 0.5*x1"],
    ),
}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dm", sorted(_MULTIPLICATIVE_MODELS))
def test_flow_step_matches_einsum_reference(dm, scheme):
    drift, sigma = _MULTIPLICATIVE_MODELS[dm]
    coeffs = CoefficientSet.from_text(*dm, drift, sigma)
    x0 = (0.8, -0.4, 0.3)[: dm[0]]
    cfg = SimConfig(horizon=0.5, n_steps=64, x0=x0, scheme=scheme, seed=97)
    got, ref = _engine_and_reference(coeffs, cfg, 8)
    for idx, mats in ref.items():
        for name, a, b in zip("JKC", got[idx], mats):
            # entries that cancel to far below the matrix scale get its rtol
            scale = np.abs(b).max()
            np.testing.assert_allclose(
                a, b, rtol=1e-12, atol=1e-12 * scale, err_msg=f"{name} at {idx}"
            )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_flow_step_is_bit_identical_on_additive_ou(ou, scheme):
    cfg = SimConfig(horizon=1.0, n_steps=64, x0=(1.0,), scheme=scheme, seed=101)
    got, ref = _engine_and_reference(ou, cfg, 16)
    for idx, mats in ref.items():
        for a, b in zip(got[idx], mats):
            assert np.array_equal(a, b)


_HEIS = ("-x1 - x1^3, -x2 - x2^3, -x3", ["1, 0, -0.5*x2", "0, 1, 0.5*x1"])
_NEGATIVE_NOISE = ("-x1 - x1^3", ["-0.5"])  # d sigma = -0.0, the derivative of neg(0.5)


# The dense recurrence, kept as a byte-level oracle for the generated step
# kernel: every product a broadcast sum over (d, d, B) stacks, every
# diffusion Jacobian read, and numpy's own sums.


def _bmm(a, b):
    """Matrix products of (..., p, q, B) and (..., q, r, B) stacks."""
    if a.shape[-2] == 1:
        return a * b
    return (a[..., None, :] * b[..., None, :, :, :]).sum(axis=-3)


def _flow_step(j, k_inv, gb, gs, dwk, h):
    a = h * gb
    for i in range(gs.shape[0]):
        a += gs[i] * dwk[i]
    sq = _bmm(gs, gs)
    # one term: + 0.0 turns -0.0 into 0.0 as the sum over the axis does
    g = a - h * (sq[0] + 0.0 if sq.shape[0] == 1 else sq.sum(axis=0))
    return j + _bmm(a, j), k_inv - _bmm(k_inv, g)


# A numpy Newton solve on row-major fields with a pivoting LAPACK solve, kept
# as the dense oracle's reference for the split-step scheme's generated solve.


def _implicit_state(cb, cgb, x, h):
    """Solve z = x + h b(z) by damped Newton with step halving.

    Vectorised over rows; every row's iteration depends only on its own
    values.  Returns (z, converged mask).
    """
    B, d = x.shape
    eye = np.eye(d)
    z = x.copy()

    def residual(candidate):
        return candidate - x - h * cb(candidate)

    fz = residual(z)
    fnorm = np.linalg.norm(fz, axis=1)
    scale = 1.0 + np.linalg.norm(z, axis=1)
    converged = fnorm <= _NEWTON_TOL * scale
    failed = ~np.isfinite(fnorm)
    for _ in range(_NEWTON_MAX_ITER):
        active = ~(converged | failed)
        if not active.any():
            break
        gb = cgb(z)
        A = eye - h * gb
        try:
            delta = np.linalg.solve(A, -fz[..., None])[..., 0]
        except np.linalg.LinAlgError:
            failed |= active
            break
        lam = np.ones(B)
        improved = np.zeros(B, dtype=bool)
        trial_z = z.copy()
        trial_f = fz.copy()
        trial_norm = fnorm.copy()
        for _ in range(20):
            pending = active & ~improved
            if not pending.any():
                break
            cand = z + lam[:, None] * delta
            fcand = residual(cand)
            cnorm = np.linalg.norm(fcand, axis=1)
            accept = pending & np.isfinite(cnorm) & (cnorm <= (1.0 - 1e-4 * lam) * fnorm)
            trial_z = np.where(accept[:, None], cand, trial_z)
            trial_f = np.where(accept[:, None], fcand, trial_f)
            trial_norm = np.where(accept, cnorm, trial_norm)
            improved |= accept
            lam = np.where(improved, lam, lam * 0.5)
        failed |= active & ~improved
        z, fz, fnorm = trial_z, trial_f, trial_norm
        scale = 1.0 + np.linalg.norm(z, axis=1)
        converged |= (~failed) & (fnorm <= _NEWTON_TOL * scale)
    return z, converged & ~failed


def _dense_reference(coeffs, cfg, stream_ids):
    """Diverged steps and [(X, J, K, C)] at every index, component-major,
    on the streams' ``sample_brownian`` grids, lost paths frozen."""
    dw = np.stack([sample_brownian(cfg, coeffs.m, int(s)).increments for s in stream_ids])
    def rows(fn):  # X (d, B) -> (*shape, B)
        return lambda x: np.moveaxis(fn(x.T), 0, -1)

    cb, cgb = (rows(f(coeffs.drift)) for f in (compile_field, compile_jacobian))
    csig, cgs = (rows(f(coeffs)) for f in (compile_diffusion, compile_diffusion_jacobians))
    newton = (compile_field(coeffs.drift), compile_jacobian(coeffs.drift))
    d, m, h, B = coeffs.d, coeffs.m, cfg.h, dw.shape[0]
    x = np.tile(np.asarray(cfg.x0)[:, None], (1, B))
    j = np.tile(np.eye(d)[:, :, None], (1, 1, B))
    state = (x, j, j.copy(), np.zeros((d, d, B)))
    alive, diverged = np.ones(B, dtype=bool), np.full(B, -1)
    path = [state]
    with np.errstate(all="ignore"):
        for k in range(cfg.n_steps):
            x, j, k_inv, c = state
            dwk = np.ascontiguousarray(dw[:, k, :].T)
            bx, ok, point = cb(x), np.ones(B, dtype=bool), x
            if cfg.scheme == "tamed-euler":
                inc = (h * bx) / (1.0 + h * np.sqrt(np.add.reduce(bx * bx, axis=0)))
            elif cfg.scheme == "euler":
                inc = h * bx
            else:
                z, ok = _implicit_state(*newton, x.T, h)
                point = z.T
                inc = point - x
            sig = csig(point)
            noise = sig[:, 0] * dwk[0] + 0.0 if m == 1 else (sig * dwk).sum(axis=1)
            ks = _bmm(k_inv, csig(x))
            new = (x + inc + noise, *_flow_step(j, k_inv, cgb(x), cgs(x), dwk, h),
                   c + h * _bmm(ks, ks.transpose(1, 0, 2)))
            for arr in new:
                ok &= np.isfinite(arr.reshape(-1, B)).all(axis=0)
            diverged[alive & ~ok] = k
            alive &= ok
            state = tuple(np.where(alive, a, b) for a, b in zip(new, state))
            path.append(state)
    return diverged, path


_DENSE = (
    "-x1 + 0.3*sin(x1 + x2 + x3 + x4), -x2 + 0.2*cos(x1 - x2 + x3 - x4), "
    "-x3 - x3^3 + 0.1*x1*x2*x4, -x4 + 0.25*tanh(x1 + x2 + x3 + x4)",
    [
        "1 + 0.1*sin(x1 + x2 + x3 + x4), 0.2*cos(x1 + x2 + x3 + x4), "
        "0.1*x1*x2*x3*x4, 0.3*tanh(x1 + x2 + x3 + x4)",
        "0.2*sin(x1 - x2 + x3 - x4), 1 + 0.1*cos(x1 + x2 - x3 + x4), "
        "0.1*sin(x1 + x2 + x3 + x4), 1 + 0.2*tanh(x1 + x2 + x3 - x4)",
    ],
)

# name: (d, m, drift, sigma columns, x0, n_steps, paths, seed)
# name: (d, m, drift, sigma columns, x0, horizon, n_steps, paths, seed)
_ORACLE_MODELS = {
    "heis": (3, 2, *_HEIS, (1.0, 0.5, 0.0), 0.5, 64, 16, 3),
    "ou": (1, 1, "-x1", ["1"], (1.0,), 0.5, 64, 16, 3),
    "negative-noise": (1, 1, *_NEGATIVE_NOISE, (0.7,), 0.5, 64, 16, 5),
    **{
        f"multiplicative-{d}x{m}": (d, m, drift, sigma, (0.8, -0.4, 0.3)[:d], 0.5, 64, 8, 97)
        for (d, m), (drift, sigma) in _MULTIPLICATIVE_MODELS.items()
    },
    "dense-4x2": (4, 2, *_DENSE, (0.5, -0.3, 0.2, 0.1), 0.5, 64, 8, 11),
    # grad b has zeros at (1, 2) and (2, 0); eliminating (1, 0) fills (1, 2)
    "fill-in-3x1": (
        3, 1, "-x1 + 0.3*x3, 0.4*x1 - x2 - x2^3, 0.2*x2 - x3", ["1, 0.5, 0.2*x1"],
        (0.5, -0.2, 0.3), 0.5, 64, 16, 3,
    ),
    "three-noises": (2, 3, "-x1 - x1^3, -x2 + 0.5*x1", ["1, 0.2*x2", "0.3*x1, 1", "0.5, -0.25*x1"],
                     (0.4, -0.6), 0.5, 64, 16, 3),
    # the two models of test_path_loss_inside_a_block_does_not_change_bits
    "state-overflow": (1, 1, "x1 - x1^3", ["20"], (10.5,), 1.0, 64, 50, 7),
    "flow-overflow": (1, 1, "4000*x1", ["100*x1"], (0.0,), 1.0, 256, 50, 1),
}


@pytest.mark.parametrize(
    "name,scheme,route",
    [
        pytest.param(name, scheme, route, id=f"{name}-{scheme}" + "-numpy" * (route == "numpy"))
        for route in ("native", "numpy")
        for scheme in SCHEMES
        for name in sorted(_ORACLE_MODELS)
    ],
)
def test_engine_matches_the_dense_recurrence_bytes(name, scheme, route, force_route):
    ran = force_route(route)
    d, m, drift, sigma, x0, horizon, n, n_paths, seed = _ORACLE_MODELS[name]
    coeffs = CoefficientSet.from_text(d, m, drift, sigma)
    cfg = SimConfig(horizon=horizon, n_steps=n, x0=x0, scheme=scheme, seed=seed)
    checkpoints = tuple(range(0, n + 1, 4))
    record = RecordSpec(store_paths=True, c_checkpoints=checkpoints)
    res = run_ensemble(coeffs, cfg, n_paths, record)
    diverged, path = _dense_reference(coeffs, cfg, res.stream_ids)
    if scheme == "euler" and name.endswith("overflow"):
        assert not res.alive.all()  # the masked step is covered
    # bytes, so the signs of zeros count too; no model or scheme is exempt
    assert res.diverged_step.tobytes() == diverged.tobytes()
    for k, (x, j, k_inv, c) in enumerate(path):
        assert res.states[:, k].tobytes() == x.T.tobytes(), f"X at {k}"
        assert res.jacobians[:, k].tobytes() == np.moveaxis(j, -1, 0).tobytes(), f"J at {k}"
        assert res.inverses[:, k].tobytes() == np.moveaxis(k_inv, -1, 0).tobytes(), f"K at {k}"
        assert res.covariances[:, k].tobytes() == np.moveaxis(c, -1, 0).tobytes(), f"C at {k}"
        if k in checkpoints:
            assert res.c_at[k].tobytes() == res.covariances[:, k].tobytes(), f"C at {k}"
    # a silent fallback to numpy would pass the byte checks too
    assert ran == {"numpy" if route == "numpy" or name == "dense-4x2" else "native"}


def _kernel_source(coeffs, scheme="tamed-euler", flows=True, covariance=True):
    kernel = compile_step_kernel(Kernel(coeffs, scheme, flows=flows, covariance=covariance))
    return [line.strip() for line in linecache.getlines(kernel.__code__.co_filename)]


def test_additive_noise_skips_the_diffusion_jacobians(ou):
    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    negative = CoefficientSet.from_text(1, 1, *_NEGATIVE_NOISE)
    for coeffs in (ou, negative):
        generators = [ln for ln in _kernel_source(coeffs) if ln.startswith(("A", "G"))]
        # A = h grad b reads no dW, so no grad sigma_i entry, and G = A
        assert len(generators) == 1 and generators[0].startswith("A0_0 = h * ")
        assert "dw" not in generators[0]
    lines = _kernel_source(heis)
    assert any(ln.startswith("A2_0 =") and "dw1" in ln for ln in lines)
    # every product of two heis grad sigma_i entries has a constant-0 factor
    assert not any(ln.startswith("G") for ln in lines)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_additive_fast_path_is_bit_identical_to_the_full_step(scheme):
    # grad sigma is the constant -0.0 here; the dense step multiplies it out
    coeffs = CoefficientSet.from_text(1, 1, *_NEGATIVE_NOISE)
    cfg = SimConfig(horizon=1.0, n_steps=64, x0=(0.7,), scheme=scheme, seed=5)
    record = RecordSpec(flows=True, c_checkpoints=(32, 64))
    res = run_ensemble(coeffs, cfg, 16, record)
    diverged, path = _dense_reference(coeffs, cfg, res.stream_ids)
    x, j, _, _ = path[-1]
    assert res.diverged_step.tobytes() == diverged.tobytes()
    assert res.final_states.tobytes() == x.T.tobytes()
    assert res.final_jacobians.tobytes() == np.moveaxis(j, -1, 0).tobytes()
    for k in record.c_checkpoints:
        assert res.c_at[k].tobytes() == np.moveaxis(path[k][3], -1, 0).tobytes()
        assert res.j_at[k].tobytes() == np.moveaxis(path[k][1], -1, 0).tobytes()


def test_step_kernel_cache_key_separates_zero_signs_and_records():
    def model(zero):
        drift = VectorField(1, (Const(zero),))
        return CoefficientSet(1, 1, drift, (VectorField.from_text("1", 1),))

    plus, minus = model(0.0), model(-0.0)
    for scheme in SCHEMES:
        assert compile_step_kernel(
            Kernel(plus, scheme, flows=True, covariance=True)
        ) is not compile_step_kernel(Kernel(minus, scheme, flows=True, covariance=True))
    assert "np.add(x0 + h * (-0.0), (dw0) + 0.0, out=out[0])" in _kernel_source(minus, "euler")
    assert "np.add(x0 + h * (0.0), (dw0) + 0.0, out=out[0])" in _kernel_source(plus, "euler")

    # rows written: X, J and K without C; and C's one row with it
    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    assert compile_step_kernel(Kernel(heis, "euler", flows=True)) is not compile_step_kernel(
        Kernel(heis, "euler", flows=True, covariance=True)
    )
    written = [
        sum("out=out[" in ln or ln.startswith("out[") for ln in _kernel_source(heis, "euler", *r))
        for r in ((False, False), (True, False), (True, True))
    ]
    assert written == [3, 21, 27]
    # every record the engine can ask for: the step writes each row of its
    # kernel's layout once, and only those; equal kernels share one step,
    # and a kernel that differs in one record row has its own
    spec = RemainderEnergy(3, heis.diffusion[0], BracketTable(heis), np.array((1.0, 0.5, 0.0)),
                           (0, 7))
    options = {"flows": (False, True), "c_checkpoints": ((), (16,)),
               "track_flow_identity": (False, True), "remainder": (None, spec),
               "track_square_norm": (False, True)}
    kernels = set()
    for values in itertools.product(*options.values()):
        record = RecordSpec(**dict(zip(options, values)))
        kernel = record.kernel(heis, "euler")
        step = compile_step_kernel(kernel)
        assert compile_step_kernel(record.kernel(heis, "euler")) is step
        lines = [ln.strip() for ln in linecache.getlines(step.__code__.co_filename)]
        found = [re.search(r"out=out\[(\d+)\]\)$|^out\[(\d+)\] =", ln) for ln in lines]
        rows = [int(mt[1] or mt[2]) for mt in found if mt]
        assert sorted(rows) == list(range(len(kernel.rows))), kernel
        kernels.add(kernel)
    # flows=False keeps J and K when another record needs them
    assert len(kernels) == 2 * 2 * 2 * 2 + 2
    for kernel in kernels:
        for flag in ("flows", "covariance", "identity", "square_norm"):
            other = replace(kernel, **{flag: not getattr(kernel, flag)})
            if other in kernels:
                assert compile_step_kernel(other) is not compile_step_kernel(kernel), flag
        if kernel.remainder:
            other = replace(kernel, remainder=None)
            assert compile_step_kernel(other) is not compile_step_kernel(kernel)
    # either order through the engine: C only where asked, and the same bits
    cfg = SimConfig(horizon=0.5, n_steps=16, x0=(1.0, 0.5, 0.0), scheme="euler", seed=2)
    with_c, without_c = RecordSpec(c_checkpoints=(16,)), RecordSpec()
    for first, second in ((with_c, without_c), (without_c, with_c)):
        compile_step_kernel.cache_clear()
        a, b = run_ensemble(heis, cfg, 4, first), run_ensemble(heis, cfg, 4, second)
        assert bool(a.c_at) == (first is with_c) and bool(b.c_at) == (second is with_c)
        assert a.final_jacobians.tobytes() == b.final_jacobians.tobytes()


def test_generated_code_is_readable_in_tracebacks():
    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    kernel = compile_step_kernel(Kernel(heis, "tamed-euler", flows=True, covariance=True))
    assert kernel.__code__.co_filename.startswith("<hypolab step d=3 m=2 tamed-euler JK C #")
    assert (linecache.getline(kernel.__code__.co_filename, 1)
            == "def step(s, out, dw, h, T=None, lost=False):\n")
    # only the split-step kernel runs Newton, and its converged rows join the
    # finite ones in the mask each kernel returns
    for scheme in SCHEMES:
        lines = _kernel_source(heis, scheme)
        implicit = scheme == "split-step-backward-euler"
        assert any(ln.startswith("def residual(") for ln in lines) == implicit
        finite = "return np.isfinite(out[:27]).all(axis=0)"
        assert lines[-1] == (f"{finite} & converged & ~failed" if implicit else finite)
    # a stack is not generated source: its error names the expression it was in
    stack = compile_field(heis.drift)
    assert repr(stack) == "<fieldlang stack (3,) of 3 expressions>"
    with pytest.raises(IndexError) as err:
        stack(np.zeros((4, 1)))  # one column where the drift reads three
    text = "".join(traceback.format_exception(err.value))
    assert ("in <fieldlang stack (3,) of 3 expressions>: reading 'x2' of "
            "out[..., 1] = -x2 - x2^3") in text
    # the source is kept only as long as its function
    orphan = compile_step_kernel.__wrapped__(Kernel(heis, "euler"))
    filename = orphan.__code__.co_filename
    assert filename in linecache.cache
    del orphan
    gc.collect()
    assert filename not in linecache.cache


def test_block_memory_is_the_increments_and_the_state():
    # a heis tails-shaped block: flows and C at the tails' five checkpoints
    coeffs = CoefficientSet.from_text(3, 2, *_HEIS)
    n, n_paths, d = 512, 1000, 3
    cfg = SimConfig(horizon=0.5, n_steps=n, x0=(1.0, 0.5, 0.0), seed=1)
    record = RecordSpec(flows=True, c_checkpoints=(32, 64, 128, 256, 512))
    run_ensemble(coeffs, cfg, 8, record)  # first-call allocations
    tracemalloc.start()
    try:
        run_ensemble(coeffs, cfg, n_paths, record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    increments = n_paths * n * 2 * 8  # 8.2 MB, one block
    state = d * d * n_paths * 8  # one (d, d, B) array, 72 kB
    # J, K, C, the step's temporaries and the checkpoints measured 28 states;
    # a copy of the increments in another layout would add 114
    assert peak <= increments + 40 * state


@pytest.mark.parametrize("route", ["numpy", "native"])
def test_kept_records_own_their_data(route, force_route):
    # every record a block returns is copied out of its (stops, rows, B)
    # snapshot, so no record keeps the snapshot alive until the merge: the
    # memory under each array, a buffer it may view paths last, is its own
    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    spec = RemainderEnergy(3, heis.diffusion[0], BracketTable(heis), np.array((1.0, 0.5, 0.0)),
                           (0, 5, 16))
    cfg = SimConfig(horizon=0.5, n_steps=16, x0=(1.0, 0.5, 0.0), seed=3)
    record = RecordSpec(store_paths=True, c_checkpoints=(4, 16), remainder=spec,
                        track_flow_identity=True, track_square_norm=True)
    ran = force_route(route)
    out = _simulate_block(heis, cfg, record, np.arange(5))
    assert ran == {route}
    for name in ("accumulated", "c_at", "j_at", "states", "jacobians", "inverses", "covariances",
                 "final_states", "final_jacobians", "flow_identity_sup", "square_norm_sup"):
        for array in out[name].values() if isinstance(out[name], dict) else [out[name]]:
            owner = array if array.base is None else array.base
            assert owner.flags.owndata and owner.nbytes == array.nbytes, name


def test_scalar_noise_term_keeps_the_einsum_sign_of_zero():
    # from x0 = -0.0 with sigma(0) = 0 the Euler state is an exact zero whose
    # sign the noise term decides; with m = 1 it must be the einsum's sign
    c = CoefficientSet.from_text(1, 1, "x1", ["x1"])
    cfg = SimConfig(horizon=1.0, n_steps=16, x0=(-0.0,), scheme="euler", seed=1)
    res = run_ensemble(c, cfg, 8, RecordSpec(flows=False, store_paths=True))
    dw = np.stack([sample_brownian(cfg, 1, i).increments for i in range(8)])
    x = np.full((8, 1), -0.0)
    for k in range(17):
        assert np.array_equal(np.signbit(res.states[:, k]), np.signbit(x))
        if k < 16:
            x = x + cfg.h * x + np.einsum("bim,bm->bi", x[:, :, None], dw[:, k])


# ---------------------------------------------------------------------------
# malliavin quantities


def test_malliavin_derivative_at_equal_times_is_sigma(ou):
    cfg = SimConfig(horizon=1.0, n_steps=256, x0=(1.0,), seed=47)
    g = sample_brownian(cfg, 1, stream_id=0)
    traj = simulate_x(ou, cfg, g)
    flow = simulate_flow(ou, cfg, g, traj)
    ds = malliavin_derivative(128, 128, flow, traj, ou)
    assert ds[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_malliavin_derivative_identity_for_additive_unit():
    c = CoefficientSet.from_text(2, 2, "0, 0", ["1, 0", "0, 1"])
    cfg = SimConfig(horizon=1.0, n_steps=128, x0=(0.0, 0.0), seed=53)
    g = sample_brownian(cfg, 2, stream_id=0)
    traj = simulate_x(c, cfg, g)
    flow = simulate_flow(c, cfg, g, traj)
    ds = malliavin_derivative(32, 96, flow, traj, c)
    assert np.allclose(ds, np.eye(2), atol=1e-12)


def test_malliavin_ou_derivative_closed_form(ou):
    cfg = SimConfig(horizon=1.0, n_steps=4096, x0=(1.0,), seed=59)
    g = sample_brownian(cfg, 1, stream_id=0)
    traj = simulate_x(ou, cfg, g)
    flow = simulate_flow(ou, cfg, g, traj)
    for s_idx, t_idx in ((0, 4096), (1024, 3072), (2048, 2048)):
        target = np.exp(-(t_idx - s_idx) * cfg.h)
        got = malliavin_derivative(s_idx, t_idx, flow, traj, ou)[0, 0]
        assert abs(got - target) <= 5 * cfg.h


def test_malliavin_derivative_rejects_indices_off_the_grid(ou):
    cfg = SimConfig(horizon=1.0, n_steps=8, x0=(1.0,), seed=47)
    g = sample_brownian(cfg, 1, stream_id=0)
    traj = simulate_x(ou, cfg, g)
    flow = simulate_flow(ou, cfg, g, traj)
    # (-1, 0) would read the last grid index; 99 is past the end
    for s_idx, t_idx in ((-1, 0), (0, 99), (9, 9), (5, 4)):
        with pytest.raises(ConfigError, match="s_index <= t_index <= 8"):
            malliavin_derivative(s_idx, t_idx, flow, traj, ou)
    assert malliavin_derivative(0, 8, flow, traj, ou).shape == (1, 1)


def test_additive_identity_covariance_is_time(elliptic2):
    cfg = SimConfig(horizon=1.0, n_steps=128, x0=(0.0, 0.0), seed=61)
    res, mats = malliavin_checkpoint_ensemble(elliptic2, cfg, 1, (32, 128))
    for idx in (32, 128):
        c, q = (mat[0] for mat in mats[idx])
        t = cfg.times()[idx]
        assert np.linalg.norm(q - t * np.eye(2)) <= cfg.h * 2
        for mat in (c, q):  # symmetric, and PSD up to rounding relative to the trace
            assert np.allclose(mat, mat.T, atol=1e-12, rtol=0.0)
            assert np.linalg.eigvalsh(mat)[0] >= -1e-9 * max(1.0, abs(np.trace(mat)))
        # construction identity
        jt = res.j_at[idx][0]
        assert np.allclose(q, jt @ c @ jt.T, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("checkpoints", [(9,), (-1,), (4, 9)])
def test_checkpoints_off_the_grid_are_refused(ou, checkpoints):
    cfg = SimConfig(horizon=1.0, n_steps=8, x0=(1.0,), seed=5)
    off = next(k for k in checkpoints if not 0 <= k <= 8)
    with pytest.raises(ConfigError, match=rf"checkpoint index {off} outside the grid"):
        run_ensemble(ou, cfg, 2, RecordSpec(c_checkpoints=checkpoints))
    with pytest.raises(ConfigError, match=rf"checkpoint index {off} outside the grid"):
        malliavin_checkpoint_ensemble(ou, cfg, 2, checkpoints)


def test_ou_covariance_ensemble_close_to_closed_form(ou):
    cfg = SimConfig(horizon=1.0, n_steps=4096, x0=(1.0,), seed=67)
    _, mats = malliavin_checkpoint_ensemble(ou, cfg, 64, [4096])
    _, q = mats[4096]
    target = (1 - np.exp(-2)) / 2
    assert abs(q.mean() - target) / target <= 0.02


def test_covariance_min_eigenvalue_monotone_in_time():
    c = CoefficientSet.from_text(2, 1, "0, x1", ["1, 0"])
    cfg = SimConfig(horizon=1.0, n_steps=256, x0=(0.3, -0.2), seed=71)
    checkpoints = (64, 128, 192, 256)
    _, mats = malliavin_checkpoint_ensemble(c, cfg, 40, checkpoints)
    lam = {idx: np.linalg.eigvalsh(mats[idx][0])[:, 0] for idx in checkpoints}
    for a, b in zip(checkpoints, checkpoints[1:]):
        assert np.all(lam[b] >= lam[a] - 1e-10)


def test_determinant_inequality_after_time_one():
    c = CoefficientSet.from_text(1, 1, "x1 - x1^3", ["0.3*x1"])
    cfg = SimConfig(horizon=2.0, n_steps=1024, x0=(1.0,), seed=73)
    res, mats = malliavin_checkpoint_ensemble(c, cfg, 50, [512, 1024])
    _, q1 = mats[512]
    _, q2 = mats[1024]
    j1 = res.j_at[512]
    j2 = res.j_at[1024]
    # J_1(t) = J(t) J(1)^{-1}
    alive = res.alive
    j1t = np.einsum("bij,bjk->bik", j2, np.linalg.inv(j1))
    lhs = np.linalg.det(q2)[alive]
    rhs = (np.linalg.det(j1t) ** 2 * np.linalg.det(q1))[alive]
    assert np.all(lhs >= rhs * (1 - 1e-6) - 1e-12)


# ---------------------------------------------------------------------------
# ensembles and determinism


@pytest.mark.parametrize(
    "drift,sigma,x0,n_steps,seed",
    [
        # 8 of 50 paths are lost, at steps 7 to 49, when X overflows
        ("x1 - x1^3", "20", 10.5, 64, 7),
        # X stays 0 while J overflows at steps 220 to 227; the frozen J of a
        # lost path would often stay finite on the next step
        ("4000*x1", "100*x1", 0.0, 256, 1),
    ],
    ids=["state-overflow", "flow-overflow"],
)
def test_path_loss_inside_a_block_does_not_change_bits(drift, sigma, x0, n_steps, seed):
    # one block leaves its all-alive step for the masked one mid-run; a block
    # of one path does so only when that path is lost
    c = CoefficientSet.from_text(1, 1, drift, [sigma])
    cfg = SimConfig(horizon=1.0, n_steps=n_steps, x0=(x0,), scheme="euler", seed=seed)
    spec = RecordSpec(flows=True, c_checkpoints=(4, n_steps // 2))
    whole = run_ensemble(c, cfg, 50, spec)
    single = run_ensemble(c, cfg, 50, spec, block_size=1)
    lost = whole.diverged_step[~whole.alive]
    assert len(lost) and lost.min() > 4
    assert np.array_equal(whole.diverged_step, single.diverged_step)
    assert np.array_equal(whole.final_states, single.final_states)
    assert np.array_equal(whole.final_jacobians, single.final_jacobians)
    for k in spec.c_checkpoints:
        assert np.array_equal(whole.c_at[k], single.c_at[k])


@pytest.mark.parametrize("scheme", SCHEMES)
def test_block_size_does_not_change_bits(ou, scheme):
    cfg = SimConfig(horizon=1.0, n_steps=128, x0=(1.0,), scheme=scheme, seed=83)
    r_small = run_ensemble(ou, cfg, 1000, RecordSpec(flows=True), block_size=100)
    r_big = run_ensemble(ou, cfg, 1000, RecordSpec(flows=True), block_size=1000)
    assert np.array_equal(r_small.final_states, r_big.final_states)
    assert np.array_equal(r_small.final_jacobians, r_big.final_jacobians)


@pytest.mark.parametrize("block_size", [-1, 0])
def test_block_size_below_one_is_a_config_error(ou, block_size):
    cfg = SimConfig(horizon=1.0, n_steps=8, x0=(1.0,), seed=3)
    with pytest.raises(ConfigError, match="block_size must be >= 1"):
        run_ensemble(ou, cfg, 4, RecordSpec(), block_size=block_size)


def test_singular_newton_matrix_loses_only_its_own_path(force_route):
    # b = 32 x^2 at h = 1/64: 1 - h b'(x) = 1 - x vanishes at x = 1.0, where
    # lane 3 of the full tile starts its second step, so its line search runs
    # out; every other path starts it at x in [-0.4, 0.45] and keeps
    # iterating beside it.  The last path is the one lane of a second tile.
    c = CoefficientSet.from_text(1, 1, "32*x1^2", ["1"])
    cfg = SimConfig(
        horizon=1 / 32, n_steps=2, x0=(0.0,), scheme="split-step-backward-euler"
    )
    B = C_TILE + 1
    dw = np.zeros((2, 1, B))
    dw[0, 0] = np.linspace(-0.4, 0.45, B)
    dw[0, 0, 3] = 1.0
    runs = {}
    for route in ("native", "numpy"):
        ran = force_route(route)
        runs[route] = _simulate_block(c, cfg, RecordSpec(flows=False), np.arange(B), dw)
        assert ran == {route}
    both = runs["numpy"]
    for key in ("final_states", "diverged_step"):
        assert runs["native"][key].tobytes() == both[key].tobytes(), key
    alone = _simulate_block(c, cfg, RecordSpec(flows=False), np.arange(B - 1),
                            np.delete(dw, 3, 2))
    assert both["diverged_step"].tolist() == [-1, -1, -1, 1] + [-1] * (B - 4)
    assert alone["diverged_step"].tolist() == [-1] * (B - 1)
    assert np.delete(both["final_states"], 3, 0).tobytes() == alone["final_states"].tobytes()


def test_numpy_solve_skips_the_rows_of_lost_paths(monkeypatch):
    # b = 32 x^2 at h = 1/64: z = x + h b(z) has a root only for x <= 1/2.
    # Path 0 reaches x = 0.732 at step 3, is lost there and stays frozen
    # without a root; the others sit at the root 0, which takes no Newton
    # iteration.  So every later step takes the norms of a block without
    # a lost path: the solve must not run on for the lost row.
    c = CoefficientSet.from_text(1, 1, "32*x1^2", ["1"])
    step = compile_step_kernel(Kernel(c, "split-step-backward-euler"))
    norms = []

    class Counting:  # numpy, counting the solve's norms
        def __getattr__(self, name):
            return getattr(np, name)

        def sqrt(self, x):
            norms.append(1)
            return np.sqrt(x)

    monkeypatch.setitem(step.__globals__, "np", Counting())
    n, B = 8, 4
    dw = np.zeros((n, 1, B))
    dw[2, 0, 0] = 0.732
    s, out = np.zeros((1, B)), np.empty((1, B))
    diverged = np.full(B, -1, dtype=np.int64)
    per_step = []
    with np.errstate(all="ignore"):
        for k in range(n):
            s, out = simulate._numpy_steps(step, s, out, dw, 1 / 64, k, k + 1, diverged,
                                           np.zeros((0, 1)))
            per_step.append(len(norms))
            norms.clear()
    assert diverged.tolist() == [3, -1, -1, -1]
    assert per_step[3] > per_step[0] > 0  # the failed solve iterates, at step 3 only
    assert per_step[:3] + per_step[4:] == [per_step[0]] * (n - 1)


def test_constant_zero_pivot_loses_the_paths_without_raising():
    # 1 - h * 64 = 0 and the multiplier -h / 0 are constants: Python floats
    c = CoefficientSet.from_text(2, 1, "64*x1, x1", ["1, 0"])
    cfg = SimConfig(
        horizon=1 / 16, n_steps=4, x0=(0.0, 0.0), scheme="split-step-backward-euler"
    )
    res = run_ensemble(c, cfg, 5, RecordSpec(flows=False))
    assert res.diverged_step.tolist() == [1] * 5  # step 0 starts at the root z = 0


@pytest.mark.parametrize("scheme", SCHEMES)
def test_ensemble_matches_single_path_states(ginzburg_landau, scheme):
    cfg = SimConfig(horizon=1.0, n_steps=128, x0=(1.0,), scheme=scheme, seed=89)
    record = RecordSpec(store_paths=True)
    res = run_ensemble(ginzburg_landau, cfg, 4, record)
    assert res.divergence_fraction == 0.0
    for i, sid in enumerate(res.stream_ids):
        g = sample_brownian(cfg, 1, stream_id=int(sid))
        traj = simulate_x(ginzburg_landau, cfg, g)
        flow = simulate_flow(ginzburg_landau, cfg, g, traj)
        assert np.array_equal(res.states[i], traj.states)
        assert np.array_equal(res.jacobians[i], flow.jacobians)
        assert np.array_equal(res.inverses[i], flow.inverses)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_single_path_helpers_are_rows_of_the_ensemble(scheme):
    # each helper is a batch of one of the engine, and a path's C and Q are
    # its row of the checkpoint ensemble, with the J of simulate_flow; h =
    # 0.3/64 is no power of two, so a quadrature that only differs by where
    # it multiplies by h would show here too
    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    cfg = SimConfig(horizon=0.3, n_steps=64, x0=(1.0, 0.5, 0.0), scheme=scheme, seed=3)
    indices = (0, 1, 32, 64)
    res = run_ensemble(heis, cfg, 4, RecordSpec(store_paths=True))
    at, mats = malliavin_checkpoint_ensemble(heis, cfg, 4, indices)
    _, first = malliavin_checkpoint_ensemble(heis, cfg, 1, indices)
    for sid in range(4):
        g = sample_brownian(cfg, 2, stream_id=sid)
        traj = simulate_x(heis, cfg, g)
        flow = simulate_flow(heis, cfg, g, traj)
        assert traj.states.tobytes() == res.states[sid].tobytes()
        assert flow.jacobians.tobytes() == res.jacobians[sid].tobytes()
        assert flow.inverses.tobytes() == res.inverses[sid].tobytes()
        for k in indices:
            assert flow.jacobians[k].tobytes() == at.j_at[k][sid].tobytes(), f"J at {k}"
    for k in indices:
        for name, one, four in zip("CQ", first[k], mats[k]):
            assert one.tobytes() == four[:1].tobytes(), f"{name} at {k}"


def test_flow_rejects_a_foreign_trajectory(ou):
    cfg = SimConfig(horizon=1.0, n_steps=64, x0=(1.0,), seed=89)
    g0 = sample_brownian(cfg, 1, stream_id=0)
    g1 = sample_brownian(cfg, 1, stream_id=1)
    traj = simulate_x(ou, cfg, g1)
    with pytest.raises(ConfigError, match="simulate_x"):
        simulate_flow(ou, cfg, g0, traj)


def test_nearest_index_clips(ou):
    cfg = SimConfig(horizon=1.0, n_steps=128, x0=(1.0,))
    assert nearest_index(cfg, 0.5) == 64
    assert nearest_index(cfg, -1.0) == 0
    assert nearest_index(cfg, 9.0) == 128


# ---------------------------------------------------------------------------
# the native step loop and its fallbacks


@pytest.fixture
def fresh_loops(tmp_path, monkeypatch):
    """Native loops and numpy kernels built into an empty cache, the loops
    probed anew, then both forgotten."""
    monkeypatch.setattr(native, "CACHE", str(tmp_path / "cache"))
    simulate._native_loop.cache_clear()
    compile_step_kernel.cache_clear()
    yield tmp_path / "cache"
    simulate._native_loop.cache_clear()
    compile_step_kernel.cache_clear()


def _heis_bytes():
    """The bytes of a small heis run with flows and two C checkpoints."""
    coeffs = CoefficientSet.from_text(3, 2, *_HEIS)
    cfg = SimConfig(horizon=0.5, n_steps=32, x0=(1.0, 0.5, 0.0), seed=4)
    res = run_ensemble(coeffs, cfg, 20, RecordSpec(c_checkpoints=(16, 32)))
    arrays = (res.final_states, res.final_jacobians, res.diverged_step, res.c_at[16], res.c_at[32])
    return [a.tobytes() for a in arrays]


def _no_compiler(cache, monkeypatch):
    monkeypatch.setattr(native, "COMPILER", str(cache.parent / "no-such-cc"))


def _perturbed_source(cache, monkeypatch):
    # a division made a product with the reciprocal, as -freciprocal-math
    # would: the probe has to notice the moved roundings
    def perturbed(*kernel):
        source = step_kernel_c.__wrapped__(*kernel)
        assert "(h * e0) / taming" in source
        return source.replace("(h * e0) / taming", "(h * e0) * (1.0 / taming)", 1)

    monkeypatch.setattr(simulate, "step_kernel_c", perturbed)


def _truncated_library(cache, monkeypatch):
    # built in another directory: a library this process has mapped must not
    # be truncated in place, and the loader would reuse it by its path
    elsewhere = cache.parent / "elsewhere"
    monkeypatch.setattr(native, "CACHE", str(elsewhere))
    monkeypatch.setattr(simulate, "NATIVE", True)
    _heis_bytes()
    (library,) = elsewhere.glob("*.so")
    cache.mkdir(mode=0o700, exist_ok=True)  # made by the numpy run's kernel
    (cache / library.name).write_bytes(library.read_bytes()[:1000])
    (cache / f"{library.name}.sha256").write_bytes(Path(f"{library}.sha256").read_bytes())
    monkeypatch.setattr(native, "CACHE", str(cache))
    simulate._native_loop.cache_clear()


def _foreign_cache(cache, monkeypatch):
    cache.mkdir(parents=True, exist_ok=True)  # made by the numpy run's kernel
    cache.chmod(0o777)  # anyone may write into it


def _no_random_headers(cache, monkeypatch):
    monkeypatch.setattr(np, "get_include", lambda: str(cache.parent))


def _no_random_library(cache, monkeypatch):
    # numpy's random/lib/libnpyrandom.a is looked up beside numpy's __init__
    monkeypatch.setattr(np, "__file__", str(cache.parent / "numpy" / "__init__.py"))


def _perturbed_draws(cache, monkeypatch):
    # the words past the bulk words taken from the next counter block: only
    # the normals past them, and slow draws that run past them, are wrong,
    # and the sampler's check at load covers both
    def perturbed(*kernel):
        source = step_kernel_c.__wrapped__(*kernel)
        assert source.count("w / 4, 1, p->block") == 1
        return source.replace("w / 4, 1, p->block", "w / 4 + 1, 1, p->block")

    monkeypatch.setattr(simulate, "step_kernel_c", perturbed)


def _perturbed_double(cache, monkeypatch):
    # numpy's sampler handed uniforms from the top 52 bits, half their size:
    # only its slow path reads them, and the sampler's check at load sees it
    def perturbed(*kernel):
        source = step_kernel_c.__wrapped__(*kernel)
        assert source.count("(next_word(st) >> 11)") == 1
        return source.replace("(next_word(st) >> 11)", "(next_word(st) >> 12)")

    monkeypatch.setattr(simulate, "step_kernel_c", perturbed)


def _perturbed_sampler(cache, monkeypatch):
    # the sign taken from bit 9 of the draw instead of bit 8: the sampler's
    # own check at load draws the wrong normals
    def perturbed(*kernel):
        source = step_kernel_c.__wrapped__(*kernel)
        assert "(r & 0x100) << 55" in source
        return source.replace("(r & 0x100) << 55", "(r & 0x200) << 54", 1)

    monkeypatch.setattr(simulate, "step_kernel_c", perturbed)


def _perturbed_bulk(cache, monkeypatch):
    # one Philox multiplier of the bulk words changed: every normal on the
    # fast path is wrong, and the sampler's check at load sees it
    def perturbed(*kernel):
        source = step_kernel_c.__wrapped__(*kernel)
        assert source.count("0xCA5A826395121157ULL") == 1
        return source.replace("0xCA5A826395121157ULL", "0xCA5A826395121155ULL")

    monkeypatch.setattr(simulate, "step_kernel_c", perturbed)


def _reread_increments(cache, monkeypatch):
    # from step 5 on the loop steps with step 0's increments again: only the
    # final rows of the 6- and 7-step probe blocks show it
    def perturbed(*kernel):
        source = step_kernel_c.__wrapped__(*kernel)
        assert source.count("const double *dwk = inc + k * ") == 1
        return source.replace("const double *dwk = inc + k * ",
                              "const double *dwk = inc + (k < 5 ? k : 0) * ")

    monkeypatch.setattr(simulate, "step_kernel_c", perturbed)


def _counted_compiles(monkeypatch) -> list:
    """The file names of the sources ``native.compiled`` compiles from now on."""
    compiles = []

    def counted(source, filename, mode):
        compiles.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(native, "compile", counted, raising=False)
    return compiles


@pytest.mark.parametrize(
    "fault,route",
    [(_no_compiler, "numpy"), (_perturbed_source, "numpy"), (_truncated_library, "native"),
     (_foreign_cache, "numpy"), (_no_random_headers, "numpy"), (_no_random_library, "numpy"),
     (_perturbed_draws, "numpy"), (_perturbed_double, "numpy"), (_perturbed_sampler, "numpy"),
     (_perturbed_bulk, "numpy"), (_reread_increments, "numpy")],
    ids=["missing-compiler", "perturbed-source", "truncated-library", "foreign-cache",
         "missing-random-headers", "missing-random-library", "perturbed-draws",
         "perturbed-double", "perturbed-sampler", "perturbed-bulk", "reread-increments"],
)
def test_native_faults_give_the_numpy_bytes_quietly(
    fault, route, fresh_loops, monkeypatch, force_route, capfd
):
    force_route("numpy")
    want = _heis_bytes()  # its numpy kernel is cached
    fault(fresh_loops, monkeypatch)
    listing = sorted(fresh_loops.iterdir())
    compile_step_kernel.cache_clear()  # the probe's kernel comes from the warm cache
    compiles = _counted_compiles(monkeypatch)
    ran = force_route("native")
    assert _heis_bytes() == want
    assert ran == {route}  # a truncated library is built again
    assert len(compiles) == (fault is _foreign_cache)  # a foreign cache is never read
    assert capfd.readouterr() == ("", "")
    with pytest.raises(ChildProcessError):  # every compiler run was waited for
        os.waitpid(-1, os.WNOHANG)
    if fault in (_no_random_headers, _no_random_library):  # no library is built
        assert all(path.suffix == ".code" for path in fresh_loops.iterdir())
    if fault is _foreign_cache:  # nor anything written
        assert sorted(fresh_loops.iterdir()) == listing
    if fault is _truncated_library:
        (library,) = fresh_loops.glob("*.so")
        built_before = fresh_loops.parent / "elsewhere" / library.name
        assert library.read_bytes() == built_before.read_bytes()


def test_warm_cache_starts_no_process(fresh_loops, monkeypatch, force_route):
    ran = force_route("native")
    cold = _heis_bytes()
    simulate._native_loop.cache_clear()

    def no_process(*args, **kwargs):
        raise AssertionError("a warm cache started a process")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    assert _heis_bytes() == cold
    assert ran == {"native"}
    assert stat.S_IMODE(fresh_loops.stat().st_mode) == 0o700


def _probe_kernels():
    """The kernels the one-pass probe oracle is checked on."""
    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    spec = RemainderEnergy(3, heis.diffusion[0], BracketTable(heis), np.array((1.0, 0.5, 0.0)),
                           (0, 7))
    well = CoefficientSet.from_text(1, 1, "x1 - x1^3", ["0.5"])
    return {
        "heis-tamed": Kernel(heis, "tamed-euler", flows=True, covariance=True),
        "heis-split-step": Kernel(heis, "split-step-backward-euler", flows=True, covariance=True,
                                  identity=True, square_norm=True),
        "heis-remainder": Kernel(heis, "tamed-euler", flows=True,
                                 remainder=(spec.target, spec.prefixes, spec.indices)),
        "d1-split-step": Kernel(well, "split-step-backward-euler"),
        "d1-euler": Kernel(well, "euler"),
    }


@pytest.mark.parametrize("name", list(_probe_kernels()))
def test_one_numpy_pass_gives_each_probe_block_its_own_bytes(name):
    # the blocks side by side, stepped past their own n on zero increments,
    # give what _numpy_block gives each of them alone
    kernel = _probe_kernels()[name]
    step, h = compile_step_kernel(kernel), simulate._PROBE_H
    start, coefficients, ids, blocks = simulate._probe_blocks(kernel, C_TILE + 3)
    with np.errstate(all="ignore"):
        oracle = simulate._probe_oracle(step, start, blocks, coefficients)
        assert len(oracle) == len(blocks) == 4
        for (n, seed, dw, increments), (snap, lost) in zip(blocks, oracle):
            if dw is None:  # a stream's first n steps are its n-step draw
                drawn = _block_increments(seed, n, h, kernel.coeffs.m, ids)
                assert increments.tobytes() == drawn.tobytes()
            want_lost = np.full(len(ids), -1, dtype=np.int64)
            want = simulate._numpy_block(step, start.copy(), increments, h,
                                         np.array((0, 3, n), dtype=np.int64), want_lost,
                                         coefficients)
            assert snap.tobytes() == want.tobytes(), n
            assert lost.tobytes() == want_lost.tobytes(), n
            if dw is not None:  # the fourth and the last path draw an infinite increment
                assert {int(i): int(want_lost[i]) for i in np.flatnonzero(want_lost >= 0)} == {
                    3: 1, len(ids) - 1: 2}


def test_a_loop_build_steps_the_numpy_kernel_seven_times_and_draws_twice(
    monkeypatch, request
):
    simulate._native_loop.cache_clear()
    request.addfinalizer(simulate._native_loop.cache_clear)
    steps, draws = [], []
    kernel_of, draw = simulate.compile_step_kernel, simulate._block_increments

    def counted_kernel(*kernel):
        step = kernel_of(*kernel)

        def counted(*args):
            steps.append(args[2].shape)
            return step(*args)

        return counted

    def counted_draw(seed, n, *args):
        draws.append((seed, n))
        return draw(seed, n, *args)

    monkeypatch.setattr(simulate, "compile_step_kernel", counted_kernel)
    monkeypatch.setattr(simulate, "_block_increments", counted_draw)
    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    assert simulate._native_loop(Kernel(heis, "tamed-euler", flows=True, covariance=True))
    assert steps == [(2, 4 * (C_TILE + 3))] * 7  # one pass over the four blocks
    assert draws == [(0, 7), (2**64 - 1, 6)]


_COMPILED_RUN = """
import hashlib, sys
from hypolab import native
from hypolab.fieldlang import CoefficientSet
from hypolab.flows import RecordSpec, SimConfig, run_ensemble, simulate

native.CACHE, simulate.NATIVE = sys.argv[1], False
compiles = []
native.compile = lambda *args: compiles.append(args[1]) or compile(*args)
coeffs = CoefficientSet.from_text(3, 2, *{heis!r})
cfg = SimConfig(horizon=0.5, n_steps=32, x0=(1.0, 0.5, 0.0), seed=4)
res = run_ensemble(coeffs, cfg, 20, RecordSpec(c_checkpoints=(16, 32)))
arrays = (res.final_states, res.final_jacobians, res.diverged_step, res.c_at[16], res.c_at[32])
print(len(compiles), hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())
"""


def test_a_warm_code_cache_gives_a_new_process_its_kernel_uncompiled(tmp_path, force_route):
    # _heis_bytes on the numpy route, in two fresh processes sharing a cache
    src = str(Path(native.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    script = _COMPILED_RUN.format(heis=_HEIS)
    runs = [subprocess.run([sys.executable, "-c", script, str(tmp_path / "cache")], env=env,
                           capture_output=True, text=True, check=True) for _ in range(2)]
    force_route("numpy")
    digest = hashlib.sha256(b"".join(_heis_bytes())).hexdigest()
    assert [run.stdout.split() for run in runs] == [["1", digest], ["0", digest]]
    assert [run.stderr for run in runs] == ["", ""]
    assert len(list((tmp_path / "cache").glob("*.code"))) == 1


_SOURCE = "def step(x):\n    return x + 1\n"


def _defined(code):
    namespace = {}
    exec(code, namespace)
    return namespace["step"]


@pytest.mark.parametrize("damage", ["truncated", "digest"])
def test_a_damaged_code_file_is_compiled_again_quietly(damage, tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(native, "CACHE", str(tmp_path))
    native.compiled(_SOURCE, "<step #1>")
    (path,) = tmp_path.glob("*.code")
    blob = path.read_bytes()
    if damage == "truncated":
        path.write_bytes(blob[: len(blob) // 2])
    else:  # a bit of the code flipped under its digest
        path.write_bytes(blob[:40] + bytes([blob[40] ^ 1]) + blob[41:])
    compiles = _counted_compiles(monkeypatch)
    assert _defined(native.compiled(_SOURCE, "<step #2>"))(1) == 2
    assert compiles == ["<step #2>"]
    step = _defined(native.compiled(_SOURCE, "<step #3>"))  # replaced: read as it was written
    assert compiles == ["<step #2>"] and step(1) == 2
    assert step.__code__.co_filename == "<step #3>"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert capfd.readouterr() == ("", "")


def test_a_foreign_code_cache_is_never_read(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setattr(native, "CACHE", str(cache))
    native.compiled(_SOURCE, "<step #1>")
    (path,) = cache.glob("*.code")
    # another function under the source's name, with its digest: an own cache serves it
    other = marshal.dumps(compile("def step(x):\n    return 'foreign'\n", "<other>", "exec"))
    path.write_bytes(hashlib.sha256(other).digest() + other)
    assert _defined(native.compiled(_SOURCE, "<step #2>"))(1) == "foreign"
    cache.chmod(0o777)  # anyone may write into it
    listing = [(p.name, p.read_bytes()) for p in cache.iterdir()]
    compiles = _counted_compiles(monkeypatch)
    assert _defined(native.compiled(_SOURCE, "<step #3>"))(1) == 2
    assert compiles == ["<step #3>"]
    assert [(p.name, p.read_bytes()) for p in cache.iterdir()] == listing


def test_loaded_code_takes_this_process_file_name_throughout(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE", str(tmp_path))
    source = "def outer():\n    def inner():\n        return 1 / 0\n    return inner\n"
    native.compiled(source, "<first #1>")
    compiles = _counted_compiles(monkeypatch)
    code = native.compiled(source, "<second #2>")
    assert not compiles
    outer = code.co_consts[0]
    assert outer.co_filename == outer.co_consts[1].co_filename == "<second #2>"


def test_fresh_loops_redirect_the_code_cache(fresh_loops, force_route):
    force_route("numpy")
    _heis_bytes()
    assert len(list(fresh_loops.glob("*.code"))) == 1


def test_a_compile_keeps_the_most_recently_loaded_code(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE", str(tmp_path))
    monkeypatch.setattr(native, "KEEP", 2)
    for name in ("a.so", "a.so.sha256", "b.so", "b.so.sha256"):  # loaded before any code
        (tmp_path / name).write_bytes(b"")
        os.utime(tmp_path / name, ns=(0, 0))
    libraries = sorted(tmp_path.glob("*.so*"))
    compiles = _counted_compiles(monkeypatch)
    for i in (0, 1, 0, 2, 0, 1):  # code 1 goes at the write of code 2
        native.compiled(f"x = {i}\n", f"<x{i}>")
    assert compiles == ["<x0>", "<x1>", "<x2>", "<x1>"]
    assert len(list(tmp_path.glob("*.code"))) == 2
    assert sorted(tmp_path.glob("*.so*")) == libraries  # KEEP of each kind


def test_a_build_reads_no_python_headers(fresh_loops, monkeypatch, force_route):
    # numpy's bitgen.h and libnpyrandom.a are all a library needs
    def no_paths(*args, **kwargs):
        raise AssertionError("a build asked for Python's include directory")

    force_route("numpy")
    want = _heis_bytes()
    monkeypatch.setattr(sysconfig, "get_paths", no_paths)
    ran = force_route("native")
    assert _heis_bytes() == want
    assert ran == {"native"} and len(list(fresh_loops.glob("*.so"))) == 1
    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    source = step_kernel_c(Kernel(heis, "tamed-euler", flows=True, covariance=True))
    assert "#include <numpy/random/bitgen.h>" in source
    assert "Python.h" not in source and "distributions.h" not in source


def test_library_path_keys_on_the_numpy_version_and_flags(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE", str(tmp_path))
    source = "void run(void) {}\n"
    include, link = native._numpy_random_flags()
    path = native._locate(source)[1]
    assert native._locate(source)[1] == path
    others = set()
    for attr, owner, value in [
        ("__version__", np, "0.0.0"),
        ("_numpy_random_flags", native, lambda: (include, link + ("-lmvec",))),
        ("_numpy_random_flags", native, lambda: (include + ("-I/usr/include",), link)),
        ("FLAGS", native, native.FLAGS + ("-g",)),
    ]:
        with monkeypatch.context() as patch:
            patch.setattr(owner, attr, value)
            others.add(native._locate(source)[1])
    assert len(others) == 4 and path not in others


_RUN = {"run": (ctypes.c_int, ())}


def _cached(cache):
    return sorted(path.name for path in cache.iterdir())


def test_a_build_keeps_the_most_recently_loaded_libraries(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE", str(tmp_path))
    monkeypatch.setattr(native, "KEEP", 2)
    sources = [f"int run(void) {{ return {i}; }}\n" for i in range(4)]
    paths = [Path(native._locate(source)[1]).name for source in sources]

    def run(i):
        (fn,) = native.load(sources[i], _RUN)
        return fn()

    assert [run(0), run(1), run(0)] == [0, 1, 0]  # the last load touches library 0
    assert run(2) == 2  # a build: library 1 is the least recently loaded
    assert _cached(tmp_path) == sorted([paths[0], f"{paths[0]}.sha256", paths[2],
                                        f"{paths[2]}.sha256"])
    assert run(3) == 3 and run(0) == 0  # library 0 goes, and is built again
    assert _cached(tmp_path) == sorted([paths[0], f"{paths[0]}.sha256", paths[3],
                                        f"{paths[3]}.sha256"])


def test_a_build_never_removes_a_library_being_loaded(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE", str(tmp_path))
    monkeypatch.setattr(native, "KEEP", 1)
    first, other, third = (f"int run(void) {{ return {i}; }}\n" for i in (1, 2, 3))
    assert native.load(first, _RUN)[0]() == 1
    mapped = []
    cdll = ctypes.CDLL

    def build_meanwhile(path):  # another library built while the first is mapped
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert native.load(other, _RUN)[0]() == 2
        mapped.append(len(list(tmp_path.glob("*.so"))))
        return cdll(path)

    monkeypatch.setattr(ctypes, "CDLL", build_meanwhile)
    assert native.load(first, _RUN)[0]() == 1
    assert mapped == [2]  # KEEP = 1, but the first library was locked
    assert native.load(third, _RUN)[0]() == 3
    assert _cached(tmp_path) == sorted(Path(native._locate(third)[1] + ext).name
                                       for ext in ("", ".sha256"))


def _sampler_setup(coeffs):
    """The ``setup(seed, id, count, want)`` of the Euler loop's library of ``coeffs``."""
    u64 = ctypes.c_uint64
    (setup,) = native.load(step_kernel_c(Kernel(coeffs, "euler")),
                           {"setup": (ctypes.c_int, (u64, u64, ctypes.c_int64, ctypes.c_void_p))})
    return setup


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_native_sampler_keeps_the_numpy_bytes_on_long_streams(seed, force_route):
    # 256 streams of 4096 steps near id 2^64: 2^20 normals reach all 256
    # ziggurat layers, about 15700 draws through numpy's slow path and about
    # 270 through its idx-0 branch.  Under Euler, b = -x / h makes X_{k+1}
    # the increment dW_k itself, so every increment's bits are compared.
    n, B = 4096, 256
    coeffs = CoefficientSet.from_text(1, 1, f"-{n}*x1", ["1"])
    cfg = SimConfig(horizon=1.0, n_steps=n, x0=(1.0,), scheme="euler", seed=seed)
    ids = np.arange(2**64 - B, 2**64, dtype=np.uint64)
    paths = {}
    for route in ("numpy", "native"):
        ran = force_route(route)
        paths[route] = _simulate_block(coeffs, cfg, RecordSpec(flows=False, store_paths=True),
                                       ids)["states"]
        assert ran == simulate.INCREMENT_ROUTES == {route}
    assert paths["native"].tobytes() == paths["numpy"].tobytes()
    increments = _block_increments(seed, n, cfg.h, 1, ids)
    assert paths["native"][:, 1:, 0].tobytes() == increments[:, 0].T.tobytes()
    # the normals themselves, before the scale and the running sum
    want = standard_normal_stream(seed, 2**64 - 1, 0, 2**20)
    assert _sampler_setup(coeffs)(seed, 2**64 - 1, len(want), want.ctypes.data) == 1


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_native_sampler_check_must_reach_the_slow_path_and_the_tail(seed):
    # the first 16 normals of these streams leave the fast path nowhere, so
    # a check of them covers neither numpy's slow path nor the draws past
    # the bulk words, and is refused though every normal agrees; 2^20 of
    # them pass (test_native_sampler_keeps_the_numpy_bytes_on_long_streams)
    setup = _sampler_setup(CoefficientSet.from_text(1, 1, "-x1", ["1"]))
    standard_normal_stream(seed, 2**64 - 1, 0, 16)
    state = brownian._BITGEN.state  # 16 words drawn: counter block 4, used up
    assert (state["state"]["counter"][0], state["buffer_pos"]) == (4, 4)
    for count, passes in ((16, 0), (0, 0), (2**12, 1)):
        want = standard_normal_stream(seed, 2**64 - 1, 0, count)
        assert setup(seed, 2**64 - 1, count, want.ctypes.data) == passes, count


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("drawn", [False, True], ids=["given", "drawn"])
@pytest.mark.parametrize("B", [1, 7, C_TILE, C_TILE + 1, 2 * C_TILE + 9])
def test_native_lanes_give_the_numpy_bytes(B, drawn, scheme):
    # every lane of a tile is stepped, lost or idle, and only the live ones
    # are committed: lanes 0, 3 and 7 are lost beside live lanes, in a full
    # tile, a partial one, or both, and with 2 C_TILE + 9 paths lane 5 of
    # every later tile too, so each tile commits around a lost lane
    coeffs = CoefficientSet.from_text(3, 2, *_HEIS)
    kernel = Kernel(coeffs, scheme, flows=True, covariance=True, identity=True, square_norm=True)
    loop = simulate._native_loop(kernel)
    assert loop is not None
    n, h, seed = 16, 2.0**-4, 5
    rng = np.random.default_rng(B)
    start = simulate._initial_state(kernel, rng.uniform(-1.5, 1.5, (3, B)))
    ids = np.arange(B, dtype=np.uint64)
    lost = [lane for lane in (0, 3, 7, C_TILE + 5, 2 * C_TILE + 5) if lane < B]
    if drawn:  # lost at the first step: a NaN in X, an infinite J, an X whose cube overflows
        dw = None
        for lane, (row, value) in zip(lost, itertools.cycle([(0, np.nan), (3, np.inf),
                                                             (1, 1e200)])):
            start[row, lane] = value
        increments = _block_increments(seed, n, h, 2, ids)
    else:  # lost at steps 1, 2, 4, ... by an infinite increment
        dw = increments = rng.standard_normal((n, 2, B)) * np.sqrt(h)
        for lane, k in zip(lost, (1, 2, 4, 6, 9)):
            dw[k, :, lane] = np.inf
    stops = np.array([0, 3, 5, n], dtype=np.int64)
    got_lost, want_lost = (np.full(B, -1, dtype=np.int64) for _ in range(2))
    with np.errstate(all="ignore"):
        got = loop(start.copy(), stops, h, got_lost, np.zeros((0, 3)), dw, seed, ids)
        want = simulate._numpy_block(compile_step_kernel(kernel), start.copy(), increments, h,
                                     stops, want_lost, np.zeros((0, 3)))
    assert sorted(np.flatnonzero(want_lost >= 0)) == lost
    assert got_lost.tobytes() == want_lost.tobytes()
    assert got.tobytes() == want.tobytes()


def test_the_generic_build_gives_the_dispatched_bytes(fresh_loops, monkeypatch, force_route):
    # the loop built without its AVX-512F clone, then without any clone,
    # from the same source: each runs the clone it names, with the same bytes
    ran = force_route("native")
    dispatched = _heis_bytes()
    (level,) = simulate.NATIVE_ISAS
    assert level in {"avx512f", "avx2", "default"}
    no_avx512f = [('target_clones("avx512f", "avx2", "default")', 'target_clones("avx2", "default")'),
                  ('__builtin_cpu_supports("avx512f")', "0")]
    builds = [(no_avx512f, "default" if level == "default" else "avx2"),
              ([("#define LANES_CLONED 1", "")], "default")]
    for edits, runs in builds:
        def rebuilt(*kernel, edits=edits):
            source = step_kernel_c.__wrapped__(*kernel)
            for old, new in edits:
                assert source.count(old) == 1
                source = source.replace(old, new)
            return source

        monkeypatch.setattr(simulate, "step_kernel_c", rebuilt)
        simulate._native_loop.cache_clear()
        simulate.NATIVE_ISAS.clear()
        assert _heis_bytes() == dispatched
        assert ran == {"native"} and simulate.NATIVE_ISAS == {runs}
    assert len(list(fresh_loops.glob("*.so"))) == 3


def _route_records(name, scheme, seed, n):
    d, m, drift, sigma, x0, horizon, *_ = _ORACLE_MODELS[name]
    coeffs = CoefficientSet.from_text(d, m, drift, sigma)
    cfg = SimConfig(horizon=horizon, n_steps=n, x0=x0, scheme=scheme, seed=seed)
    record = RecordSpec(store_paths=True, c_checkpoints=(0, n // 2, n),
                        track_flow_identity=True, track_square_norm=True)
    res = run_ensemble(coeffs, cfg, 2 * C_TILE + 5, record)  # two tiles and part of one
    arrays = {field: getattr(res, field) for field in (
        "final_states", "final_jacobians", "diverged_step", "flow_identity_sup",
        "square_norm_sup", "states", "jacobians", "inverses", "covariances")}
    for k in res.c_at:
        arrays[f"C at {k}"], arrays[f"J at {k}"] = res.c_at[k], res.j_at[k]
    return {field: a.tobytes() for field, a in arrays.items()}, res.alive


@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", sorted(set(_ORACLE_MODELS) - {"dense-4x2"}))  # the rational ones
def test_native_draws_give_the_numpy_route_bytes(name, scheme, seed, n, force_route):
    force_route("numpy")
    want, alive = _route_records(name, scheme, seed, n)
    assert simulate.INCREMENT_ROUTES == {"numpy"}
    ran = force_route("native")
    got, _ = _route_records(name, scheme, seed, n)
    assert (ran, simulate.INCREMENT_ROUTES) == ({"native"}, {"native"})
    for key in want:
        assert got[key] == want[key], key
    if (name, scheme, n) == ("state-overflow", "euler", 64):
        assert 0 < alive.sum() < len(alive)  # the masked step is covered: 2 of 21 lost


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("name,n", [("ou", 1025), ("heis", 513), ("three-noises", 341),
                                    ("ou", 1), ("heis", 1), ("three-noises", 1)])
def test_native_draws_keep_the_bytes_when_n_m_is_not_a_multiple_of_4(name, n, seed):
    # a stream's bulk words fill whole Philox blocks of 4: 4 ceil(n m / 4)
    # words, up to 3 more than its n m normals, which must not reach the
    # tile's increments.  SimConfig takes only powers of two, so the loop
    # is called as the engine calls it, on two tiles and part of a third.
    d, m, drift, sigma, x0, horizon, *_ = _ORACLE_MODELS[name]
    assert (n * m) % 4
    kernel = Kernel(CoefficientSet.from_text(d, m, drift, sigma), "tamed-euler", flows=True,
                    covariance=True)
    loop = simulate._native_loop(kernel)
    assert loop is not None
    B, h = 2 * C_TILE + 5, horizon / n
    start = simulate._initial_state(kernel, np.tile(np.array(x0)[:, None], B))
    ids = np.arange(2**64 - B, 2**64, dtype=np.uint64)
    increments = _block_increments(seed, n, h, m, ids)
    stops = np.array(sorted({0, n // 2, n}), dtype=np.int64)
    got_lost, want_lost = (np.full(B, -1, dtype=np.int64) for _ in range(2))
    got = loop(start.copy(), stops, h, got_lost, np.zeros((0, d)), None, seed, ids)
    want = simulate._numpy_block(compile_step_kernel(kernel), start.copy(), increments, h,
                                 stops, want_lost, np.zeros((0, d)))
    assert got_lost.tobytes() == want_lost.tobytes()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,scheme", [("state-overflow", "euler"),
                                         ("heis", "split-step-backward-euler")])
def test_the_tile_width_changes_no_byte(name, scheme, monkeypatch, force_route):
    # each lane's float operations are the same at any width: loops rendered
    # with tiles of 8 and of C_TILE both give the numpy route's bytes, on
    # two tiles and part of a third, with lost paths or with the solve
    force_route("numpy")
    want, _ = _route_records(name, scheme, 1, 64)
    ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
    try:
        for width in (8, C_TILE):
            monkeypatch.setattr(fields, "C_TILE", width)
            step_kernel_c.cache_clear()
            simulate._native_loop.cache_clear()
            assert f"int64_t frozen[{width}];" in step_kernel_c(Kernel(ou, "euler"))
            ran = force_route("native")
            got, _ = _route_records(name, scheme, 1, 64)
            assert ran == {"native"}
            assert got == want, width
    finally:  # no source or loop of the patched width outlives the test
        step_kernel_c.cache_clear()
        simulate._native_loop.cache_clear()


_WIDER_TILE = """
from hypolab.fieldlang import CoefficientSet, fields
from hypolab.flows import simulate
from hypolab.flows.simulate import RecordSpec, SimConfig, run_ensemble

fields.C_TILE = 64  # wider than the width the engine saw at import
ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
cfg = SimConfig(horizon=0.5, n_steps=64, x0=(1.0,), seed=3)
runs = []
for native in (True, False):
    simulate.NATIVE = native
    simulate.STEP_ROUTES.clear()
    res = run_ensemble(ou, cfg, 200, RecordSpec(store_paths=True))
    runs.append((res.states.tobytes(), res.diverged_step.tobytes(), set(simulate.STEP_ROUTES)))
(got, got_lost, native), (want, want_lost, numpy) = runs
print(native, numpy, got == want and got_lost == want_lost)
"""


def test_the_loop_sizes_its_scratch_from_its_own_tile_width():
    # a loop rendered after C_TILE was raised to 64 reads its width from the
    # library: a 200-path OU block once overran its increments buffer and
    # aborted ("double free or corruption"); now it gives the numpy bytes
    src = str(Path(simulate.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", _WIDER_TILE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["{'native'}", "{'numpy'}", "True"]


def test_a_tile_past_the_stack_budget_takes_the_numpy_route(force_route):
    # under Euler with J, K and C a tile's st and o hold 2 C_TILE doubles per
    # row, and a block has d + 2 d^2 + d (d + 1) / 2 rows: at C_TILE = 32 the
    # budget admits d = 14 (511 rows) and refuses d = 15 (585 rows), before
    # any build; the split-step solve's lane arrays take d = 14 past it
    def rows(d):
        return d + 2 * d * d + d * (d + 1) // 2

    def model(d):
        return CoefficientSet.from_text(d, 1, ", ".join(f"-x{i}" for i in range(1, d + 1)),
                                        [", ".join(["1"] + ["0"] * (d - 1))])

    largest = max(d for d in range(1, 64) if 16 * C_TILE * rows(d) <= fields._C_STACK)
    assert step_kernel_c(Kernel(model(largest), "euler", flows=True, covariance=True)) is not None
    assert step_kernel_c(Kernel(model(largest + 1), "euler", flows=True, covariance=True)) is None
    assert step_kernel_c(Kernel(model(largest), "split-step-backward-euler", flows=True, covariance=True)) is None
    ran = force_route("native")
    cfg = SimConfig(horizon=0.5, n_steps=2, x0=(0.5,) * (largest + 1), scheme="euler")
    res = run_ensemble(model(largest + 1), cfg, 3, RecordSpec(c_checkpoints=(2,)))
    assert ran == {"numpy"} and res.alive.all()


def test_native_block_leaves_the_python_streams_alone(ou, force_route):
    cfg = SimConfig(horizon=0.5, n_steps=32, x0=(1.0,), seed=2**64 - 1)

    def draws():
        return (sample_brownian(cfg, 2, stream_id=5).path.tobytes(),
                standard_normal_stream(7, 2**64 - 1, 1, (4, 3)).tobytes())

    before = draws()
    ran = force_route("native")
    run_ensemble(ou, cfg, 20, RecordSpec())
    assert ran == {"native"}
    assert draws() == before


def test_native_block_holds_no_increment_block(ou, force_route):
    # an ou-simulate block: 8192 paths of 1024 steps, whose (n, m, B) increment
    # block alone is 64 MiB on the numpy route
    n, n_paths = 1024, 8192
    cfg = SimConfig(horizon=1.0, n_steps=n, x0=(1.0,), seed=42)
    ran = force_route("native")
    run_ensemble(ou, cfg, 8, RecordSpec(flows=True))  # the build, probe and first calls
    tracemalloc.start()
    try:
        run_ensemble(ou, cfg, n_paths, RecordSpec(flows=True), block_size=n_paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ran == {"native"}
    # the state, its snapshot at n, the tile's work buffer and the results
    assert peak < n * n_paths * 8 // 16


def test_c_loop_is_the_numpy_kernel_line_by_line():
    # one emitter: each assignment of the C text is the numpy text's, with the
    # literals in hexadecimal, np.add/np.subtract(a, b) as (a) + (b) and row r
    # of out as lane g of the tile's row r
    def c_text(line):
        if line.startswith("np."):  # no argument holds a comma
            op, args = line[3:].split("(", 1)
            a, b, target = args[:-1].split(", ")
            line = f"{target[4:]} = ({a}) {'-' if op == 'subtract' else '+'} ({b})"
        line = re.sub(r"out\[(\d+)\]", rf"o[\1 * {C_TILE} + g]", line).replace("np.sqrt", "sqrt")
        return re.sub(r"\((-?\d+\.\d+)\)", lambda mt: f"({float(mt[1]).hex()})", line)

    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    for scheme in SCHEMES:
        c_lines = [ln.strip() for ln in step_kernel_c(Kernel(heis, scheme, flows=True, covariance=True)).splitlines()]
        numpy_lines = [c_text(ln) for ln in _kernel_source(heis, scheme)
                       if re.match(r"(np\.|out\[|taming|(e|t[xz]|A|G|S)\d)", ln)]
        assert sum(ln.startswith("o[") for ln in numpy_lines) == 27
        for ln in numpy_lines:
            assert (f"{ln};" if ln.startswith("o[") else f"double {ln};") in c_lines, ln


def test_transcendental_models_have_no_c_loop():
    dense = CoefficientSet.from_text(4, 2, *_DENSE)
    assert step_kernel_c(Kernel(dense, "tamed-euler", flows=True, covariance=True)) is None
    tanh = CoefficientSet.from_text(1, 1, "-x1", ["1 + 0.1*tanh(x1)"])
    assert step_kernel_c(Kernel(tanh, "euler")) is None
    rational = CoefficientSet.from_text(1, 1, "-x1^3 / (1 + x1^2)", ["-x1"])
    assert step_kernel_c(Kernel(rational, "euler")) is not None
