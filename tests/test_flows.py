import gc
import linecache
import traceback
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hypolab.errors import ConfigError, SimulationDiverged
from hypolab.fieldlang import (
    CoefficientSet,
    Const,
    VectorField,
    compile_diffusion,
    compile_expression_stack,
    compile_field,
    compile_jacobian,
    compile_step_kernel,
    jacobian,
)
from hypolab.flows import (
    SCHEMES,
    RecordSpec,
    SimConfig,
    malliavin_checkpoint_ensemble,
    malliavin_derivative,
    malliavin_matrices,
    nearest_index,
    run_ensemble,
    sample_brownian,
    simulate_flow,
    simulate_x,
)
from hypolab.flows.brownian import standard_normal_stream
from hypolab.flows.simulate import _block_increments, _implicit_state

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


@pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0])
def test_config_rejects_a_non_finite_horizon(horizon):
    with pytest.raises(ConfigError, match="positive and finite"):
        SimConfig(horizon=horizon, n_steps=8, x0=(1.0,))


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
    assert np.array_equal(_block_increments(cfg, m, ids), expected)


def test_block_increments_scratch_is_one_chunk():
    n, m, n_paths = 1024, 2, 197
    cfg = SimConfig(horizon=1.0, n_steps=n, x0=(0.0,), seed=43)
    ids = np.arange(n_paths, dtype=np.int64)
    _block_increments(cfg, m, ids[:2])  # first-call allocations
    tracemalloc.start()
    try:
        dw = _block_increments(cfg, m, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = 64 * (n + 1) * m * 8
    # a (B, n + 1, m) path array would add 3.2 MB here, the chunk 1.05 MB;
    # the slack covers numpy's ufunc buffers for the strided subtraction
    assert peak - dw.nbytes <= chunk + 256 * 1024


def test_normal_stream_into_out_matches_fresh_array():
    out = np.empty((17, 2))
    standard_normal_stream(7, 4, 0, out=out)
    assert np.array_equal(out, standard_normal_stream(7, 4, 0, (17, 2)))


def test_bridge_refine_then_coarsen_roundtrip():
    cfg = SimConfig(horizon=1.0, n_steps=32, x0=(0.0,), seed=1)
    g = sample_brownian(cfg, 1, stream_id=3)
    fine = g.refine()
    assert fine.n_steps == 64
    assert np.array_equal(fine.path[0::2], g.path)
    back = fine.coarsen()
    assert np.array_equal(back.path, g.path)
    assert np.array_equal(back.increments, g.increments)
    # refinement is itself deterministic
    assert np.array_equal(g.refine().path, fine.path)


def test_refined_increment_variance():
    cfg = SimConfig(horizon=1.0, n_steps=16, x0=(0.0,), seed=21)
    incs = []
    for sid in range(400):
        incs.append(sample_brownian(cfg, 1, stream_id=sid).refine().increments[:, 0])
    incs = np.concatenate(incs)
    h_fine = cfg.h / 2
    assert np.var(incs) == pytest.approx(h_fine, rel=0.08)


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


def test_single_path_divergence_raises(ginzburg_landau):
    cfg = SimConfig(horizon=1.0, n_steps=64, x0=(16.0,), scheme="euler", seed=17)
    g = sample_brownian(cfg, 1, stream_id=0)
    with pytest.raises(SimulationDiverged) as err:
        simulate_x(ginzburg_landau, cfg, g)
    assert err.value.scheme == "euler"
    assert err.value.step >= 0
    assert np.isfinite(err.value.magnitude)


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
        g = sample_brownian(cfg, 1, stream_id=0)
        traj = simulate_x(ou, cfg, g)
        flow = simulate_flow(ou, cfg, g, traj)
        defects.append(flow.identity_defect().max())
    assert defects[2] < defects[1] < defects[0]
    slope = np.polyfit(np.log([1 / 256, 1 / 1024, 1 / 4096]), np.log(defects), 1)[0]
    assert slope >= 0.4


def test_flow_identity_multiplicative_noise():
    c = CoefficientSet.from_text(1, 1, "-x1", ["0.4*x1"])
    cfg = SimConfig(horizon=1.0, n_steps=4096, x0=(1.0,), seed=43)
    res = run_ensemble(c, cfg, 50, RecordSpec(flows=True, track_flow_identity=True))
    assert res.divergence_fraction == 0.0
    assert res.flow_identity_sup.max() <= 0.05


def compile_diffusion_jacobians(coeffs, component_major=False):
    """X (..., d) -> stacked diffusion-column Jacobians (..., m, d, d), one
    stack, for the references below."""
    exprs = tuple(e for col in coeffs.diffusion for row in jacobian(col) for e in row)
    return compile_expression_stack(exprs, (coeffs.m, coeffs.d, coeffs.d), component_major)


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


def _dense_reference(coeffs, cfg, dw):
    """Diverged steps and [(X, J, K, C)] at every index, component-major,
    for the (B, n, m) increments ``dw``, lost paths frozen."""
    cb, cgb = (f(coeffs.drift, component_major=True) for f in (compile_field, compile_jacobian))
    csig, cgs = (f(coeffs, component_major=True)
                 for f in (compile_diffusion, compile_diffusion_jacobians))
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
    # the two models of test_path_loss_inside_a_block_does_not_change_bits
    "state-overflow": (1, 1, "x1 - x1^3", ["20"], (10.5,), 1.0, 64, 50, 7),
    "flow-overflow": (1, 1, "4000*x1", ["100*x1"], (0.0,), 1.0, 256, 50, 1),
}


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("name", sorted(_ORACLE_MODELS))
def test_engine_matches_the_dense_recurrence_bytes(name, scheme):
    d, m, drift, sigma, x0, horizon, n, n_paths, seed = _ORACLE_MODELS[name]
    coeffs = CoefficientSet.from_text(d, m, drift, sigma)
    cfg = SimConfig(horizon=horizon, n_steps=n, x0=x0, scheme=scheme, seed=seed)
    checkpoints = tuple(range(0, n + 1, 4))
    record = RecordSpec(store_paths=True, c_checkpoints=checkpoints)
    res = run_ensemble(coeffs, cfg, n_paths, record)
    dw = _block_increments(cfg, m, res.stream_ids)
    diverged, path = _dense_reference(coeffs, cfg, dw)
    if scheme == "euler" and name.endswith("overflow"):
        assert not res.alive.all()  # the masked step is covered
    # bytes, so the signs of zeros count too; no model or scheme is exempt
    assert res.diverged_step.tobytes() == diverged.tobytes()
    for k, (x, j, k_inv, c) in enumerate(path):
        assert res.states[:, k].tobytes() == x.T.tobytes(), f"X at {k}"
        assert res.jacobians[:, k].tobytes() == np.moveaxis(j, -1, 0).tobytes(), f"J at {k}"
        assert res.inverses[:, k].tobytes() == np.moveaxis(k_inv, -1, 0).tobytes(), f"K at {k}"
        if k in checkpoints:
            assert res.c_at[k].tobytes() == np.moveaxis(c, -1, 0).tobytes(), f"C at {k}"


def _kernel_source(coeffs, scheme="tamed-euler", flows=True, covariance=True):
    kernel = compile_step_kernel(coeffs, scheme, flows, covariance)
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
    diverged, path = _dense_reference(coeffs, cfg, _block_increments(cfg, 1, res.stream_ids))
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
        assert compile_step_kernel(plus, scheme, True, True) is not compile_step_kernel(
            minus, scheme, True, True
        )
    assert "np.add(x0 + h * (-0.0), (dw0) + 0.0, out=out[0])" in _kernel_source(minus, "euler")
    assert "np.add(x0 + h * (0.0), (dw0) + 0.0, out=out[0])" in _kernel_source(plus, "euler")

    # rows written: X, J and K without C; and C's one row with it
    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    assert compile_step_kernel(heis, "euler", True, False) is not compile_step_kernel(
        heis, "euler", True, True
    )
    written = [
        sum("out=out[" in ln or ln.startswith("out[") for ln in _kernel_source(heis, "euler", *r))
        for r in ((False, False), (True, False), (True, True))
    ]
    assert written == [3, 21, 27]
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
    kernel = compile_step_kernel(heis, "tamed-euler", True, True)
    assert kernel.__code__.co_filename.startswith("<hypolab step d=3 m=2 tamed-euler JK C #")
    assert linecache.getline(kernel.__code__.co_filename, 1) == "def step(s, out, dw, h, z):\n"
    stack = compile_field(heis.drift, component_major=True)
    assert stack.__code__.co_filename.startswith("<fieldlang stack (3,) component-major #")
    with pytest.raises(IndexError) as err:
        stack(np.zeros((1, 4)))  # one row where the drift reads three
    text = "".join(traceback.format_exception(err.value))
    assert "out[1] = ((-X[1]) - (X[1] ** 3))" in text
    # the source is kept only as long as its function
    orphan = compile_expression_stack.__wrapped__((Const(1.0),), (1,))
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
    g = sample_brownian(cfg, 2, stream_id=0)
    traj = simulate_x(elliptic2, cfg, g)
    flow = simulate_flow(elliptic2, cfg, g, traj)
    for idx in (32, 128):
        pair = malliavin_matrices(flow, traj, elliptic2, idx)
        t = cfg.times()[idx]
        assert np.linalg.norm(pair.q_matrix - t * np.eye(2)) <= cfg.h * 2
        pair.validate()
        # construction identity
        jt = flow.jacobians[idx]
        assert np.allclose(pair.q_matrix, jt @ pair.c_matrix @ jt.T, rtol=1e-12, atol=1e-15)


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


def test_block_size_does_not_change_bits(ou):
    cfg = SimConfig(horizon=1.0, n_steps=128, x0=(1.0,), seed=83)
    r_small = run_ensemble(ou, cfg, 1000, RecordSpec(flows=True), block_size=100)
    r_big = run_ensemble(ou, cfg, 1000, RecordSpec(flows=True), block_size=1000)
    assert np.array_equal(r_small.final_states, r_big.final_states)
    assert np.array_equal(r_small.final_jacobians, r_big.final_jacobians)


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
    # each helper is a batch of one of the engine; h = 0.3/64 is no power of
    # two, so a quadrature that only differs by where it multiplies by h
    # would show here too
    heis = CoefficientSet.from_text(3, 2, *_HEIS)
    cfg = SimConfig(horizon=0.3, n_steps=64, x0=(1.0, 0.5, 0.0), scheme=scheme, seed=3)
    indices = (0, 1, 32, 64)
    res = run_ensemble(heis, cfg, 4, RecordSpec(store_paths=True))
    _, mats = malliavin_checkpoint_ensemble(heis, cfg, 4, indices)
    for sid in range(4):
        g = sample_brownian(cfg, 2, stream_id=sid)
        traj = simulate_x(heis, cfg, g)
        flow = simulate_flow(heis, cfg, g, traj)
        assert traj.states.tobytes() == res.states[sid].tobytes()
        assert flow.jacobians.tobytes() == res.jacobians[sid].tobytes()
        assert flow.inverses.tobytes() == res.inverses[sid].tobytes()
        for k in indices:
            pair = malliavin_matrices(flow, traj, heis, k)
            c, q = mats[k]
            assert pair.c_matrix.tobytes() == c[sid].tobytes(), f"C at {k}"
            assert pair.q_matrix.tobytes() == q[sid].tobytes(), f"Q at {k}"


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
