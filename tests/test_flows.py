from dataclasses import replace

import numpy as np
import pytest

from hypolab.errors import ConfigError, SimulationDiverged
from hypolab.fieldlang import (
    CoefficientSet,
    compile_diffusion,
    compile_diffusion_jacobians,
    compile_jacobian,
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
from hypolab.flows.brownian import stream_increments

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
    res = run_ensemble(ou, cfg, 100_000, RecordSpec(flows=False), workers=2)
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
    record = RecordSpec(
        store_states=True,
        store_inverses=True,
        c_checkpoints=checkpoints,
    )
    res = run_ensemble(coeffs, cfg, n_paths, record)
    assert res.divergence_fraction == 0.0
    increments = np.stack(
        [stream_increments(cfg.seed, int(sid), cfg.n_steps, coeffs.m, cfg.h)
         for sid in res.stream_ids]
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
    _, mats = malliavin_checkpoint_ensemble(ou, cfg, 64, [4096], workers=2)
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


def test_worker_counts_do_not_change_bits(ou):
    cfg = SimConfig(horizon=1.0, n_steps=256, x0=(1.0,), seed=79)
    spec = RecordSpec(flows=True, c_checkpoints=(128, 256), track_sup=True)
    r1 = run_ensemble(ou, cfg, 3000, spec, workers=1, block_size=512)
    r8 = run_ensemble(ou, cfg, 3000, spec, workers=8, block_size=512)
    assert np.array_equal(r1.final_states, r8.final_states)
    assert np.array_equal(r1.sup_abs, r8.sup_abs)
    for k in r1.c_at:
        assert np.array_equal(r1.c_at[k], r8.c_at[k])


def test_block_size_does_not_change_bits(ou):
    cfg = SimConfig(horizon=1.0, n_steps=128, x0=(1.0,), seed=83)
    r_small = run_ensemble(ou, cfg, 1000, RecordSpec(flows=True), block_size=100)
    r_big = run_ensemble(ou, cfg, 1000, RecordSpec(flows=True), block_size=1000)
    assert np.array_equal(r_small.final_states, r_big.final_states)
    assert np.array_equal(r_small.final_jacobians, r_big.final_jacobians)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_ensemble_matches_single_path_states(ginzburg_landau, scheme):
    cfg = SimConfig(horizon=1.0, n_steps=128, x0=(1.0,), scheme=scheme, seed=89)
    record = RecordSpec(store_states=True, store_jacobians=True, store_inverses=True)
    res = run_ensemble(ginzburg_landau, cfg, 4, record)
    assert res.divergence_fraction == 0.0
    for i, sid in enumerate(res.stream_ids):
        g = sample_brownian(cfg, 1, stream_id=int(sid))
        traj = simulate_x(ginzburg_landau, cfg, g)
        flow = simulate_flow(ginzburg_landau, cfg, g, traj)
        assert np.array_equal(res.states[i], traj.states)
        assert np.array_equal(res.jacobians[i], flow.jacobians)
        assert np.array_equal(res.inverses[i], flow.inverses)


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
