import numpy as np
import pytest
from scipy.integrate import quad

from hypolab.brackets import EMPTY_INDEX, BracketTable, MultiIndex, enumerate_indices
from hypolab.errors import ConfigError
from hypolab.fieldlang import CoefficientSet, VectorField, compile_field
from hypolab.flows import (
    RecordSpec,
    RemainderEnergy,
    SimConfig,
    chaos_remainder,
    chaos_remainder_path,
    expansion_coefficients,
    iterated_integral,
    pullback_process,
    run_ensemble,
    sample_brownian,
    simulate_flow,
    simulate_x,
)
from hypolab.flows import integrals
from hypolab.flows.integrals import _iterate


@pytest.fixture
def grid():
    cfg = SimConfig(horizon=1.0, n_steps=1024, x0=(0.0,), seed=7)
    return sample_brownian(cfg, 2, stream_id=1)


# ---------------------------------------------------------------------------
# iterated integrals


def test_time_integral_is_grid_time(grid):
    path = iterated_integral(MultiIndex((0,)), grid)
    assert np.array_equal(path, grid.times)


def test_repeated_noise_integral_telescopes(grid):
    for i in (1, 2):
        path = iterated_integral(MultiIndex((i, i)), grid)
        w = grid.path[:, i - 1]
        assert np.max(np.abs(path - w**2 / 2)) <= 1e-12


def test_mixed_time_noise_product_rule(grid):
    a = iterated_integral(MultiIndex((0, 1)), grid)
    b = iterated_integral(MultiIndex((1, 0)), grid)
    target = grid.times * grid.path[:, 0]
    assert np.max(np.abs(a + b - target)) <= 1e-10


def test_empty_index_returns_process(grid):
    z = np.sin(grid.times)
    assert np.array_equal(iterated_integral(EMPTY_INDEX, grid, z), z)


def test_single_noise_integral_is_path(grid):
    path = iterated_integral(MultiIndex((2,)), grid)
    assert np.max(np.abs(path - grid.path[:, 1])) <= 1e-12


def test_direction_out_of_range(grid):
    with pytest.raises(ConfigError):
        iterated_integral(MultiIndex((3,)), grid)


def test_double_time_integral_quadratic(grid):
    path = iterated_integral(MultiIndex((0, 0)), grid)
    assert np.max(np.abs(path - grid.times**2 / 2)) <= 1e-9


# ---------------------------------------------------------------------------
# pullback processes and the expansion remainder


def _ou_setup(n_steps=4096, seed=11):
    ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
    cfg = SimConfig(horizon=0.5, n_steps=n_steps, x0=(1.0,), seed=seed)
    g = sample_brownian(cfg, 1, stream_id=0)
    traj = simulate_x(ou, cfg, g)
    flow = simulate_flow(ou, cfg, g, traj)
    table = BracketTable(ou)
    return ou, cfg, g, traj, flow, table


def test_pullback_of_unit_field_is_inverse_flow():
    ou, cfg, g, traj, flow, table = _ou_setup(n_steps=1024)
    z = pullback_process(ou.diffusion[0], flow, traj)
    assert np.allclose(z[:, 0], flow.inverses[:, 0, 0])
    # for the OU flow this is e^t up to scheme error
    assert np.max(np.abs(z[:, 0] - np.exp(cfg.times()))) <= 5 * cfg.h * np.exp(0.5)


def test_bracket_pullback_time_bracket():
    ou, cfg, g, traj, flow, table = _ou_setup(n_steps=1024)
    z = pullback_process(table.bracket(ou.diffusion[0], MultiIndex((0,))), flow, traj)
    # T_(0)(sigma) = 1, so the pullback is again K(t)
    assert np.allclose(z[:, 0], flow.inverses[:, 0, 0])


def test_constant_coefficients_pullback_constant():
    c = CoefficientSet.from_text(2, 1, "1, 2", ["3, 4"])
    cfg = SimConfig(horizon=1.0, n_steps=256, x0=(0.0, 0.0), seed=3)
    g = sample_brownian(cfg, 1, stream_id=0)
    traj = simulate_x(c, cfg, g)
    flow = simulate_flow(c, cfg, g, traj)
    table = BracketTable(c)
    z = pullback_process(c.diffusion[0], flow, traj)
    assert np.allclose(z, np.array([3.0, 4.0])[None, :])
    for alpha in enumerate_indices(2, 1):
        if alpha.is_empty:
            continue
        zb = pullback_process(table.bracket(c.diffusion[0], alpha), flow, traj)
        assert np.allclose(zb, 0.0)


def test_expansion_coefficients_ou():
    ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
    table = BracketTable(ou)
    coeffs = dict(
        (alpha.entries, val[0])
        for alpha, val in expansion_coefficients(3, ou.diffusion[0], table, np.array([1.0]))
    )
    assert coeffs[()] == 1.0
    assert coeffs[(0,)] == 1.0
    assert coeffs[(1,)] == 0.0
    assert coeffs[(1, 1)] == 0.0


def test_ou_remainder_matches_closed_form():
    ou, cfg, g, traj, flow, table = _ou_setup()
    target = ou.diffusion[0]
    path = chaos_remainder_path(3, target, flow, traj, table, g)
    times = cfg.times()
    closed = np.exp(times) - 1.0 - times
    assert np.max(np.abs(path[:, 0] - closed)) <= 10 * cfg.h
    for t in (0.05, 0.1, 0.2):
        idx = int(round(t / cfg.h))
        got = chaos_remainder(3, target, idx, flow, traj, table, g)[0]
        want = np.exp(times[idx]) - 1.0 - times[idx]
        assert abs(got - want) <= 10 * cfg.h


def test_trivial_remainder_at_time_zero():
    ou, cfg, g, traj, flow, table = _ou_setup(n_steps=256)
    r0 = chaos_remainder(1, ou.diffusion[0], 0, flow, traj, table, g)
    assert np.allclose(r0, 0.0)


def test_chaos_remainder_checks_the_index_before_the_path(monkeypatch):
    ou, cfg, g, traj, flow, table = _ou_setup(n_steps=8)

    def build(*args):
        raise AssertionError("the remainder path was built")

    monkeypatch.setattr(integrals, "chaos_remainder_path", build)
    for idx in (-1, 9):
        with pytest.raises(ConfigError, match="t_index"):
            chaos_remainder(1, ou.diffusion[0], idx, flow, traj, table, g)


def test_constant_coefficients_remainder_identically_zero():
    c = CoefficientSet.from_text(2, 2, "1, -1", ["2, 0", "0, 0.5"])
    cfg = SimConfig(horizon=1.0, n_steps=128, x0=(0.3, 0.7), seed=5)
    g = sample_brownian(cfg, 2, stream_id=0)
    traj = simulate_x(c, cfg, g)
    flow = simulate_flow(c, cfg, g, traj)
    table = BracketTable(c)
    for L in (2, 3):
        path = chaos_remainder_path(L, c.diffusion[0], flow, traj, table, g)
        assert np.array_equal(path, np.zeros_like(path))


def test_remainder_rms_slope_in_time():
    ou, cfg, g, traj, flow, table = _ou_setup()
    times = cfg.times()
    t_grid = [2.0**-i for i in range(3, 8)]
    for L in (2, 3):
        path = chaos_remainder_path(L, ou.diffusion[0], flow, traj, table, g)
        vals = []
        for t in t_grid:
            idx = int(round(t / cfg.h))
            vals.append(np.abs(path[idx, 0]))
        slope = np.polyfit(np.log(t_grid), np.log(vals), 1)[0]
        assert slope >= 0.9 * L / 2


def test_two_route_remainder_identity():
    # route A: pullback minus truncation; route B: boundary processes plus
    # the overweight low-length terms
    ou, cfg, g, traj, flow, table = _ou_setup(n_steps=2048)
    target = ou.diffusion[0]
    L = 2
    route_a = chaos_remainder_path(L, target, flow, traj, table, g)
    import itertools

    route_b = np.zeros_like(route_a)
    for entries in itertools.product(range(table.m + 1), repeat=L):
        alpha = MultiIndex(entries)
        z = pullback_process(table.bracket(target, alpha), flow, traj)
        route_b += iterated_integral(alpha, g, z)
    for alpha in (MultiIndex((0,)),):  # length <= L-1 but weight >= L
        coeff = table.bracket(target, alpha).evaluate(traj.states[0])
        route_b += iterated_integral(alpha, g)[:, None] * coeff[None, :]
    assert np.max(np.abs(route_a - route_b)) <= 10 * cfg.h


def _increments(cfg, m, stream_ids):
    """The engine's increments of the given streams, drawn again."""
    return np.stack([sample_brownian(cfg, m, int(sid)).increments for sid in stream_ids])


# The stored-path route, kept as the oracle of the streamed remainder: the
# iterated integrals of whole stored paths at once, by cumulative sums.


def chaos_remainder_ensemble(
    L: int,
    target: VectorField,
    table: BracketTable,
    h: float,
    states: np.ndarray,
    inverses: np.ndarray,
    increments: np.ndarray,
) -> np.ndarray:
    """Remainder paths for a whole ensemble, shape (paths, n+1, d).

    ``states`` is (paths, n+1, d), ``inverses`` (paths, n+1, d, d), and
    ``increments`` (paths, n, m) as stored by the ensemble engine.
    """
    m = table.m
    vals = compile_field(target)(states)
    # the streamed route's broadcast sum over j, for the same bits
    pullback = (inverses * vals[..., None, :]).sum(axis=-1)
    truncation = np.zeros_like(pullback)
    x0 = states[0, 0]
    for alpha, coeff in expansion_coefficients(L, target, table, x0):
        if not np.any(coeff):
            continue
        f = _iterate(alpha, np.ones(states.shape[:2]), increments, h, m)
        truncation += f[:, :, None] * coeff[None, None, :]
    return pullback - truncation


def test_ensemble_remainder_matches_single_path():
    ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
    cfg = SimConfig(horizon=0.5, n_steps=512, x0=(1.0,), seed=13)
    table = BracketTable(ou)
    res = run_ensemble(ou, cfg, 3, RecordSpec(flows=True, store_paths=True))
    increments = _increments(cfg, 1, res.stream_ids)
    batch = chaos_remainder_ensemble(
        3, ou.diffusion[0], table, cfg.h, res.states, res.inverses, increments
    )
    for i, sid in enumerate(res.stream_ids):
        g = sample_brownian(cfg, 1, stream_id=int(sid))
        traj = simulate_x(ou, cfg, g)
        flow = simulate_flow(ou, cfg, g, traj)
        single = chaos_remainder_path(3, ou.diffusion[0], flow, traj, table, g)
        assert np.allclose(batch[i], single, atol=1e-12)


def test_remainder_event_indicator_against_quadrature_oracle():
    # deterministic remainder: the tail event indicator is computable by
    # one-dimensional quadrature of (e^s - 1 - s)^2
    ou, cfg, g, traj, flow, table = _ou_setup()
    L, eps = 3, 0.5
    path = chaos_remainder_path(L, ou.diffusion[0], flow, traj, table, g)[:, 0]
    h = cfg.h
    cum = np.zeros_like(path)
    sq = path**2
    cum[1:] = np.cumsum(0.5 * (sq[:-1] + sq[1:]) * h)
    for t in (0.5, 0.25):
        for K in (1.0, 2.0, 4.0):
            idx = int(round(t / K / h))
            lhs = cum[idx] / t**L
            exact, _ = quad(lambda s: (np.exp(s) - 1 - s) ** 2, 0.0, t / K)
            threshold = K ** -(L + 1 - eps)
            margin = abs(exact / t**L - threshold)
            assert abs(lhs - exact / t**L) < 0.5 * margin
            assert (lhs >= threshold) == (exact / t**L >= threshold)


_HEIS = (
    "-x1 - x1^3, -x2 - x2^3, -x3",
    ["1, 0, -0.5*x2", "0, 1, 0.5*x1"],
    (1.0, 0.5, 0.0),
)
_MULTIPLICATIVE_2D = (
    "-x1 + 0.5*x2, -x2 - x2^3",
    ["1 + 0.3*x2, 0.2*x1", "0.1*x1, 1"],
    (0.5, -0.3),
)


_DOUBLE_WELL_LOSSY = ("x1 - x1^3", ["20"], (10.5,))


@pytest.mark.parametrize(
    "model,scheme,horizon,n,seed,n_paths,block,lost",
    [
        (_HEIS, "tamed-euler", 0.5, 128, 5, 40, 17, 0),
        (_HEIS, "split-step-backward-euler", 0.5, 128, 5, 40, 17, 0),
        (_MULTIPLICATIVE_2D, "euler", 0.5, 128, 5, 40, 17, 0),
        (_DOUBLE_WELL_LOSSY, "euler", 1.0, 64, 3, 50, 7, 3),
    ],
)
def test_streamed_remainder_energy_is_bit_identical_to_stored_paths(
    model, scheme, horizon, n, seed, n_paths, block, lost
):
    drift, sigma, x0 = model
    coeffs = CoefficientSet.from_text(len(x0), len(sigma), drift, sigma)
    L = 3
    cfg = SimConfig(horizon=horizon, n_steps=n, x0=x0, scheme=scheme, seed=seed)
    table = BracketTable(coeffs)
    target = coeffs.diffusion[0]
    energy = RemainderEnergy(L, target, table, np.asarray(x0), cfg.h, range(n + 1))
    streamed = run_ensemble(
        coeffs, cfg, n_paths, RecordSpec(flows=True, accumulator=energy), block_size=block
    )
    stored = run_ensemble(
        coeffs, cfg, n_paths, RecordSpec(flows=True, store_paths=True)
    )
    assert np.array_equal(streamed.alive, stored.alive)
    alive = stored.alive
    assert stored.diverged_count == lost
    paths = chaos_remainder_ensemble(
        L,
        target,
        table,
        cfg.h,
        stored.states[alive],
        stored.inverses[alive],
        _increments(cfg, coeffs.m, stored.stream_ids)[alive],
    )
    sq = np.sum(paths * paths, axis=2)
    cum = np.zeros_like(sq)
    cum[:, 1:] = np.cumsum(0.5 * (sq[:, :-1] + sq[:, 1:]) * cfg.h, axis=1)
    assert streamed.accumulated.shape == (n_paths, n + 1)
    assert np.array_equal(streamed.accumulated[alive], cum)


def test_streamed_remainder_energy_keeps_only_read_indices():
    ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
    cfg = SimConfig(horizon=0.5, n_steps=64, x0=(1.0,), seed=2)
    table = BracketTable(ou)
    every = RemainderEnergy(3, ou.diffusion[0], table, np.ones(1), cfg.h, range(65))
    some = RemainderEnergy(3, ou.diffusion[0], table, np.ones(1), cfg.h, (0, 9, 64))
    full = run_ensemble(ou, cfg, 5, RecordSpec(accumulator=every)).accumulated
    part = run_ensemble(ou, cfg, 5, RecordSpec(accumulator=some)).accumulated
    assert np.array_equal(part, full[:, [0, 9, 64]])
    assert np.all(part[:, 0] == 0.0)


@pytest.mark.parametrize("scheme", ["tamed-euler", "split-step-backward-euler", "euler"])
def test_single_path_remainder_is_the_stored_path_oracle(scheme):
    # chaos_remainder_path steps a RemainderEnergy block along one path
    drift, sigma, x0 = _HEIS
    heis = CoefficientSet.from_text(3, 2, drift, sigma)
    cfg = SimConfig(horizon=0.3, n_steps=64, x0=x0, scheme=scheme, seed=3)
    table = BracketTable(heis)
    target = heis.diffusion[1]
    res = run_ensemble(heis, cfg, 4, RecordSpec(store_paths=True))
    dw = _increments(cfg, 2, res.stream_ids)
    oracle = chaos_remainder_ensemble(3, target, table, cfg.h, res.states, res.inverses, dw)
    for sid in range(4):
        g = sample_brownian(cfg, 2, stream_id=sid)
        traj = simulate_x(heis, cfg, g)
        flow = simulate_flow(heis, cfg, g, traj)
        path = chaos_remainder_path(3, target, flow, traj, table, g)
        assert path.tobytes() == oracle[sid].tobytes()
