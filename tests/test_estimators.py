import json
import tracemalloc

import numpy as np
import pytest

from hypolab.brackets import coefficient_local_bound
from hypolab.errors import ConfigError, DegenerateSamplesError
from hypolab.estimators import (
    EnsembleSpec,
    _fit_tail_envelope,
    density_envelope_check,
    eigenvalue_tails,
    inverse_det_moments,
    inverse_det_scaling,
    kde_density,
    remainder_tails,
    silverman_bandwidth,
    terminal_samples,
    wilson_interval,
)
from hypolab.fieldlang import CoefficientSet
from hypolab.flows import SimConfig
from hypolab.harness.cli import main

# ---------------------------------------------------------------------------
# wilson intervals


def test_wilson_contains_point_estimate():
    for events, trials in ((0, 50), (3, 50), (25, 50), (50, 50)):
        lo, hi = wilson_interval(events, trials)
        assert lo <= events / trials <= hi
        assert 0.0 <= lo <= hi <= 1.0


def test_wilson_coverage_on_synthetic_bernoulli():
    rng = np.random.default_rng(20240915)
    p_true, trials, reps = 0.3, 200, 10_000
    hits = 0
    draws = rng.binomial(trials, p_true, size=reps)
    for k in draws:
        lo, hi = wilson_interval(int(k), trials)
        hits += lo <= p_true <= hi
    coverage = hits / reps
    assert 0.93 <= coverage <= 0.97


def test_wilson_validates_inputs():
    with pytest.raises(ConfigError):
        wilson_interval(5, 0)
    with pytest.raises(ConfigError):
        wilson_interval(7, 5)


# ---------------------------------------------------------------------------
# eigenvalue tails


def _spec(coeffs, x0, n_paths, seed, n_steps=512, horizon=0.5):
    cfg = SimConfig(horizon=horizon, n_steps=n_steps, x0=x0, seed=seed)
    return EnsembleSpec(coeffs, cfg, n_paths)


def test_elliptic_additive_tail_curve_closed_form():
    # lambda(s) = s exactly up to quadrature, so the event holds only at K=1
    ell = CoefficientSet.from_text(1, 1, "0", ["1"])
    curve = eigenvalue_tails(
        1, [1, 2, 4, 8, 16], 0.5, "C", _spec(ell, (0.0,), 200, 1), fit_envelope=False
    )
    assert np.array_equal(curve.p_hat, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert curve.trials == 200
    assert curve.non_increasing_within_half_width()


def test_degenerate_sigma_tail_is_one():
    deg = CoefficientSet.from_text(1, 1, "-x1", ["0"])
    curve = eigenvalue_tails(
        2, [1, 2, 4], 0.5, "C", _spec(deg, (1.0,), 100, 2), fit_envelope=False
    )
    assert np.array_equal(curve.p_hat, [1.0, 1.0, 1.0])


def test_tail_curves_monotone_on_ou_and_double_well():
    ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
    gl = CoefficientSet.from_text(1, 1, "x1 - x1^3", ["0.5"])
    for coeffs, x0 in ((ou, (1.0,)), (gl, (1.0,))):
        for L in (1, 2):
            curve = eigenvalue_tails(
                L,
                [1, 2, 4, 8, 16],
                0.5,
                "Q",
                _spec(coeffs, x0, 1500, 3),
                fit_envelope=False,
            )
            assert curve.non_increasing_within_half_width()
            assert curve.trials == 1500


def test_double_well_c_matrix_hump_is_reported_faithfully():
    # The L=1 eigenvalue event for the C matrix is NOT nested across K when
    # the inverse flow grows along the path: at t=0.5 the double-well system
    # produces a genuine hump (the theoretical bound is a decaying envelope,
    # not a monotonicity statement).  Pin the shape so a regression in the
    # estimator would show up.
    gl = CoefficientSet.from_text(1, 1, "x1 - x1^3", ["0.5"])
    curve = eigenvalue_tails(
        1, [1, 2, 4, 8, 16], 0.5, "C", _spec(gl, (1.0,), 1500, 3), fit_envelope=False
    )
    assert curve.p_hat[1] > curve.p_hat[0] + curve.half_widths()[0]
    assert curve.p_hat[-1] < curve.p_hat[2]


_CLI_MODEL = """
[model]
d = {d}
m = 1
x0 = {x0}
drift = {drift}
sigma1 = {sigma}

[simulation]
T = 0.5
n_steps = 512
paths = 50
seed = 4

[analysis]
"""


def _cli_run(tmp_path, command, model, analysis):
    """Run ``command`` on ``model`` (the keys of ``_CLI_MODEL``) and return
    its output directory."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_CLI_MODEL.format(**model) + analysis)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_tail_curve_serialization_headers(tmp_path):
    model = {"d": 1, "x0": "0.0", "drift": "0", "sigma": "1"}
    analysis = "L = 1\nK_grid = 1, 2\nt = 0.5\nmatrix = C\nfit_envelope = false\n"
    out = _cli_run(tmp_path, "tails", model, analysis)
    header, *rows = (out / "tails.csv").read_text().splitlines()
    assert header == "K,events,trials,p_hat,ci_lo,ci_hi"
    assert [row.split(",")[2] for row in rows] == ["50", "50"]
    payload = json.loads((out / "tails.json").read_text())
    assert payload["trials"] == 50
    assert len(payload["K"]) == 2


def test_tail_envelope_fit_reports_constants():
    gl = CoefficientSet.from_text(1, 1, "x1 - x1^3", ["0.5"])
    curve = eigenvalue_tails(1, [1, 2, 4, 8], 0.5, "C", _spec(gl, (1.0,), 800, 5))
    if curve.envelope_fit is not None:
        for key in ("C", "lambda", "mu", "V_L_x0", "M_x0"):
            assert np.isfinite(curve.envelope_fit[key])


def test_envelope_fit_is_the_log_log_line_and_its_rate_stays_positive():
    # the rate exp(intercept) is about 9e-13, below the 1e-12 floor that a
    # nonlinear refit of (a, mu) would put on it
    k, p_hat = np.array([4.0, 8.0, 16.0]), np.array([0.999999, 0.5, 0.001])
    fit = _fit_tail_envelope(k, p_hat, 2.0, 0.5, 2)
    slope, intercept = np.polyfit(np.log(k), np.log(-np.log(p_hat)), 1)
    assert fit["raw_rate"] > 0.0
    assert fit["raw_rate"] == float(np.exp(intercept)) and fit["mu"] == float(slope)
    for key in ("lambda", "C"):
        assert np.isfinite(fit[key]) and fit[key] > 0.0


def test_tail_rejects_bad_inputs():
    ell = CoefficientSet.from_text(1, 1, "0", ["1"])
    spec = _spec(ell, (0.0,), 10, 6)
    with pytest.raises(ConfigError):
        eigenvalue_tails(1, [], 0.5, "C", spec)
    with pytest.raises(ConfigError):
        eigenvalue_tails(1, [0.5], 0.5, "C", spec)
    with pytest.raises(ConfigError):
        eigenvalue_tails(1, [1, 2], 1.5, "C", spec)
    with pytest.raises(ConfigError):
        eigenvalue_tails(1, [1, 2], 0.5, "R", spec)


def _eigenvalue_curve(L, k_grid, spec):
    return eigenvalue_tails(L, k_grid, 0.5, "C", spec, fit_envelope=False)


def _remainder_curve(L, k_grid, spec):
    target = spec.coeffs.diffusion[0]
    return remainder_tails(L, 0.5, k_grid, target, spec, fit_envelope=False)


@pytest.mark.parametrize("curve", [_eigenvalue_curve, _remainder_curve])
@pytest.mark.parametrize(
    ("L", "k_grid", "message"),
    [
        (0, [1, 2], "L must be >= 1"),
        (1, [], "K grid must be non-empty"),
        (1, [2, 0.5], "K >= 1"),
    ],
    ids=["L0", "empty", "below1"],
)
def test_tail_curves_share_the_grid_check(curve, L, k_grid, message):
    ell = CoefficientSet.from_text(1, 1, "0", ["1"])
    with pytest.raises(ConfigError, match=message):
        curve(L, k_grid, _spec(ell, (0.0,), 10, 6))


@pytest.mark.parametrize(
    ("epsilon", "t_grid", "message"),
    [
        (0.0, (0.5,), "epsilon must lie in"),
        (1.5, (0.5,), "epsilon must lie in"),
        (0.5, (), "t grid must lie in"),
        (0.5, (0.0, 0.5), "t grid must lie in"),
        (0.5, (0.5, 1.5), "t grid must lie in"),
    ],
    ids=["eps0", "eps1.5", "empty", "t0", "t1.5"],
)
def test_remainder_tail_rejects_bad_epsilon_and_t_grid(epsilon, t_grid, message):
    ell = CoefficientSet.from_text(1, 1, "0", ["1"])
    spec = _spec(ell, (0.0,), 10, 6)
    with pytest.raises(ConfigError, match=message):
        remainder_tails(2, epsilon, [1, 2], ell.diffusion[0], spec, t_grid, False)


@pytest.mark.parametrize("curve", [_eigenvalue_curve, _remainder_curve])
def test_tail_curve_counts_match_their_wilson_bounds(curve):
    gl = CoefficientSet.from_text(1, 1, "x1 - x1^3", ["0.5"])
    tail = curve(2, [1, 2, 4, 8], _spec(gl, (1.0,), 300, 12))
    assert tail.events.dtype == np.int64
    assert np.array_equal(tail.p_hat, tail.events / tail.trials)
    for events, lo, hi in zip(tail.events, tail.ci_lo, tail.ci_hi):
        assert (lo, hi) == wilson_interval(int(events), tail.trials)


# ---------------------------------------------------------------------------
# remainder tails


def test_remainder_tail_constant_coefficients_zero():
    c = CoefficientSet.from_text(1, 1, "2", ["3"])
    spec = _spec(c, (0.0,), 60, 7)
    curve = remainder_tails(2, 0.5, [1, 2, 4], c.diffusion[0], spec, fit_envelope=False)
    assert np.array_equal(curve.p_hat, np.zeros(3))
    # every t ties at no events, and the first t of the grid wins a tie
    assert curve.meta["argmax_t"] == [min(curve.meta["t_grid"])] * 3


def test_remainder_tail_ou_deterministic_events():
    # R_3 is deterministic for the additive linear system; events computable
    # in closed form and identical across paths
    ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
    spec = _spec(ou, (1.0,), 40, 8, n_steps=1024)
    curve = remainder_tails(3, 0.5, [1, 2, 4], ou.diffusion[0], spec, fit_envelope=False)
    assert set(np.unique(curve.p_hat)).issubset({0.0, 1.0})
    assert curve.non_increasing_within_half_width()


def test_remainder_tail_double_well_monotone():
    gl = CoefficientSet.from_text(1, 1, "x1 - x1^3", ["0.5"])
    spec = _spec(gl, (1.0,), 1200, 9, n_steps=1024)
    curve = remainder_tails(
        2, 0.5, [1, 2, 4, 8, 16], gl.diffusion[0], spec, fit_envelope=False
    )
    assert curve.non_increasing_within_half_width()
    assert curve.meta["common_random_numbers"] is True


def test_remainder_tail_memory_grows_only_by_the_increments():
    # the energy is streamed through the engine, so each added path costs
    # its n*m Brownian increments (one block) and nothing of length n per
    # state, flow or remainder component
    heis = CoefficientSet.from_text(
        3, 2, "-x1 - x1^3, -x2 - x2^3, -x3", ["1, 0, -0.5*x2", "0, 1, 0.5*x1"]
    )
    n = 1024

    def peak(n_paths):
        spec = _spec(heis, (1.0, 0.5, 0.0), n_paths, 4, n_steps=n)
        tracemalloc.start()
        try:
            remainder_tails(3, 0.5, [1, 2, 4], heis.diffusion[0], spec, fit_envelope=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)  # compile and cache the field code outside the measurement
    small, large = peak(32), peak(128)
    assert (large - small) / (128 - 32) <= 2 * n * heis.m * 8


# ---------------------------------------------------------------------------
# inverse determinant moments


def test_inverse_det_additive_identity_scaling():
    ell = CoefficientSet.from_text(2, 2, "0, 0", ["1, 0", "0, 1"])
    spec = _spec(ell, (0.0, 0.0), 16, 10, n_steps=1024, horizon=1.0)
    study = inverse_det_scaling(1.0, [0.125, 0.25, 0.5, 1.0], spec)
    assert study.slope == pytest.approx(-2.0, abs=0.05)


def test_inverse_det_ou_closed_form_zero_variance():
    ou = CoefficientSet.from_text(1, 1, "-x1", ["1"])
    spec = _spec(ou, (1.0,), 32, 11, n_steps=4096, horizon=1.0)
    est = inverse_det_moments(1.0, 1.0, spec)
    target = 2.0 / (1.0 - np.exp(-2.0))
    assert abs(est.value - target) / target <= 0.02
    assert est.std_error == 0.0  # additive noise: Q is deterministic
    assert not est.heavy_tail


def test_inverse_det_degenerate_raises():
    deg = CoefficientSet.from_text(1, 1, "-x1", ["0"])
    spec = _spec(deg, (1.0,), 16, 12)
    with pytest.raises(DegenerateSamplesError):
        inverse_det_moments(1.0, 0.5, spec)


def test_inverse_det_bracket_spanned_system_reports():
    heis = CoefficientSet.from_text(2, 1, "0, x1", ["1, 0"])
    spec = _spec(heis, (0.0, 0.0), 400, 13, n_steps=512, horizon=0.25)
    est = inverse_det_moments(1.0, 0.25, spec)
    assert np.isfinite(est.value)
    assert est.value > 0
    study = inverse_det_scaling(
        1.0, [0.0625, 0.125, 0.25], _spec(heis, (0.0, 0.0), 400, 13, n_steps=512), L=3
    )
    assert study.reference_exponent == -6.0
    assert study.within_margin is not None


# ---------------------------------------------------------------------------
# density estimation


def test_kde_matches_standard_normal_law():
    c = CoefficientSet.from_text(1, 1, "0", ["1"])
    spec = _spec(c, (0.0,), 100_000, 14, n_steps=64, horizon=1.0)
    samples = terminal_samples(spec)
    grid = np.linspace(-4, 4, 81)[:, None]
    dens = kde_density(samples, grid)
    pdf = np.exp(-grid[:, 0] ** 2 / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(dens.values - pdf)) <= 0.02
    step = grid[1, 0] - grid[0, 0]
    assert 0.9 <= dens.riemann_mass(step) <= 1.05


def test_kde_rejects_empty_samples():
    with pytest.raises(ConfigError):
        kde_density(np.empty((0, 1)), np.zeros((3, 1)))


def test_silverman_matches_classic_1d_constant():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(4096, 1))
    bw = silverman_bandwidth(x)[0]
    sigma = min(x.std(ddof=1), (np.percentile(x, 75) - np.percentile(x, 25)) / 1.34)
    assert bw == pytest.approx((4 / 3) ** 0.2 * sigma * 4096 ** (-0.2))


def test_kde_csv_header_matches_interface(tmp_path):
    model = {"d": 2, "x0": "0.0, 0.0", "drift": "0, 0", "sigma": "1, 1"}
    analysis = "grid_min = -1, -1\ngrid_max = 1, 1\ngrid_points = 3, 2\n"
    out = _cli_run(tmp_path, "density", model, analysis)
    header, *rows = (out / "density.csv").read_text().splitlines()
    assert header == "y_1,y_2,p_hat"
    assert len(rows) == 6 and all(len(row.split(",")) == 3 for row in rows)


# ---------------------------------------------------------------------------
# envelope checks


def test_envelope_gaussian_case():
    c = CoefficientSet.from_text(1, 1, "0", ["1"])
    m_x = coefficient_local_bound(c, (1.0,))
    assert m_x == pytest.approx(1.0)
    spec = _spec(c, (1.0,), 400_000, 16, n_steps=64, horizon=0.04)
    samples = terminal_samples(spec)
    grid = np.concatenate([np.linspace(0.5, 0.84, 18), np.linspace(1.16, 1.5, 18)])[:, None]
    dens = kde_density(samples, grid)
    report = density_envelope_check(dens, (1.0,), 0.04, 1.0, m_x)
    assert not report.region_empty
    assert report.fitted_c > 0
    assert report.max_violation <= 0.05
    # exact law N(1, t): log p = const - u * 2 with u = delta^2 / (4 t)
    assert report.fitted_c == pytest.approx(2.0, abs=0.2)


def test_envelope_empty_region_is_report_only():
    c = CoefficientSet.from_text(1, 1, "0", ["1"])
    dens = kde_density(np.zeros((10, 1)), np.linspace(-1, 1, 5)[:, None])
    report = density_envelope_check(dens, (0.0,), 0.5, 1.0, 1.0)
    assert report.region_empty
    assert report.max_violation is None
    assert report.to_json_dict()["region_empty"] is True
