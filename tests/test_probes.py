import json
import tracemalloc

import numpy as np
import pytest

from hypolab.brackets import derivative_stack
from hypolab.errors import ConfigError
from hypolab.fieldlang import (
    CoefficientSet,
    compile_expression_stack,
    compile_jacobian,
    fields,
)
from hypolab.flows import SimConfig, assumption_probe, moment_probe


def test_cubic_drift_monotone_and_growth():
    c = CoefficientSet.from_text(1, 1, "-x1^3", ["1"])
    probe = assumption_probe(c, [-2.0], [2.0], n_pairs=2048, seed=1)
    # <x - y, b(x) - b(y)> <= 0 for the cubic: fitted constant sits at zero
    assert probe.monotone_constant <= 1e-9
    assert not probe.non_uniform_monotonicity
    # |b(x)-b(y)|^2 / |x-y|^2 = (x^2 + xy + y^2)^2 grows like u^4: N = 3
    assert probe.growth_slope == pytest.approx(4.0, abs=0.8)
    assert probe.growth_exponent == pytest.approx(3.0, abs=0.4)
    assert probe.growth_constant > 0
    # quadratic form of grad b = -3x^2 reaches -12 on the box
    assert probe.jacobian_form_min == pytest.approx(-12.0, abs=0.5)


def test_linear_drift_constants():
    c = CoefficientSet.from_text(2, 1, "x2, -x1 + x2", ["1, 0"])
    A = np.array([[0.0, 1.0], [-1.0, 1.0]])
    sym_max = np.linalg.eigvalsh(0.5 * (A + A.T))[-1]
    probe = assumption_probe(c, [-2.0, -2.0], [2.0, 2.0], n_pairs=4096, seed=2)
    assert probe.monotone_constant == pytest.approx(sym_max, abs=0.05)
    assert probe.growth_exponent == pytest.approx(1.0, abs=0.3)
    assert not probe.non_uniform_monotonicity


def test_quadratic_drift_flags_non_uniform_monotonicity():
    c = CoefficientSet.from_text(1, 1, "x1^2", ["1"])
    probe = assumption_probe(c, [-2.0], [2.0], n_pairs=2048, seed=3)
    assert probe.non_uniform_monotonicity
    scales = sorted(probe.monotone_by_scale)
    fits = [probe.monotone_by_scale[s] for s in scales]
    assert fits[-1] > fits[0]


def test_smoothness_norms():
    c = CoefficientSet.from_text(1, 1, "-x1^3", ["tanh(x1)"])
    probe = assumption_probe(c, [-2.0], [2.0], n_pairs=1024, seed=4)
    # second derivative of the drift is -6x: max 12 on the box
    assert probe.drift_second_max == pytest.approx(12.0, abs=0.5)
    # first derivative of tanh peaks at 1
    assert probe.diffusion_first_max == pytest.approx(1.0, abs=0.05)
    assert probe.diffusion_second_max > 0


def test_declared_constants_pass_fail():
    c = CoefficientSet.from_text(1, 1, "-x1^3", ["1"])
    probe = assumption_probe(
        c, [-2.0], [2.0], n_pairs=512, seed=5, declared={"L": 0.5, "L3": 1.0}
    )
    assert probe.passes["L"] is True
    assert probe.passes["L3"] is False  # grad b reaches -12 < -1
    payload = probe.to_json_dict()
    assert payload["passes"]["L"] is True


def test_probe_validates_box():
    c = CoefficientSet.from_text(1, 1, "-x1", ["1"])
    with pytest.raises(ConfigError):
        assumption_probe(c, [1.0], [-1.0])


_TANH23 = ("-x1^3 + x2, -x2^3 - x1", ["tanh(x1), 1", "x2^2, tanh(x1*x2)", "0.5, exp(-x1^2)"])


def _largest_norm(group, xs):
    """Largest norm of one group from a stack of its own, its squares added in
    the group's order."""
    vals = compile_expression_stack(tuple(group), (len(group),))(xs)
    total = vals[:, 0] * vals[:, 0]
    for j in range(1, len(group)):
        total = total + vals[:, j] * vals[:, j]
    return float(np.sqrt(total).max())


@pytest.mark.parametrize("model,seed,box", [("heis", 0, 2.0), ("tanh", 0, 2.0),
                                            ("tanh", 5, 0.7)])
def test_probe_norms_equal_per_group_references(model, seed, box):
    coeffs = (CoefficientSet.from_text(3, 2, "-x1 - x1^3, -x2 - x2^3, -x3",
                                       ["1, 0, -0.5*x2", "0, 1, 0.5*x1"])
              if model == "heis" else CoefficientSet.from_text(2, 3, *_TANH23))
    d, n = coeffs.d, 300
    probe = assumption_probe(coeffs, [-box] * d, [box] * d, n_pairs=n, seed=seed)
    # the states follow two pairs for each of the three scales and the growth pairs
    rng = np.random.default_rng(seed)
    for _ in range(8):
        rng.uniform(-1, 1, size=(n, d))
    xs = rng.uniform(-1, 1, size=(n, d)) * box
    cols = [derivative_stack(col, 2) for col in coeffs.diffusion]
    assert probe.drift_second_max == _largest_norm(derivative_stack(coeffs.drift, 2)[2], xs)
    assert probe.diffusion_first_max == _largest_norm([e for c in cols for e in c[1]], xs)
    assert probe.diffusion_second_max == _largest_norm([e for c in cols for e in c[2]], xs)
    gb = compile_jacobian(coeffs.drift)(xs)
    sym = 0.5 * (gb + np.swapaxes(gb, 1, 2))
    assert probe.jacobian_form_min == float(np.linalg.eigvalsh(sym)[:, 0].min())


def test_assumption_probe_compiles_at_most_three_stacks(monkeypatch):
    # the drift, its Jacobian, and one stack for every smoothness norm; none
    # of them is generated source
    compile_expression_stack.cache_clear()
    evaluated, labels = set(), []
    call, define = fields._Stack.__call__, fields._define

    def counting(stack, X):
        evaluated.add(id(stack))
        return call(stack, X)

    def defining(name, label, emit):
        labels.append(label)
        return define(name, label, emit)

    monkeypatch.setattr(fields._Stack, "__call__", counting)
    monkeypatch.setattr(fields, "_define", defining)
    assumption_probe(CoefficientSet.from_text(2, 3, *_TANH23), [-1.0, -1.0], [1.0, 1.0])
    assert 0 < len(evaluated) <= 3 and labels == []


def test_probe_without_a_pair_far_enough_apart_reports_nan():
    # every sampled pair of the box of width 2e-9 is closer than 1e-8
    c = CoefficientSet.from_text(1, 1, "-x1^3", ["1"])
    probe = assumption_probe(c, [-1e-9], [1e-9], n_pairs=16, declared={"N": 3.0, "L1": 1.0})
    assert np.isnan(probe.monotone_constant) and np.isnan(probe.growth_constant)
    # no pair enters the growth fit: it is not made, and no declared N passes
    assert np.isnan(probe.growth_slope) and np.isnan(probe.growth_exponent)
    payload = probe.to_json_dict()
    assert payload["monotonicity"]["fitted_L"] is None
    assert payload["polynomial_growth"] == {
        "log_log_slope": None, "fitted_N": None, "fitted_L1": None,
    }
    assert payload["passes"] == {"N": False, "L1": False}


def test_probe_of_a_constant_drift_makes_no_growth_fit():
    # b(x) - b(y) = 0 for every pair: none enters the log-log fit, and L1 is
    # fitted at N = 1, where it is 0
    c = CoefficientSet.from_text(1, 1, "2", ["1"])
    probe = assumption_probe(c, [-2.0], [2.0], n_pairs=64, declared={"N": 1.0})
    assert np.isnan(probe.growth_slope) and np.isnan(probe.growth_exponent)
    assert probe.growth_constant == 0.0 and probe.passes == {"N": False}


@pytest.mark.parametrize("low,high", [(0.0, 1e155), (-1.7e308, 1.7e308)])
def test_probe_of_a_box_whose_widths_overflow_warns_nothing(low, high):
    # |x - y|^2 overflows for the wider pairs of [0, 1e155], and the width
    # itself for [-1.7e308, 1.7e308]; the suite turns a warning into an
    # error, and a NaN constant is written as null
    c = CoefficientSet.from_text(1, 1, "-x1", ["1"])
    probe = assumption_probe(c, [low], [high], n_pairs=16)
    assert np.isnan(probe.monotone_constant)
    json.dumps(probe.to_json_dict(), allow_nan=False)


def test_moment_probe_deterministic_system():
    c = CoefficientSet.from_text(1, 1, "0", ["0"])
    cfg = SimConfig(horizon=1.0, n_steps=16, x0=(1.0,), seed=6)
    probe = moment_probe(
        c, cfg, p_values=[2.0], x0_values=[(1.0,), (2.0,), (4.0,), (8.0,)], n_paths=8
    )
    # sup |X| = |x0| exactly; per-x0 ratios are |x0|^p / (1 + |x0|^p)
    est = probe.estimates[2.0]
    assert np.allclose(est, [1.0, 4.0, 16.0, 64.0])
    assert abs(probe.fitted_constant[2.0] - 1.0) <= 0.05
    ratios = probe.ratios(2.0)
    assert np.allclose(ratios, est / (1 + est))


def test_moment_probe_ou_band(ou):
    cfg = SimConfig(horizon=1.0, n_steps=256, x0=(1.0,), seed=7)
    probe = moment_probe(
        ou, cfg, p_values=[2.0], x0_values=[(1.0,), (2.0,), (4.0,), (8.0,)], n_paths=2000
    )
    assert np.all(probe.diverged == 0)
    assert probe.ratio_band[2.0] <= 3.0


def test_moment_probe_double_well_band(ginzburg_landau):
    cfg = SimConfig(horizon=1.0, n_steps=256, x0=(1.0,), seed=8)
    probe = moment_probe(
        ginzburg_landau,
        cfg,
        p_values=[4.0],
        x0_values=[(1.0,), (2.0,), (4.0,)],
        n_paths=2000,
    )
    assert np.all(probe.diverged == 0)
    assert probe.ratio_band[4.0] <= 3.0


def test_moment_probe_memory_is_bounded_by_the_block(ginzburg_landau):
    # sup |X| is a row of the step: no state path is kept, for any x0
    n, n_paths = 256, 2000
    cfg = SimConfig(horizon=1.0, n_steps=n, x0=(1.0,), seed=8)
    x0_values = [(1.0,), (2.0,), (4.0,)]
    moment_probe(ginzburg_landau, cfg, [4.0], x0_values, n_paths=8)  # first-call allocations
    tracemalloc.start()
    try:
        moment_probe(ginzburg_landau, cfg, [4.0], x0_values, n_paths=n_paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one x0's stored state paths are 4.1 MB, and storing them peaked at 12.6
    # MB; the numpy route holds one 4.1 MB increment block, the native loop a
    # tile of it
    assert peak < 2 * n_paths * (n + 1) * 8
