import tracemalloc

import numpy as np
import pytest

from hypolab.errors import ConfigError
from hypolab.fieldlang import CoefficientSet
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
