import hashlib
import itertools
import subprocess
import sys
import tracemalloc
from functools import partial

import numpy as np
import pytest

from hypolab import brackets
from hypolab.brackets import (
    EMPTY_INDEX,
    BracketTable,
    GridSpec,
    MultiIndex,
    ball_sample,
    bracket_local_bound,
    check_hormander,
    coefficient_local_bound,
    derivative_stack,
    enumerate_indices,
    expansion_local_bound,
    gram_matrix,
    lie_bracket,
    local_field_bound,
    sampled_norms,
    spanning_value,
    stratonovich_drift,
)
from hypolab.errors import BracketSizeError, ConfigError, EvaluationError
from hypolab.fieldlang import (
    Binary,
    CoefficientSet,
    Const,
    Power,
    Unary,
    Var,
    VectorField,
    compile_diffusion,
    compile_expression_stack,
    compile_field,
    differentiate,
    jacobian,
    simplify,
)
from hypolab.fieldlang.ast import _power_chain

# ---------------------------------------------------------------------------
# multi-indices


def test_multiindex_weight_counts_zeros_twice():
    a = MultiIndex((0, 1, 0))
    assert a.length == 3
    assert a.weight == 5
    assert a.last == 0
    assert a.prefix == MultiIndex((0, 1))
    assert EMPTY_INDEX.weight == 0


def test_weight_bounds():
    for entries in itertools.product(range(3), repeat=3):
        mi = MultiIndex(entries)
        assert mi.length <= mi.weight <= 2 * mi.length


def test_enumerate_indices_small_cases():
    assert enumerate_indices(0, 1) == [EMPTY_INDEX]
    got = enumerate_indices(1, 2)
    assert set(mi.entries for mi in got) == {(), (1,), (2,)}
    got = enumerate_indices(2, 1)
    assert set(mi.entries for mi in got) == {(), (0,), (1,), (1, 1)}


def test_enumerate_indices_matches_brute_force():
    max_weight, m = 4, 2
    brute = {()}
    for length in range(1, max_weight + 1):
        for entries in itertools.product(range(m + 1), repeat=length):
            if len(entries) + sum(1 for e in entries if e == 0) <= max_weight:
                brute.add(entries)
    got = enumerate_indices(max_weight, m)
    assert set(mi.entries for mi in got) == brute
    # sorted by (length, lexicographic)
    keys = [(mi.length, mi.entries) for mi in got]
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# stratonovich drift and brackets


def test_stratonovich_drift_constant_sigma_is_plain_drift():
    c = CoefficientSet.from_text(2, 2, "sin(x1), x2", ["1, 0", "0, 3"])
    drift = stratonovich_drift(c)
    for got, expected in zip(drift.components, c.drift.components):
        assert got == expected


def test_stratonovich_drift_linear_noise():
    c = CoefficientSet.from_text(1, 1, "-x1", ["x1"])
    drift = stratonovich_drift(c)
    for x in (-2.0, 0.5, 3.0):
        assert drift.evaluate((x,))[0] == pytest.approx(-1.5 * x)


def test_stratonovich_drift_matches_directional_derivative():
    c = CoefficientSet.from_text(2, 1, "0, 0", ["x2, 0"])
    drift = stratonovich_drift(c)
    rng = np.random.default_rng(2)
    step = 1e-6
    sig = c.diffusion[0]
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        sx = sig.evaluate(x)
        fd = (sig.evaluate(x + step * sx) - sig.evaluate(x - step * sx)) / (2 * step)
        assert np.allclose(drift.evaluate(x), -0.5 * fd, atol=1e-6)


def test_lie_bracket_linear_fields():
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = VectorField.from_text("x1 + 2*x2, -x2", 2)
    u = VectorField.from_text("x2, x1", 2)
    br = lie_bracket(v, u)
    C = B @ A - A @ B
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=2)
        assert np.allclose(br.evaluate(x), C @ x, atol=1e-12)


def test_lie_bracket_of_field_with_itself_vanishes():
    v = VectorField.from_text("sin(x1)*x2, x1^2", 2)
    br = lie_bracket(v, v)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=2)
        assert np.allclose(br.evaluate(x), 0.0, atol=1e-12)


def test_lie_bracket_hand_example():
    v = VectorField.from_text("1, 0", 2)
    u = VectorField.from_text("0, x1", 2)
    br = lie_bracket(v, u)
    assert np.allclose(br.evaluate((0.7, -0.3)), [0.0, 1.0])


_FIELDS = [
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


def test_bracket_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(6)
    fields = [VectorField.from_text(t, 2) for t in _FIELDS[:5]]
    for v, u in itertools.combinations(fields, 2):
        vu = lie_bracket(v, u)
        uv = lie_bracket(u, v)
        for _ in range(6):
            x = rng.uniform(-2, 2, size=2)
            a, b = vu.evaluate(x), uv.evaluate(x)
            assert np.allclose(a, -b, rtol=1e-9, atol=1e-9)


def test_jacobi_identity_on_corpus():
    rng = np.random.default_rng(7)
    fields = [VectorField.from_text(t, 2) for t in _FIELDS]
    triples = [(fields[i], fields[(i + 3) % 10], fields[(i + 6) % 10]) for i in range(10)]
    for u, v, w in triples:
        cyclic = [
            lie_bracket(u, lie_bracket(v, w)),
            lie_bracket(v, lie_bracket(w, u)),
            lie_bracket(w, lie_bracket(u, v)),
        ]
        for _ in range(4):
            x = rng.uniform(-1.5, 1.5, size=2)
            s = sum(term.evaluate(x) for term in cyclic)
            assert np.max(np.abs(s)) <= 1e-7


# ---------------------------------------------------------------------------
# bracket table


def test_table_empty_index_returns_base(ou):
    table = BracketTable(ou)
    sig = ou.diffusion[0]
    assert table.bracket(sig, EMPTY_INDEX) is sig


def test_table_ou_time_bracket(ou):
    table = BracketTable(ou)
    br = table.diffusion_bracket(1, MultiIndex((0,)))
    for x in (-1.0, 0.0, 2.0):
        assert br.evaluate((x,))[0] == pytest.approx(1.0)


def test_table_heisenberg_bracket(heisenberg):
    table = BracketTable(heisenberg)
    br = table.diffusion_bracket(1, MultiIndex((0,)))
    assert np.allclose(br.evaluate((0.1, 0.2)), [0.0, -1.0])


def test_table_recursion_consistency(heisenberg):
    table = BracketTable(heisenberg)
    alpha = MultiIndex((1, 0))
    direct = table.diffusion_bracket(1, alpha)
    manual = lie_bracket(
        table.direction(0), table.diffusion_bracket(1, MultiIndex((1,)))
    )
    x = (0.3, -0.7)
    assert np.allclose(direct.evaluate(x), manual.evaluate(x))


def test_bracket_size_cap():
    c = CoefficientSet.from_text(1, 1, "exp(x1^3)", ["sin(x1^2)*exp(x1)"])
    table = BracketTable(c, max_nodes=40)
    with pytest.raises(BracketSizeError):
        table.diffusion_bracket(1, MultiIndex((0, 0, 0)))


# ---------------------------------------------------------------------------
# gram matrix and spanning values


def test_gram_elliptic_identity(elliptic2):
    table = BracketTable(elliptic2)
    M = gram_matrix((0.4, -1.0), 1, table)
    assert np.allclose(M, np.eye(2))
    assert spanning_value((0.4, -1.0), 1, table) == 1.0


def test_gram_heisenberg_levels(heisenberg):
    table = BracketTable(heisenberg)
    x = (1.3, -0.4)
    assert np.allclose(gram_matrix(x, 1, table), np.diag([1.0, 0.0]))
    assert spanning_value(x, 1, table) == 0.0
    assert np.allclose(gram_matrix(x, 3, table), np.eye(2))
    assert spanning_value(x, 3, table) == 1.0


def test_spanning_value_matches_sphere_sampling(heisenberg):
    table = BracketTable(heisenberg)
    x = (0.2, 0.5)
    M = gram_matrix(x, 3, table)
    rng = np.random.default_rng(10)
    etas = rng.normal(size=(10_000, 2))
    etas /= np.linalg.norm(etas, axis=1, keepdims=True)
    quad = np.einsum("ni,ij,nj->n", etas, M, etas)
    lam = np.linalg.eigvalsh(M)[0]
    assert quad.min() >= lam - 1e-9
    assert abs(min(quad.min(), 1.0) - min(lam, 1.0)) <= 1e-3


def test_spanning_nondecreasing_in_level(heisenberg):
    table = BracketTable(heisenberg)
    x = (0.9, 1.1)
    vals = [spanning_value(x, L, table) for L in (1, 2, 3, 4)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_degenerate_sigma_never_spans(degenerate):
    table = BracketTable(degenerate)
    for L in (1, 2, 3):
        assert spanning_value((0.3,), L, table) == 0.0


def test_multiplicative_sigma_spans_away_from_origin():
    c = CoefficientSet.from_text(1, 1, "0", ["x1"])
    table = BracketTable(c)
    assert spanning_value((0.0,), 1, table) == 0.0
    assert spanning_value((1.0,), 1, table) == 1.0


# ---------------------------------------------------------------------------
# reports


def test_check_hormander_heisenberg_grid(heisenberg):
    table = BracketTable(heisenberg)
    spec = GridSpec((-2.0, -2.0), (2.0, 2.0), (21, 21))
    report = check_hormander(spec, 3, table)
    assert report.inf_value == 1.0
    assert report.empirical_uniform
    assert report.level_candidate == 3
    summary = report.summary()
    assert summary["inf_V_L"] == 1.0
    assert summary["L0_candidate"] == 3
    assert len(report.points) == 441
    assert "finite" in summary["caveat"]


def test_check_hormander_degenerate(degenerate):
    table = BracketTable(degenerate)
    report = check_hormander([(0.0,), (1.0,)], 2, table)
    assert report.inf_value == 0.0
    assert not report.empirical_uniform
    assert report.level_candidate is None


def test_check_hormander_flags_origin():
    c = CoefficientSet.from_text(1, 1, "0", ["x1"])
    table = BracketTable(c)
    report = check_hormander([(0.0,), (1.0,)], 1, table)
    assert report.values[0] == 0.0
    assert report.values[1] == 1.0
    assert not report.in_span_set[0]
    assert report.in_span_set[1]


def test_check_hormander_empty_points(ou):
    with pytest.raises(ConfigError):
        check_hormander([], 1, BracketTable(ou))


# ---------------------------------------------------------------------------
# batched Gram matrices against a per-point tree walk


def _reference_report(pts, L, table):
    """Gram matrices and spanning values built one point and one bracket at a
    time with the tree-walking evaluator."""
    indices = enumerate_indices(L - 1, table.m)
    grams = np.zeros((len(pts), table.d, table.d))
    for i, x in enumerate(pts):
        for k in range(1, table.m + 1):
            for alpha in indices:
                w = table.diffusion_bracket(k, alpha).evaluate(x)
                grams[i] += np.outer(w, w)
    values = np.array([min(max(np.linalg.eigvalsh(g)[0], 0.0), 1.0) for g in grams])
    return grams, values


def _heis3():
    """d=3, m=2 model with a cubic drift, spanning through [sigma1, sigma2]."""
    return CoefficientSet.from_text(
        3, 2, "-x1 - x1^3, -x2 - x2^3, -x3", ["1, 0, -0.5*x2", "0, 1, 0.5*x1"]
    )


def test_batched_gram_bit_identical_on_heis3():
    table = BracketTable(_heis3())
    spec = GridSpec((-2.0,) * 3, (2.0,) * 3, (7,) * 3)
    report = check_hormander(spec, 3, table)
    grams, values = _reference_report(spec.points(), 3, table)
    assert np.array_equal(brackets._gram_stack(spec.points(), 3, table), grams)
    assert np.array_equal(report.values, values)
    x = spec.points()[100]
    assert np.array_equal(gram_matrix(x, 3, table), grams[100])
    assert spanning_value(x, 3, table) == values[100]


def test_batched_gram_close_with_transcendental_brackets():
    c = CoefficientSet.from_text(
        2, 2, "-x1^3 + sin(x2), -x2 - tanh(x1)", ["1 + 0.1*exp(x2), 0", "cos(x1), x1^3"]
    )
    table = BracketTable(c)
    spec = GridSpec((-1.0, -1.0), (1.0, 1.0), (9, 9))
    report = check_hormander(spec, 3, table)
    grams, values = _reference_report(spec.points(), 3, table)
    batched = brackets._gram_stack(spec.points(), 3, table)
    np.testing.assert_allclose(batched, grams, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(report.values, values, rtol=1e-12, atol=1e-12)


def test_batched_gram_skips_tree_walk_when_finite(monkeypatch):
    def walk(self, point):
        raise AssertionError("tree walk on the success path")

    table = BracketTable(_heis3())
    monkeypatch.setattr(VectorField, "evaluate", walk)
    report = check_hormander(GridSpec((-1.0,) * 3, (1.0,) * 3, (3,) * 3), 3, table)
    assert report.inf_value == 1.0


def test_batched_gram_division_by_zero_names_subexpression():
    table = BracketTable(CoefficientSet.from_text(1, 1, "-x1", ["1/x1"]))
    with pytest.raises(EvaluationError, match="division by zero in '1/x1'"):
        check_hormander(GridSpec((-1.0,), (1.0,), (5,)), 2, table)


def test_batched_gram_traps_intermediate_overflow():
    # tanh(exp(800)) is 1.0 in floating point, but exp overflows on the way
    table = BracketTable(CoefficientSet.from_text(1, 1, "0", ["tanh(exp(x1))"]))
    with pytest.raises(EvaluationError, match="exp"):
        check_hormander([(0.0,), (800.0,)], 1, table)
    with pytest.raises(EvaluationError, match="exp"):
        spanning_value((800.0,), 1, table)
    # exp(x1^2) is one local of the compiled stack, read by both components
    shared = BracketTable(CoefficientSet.from_text(2, 1, "-x1, -x2", ["exp(x1^2), 2*exp(x1^2)"]))
    with pytest.raises(EvaluationError, match=r"^non-finite value from 'exp\(x1\^2\)'$"):
        gram_matrix((30.0, 0.0), 1, shared)


def test_batched_gram_reports_first_failing_point():
    # sigma1 fails at x1 = 1 and sigma2 at x1 = 0; the point x1 = 0 comes
    # first, so its failing bracket is the one named
    c = CoefficientSet.from_text(2, 2, "0, 0", ["1/(x1 - 1), 0", "0, 1/x1"])
    table = BracketTable(c)
    with pytest.raises(EvaluationError, match="'1/x1'"):
        check_hormander([(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)], 1, table)


def test_batched_gram_rejects_overflowing_outer_products():
    # x1^40 is 1e200 at x1 = 1e5, finite; its square in the Gram sum is not
    table = BracketTable(CoefficientSet.from_text(1, 1, "0", ["x1^40"]))
    with pytest.raises(EvaluationError, match=r"at \[100000\.\] is not finite"):
        gram_matrix((1e5,), 1, table)
    with pytest.raises(EvaluationError, match="not finite"):
        spanning_value((1e5,), 1, table)
    with pytest.raises(EvaluationError, match=r"at \[100000\.\]"):
        check_hormander([(1.0,), (1e5,), (2e5,)], 1, table)
    assert gram_matrix((10.0,), 1, table)[0, 0] == 1e80


def test_batched_gram_rejects_non_finite_point(ou):
    with pytest.raises(EvaluationError, match="finite"):
        check_hormander([(0.0,), (float("nan"),)], 1, BracketTable(ou))


# ---------------------------------------------------------------------------
# local sup-norm bounds


def test_ball_sample_prefix_monotone():
    small = ball_sample((0.0, 0.0), 1.0, 64)
    large = ball_sample((0.0, 0.0), 1.0, 256)
    assert np.array_equal(large[: len(small)], small)
    assert np.all(np.linalg.norm(large, axis=1) <= 1.0 + 1e-12)


def test_ball_sample_bytes_are_pinned():
    # numpy 2.4.6; a change of these bytes changes every interior-point bound
    pts = ball_sample(np.linspace(-1.0, 2.0, 3), 0.75, 300)
    assert pts.shape == (7 + 300, 3)
    digest = hashlib.sha256(pts.tobytes()).hexdigest()
    assert digest == "d13278b8699649be7b2506a48915058728176dcb764bf3d22158443ef1e7df41"


@pytest.mark.parametrize("d", range(1, 41))
def test_ball_sample_is_uniform_in_the_closed_ball(d):
    center, radius, n = np.linspace(-1.0, 2.0, d), 0.75, 4096
    pts = ball_sample(center, radius, n)
    assert pts.shape == (2 * d + 1 + n, d)
    r = np.linalg.norm(pts - center, axis=1)
    assert np.all(r <= radius * (1.0 + 1e-12))
    assert np.array_equal(pts[0], center)
    assert np.allclose(r[1 : 2 * d + 1], radius, rtol=0.0, atol=1e-15)
    # half the volume of the d-ball lies within radius * 2^(-1/d)
    inner = np.mean(r[2 * d + 1 :] <= radius * 2.0 ** (-1.0 / d))
    assert abs(inner - 0.5) <= 4 * np.sqrt(0.25 / n)
    # no direction is preferred: each coordinate has variance radius^2/(d + 2)
    # about the centre, so its sample mean lies within 5 standard errors
    offset = pts[2 * d + 1 :].mean(axis=0) - center
    assert np.all(np.abs(offset) <= 5 * radius / np.sqrt((d + 2) * n))


def test_ball_sample_leaves_the_engine_generator_alone():
    from hypolab.flows import brownian

    before = repr(brownian._BITGEN.state)
    ball_sample((0.0, 1.0), 1.0, 64)
    assert repr(brownian._BITGEN.state) == before


@pytest.mark.parametrize("radius", [-1.0, 0.0, float("nan"), float("inf"), float("-inf")])
def test_ball_radius_must_be_positive_and_finite(radius):
    with pytest.raises(ConfigError, match="radius must be positive and finite"):
        ball_sample((0.0,), radius, 8)
    with pytest.raises(ConfigError, match="radius must be positive and finite"):
        local_field_bound([VectorField.from_text("x1", 1)], (0.0,), radius=radius)


def test_ball_sample_size_must_not_be_negative():
    assert ball_sample((0.0, 1.0), 1.0, 0).shape == (5, 2)
    with pytest.raises(ConfigError, match="sample size must be >= 0"):
        local_field_bound([VectorField.from_text("x1", 1)], (0.0,), n_ball=-1)


def test_local_bound_constant_fields():
    c = CoefficientSet.from_text(1, 1, "0", ["1"])
    assert coefficient_local_bound(c, (0.0,)) == 1.0
    bound, n = local_field_bound([c.diffusion[0]], (5.0,), order=0)
    assert bound == 1.0
    assert n >= 512


def test_local_bound_cubic_drift_interval_suprema():
    c = CoefficientSet.from_text(1, 1, "-x1^3", ["1"])
    assert coefficient_local_bound(c, (0.0,)) == pytest.approx(1.0)
    assert coefficient_local_bound(c, (2.0,)) == pytest.approx(27.0)


@pytest.mark.filterwarnings("error")
def test_local_bound_names_the_non_finite_field():
    c = CoefficientSet.from_text(1, 1, "-x1", ["1/x1"])
    with pytest.raises(EvaluationError, match="field '1/x1' is non-finite"):
        coefficient_local_bound(c, (0.0,))


def test_local_bound_monotone_in_sample_size():
    c = CoefficientSet.from_text(1, 1, "sin(3*x1)*x1^2", ["1"])
    v = VectorField.from_text("sin(3*x1)*x1^2", 1)
    b1, _ = local_field_bound([v], (1.0,), order=0, n_ball=64)
    b2, _ = local_field_bound([v], (1.0,), order=0, n_ball=512)
    assert b2 >= b1


def test_bracket_local_bound_includes_derivatives(ou):
    table = BracketTable(ou)
    bound = bracket_local_bound(table, (0.0,), L=1)
    # sigma = 1 has norm 1 and zero derivatives; the time bracket is 1.
    assert bound == pytest.approx(1.0)


def _per_group_bound(fields, x, order):
    """local_field_bound as one compiled stack per field and derivative group,
    each group's squares added left to right."""
    pts = ball_sample(x, 1.0, 512)
    best = 0.0
    for fld in fields:
        for group in derivative_stack(fld, order):
            vals = compile_expression_stack(tuple(group), (len(group),))(pts)
            total = vals[:, 0] * vals[:, 0]
            for j in range(1, len(group)):
                total = total + vals[:, j] * vals[:, j]
            best = max(best, float(np.sqrt(total).max()))
    return best


def _heis3_brackets(table, max_len):
    indices = enumerate_indices(max_len, table.m, by_length=True)
    return [table.diffusion_bracket(k, a) for k in range(1, table.m + 1) for a in indices]


@pytest.mark.parametrize("order", [0, 1, 2])
def test_one_stack_bound_is_bit_identical_to_one_stack_per_group(order):
    table = BracketTable(_heis3())
    fields = _heis3_brackets(table, 2) + [table.direction(0)]
    x0 = (1.0, 0.5, 0.0)
    assert local_field_bound(fields, x0, order=order)[0] == _per_group_bound(fields, x0, order)


def test_bracket_bound_does_each_symbolic_step_once(monkeypatch):
    for cached in (simplify, differentiate, jacobian, compile_expression_stack):
        cached.cache_clear()
    stacks = []

    def counting(exprs, shape, *args):
        stacks.append(exprs)
        return compile_expression_stack(exprs, shape, *args)

    monkeypatch.setattr(brackets, "compile_expression_stack", counting)
    table = BracketTable(_heis3())
    x0 = (1.0, 0.5, 0.0)
    bound = bracket_local_bound(table, x0, L=2)
    fields = _heis3_brackets(table, 3)
    distinct = list(dict.fromkeys(fields + [table.direction(j) for j in range(3)]))
    assert jacobian.cache_info().misses <= len(distinct)
    assert len(stacks) == 1
    # the heis brackets of length <= 3 repeat: 29 distinct among 80
    assert len(dict.fromkeys(fields)) < len(fields)
    assert local_field_bound(fields + fields[::-1], x0, order=2)[0] == bound
    assert local_field_bound(list(dict.fromkeys(fields)), x0, order=2)[0] == bound


def test_heis3_local_bounds_keep_their_values():
    table = BracketTable(_heis3())
    x0 = (1.0, 0.5, 0.0)
    assert bracket_local_bound(table, x0, L=2) == 11544.030703815068
    assert expansion_local_bound(table, table.direction(1), x0, L=3) == 4321.000793193986


# Nodes in the interned tables after one heis L = 3 expansion bound in a fresh
# process: 995 when this was written.
_HEIS3_NODES_MAX = 1500


def test_node_tables_stay_bounded_and_a_repeated_bound_adds_no_node():
    code = (
        "from hypolab.brackets import BracketTable, expansion_local_bound\n"
        "from hypolab.fieldlang import CoefficientSet, ast\n"
        "coeffs = CoefficientSet.from_text(3, 2, '-x1 - x1^3, -x2 - x2^3, -x3',\n"
        "                                  ['1, 0, -0.5*x2', '0, 1, 0.5*x1'])\n"
        "for _ in range(2):\n"
        "    table = BracketTable(coeffs)\n"
        "    expansion_local_bound(table, coeffs.diffusion[0], (1.0, 0.5, 0.0), 3)\n"
        "    print(sum(map(len, (ast._CONSTS, ast._VARS, ast._UNARIES, ast._BINARIES,\n"
        "                        ast._POWERS))))\n"
    )
    env = {"PYTHONPATH": ":".join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                         check=True, timeout=120)
    first, second = map(int, out.stdout.split())
    assert 0 < first == second < _HEIS3_NODES_MAX


def _lowered_nodes(exprs):
    """The distinct non-leaf nodes of ``exprs``, each power written as its
    chain of products (x^3 = x * (x * x), x^0 = 1)."""
    seen, todo = {}, list(exprs)
    while todo:
        e = todo.pop()
        while isinstance(e, Power):
            n = e.exponent
            e = _power_chain(e.base, n, partial(Binary, "mul")) if n else Const(1.0)
        if isinstance(e, (Unary, Binary)) and id(e) not in seen:
            seen[id(e)] = e
            todo += [e.arg] if isinstance(e, Unary) else [e.lhs, e.rhs]
    return seen


def test_heis3_bound_stack_computes_each_subexpression_once(monkeypatch):
    stacks = []

    def recording(*args):
        stacks.append(compile_expression_stack(*args))
        return stacks[-1]

    monkeypatch.setattr(brackets, "compile_expression_stack", recording)
    bracket_local_bound(BracketTable(_heis3()), (1.0, 0.5, 0.0), 2)
    (stack,) = stacks
    # one numpy operation per distinct lowered node, none twice and none left
    # out; besides them the stack only reads the columns of X and stores
    operations = [n for n in stack.nodes if isinstance(n, (Unary, Binary))]
    lowered = _lowered_nodes(stack.exprs)
    assert operations and len(operations) == len(lowered)
    assert {id(n) for n in operations} == set(lowered)
    reads = [n for n in stack.nodes if isinstance(n, Var)]
    assert len({n.index for n in reads}) == len(reads) <= 3
    assert sorted(n for n in stack.nodes if isinstance(n, int)) == list(range(len(stack.exprs)))
    assert len(stack.program) == len(operations) + len(reads) + len(stack.exprs)


def test_gram_stack_trap_hands_off_to_the_tree_walk(monkeypatch):
    # exp(800) overflows inside tanh(exp(x1)), whose value stays 1.0: the
    # stack's trapped FloatingPointError sends the bracket to the tree walk,
    # which names the subexpression
    walked, stack_errors = [], []
    walk = brackets._tree_walk

    def spy(fld, pts, bad):
        walked.append(fld.describe())
        return walk(fld, pts, bad)

    def compiling(exprs, shape):
        stack = compile_expression_stack(exprs, shape)

        def run(X):
            try:
                return stack(X)
            except FloatingPointError as exc:
                stack_errors.append(exc)
                raise

        return run

    monkeypatch.setattr(brackets, "_tree_walk", spy)
    monkeypatch.setattr(brackets, "compile_expression_stack", compiling)
    table = BracketTable(CoefficientSet.from_text(1, 1, "0", ["tanh(exp(x1))"]))
    with pytest.raises(EvaluationError, match=r"^non-finite value from 'exp\(x1\)'$"):
        check_hormander([(0.0,), (800.0,)], 1, table)
    assert walked == ["tanh(exp(x1))"] and len(stack_errors) == 1
    assert "computing 'exp(x1)' of out[..., 0] = tanh(exp(x1))" in str(stack_errors[0].__notes__)


# The largest tracemalloc peak of one heis bracket stack of _gram_stack (L =
# 3) on the 21^3 grid, when each stack was generated numpy source: 445424
# bytes (out, 222 kB, and three 74 kB temporaries).
_GRID_STACK_PEAK = 445_424


def test_heis3_grid_stacks_hold_no_more_than_the_generated_ones():
    table = BracketTable(_heis3())
    pts = GridSpec((-2.0,) * 3, (2.0,) * 3, (21,) * 3).points()
    fields = [table.diffusion_bracket(k, a) for k in (1, 2) for a in enumerate_indices(2, 2)]
    stacks = [compile_expression_stack(f.components, (3,)) for f in fields]
    for stack in stacks:  # first-call allocations
        stack(pts)
    peaks = []
    for stack in stacks:
        tracemalloc.start()
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                stack(pts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= _GRID_STACK_PEAK


def test_local_bound_names_the_first_non_finite_field():
    fields = [VectorField.from_text(t, 1) for t in ("x1", "1/x1", "1/(x1*x1)")]
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError, match="field '1/x1' is non-finite"):
            local_field_bound(fields, (0.0,), order=1)


def test_derivative_stack_builds_the_row_major_jacobian_and_its_derivatives():
    fld = _heis3().diffusion[0]
    value, first, second = derivative_stack(fld, 2)
    assert first == [e for row in jacobian(fld) for e in row]
    assert second == [simplify(differentiate(e, i)) for e in first for i in (1, 2, 3)]
    assert derivative_stack(fld, 0) == [value] == [list(fld.components)]


def test_sampled_norms_add_each_groups_squares_in_its_order():
    # 1, then 15 values whose squares are half an ulp of 1: added left to
    # right each rounds away, numpy's pairwise sum of a contiguous row keeps
    # some of them
    group = [Const(1.0)] + [Const(2.0**-27)] * 15
    (norms,) = sampled_norms([group], np.zeros((3, 1)))
    row = np.array([1.0] + [2.0**-27] * 15)
    assert norms.tolist() == [1.0] * 3
    assert np.sqrt(np.sum(row * row)) > 1.0
    # a group's norm is the same beside other groups
    assert sampled_norms([group[1:], group], np.zeros((1, 1)))[1].tolist() == [1.0]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9, 519])
def test_sampled_norms_are_the_row_by_row_sums(n):
    # squares of x1 and of ulp-sized terms, with constant zeros of both signs
    # among them: each group's norm is sqrt(0 + s0 + s1 + ...), one row at a time
    x = Var(1)
    tiny = [Const(2.0**-27), Binary("mul", Const(2.0**-27), x)]
    groups = [[x] + tiny * 8, [Const(0.0), x, Const(-0.0)] + tiny * 4 + [Const(0.0)],
              [Const(-0.0), Const(0.0)], [Const(3.0)], tiny[::-1] * 9 + [x]]
    pts = np.random.default_rng(3).uniform(0.5, 1.5, size=(n, 1))
    pts[0] = 1.0
    got = sampled_norms(groups, pts)
    for group, norm in zip(groups, got):
        cols = compile_expression_stack(tuple(group), (len(group),))(pts)
        want = np.sqrt(sum(cols[:, j] * cols[:, j] for j in range(len(group))))
        assert norm.shape == (n,) and norm.tobytes() == want.tobytes()
    assert got[0][0] == 1.0 and got[2].tolist() == [0.0] * n


_TANH23 = ("-x1^3 + x2, -x2^3 - x1", ["tanh(x1), 1", "x2^2, tanh(x1*x2)", "0.5, exp(-x1^2)"])


def _frobenius_bound(coeffs, x):
    """coefficient_local_bound from the drift's and the diffusion's own stacks."""
    pts = ball_sample(x, 1.0, 512)
    b = compile_field(coeffs.drift)(pts)
    s = compile_diffusion(coeffs)(pts).reshape(len(pts), -1)  # row-major in (i, j)
    return float(np.maximum(np.sqrt(np.sum(b * b, axis=-1)), np.sqrt(np.sum(s * s, axis=-1))).max())


@pytest.mark.parametrize("model", ["heis", "tanh d=2 m=3"])
def test_coefficient_bound_is_the_frobenius_reference(model):
    coeffs = _heis3() if model == "heis" else CoefficientSet.from_text(2, 3, *_TANH23)
    for x in ((1.0, 0.5, 0.0)[:coeffs.d], (0.3,) * coeffs.d):
        assert coefficient_local_bound(coeffs, x) == _frobenius_bound(coeffs, x)


def test_coefficient_bound_names_the_one_non_finite_column():
    c = CoefficientSet.from_text(1, 3, "-x1", ["x1", "1/x1", "2"])
    with pytest.raises(EvaluationError, match=r"^field '1/x1' is non-finite inside the ball"):
        coefficient_local_bound(c, (0.0,))


def test_a_local_bound_whose_norm_overflows_raises():
    # finite values whose squares overflow: an error naming the field, and
    # no warning (the suite turns warnings into errors)
    with pytest.raises(EvaluationError, match=r"^field '1e\+200\*x1' is non-finite"):
        local_field_bound([VectorField.from_text("1e200*x1", 1)], (0.0,))
    c = CoefficientSet.from_text(1, 2, "-x1", ["1", "1e200*x1"])
    with pytest.raises(EvaluationError, match=r"^field '1e\+200\*x1' is non-finite"):
        coefficient_local_bound(c, (0.0,))
    # each column's norm is finite, sigma's Frobenius norm is not
    c = CoefficientSet.from_text(1, 2, "-x1", ["1e154*x1", "1e154*x1"])
    with pytest.raises(EvaluationError, match="Frobenius norm of sigma overflows"):
        coefficient_local_bound(c, (0.0,))
