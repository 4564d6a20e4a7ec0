import linecache
import math
import pickle
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypolab.brackets import lie_bracket
from hypolab.errors import EvaluationError, ParseError
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
    compile_jacobian,
    compile_step_kernel,
    differentiate,
    evaluate,
    jacobian,
    parse_expression,
    simplify,
    to_text,
)

# ---------------------------------------------------------------------------
# parsing


def test_parse_power_and_function():
    e = parse_expression("x1^2 + sin(x2)", 2)
    assert e == Binary("add", Power(Var(1), 2), Unary("sin", Var(2)))


def test_parse_variable_out_of_range():
    with pytest.raises(ParseError, match="x3 out of range"):
        parse_expression("x3", 2)


def test_parse_ginzburg_landau_shape():
    # A leading minus negates the whole multiplicative term.
    e = parse_expression("-x1*x1*x1 + x1", 1)
    expected = Binary(
        "add",
        Unary("neg", Binary("mul", Binary("mul", Var(1), Var(1)), Var(1))),
        Var(1),
    )
    assert e == expected


def test_power_binds_tighter_than_minus():
    e = parse_expression("-x1^2", 1)
    assert e == Unary("neg", Power(Var(1), 2))


def test_minus_inside_product():
    e = parse_expression("2*-x1", 1)
    assert e == Binary("mul", Const(2.0), Unary("neg", Var(1)))


@pytest.mark.parametrize(
    "text,match",
    [
        ("x1^-2", "non-negative"),
        ("x1^2.5", "integer"),
        ("x1^(2)", "integer literal"),
        ("x1 +", "unexpected end"),
        ("y1", "unknown identifier"),
        ("x1 @ 2", "unexpected character"),
        ("", "empty"),
        ("(x1", "expected '\\)'"),
        ("max(x1; 1)", "unexpected character"),
        ("foo(x1)", "unknown identifier"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse_expression(text, 2)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + y2", 2)
    assert err.value.position == 5


def test_whitespace_insensitive():
    assert parse_expression(" x1 ^ 2+ sin( x2 ) ", 2) == parse_expression(
        "x1^2+sin(x2)", 2
    )


def test_scientific_notation():
    e = parse_expression("1.5e-3*x1", 1)
    assert evaluate(e, (2.0,)) == pytest.approx(3e-3)


@pytest.mark.parametrize("text", ["1e400", "x1 + 2.5E+999", "sin(-1e309*x1)"])
def test_overflowing_literal_is_rejected(text):
    with pytest.raises(ParseError, match="not finite") as err:
        parse_expression(text, 1)
    assert text[err.value.position].isdigit()


@pytest.mark.parametrize("text", ["1 + 3/0*x1", "0/0", "x1/(2 - 2)", "x1/(0*x2)", "1/sin(0)",
                                  "x1/-0^3"])
def test_division_by_a_constant_zero_is_rejected(text):
    with pytest.raises(ParseError, match="division by a constant zero") as err:
        parse_expression(text, 2)
    assert text[err.value.position] == "/"


def test_division_by_a_divisor_that_may_vanish_parses():
    assert parse_expression("1/(x1 - x1) + 0/x2", 2) == Binary(
        "add", Binary("div", Const(1.0), Binary("sub", Var(1), Var(1))),
        Binary("div", Const(0.0), Var(2)))


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_spec_examples():
    assert evaluate(parse_expression("x1^2 + sin(x2)", 2), (2, 0)) == 4.0
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate(parse_expression("1/(x1)", 1), (0.0,))
    assert evaluate(parse_expression("exp(x1)", 1), (1.0,)) == pytest.approx(
        math.e, abs=1e-12
    )


def test_evaluate_overflow_reports_subexpression():
    with pytest.raises(EvaluationError, match="exp"):
        evaluate(parse_expression("exp(x1^2)", 1), (100.0,))


def test_evaluate_rejects_nonfinite_point():
    with pytest.raises(EvaluationError):
        evaluate(Var(1), (math.inf,))


def test_zero_power_is_one():
    assert evaluate(Power(Var(1), 0), (0.0,)) == 1.0


# ---------------------------------------------------------------------------
# differentiation


def test_derivative_examples():
    e = parse_expression("x1^2 + sin(x2)", 2)
    assert to_text(simplify(differentiate(e, 1))) == "2*x1"
    t = parse_expression("tanh(x1)", 1)
    assert simplify(differentiate(t, 1)) == Binary(
        "sub", Const(1.0), Power(Unary("tanh", Var(1)), 2)
    )
    assert simplify(differentiate(Var(2), 1)) == Const(0.0)


_CORPUS = [
    ("x1^3 - 2*x1 + 1", 1),
    ("sin(x1)*cos(x2)", 2),
    ("exp(x1/4)*x2", 2),
    ("tanh(x1*x2)", 2),
    ("x1/(2 + x2^2)", 2),
    ("(x1 + x2)^4", 2),
    ("cos(x1^2) - x2*x1", 2),
    ("exp(sin(x1))", 1),
]


@pytest.mark.parametrize("text,d", _CORPUS)
def test_derivative_matches_central_difference(text, d):
    e = parse_expression(text, d)
    rng = np.random.default_rng(7)
    step = 1e-5
    for _ in range(40):
        p = rng.uniform(-2, 2, size=d)
        for i in range(1, d + 1):
            sym = evaluate(differentiate(e, i), p)
            hi, lo = p.copy(), p.copy()
            hi[i - 1] += step
            lo[i - 1] -= step
            fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * step)
            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym), abs(fd))


# ---------------------------------------------------------------------------
# simplification


def test_simplify_identities():
    x = Var(1)
    assert simplify(Binary("add", x, Const(0.0))) == x
    assert simplify(Binary("mul", x, Const(1.0))) == x
    assert simplify(Binary("mul", x, Const(0.0))) == Const(0.0)
    assert simplify(Power(x, 0)) == Const(1.0)
    assert simplify(Power(x, 1)) == x
    assert simplify(Binary("sub", Const(0.0), x)) == Unary("neg", x)
    assert simplify(Unary("neg", Unary("neg", x))) == x


def test_simplify_folds_constants():
    e = parse_expression("2*3 + 4^2", 1)
    assert simplify(e) == Const(22.0)


def test_simplify_keeps_division_by_zero_unfolded():
    e = Binary("div", Const(1.0), Const(0.0))
    assert simplify(e) == e


# strategies for random expression trees over two variables


def _exprs(max_depth=4):
    leaves = st.one_of(
        st.integers(-3, 3).map(lambda v: Const(float(v))),
        st.sampled_from([Var(1), Var(2)]),
    )

    def extend(children):
        unary = st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "tanh"]), children)
        binary = st.builds(
            Binary, st.sampled_from(["add", "sub", "mul"]), children, children
        )
        power = st.builds(Power, children, st.integers(0, 3))
        return st.one_of(unary, binary, power)

    return st.recursive(leaves, extend, max_leaves=12)


@given(_exprs())
@settings(max_examples=150, deadline=None)
def test_print_parse_print_fixed_point(e):
    text = to_text(e)
    reparsed = parse_expression(text, 2)
    assert to_text(reparsed) == text


@given(_exprs())
@settings(max_examples=150, deadline=None)
def test_simplify_idempotent_and_equivalent(e):
    s = simplify(e)
    assert simplify(s) == s
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = rng.uniform(-1.5, 1.5, size=2)
        a = evaluate(e, p)
        b = evaluate(s, p)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


@given(_exprs(), st.sampled_from([1, 2]))
@settings(max_examples=100, deadline=None)
def test_differentiate_commutes_with_simplify(e, i):
    rng = np.random.default_rng(3)
    d_raw = differentiate(e, i)
    d_simped = differentiate(simplify(e), i)
    for _ in range(4):
        p = rng.uniform(-1.2, 1.2, size=2)
        a = evaluate(d_raw, p)
        b = evaluate(d_simped, p)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


@given(_exprs())
@settings(max_examples=100, deadline=None)
def test_compiled_matches_scalar_evaluation(e):
    fn = compile_expression_stack((e,), ())
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, size=(8, 2))
    batch = fn(pts)
    for row, expected in zip(pts, batch):
        assert evaluate(e, row) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# vector fields and jacobians


def test_jacobian_linear_field_is_constant_matrix():
    v = VectorField.from_text("2*x1 + x2, x1 - 3*x2", 2)
    rows = jacobian(v)
    assert rows[0][0] == Const(2.0)
    assert rows[0][1] == Const(1.0)
    assert rows[1][0] == Const(1.0)
    assert rows[1][1] == Const(-3.0)


def test_jacobian_product_example():
    v = VectorField.from_text("x1*x2, x1", 2)
    rows = jacobian(v)
    assert to_text(rows[0][0]) == "x2"
    assert to_text(rows[0][1]) == "x1"
    assert rows[1][0] == Const(1.0)
    assert rows[1][1] == Const(0.0)


def test_jacobian_matches_finite_differences():
    v = VectorField.from_text("sin(x1)*x2, exp(x2/3) - x1^2", 2)
    rows = jacobian(v)
    rng = np.random.default_rng(123)
    step = 1e-5
    for _ in range(100):
        p = rng.uniform(-2, 2, size=2)
        for j in range(2):
            for i in range(2):
                sym = evaluate(rows[j][i], p)
                hi, lo = p.copy(), p.copy()
                hi[i] += step
                lo[i] -= step
                fd = (
                    evaluate(v.components[j], hi) - evaluate(v.components[j], lo)
                ) / (2 * step)
                assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym), abs(fd))


def test_vector_field_dimension_checks():
    from hypolab.errors import ConfigError

    with pytest.raises(ConfigError):
        VectorField.from_text("x1, x2", 1)


# ---------------------------------------------------------------------------
# layout of the compiled coefficient stacks

_LAYOUT_MODELS = {
    "smooth": (
        "-x1^3 + sin(x2), -x2 - tanh(x3), exp(-x1^2) - x3",
        ["1, 0.5*x3, cos(x1)", "tanh(x2), 0, x1*x2"],
    ),
    "constant": ("1, -2, 0.5", ["3, 0, 1", "0, 2, -1"]),
}


def compile_diffusion_jacobians(coeffs):
    """X (..., d) -> stacked diffusion-column Jacobians (..., m, d, d), one
    stack: the layout checks' three-axis shape."""
    exprs = tuple(e for col in coeffs.diffusion for row in jacobian(col) for e in row)
    return compile_expression_stack(exprs, (coeffs.m, coeffs.d, coeffs.d))


def _layout_references(coeffs, point):
    """Tree-walk values of b, grad b, sigma and grad sigma_k at one point."""
    d, m = coeffs.d, coeffs.m

    def grad(field, j, i):
        return evaluate(differentiate(field.components[j], i + 1), point)

    return {
        "field": [evaluate(c, point) for c in coeffs.drift.components],
        "jacobian": [[grad(coeffs.drift, j, i) for i in range(d)] for j in range(d)],
        "diffusion": [
            [evaluate(coeffs.diffusion[k].components[i], point) for k in range(m)]
            for i in range(d)
        ],
        "diffusion_jacobians": [
            [[grad(coeffs.diffusion[k], j, i) for i in range(d)] for j in range(d)]
            for k in range(m)
        ],
    }


@pytest.mark.parametrize("model", sorted(_LAYOUT_MODELS))
def test_compiled_stack_layouts_match_tree_walk(model):
    drift, sigma = _LAYOUT_MODELS[model]
    coeffs = CoefficientSet.from_text(3, 2, drift, sigma)
    d, m = coeffs.d, coeffs.m
    compiled = {
        "field": (compile_field(coeffs.drift), (d,)),
        "jacobian": (compile_jacobian(coeffs.drift), (d, d)),
        "diffusion": (compile_diffusion(coeffs), (d, m)),
        "diffusion_jacobians": (compile_diffusion_jacobians(coeffs), (m, d, d)),
    }
    pts = np.random.default_rng(17).uniform(-1.5, 1.5, size=(6, d))
    refs = [_layout_references(coeffs, p) for p in pts]
    for name, (fn, shape) in compiled.items():
        batch = fn(pts)
        assert batch.shape == (len(pts),) + shape, name
        assert batch.dtype == np.float64
        expected = np.array([r[name] for r in refs])
        np.testing.assert_allclose(batch, expected, rtol=1e-12, atol=1e-12)
        single = fn(pts[0])
        assert single.shape == shape, name
        np.testing.assert_allclose(single, expected[0], rtol=1e-12, atol=1e-12)


# Integer powers are products by repeated squaring on every route.  libm's
# pow and numpy's SIMD ``**`` each round some of these differently.
_POWER_FIELDS = ("x1^3 - x2^5", "(x1 + x2)^4 / (1 + x1^2)", "x1^7*x2", "x2^6 - x1^9 + (x1 - x2)^8")


def test_integer_powers_give_the_same_bits_on_every_route():
    # rows 3.. start at 0 and have no noise, so one Euler step with h = 1
    # writes 0 + 1.0 * b + 0.0 there: the kernel's drift entries themselves
    d = 2 + len(_POWER_FIELDS)
    drift = "0, 0, " + ", ".join(_POWER_FIELDS)
    coeffs = CoefficientSet.from_text(d, 1, drift, [", ".join("0" * d)])
    pts = np.zeros((500, d))
    pts[:, :2] = np.random.default_rng(29).uniform(-2.0, 1.0, size=(500, 2))
    walk = np.array([coeffs.drift.evaluate(p) for p in pts])[:, 2:]
    out = np.empty((d, len(pts)))
    step = compile_step_kernel(coeffs, "euler", False, False)
    step(pts.T.copy(), out, np.zeros((1, len(pts))), 1.0)
    routes = {
        "row-major": compile_field(coeffs.drift)(pts),
        "one point": np.array([compile_field(coeffs.drift)(p) for p in pts]),
        "step kernel": out.T,
    }
    for name, got in routes.items():
        assert got[:, 2:].tobytes() == walk.tobytes(), name
    # a folded constant power is the tree walk's product too
    cube = parse_expression("x1^3", 1)
    assert simplify(parse_expression("0.1^3", 1)) == Const(evaluate(cube, (0.1,)))
    assert compile_expression_stack((cube,), ())(np.array([0.1])) == evaluate(cube, (0.1,))


def test_huge_exponents_compile_to_short_sources():
    field = VectorField.from_text("x1^100000000000000000000", 1)
    coeffs = CoefficientSet(1, 1, field, (VectorField.from_text("1", 1),))
    compiled = [compile_field(field), compile_jacobian(field)] + [
        compile_step_kernel(coeffs, scheme, True, True)
        for scheme in ("euler", "tamed-euler", "split-step-backward-euler")
    ]
    for fn in compiled:  # the split-step kernel, the largest, has three chains of 66 squares
        assert len("".join(linecache.getlines(fn.__code__.co_filename))) < 8192
    pts = np.array([[0.5], [-1.0], [1.0]])
    assert compile_field(field)(pts).tolist() == [[0.0], [1.0], [1.0]]
    assert [evaluate(field.components[0], p) for p in pts] == [0.0, 1.0, 1.0]
    with pytest.raises(EvaluationError, match="x1\\^100000000000000000000"):
        evaluate(field.components[0], (1.5,))
    # an odd exponent beyond int64 keeps its parity: numpy's ** took it as a float
    odd = VectorField.from_text(f"x1^{2**64 + 1}", 1)
    assert compile_field(odd)(pts).tolist() == [[0.0], [-1.0], [1.0]]


def test_power_with_many_one_bits_compiles_on_every_route():
    # 250 one bits: the chain's running product is written flat, not nested
    coeffs = CoefficientSet.from_text(2, 1, f"0, x1^{2**250 - 1}", ["0, 0"])
    pts = np.array([[-1.0, 0.0], [0.5, 0.0]])
    walk = np.array([coeffs.drift.evaluate(p) for p in pts])
    assert walk[:, 1].tolist() == [-1.0, 0.0]
    assert compile_field(coeffs.drift)(pts).tobytes() == walk.tobytes()
    # row 2 starts at 0 without noise: one step with h = 1 writes the drift,
    # tamed by 1 / (1 + h|b|) under tamed Euler
    expected = {"euler": [-1.0, 0.0], "tamed-euler": [-0.5, 0.0],
                "split-step-backward-euler": [-1.0, 0.0]}
    for scheme, row in expected.items():
        compile_step_kernel(coeffs, scheme, True, True)
        out = np.empty((2, len(pts)))
        compile_step_kernel(coeffs, scheme, False, False)(pts.T.copy(), out, np.zeros((1, 2)), 1.0)
        assert out[1].tolist() == row, scheme


def test_constants_compare_with_their_sign_of_zero():
    assert Const(0.0) != Const(-0.0)
    assert Const(-0.0) == Const(-0.0) and Const(2) == Const(2.0)


@pytest.mark.parametrize("first", [0, 1])
def test_compile_cache_keeps_the_sign_of_zero(first):
    # the Jacobians of these fields differ only in the sign of the zero at (1, 1)
    texts = ("-x2, x1", "0 - x2, x1")
    expected = {"-x2, x1": True, "0 - x2, x1": False}  # signbit of d(f1)/d(x1)
    compile_expression_stack.cache_clear()
    for text in (texts[first], texts[1 - first]):
        value = compile_jacobian(VectorField.from_text(text, 2))(np.array([0.3, -0.7]))
        assert value[0, 0] == 0.0
        assert np.signbit(value[0, 0]) == expected[text], text


# ---------------------------------------------------------------------------
# memoised symbolic layer


@given(_exprs(), st.sampled_from([1, 2]))
@settings(max_examples=150, deadline=None)
def test_memoised_results_equal_the_uncached_ones(e, i):
    pairs = [
        (simplify(e), simplify.__wrapped__(e)),
        (differentiate(e, i), differentiate.__wrapped__(e, i)),
        (jacobian(VectorField(1, (e,))), jacobian.__wrapped__(VectorField(1, (e,)))),
    ]
    for got, ref in pairs:
        # repr prints every constant, so it also compares the signs of zero
        assert got == ref and repr(got) == repr(ref)


@given(st.lists(_exprs(), min_size=4, max_size=4))
@settings(max_examples=150, deadline=None)
def test_lie_bracket_is_its_simplified_sum(comps):
    # lie_bracket folds the sum as it goes; simplify of the whole sum is the
    # same node, zero signs included
    v, u = VectorField(2, tuple(comps[:2])), VectorField(2, tuple(comps[2:]))
    ju, jv = jacobian(u), jacobian(v)
    want = []
    for j in range(2):
        term = Const(0.0)
        for i in range(2):
            term = Binary("add", term, Binary("mul", ju[j][i], v.components[i]))
            term = Binary("sub", term, Binary("mul", jv[j][i], u.components[i]))
        want.append(simplify(term))
    assert lie_bracket(v, u).components == tuple(want)


@pytest.mark.parametrize("first", [0, 1])
def test_memo_never_serves_a_zero_of_the_other_sign(first):
    exprs = (Const(1.0), parse_expression("-1", 1))
    signs = (1.0, -1.0)  # of the simplified derivatives 0.0 and -0.0
    simplify.cache_clear()
    differentiate.cache_clear()
    for k in (first, 1 - first):
        got = simplify(differentiate(exprs[k], 1))
        assert got == Const(0.0 * signs[k])
        assert math.copysign(1.0, got.value) == signs[k]


def test_independently_built_trees_hash_equal():
    # interned: two parses of one text give the one tree
    text = "sin(x1)*x2^3 - 0.5*exp(-x1)/(1 + x2)"
    a, b = parse_expression(text, 2), parse_expression(text, 2)
    assert a is b and a == b and hash(a) == hash(b)
    assert hash(Binary("add", Var(1), Const(2.0))) == hash(Binary("add", Var(1), Const(2.0)))
    assert pickle.loads(pickle.dumps(a)) is a


def test_zeros_of_the_two_signs_are_two_nodes():
    assert Const(0.0) is not Const(-0.0) and Const(0.0) != Const(-0.0)
    assert Const(-0.0) is Const(-0.0) and Const(0) is Const(0.0)
    assert repr(Binary("mul", Const(-0.0), Var(1))) == (
        "Binary(op='mul', lhs=Const(value=-0.0), rhs=Var(index=1))")


@pytest.mark.parametrize("node,name", [(Const(1.0), "value"), (Var(1), "index"),
                                       (Unary("neg", Var(1)), "arg"),
                                       (Binary("add", Var(1), Var(2)), "op"),
                                       (Power(Var(1), 2), "exponent")])
def test_assigning_to_a_field_raises(node, name):
    before = repr(node)
    with pytest.raises(AttributeError):
        setattr(node, name, Var(3))
    with pytest.raises(AttributeError):
        delattr(node, name)
    assert repr(node) == before


def test_a_tree_built_in_several_threads_at_once_is_one_object():
    # constants no other test builds, so both threads make new nodes and race
    # to put them in the tables
    def tree(k):
        shifted = Binary("add", Var(1), Const(k + 0.125))
        return Binary("sub", Binary("mul", Unary("sin", shifted), Power(shifted, 3)),
                      Binary("div", Const(k + 0.375), Unary("exp", Unary("neg", shifted))))

    built = [[] for _ in range(4)]  # more threads than cores
    start = threading.Barrier(len(built), timeout=60)

    def build(out):
        start.wait()
        out.extend(tree(k) for k in range(10_000, 14_000))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in built]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [len(out) for out in built] == [4000] * len(built)
    assert all(len({id(t) for t in trees}) == 1 for trees in zip(*built))
    assert all(a is tree(k) for k, a in enumerate(built[0], 10_000))


def test_unpickled_tree_hashes_like_a_rebuilt_one():
    # str hashes differ between processes; a cached hash must not travel
    text = "sin(x1)*x2^3 - 0.5*x1"
    code = (
        "import pickle, sys\n"
        "from hypolab.fieldlang import parse_expression\n"
        "e = pickle.loads(sys.stdin.buffer.read())\n"
        f"print(hash(e) == hash(parse_expression({text!r}, 2)))\n"
    )
    env = {"PYTHONHASHSEED": "12345", "PYTHONPATH": ":".join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code],
        input=pickle.dumps(parse_expression(text, 2)),
        capture_output=True,
        env=env,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == b"True"
