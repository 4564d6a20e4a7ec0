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
from hypolab.errors import ConfigError, EvaluationError, ParseError
from hypolab.fieldlang import (
    Binary,
    CoefficientSet,
    Const,
    Kernel,
    Power,
    Unary,
    Var,
    VectorField,
    compile_diffusion,
    compile_expression_stack,
    compile_field,
    compile_jacobian,
    compile_step_kernel,
    derivative,
    differentiate,
    evaluate,
    jacobian,
    parse_expression,
    simplify,
    to_text,
)
from hypolab.fieldlang.ast import _np_lines, _simp_binary

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


def _wide_exprs():
    """Expressions over x1, x2 with every operation, constant zeros of both
    signs and constants of 1e-300 and 1e300."""
    leaves = st.one_of(
        st.sampled_from([Const(v) for v in (0.0, -0.0, 1.0, -2.0, 0.5, 1e300, -1e-300)]),
        st.sampled_from([Var(1), Var(2)]),
    )

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(["neg", "sin", "cos", "exp", "tanh"]), children),
            st.builds(Binary, st.sampled_from(["add", "sub", "mul", "div"]), children, children),
            st.builds(Power, children, st.sampled_from([0, 1, 2, 3, 7, 2**40 + 1])),
        )

    return st.recursive(leaves, extend, max_leaves=10)


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
    step = compile_step_kernel(Kernel(coeffs, "euler"))
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
    kernels = [compile_step_kernel(Kernel(coeffs, scheme, flows=True, covariance=True))
               for scheme in ("euler", "tamed-euler", "split-step-backward-euler")]
    for fn in kernels:  # the split-step kernel, the largest, has three chains of 66 squares
        assert len("".join(linecache.getlines(fn.__code__.co_filename))) < 8192
    # a stack is a program of a few operations per bit of the exponent
    for stack in (compile_field(field), compile_jacobian(field)):
        assert len(stack.program) < 3 * (10**20).bit_length()
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
        compile_step_kernel(Kernel(coeffs, scheme, flows=True, covariance=True))
        out = np.empty((2, len(pts)))
        compile_step_kernel(Kernel(coeffs, scheme))(pts.T.copy(), out, np.zeros((1, 2)), 1.0)
        assert out[1].tolist() == row, scheme


def _generated_stack(exprs, shape):
    """A stack as numpy source: ``_np_lines``'s text compiled into one
    function, kept as the reference for the stacks' values."""
    temps, texts = _np_lines(exprs, "X[..., {}]")
    body = ["X = np.asarray(X, np.float64)", f"out = np.empty(X.shape[:-1] + ({len(exprs)},))",
            *(f"{name} = {t}" for name, t in temps),
            *(f"out[..., {i}] = {t}" for i, t in enumerate(texts)),
            f"return out.reshape(X.shape[:-1] + {shape!r})"]
    source = "\n".join(["def stack(X):", *(f"    {line}" for line in body)])
    namespace = {"np": np}
    exec(compile(source, "<generated stack>", "exec"), namespace)
    return namespace["stack"]


def _outcome(fn, X, errors):
    """The bytes ``fn(X)`` returns, or the type of the error it raises."""
    with np.errstate(all=errors):
        try:
            return fn(X).tobytes()
        except (FloatingPointError, ZeroDivisionError) as exc:
            return type(exc)


_SPECIAL_POINTS = np.array([[0.5, -0.25], [0.0, -0.0], [1e-300, -1e300], [np.inf, np.nan],
                            [-3.0, 700.0], [2.0, 1.0], [-1.0, 1.0 + 2**-52], [1e150, 1e-150]])


def _assert_stack_is_the_generated_text(exprs, shape=None):
    shape = (len(exprs),) if shape is None else shape
    stack, reference = compile_expression_stack(exprs, shape), _generated_stack(exprs, shape)
    pts = np.vstack([_SPECIAL_POINTS, np.random.default_rng(41).uniform(-3, 3, size=(40, 2))])
    for X in (pts, pts[0], pts[3], pts[:6].reshape(2, 3, 2)):
        for errors in ("ignore", "raise"):
            assert _outcome(stack, X, errors) == _outcome(reference, X, errors), (X, errors)


_STACK_TEXTS = ("sin(x1)*cos(x2) - exp(-x1^2)/tanh(x2)", f"x1^{2**40 + 1} - x2^{2**40 + 1}",
                "1e300*x1*x2 - 1e-300/x2 + x1^3*x1^3", "x1/(x2 - x2) + tanh(1e300*x1)",
                "exp(1000*x1) - exp(-1000*x2) + (x1 + x2)^7/(1 + x1^2)", "-x1 - (x2 - 0*x1)")
_STACK_NODES = (Const(0.0), Const(-0.0), Unary("neg", Const(0.0)), Var(2),
                Binary("mul", Const(1e300), Const(1e300)), Binary("add", Const(-0.0), Const(-0.0)),
                Binary("mul", Const(-0.0), Var(1)), Binary("div", Var(1), Const(0.0)),
                Binary("div", Const(1e-300), Const(1e300)), Unary("exp", Const(1e300)),
                Binary("sub", Unary("sin", Const(0.5)), Var(1)))


@pytest.mark.parametrize("case", range(len(_STACK_TEXTS) + len(_STACK_NODES) + 2))
def test_stack_values_are_the_generated_texts_bytes(case):
    texts = [parse_expression(t, 2) for t in _STACK_TEXTS]
    exprs = [*texts, *_STACK_NODES]
    if case < len(exprs):
        _assert_stack_is_the_generated_text((exprs[case],))
    elif case == len(exprs):  # one stack of 16: shared subexpressions, in a (2, 8) shape
        _assert_stack_is_the_generated_text(tuple(exprs[:16]), (2, 8))
    else:  # a quotient of two constants raises at that division, in both
        _assert_stack_is_the_generated_text((Var(1), Binary("div", Const(1.0), Const(-0.0))))


@given(st.lists(_wide_exprs(), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_random_stacks_are_the_generated_texts_bytes(exprs):
    _assert_stack_is_the_generated_text(tuple(exprs))


def _nested(kind, n):
    x = Var(1)
    if kind == "left sum":  # -x1 + 0.001*x1 + ..., as the parser builds a long sum
        return parse_expression(" + ".join(["-x1"] + ["0.001*x1"] * (n - 1)), 1)
    e = x
    for k in range(n):
        e = {"right sum": lambda e: Binary("add", Var(1), e),
             "negations": lambda e: Unary("neg", e),
             "sines": lambda e: Unary("sin", e),
             "products": lambda e: Binary("mul", e, Binary("add", x, Const(k))),
             "quotients": lambda e: Binary("div", Binary("sub", x, e), x)}[kind](e)
    return e


@pytest.mark.parametrize("kind", ["left sum", "right sum", "negations", "sines", "products",
                                  "quotients"])
def test_stack_refuses_what_python_could_not_compile(kind):
    # Python nests at most 200 brackets: a stack refuses an expression whose
    # numpy text nests deeper, with the message compiling that text gave
    for n in (99, 100, 101, 198, 199, 200, 201, 250):
        e = _nested(kind, n)
        try:
            _generated_stack((e,), ())
            reason = None
        except SyntaxError as exc:
            reason = exc.msg
        try:
            compile_expression_stack.__wrapped__((e,), ())
            refused = None
        except ConfigError as exc:
            refused = str(exc)
        assert refused == (reason and f"expression nested too deeply to compile ({reason})"), n
    with pytest.raises(ConfigError, match="nested too deeply"):
        compile_expression_stack.__wrapped__((_nested("negations", 5000),), ())


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


def _dense_bracket(v, u):
    """[v, u] as simplify folds 0 + Ju[j][0] v[0] - Jv[j][0] u[0] + ..., one
    operation at a time, every product included."""
    ju, jv = jacobian(u), jacobian(v)
    vs, us = [simplify(c) for c in v.components], [simplify(c) for c in u.components]
    comps = []
    for j in range(v.dim):
        term = Const(0.0)
        for i in range(v.dim):
            term = _simp_binary("add", term, _simp_binary("mul", ju[j][i], vs[i]))
            term = _simp_binary("sub", term, _simp_binary("mul", jv[j][i], us[i]))
        comps.append(term)
    return comps


_ZERO_LIKE = [Const(0.0), Const(-0.0), Binary("mul", Const(0.0), Var(1)),
              Binary("mul", Var(2), Const(-0.0)), Unary("neg", Const(0.0))]


def _fields_with_zeros():
    component = st.one_of(_exprs(), _wide_exprs(), st.sampled_from(_ZERO_LIKE))
    zero = st.lists(st.sampled_from([Const(0.0), Const(-0.0)]), min_size=2, max_size=2)
    return st.one_of(st.lists(component, min_size=2, max_size=2), zero).map(
        lambda comps: VectorField(2, tuple(comps)))


@given(_fields_with_zeros(), _fields_with_zeros())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_lie_bracket_is_its_simplified_sum(v, u):
    # lie_bracket folds the sum as it goes, skipping the products with a
    # constant-0 factor and the brackets with a zero field: the dense sum,
    # folded one operation at a time, and simplify of the whole sum are the
    # same nodes, zero signs included
    got = lie_bracket(v, u).components
    assert all(a is b for a, b in zip(got, _dense_bracket(v, u), strict=True))
    ju, jv = jacobian(u), jacobian(v)
    want = []
    for j in range(2):
        term = Const(0.0)
        for i in range(2):
            term = Binary("add", term, Binary("mul", ju[j][i], v.components[i]))
            term = Binary("sub", term, Binary("mul", jv[j][i], u.components[i]))
        want.append(simplify(term))
    assert got == tuple(want)


@given(st.one_of(_exprs(), _wide_exprs()), st.sampled_from([1, 2]), st.sampled_from([1, 2]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_derivative_is_the_simplified_differentiate(e, i, j):
    first = derivative(e, i)
    assert first is simplify(differentiate(e, i))
    assert derivative(first, j) is simplify(differentiate(first, j))
    assert derivative(differentiate(e, i), j) is simplify(differentiate(differentiate(e, i), j))


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
