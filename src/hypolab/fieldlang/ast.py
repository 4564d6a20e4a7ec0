"""Expression trees for scalar coefficient fields.

An expression is an immutable tree over the variables ``x1..xd`` built from
real constants, the unary operations ``-``, ``sin``, ``cos``, ``exp``,
``tanh``, the binary operations ``+ - * /``, and integer powers ``e^n`` with
``n >= 0``.  Trees are frozen dataclasses: they compare structurally,
constants by value and sign (``0.0`` and ``-0.0`` differ), and each node
computes its hash once, at construction, from its children's.
:func:`differentiate` and :func:`simplify` are memoised on the nodes, so a
subtree met again costs one lookup.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Sequence

from ..errors import EvaluationError

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "UNARY_OPS",
    "BINARY_OPS",
    "evaluate",
    "differentiate",
    "simplify",
    "to_text",
    "node_count",
]

UNARY_OPS = ("neg", "sin", "cos", "exp", "tanh")
BINARY_OPS = ("add", "sub", "mul", "div")


class Expression:
    """Base class for AST nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return to_text(self)

    def __reduce__(self):
        # rebuilt through the constructor: a cached hash holds str hashes,
        # which differ between processes
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True, slots=True)
class Const(Expression):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))

    # Sign-aware, so 0.0 and -0.0 are distinct keys of the compile cache.
    def _key(self) -> tuple[float, float]:
        return self.value, math.copysign(1.0, self.value)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, Const) else NotImplemented

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, slots=True)
class Var(Expression):
    index: int  # 1-based
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"variable index must be >= 1, got {self.index}")
        object.__setattr__(self, "_hash", hash((self.index,)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class Unary(Expression):
    op: str
    arg: Expression
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {self.op!r}")
        object.__setattr__(self, "_hash", hash((self.op, self.arg)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class Binary(Expression):
    op: str
    lhs: Expression
    rhs: Expression
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {self.op!r}")
        object.__setattr__(self, "_hash", hash((self.op, self.lhs, self.rhs)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class Power(Expression):
    base: Expression
    exponent: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise ValueError("power exponent must be a stored integer")
        if self.exponent < 0:
            raise ValueError("power exponent must be non-negative")
        object.__setattr__(self, "_hash", hash((self.base, self.exponent)))

    def __hash__(self):
        return self._hash


_UNARY_FN = {
    "neg": lambda v: -v,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "tanh": math.tanh,
}


def evaluate(expr: Expression, point: Sequence[float]) -> float:
    """Evaluate ``expr`` at a finite point, returning a finite real.

    Raises :class:`EvaluationError` naming the offending subexpression when
    the result is non-finite (division by zero, overflow) or when a variable
    index exceeds the point dimension.
    """
    pt = [float(v) for v in point]
    for v in pt:
        if not math.isfinite(v):
            raise EvaluationError("evaluation point must be finite")
    return _eval(expr, pt)


def _eval(expr: Expression, pt: list) -> float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.index > len(pt):
            raise EvaluationError(
                f"variable x{expr.index} out of range for a {len(pt)}-dimensional point"
            )
        return pt[expr.index - 1]
    if isinstance(expr, Unary):
        v = _eval(expr.arg, pt)
        try:
            out = _UNARY_FN[expr.op](v)
        except (OverflowError, ValueError):
            raise EvaluationError(f"non-finite value from '{to_text(expr)}'") from None
        return _check_finite(out, expr)
    if isinstance(expr, Binary):
        a = _eval(expr.lhs, pt)
        b = _eval(expr.rhs, pt)
        if expr.op == "div" and b == 0.0:
            raise EvaluationError(f"division by zero in '{to_text(expr)}'")
        return _check_finite(_BINARY_FN[expr.op](a, b), expr)  # float arithmetic never raises
    if isinstance(expr, Power):
        v, n = _eval(expr.base, pt), expr.exponent
        return _check_finite(_power_chain(v, n, _BINARY_FN["mul"]) if n else 1.0, expr)
    raise TypeError(f"not an expression node: {expr!r}")


def _power_chain(base, n: int, mul):
    """``base^n``, n >= 1, by O(log n) squarings, low bits first: x^3 = x * (x * x).
    Every route multiplies so, and so agrees on any CPU, as libm's ``pow`` and
    numpy's SIMD ``**`` do not."""
    acc, square = None, base
    while True:
        if n & 1:
            acc = square if acc is None else mul(acc, square)
        n >>= 1
        if not n:
            return acc
        square = mul(square, square)


_BINARY_FN = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


def _check_finite(value: float, expr: Expression) -> float:
    if not math.isfinite(value):
        raise EvaluationError(f"non-finite value from '{to_text(expr)}'")
    return value


# Bounded memo tables of the symbolic layer: a heis-model bracket bound
# fills about 1.3k simplify and 0.6k differentiate entries.
_MEMO_SIZE = 1 << 14


@lru_cache(maxsize=_MEMO_SIZE)
def differentiate(expr: Expression, index: int) -> Expression:
    """Symbolic partial derivative with respect to ``x{index}``.

    Exact chain/product/quotient rules; tanh'(u) = 1 - tanh(u)^2.  The result
    is not simplified; compose with :func:`simplify` for tidy output.
    Memoised, as :func:`simplify` is: the trees are immutable, so a cached
    result is shared by every caller.
    """
    if index < 1:
        raise ValueError("derivative index must be >= 1")
    if isinstance(expr, Const):
        return Const(0.0)
    if isinstance(expr, Var):
        return Const(1.0 if expr.index == index else 0.0)
    if isinstance(expr, Unary):
        d = differentiate(expr.arg, index)
        a = expr.arg
        if expr.op == "neg":
            return Unary("neg", d)
        if expr.op == "sin":
            return Binary("mul", Unary("cos", a), d)
        if expr.op == "cos":
            return Unary("neg", Binary("mul", Unary("sin", a), d))
        if expr.op == "exp":
            return Binary("mul", Unary("exp", a), d)
        # tanh
        return Binary(
            "mul",
            Binary("sub", Const(1.0), Power(Unary("tanh", a), 2)),
            d,
        )
    if isinstance(expr, Binary):
        da = differentiate(expr.lhs, index)
        db = differentiate(expr.rhs, index)
        a, b = expr.lhs, expr.rhs
        if expr.op == "add":
            return Binary("add", da, db)
        if expr.op == "sub":
            return Binary("sub", da, db)
        if expr.op == "mul":
            return Binary("add", Binary("mul", da, b), Binary("mul", a, db))
        # quotient rule
        num = Binary("sub", Binary("mul", da, b), Binary("mul", a, db))
        return Binary("div", num, Power(b, 2))
    if isinstance(expr, Power):
        if expr.exponent == 0:
            return Const(0.0)
        db = differentiate(expr.base, index)
        return Binary(
            "mul",
            Binary("mul", Const(float(expr.exponent)), Power(expr.base, expr.exponent - 1)),
            db,
        )
    raise TypeError(f"not an expression node: {expr!r}")


@lru_cache(maxsize=_MEMO_SIZE)
def simplify(expr: Expression) -> Expression:
    """Constant folding and 0/1 identities, applied bottom-up.

    Idempotent, and evaluation-equivalent to the input at every finite point
    where both sides are defined.  Deliberately not a CAS: no factoring, no
    trigonometric identities.
    """
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Unary):
        return _simp_unary(expr.op, simplify(expr.arg))
    if isinstance(expr, Binary):
        return _simp_binary(expr.op, simplify(expr.lhs), simplify(expr.rhs))
    if isinstance(expr, Power):
        return _simp_power(simplify(expr.base), expr.exponent)
    raise TypeError(f"not an expression node: {expr!r}")


def _simp_unary(op: str, a: Expression) -> Expression:
    if op == "neg":
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Unary) and a.op == "neg":
            return a.arg
        return Unary("neg", a)
    if isinstance(a, Const):
        try:
            v = _UNARY_FN[op](a.value)
        except (OverflowError, ValueError):
            return Unary(op, a)
        if math.isfinite(v):
            return Const(v)
    return Unary(op, a)


def _is_const(e: Expression, v: float) -> bool:
    return isinstance(e, Const) and e.value == v


def _simp_binary(op: str, a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and isinstance(b, Const):
        if not (op == "div" and b.value == 0.0):
            v = _BINARY_FN[op](a.value, b.value)
            if math.isfinite(v):
                return Const(v)
    if op == "add":
        if _is_const(a, 0.0):
            return b
        if _is_const(b, 0.0):
            return a
    elif op == "sub":
        if _is_const(b, 0.0):
            return a
        if _is_const(a, 0.0):
            return _simp_unary("neg", b)
    elif op == "mul":
        if _is_const(a, 0.0) or _is_const(b, 0.0):
            return Const(0.0)
        if _is_const(a, 1.0):
            return b
        if _is_const(b, 1.0):
            return a
    elif op == "div":
        if _is_const(a, 0.0):
            return Const(0.0)
        if _is_const(b, 1.0):
            return a
    return Binary(op, a, b)


def _simp_power(base: Expression, n: int) -> Expression:
    if n == 0:
        return Const(1.0)
    if n == 1:
        return base
    if isinstance(base, Const):
        v = _power_chain(base.value, n, _BINARY_FN["mul"])
        if math.isfinite(v):
            return Const(v)
    return Power(base, n)


# Pretty-printer precedence levels.  A child is parenthesised when its level
# is below what its slot requires; right operands of left-associative binary
# operators require one level more than the operator itself.
_LEVEL_ADD = 1
_LEVEL_NEG = 2
_LEVEL_MUL = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5

_BINARY_SYMBOL = {"add": " + ", "sub": " - ", "mul": "*", "div": "/"}
_BINARY_LEVEL = {"add": _LEVEL_ADD, "sub": _LEVEL_ADD, "mul": _LEVEL_MUL, "div": _LEVEL_MUL}


def to_text(expr: Expression) -> str:
    """Render an expression in the DSL syntax; re-parsing is a fixed point."""
    return _fmt(expr, 0)


def _level(expr: Expression) -> int:
    if isinstance(expr, Binary):
        return _BINARY_LEVEL[expr.op]
    if isinstance(expr, Unary):
        return _LEVEL_NEG if expr.op == "neg" else _LEVEL_ATOM
    if isinstance(expr, Power):
        return _LEVEL_POW
    if isinstance(expr, Const) and expr.value < 0:
        return _LEVEL_NEG
    return _LEVEL_ATOM


def _fmt(expr: Expression, slot: int) -> str:
    if isinstance(expr, Const):
        text = _fmt_number(expr.value)
    elif isinstance(expr, Var):
        text = f"x{expr.index}"
    elif isinstance(expr, Unary):
        if expr.op == "neg":
            text = "-" + _fmt(expr.arg, _LEVEL_NEG)
        else:
            text = f"{expr.op}({_fmt(expr.arg, 0)})"
    elif isinstance(expr, Binary):
        lvl = _BINARY_LEVEL[expr.op]
        text = _fmt(expr.lhs, lvl) + _BINARY_SYMBOL[expr.op] + _fmt(expr.rhs, lvl + 1)
    elif isinstance(expr, Power):
        text = f"{_fmt(expr.base, _LEVEL_POW)}^{expr.exponent}"
    else:
        raise TypeError(f"not an expression node: {expr!r}")
    if _level(expr) < slot:
        return f"({text})"
    return text


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def node_count(expr: Expression) -> int:
    if isinstance(expr, (Const, Var)):
        return 1
    if isinstance(expr, Unary):
        return 1 + node_count(expr.arg)
    if isinstance(expr, Binary):
        return 1 + node_count(expr.lhs) + node_count(expr.rhs)
    if isinstance(expr, Power):
        return 1 + node_count(expr.base)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# numpy source text.  ``_np_lines(exprs)`` reads an array ``X`` of shape
# (..., d), or (d, ...) with ``var="X[{}]"``; ``fields`` assembles its lines
# and texts into generated functions.

_NP_UNARY = {"neg": "(-{a})", "sin": "np.sin({a})", "cos": "np.cos({a})",
             "exp": "np.exp({a})", "tanh": "np.tanh({a})"}
_NP_BINARY = {"add": "({a} + {b})", "sub": "({a} - {b})",
              "mul": "({a} * {b})", "div": "({a} / {b})"}


def _np_lines(exprs: Sequence[Expression], var: str = "X[..., {}]", local: str = "t"):
    """numpy source of ``exprs``: ``(lines, texts)``, ``texts[i]`` computing ``exprs[i]``
    after ``lines``.  A power is its ``_power_chain`` (x^0 is 1.0); a product whose left
    factor is a product is written flat, left-associative.  Each non-leaf node
    referenced twice or more over all ``exprs`` (a chain's squares, a non-leaf base)
    is computed once, as a local ``{local}N``, in post-order: the same bits."""
    products, refs, lines, texts = {}, {}, [], {}

    def product(a, b):  # one node per product, so equal chains compare by identity
        return products.setdefault((a, b), Binary("mul", a, b))

    def lower(e):
        while isinstance(e, Power):  # x^1 is x, itself maybe a power
            e = _power_chain(e.base, e.exponent, product) if e.exponent else Const(1.0)
        return e

    def count(e):
        e = lower(e)
        refs[e] = refs.get(e, 0) + 1
        if refs[e] == 1 and not isinstance(e, (Const, Var)):
            for child in (e.arg,) if isinstance(e, Unary) else (e.lhs, e.rhs):
                count(child)

    def text(e):
        e = lower(e)
        if e in texts:
            return texts[e]
        t = (f"({e.value!r})" if isinstance(e, Const)
             else var.format(e.index - 1) if isinstance(e, Var)
             else _NP_UNARY[e.op].format(a=text(e.arg)) if isinstance(e, Unary)
             else _NP_BINARY[e.op].format(a=flat(e), b=text(e.rhs)))
        if refs[e] > 1 and not isinstance(e, (Const, Var)):
            lines.append(f"{local}{len(lines)} = {t}")
            t = f"{local}{len(lines) - 1}"
        texts[e] = t
        return t

    def flat(e):  # (a * b) * c as a * b * c, the same order: a chain nests no parentheses
        a = text(e.lhs)
        return a[1:-1] if e.op == "mul" == getattr(lower(e.lhs), "op", "") and a[0] == "(" else a

    for e in exprs:
        count(e)
    return lines, [text(e) for e in exprs]
