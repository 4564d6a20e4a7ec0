"""Expression trees for scalar coefficient fields.

An expression is an immutable tree over the variables ``x1..xd`` built from
real constants, the unary operations ``-``, ``sin``, ``cos``, ``exp``,
``tanh``, the binary operations ``+ - * /``, and integer powers ``e^n`` with
``n >= 0``.  Nodes are interned: a constructor returns the one node with its
fields, so equal trees are one object and compare by identity, constants by
value and sign (``0.0`` and ``-0.0`` are two nodes).  Each node's structural
hash is computed once, at construction, from its children's.
:func:`differentiate`, :func:`simplify` and :func:`derivative` (which is
``simplify(differentiate(e, i))``, built without the unsimplified tree) are
memoised on the nodes, so a subtree met again costs one lookup.

For evaluation an expression is lowered, each power to its chain of
products, to a DAG (``_dag``) whose shared nodes are computed once.
``_np_lines`` writes that DAG as numpy or C text, which the engine's step
kernels compile; ``fields.compile_expression_stack`` runs the same numpy
operations in the same order without generating text.
"""
from __future__ import annotations

import math
from functools import lru_cache, partial
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
    "derivative",
    "simplify",
    "to_text",
    "node_count",
]

UNARY_OPS = ("neg", "sin", "cos", "exp", "tanh")
BINARY_OPS = ("add", "sub", "mul", "div")


class Expression:
    """Base class for AST nodes: interned, so equal trees are one object."""

    __slots__ = ("_hash",)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}: expression nodes are immutable")

    __delattr__ = __setattr__

    def __hash__(self):
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __str__(self) -> str:
        return to_text(self)

    def __reduce__(self):
        # rebuilt through the constructor: the copy joins this process's table,
        # and str hashes, which differ between processes, are taken afresh
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


# One table per class, for the life of the process: a node is never removed,
# so the children's id()s in its key are never reused while it is there.
_CONSTS, _VARS, _UNARIES, _BINARIES, _POWERS = {}, {}, {}, {}, {}


def _intern(cls, table: dict, key, values: tuple, hashed: int) -> Expression:
    """A new node for ``key``, or the one a racing thread put in ``table`` first."""
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(node, name, value)
    object.__setattr__(node, "_hash", hashed)
    return table.setdefault(key, node)


class Const(Expression):
    __slots__ = ("value",)

    def __new__(cls, value):
        value = float(value)  # a zero's key has its sign: 0.0 and -0.0 are two nodes
        key = value if value else (value, math.copysign(1.0, value))
        return _CONSTS.get(key) or _intern(cls, _CONSTS, key, (value,), hash(key))


class Var(Expression):
    __slots__ = ("index",)  # 1-based

    def __new__(cls, index):
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        return _VARS.get(index) or _intern(cls, _VARS, index, (index,), hash((index,)))


class Unary(Expression):
    __slots__ = ("op", "arg")

    def __new__(cls, op, arg):
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary op {op!r}")
        key = (op, id(arg))
        return _UNARIES.get(key) or _intern(cls, _UNARIES, key, (op, arg), hash((op, arg._hash)))


class Binary(Expression):
    __slots__ = ("op", "lhs", "rhs")

    def __new__(cls, op, lhs, rhs):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary op {op!r}")
        key = (op, id(lhs), id(rhs))
        return _BINARIES.get(key) or _intern(cls, _BINARIES, key, (op, lhs, rhs),
                                              hash((op, lhs._hash, rhs._hash)))


class Power(Expression):
    __slots__ = ("base", "exponent")

    def __new__(cls, base, exponent):
        if not isinstance(exponent, int) or isinstance(exponent, bool) or exponent < 0:
            raise ValueError(f"power exponent must be a non-negative int, got {exponent!r}")
        key = (id(base), exponent)
        return _POWERS.get(key) or _intern(cls, _POWERS, key, (base, exponent),
                                           hash((base._hash, exponent)))


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
# fills about 0.2k simplify, 0.6k derivative and 0.1k node_count entries.
_MEMO_SIZE = 1 << 14


def _derive(expr: Expression, index: int, d, operand, unary, binary, power) -> Expression:
    """The derivative of ``expr`` in ``x{index}`` by the chain, product and
    quotient rules, written once over the node constructors ``unary``,
    ``binary`` and ``power``: ``d(child, index)`` is a child's derivative and
    ``operand(child)`` the child as the rules' result holds it.  tanh'(u) =
    1 - tanh(u)^2."""
    if index < 1:
        raise ValueError("derivative index must be >= 1")
    if isinstance(expr, Const):
        return Const(0.0)
    if isinstance(expr, Var):
        return Const(1.0 if expr.index == index else 0.0)
    if isinstance(expr, Unary):
        da, a = d(expr.arg, index), operand(expr.arg)
        if expr.op == "neg":
            return unary("neg", da)
        if expr.op == "sin":
            return binary("mul", unary("cos", a), da)
        if expr.op == "cos":
            return unary("neg", binary("mul", unary("sin", a), da))
        if expr.op == "exp":
            return binary("mul", unary("exp", a), da)
        return binary("mul", binary("sub", Const(1.0), power(unary("tanh", a), 2)), da)
    if isinstance(expr, Binary):
        da, db = d(expr.lhs, index), d(expr.rhs, index)
        a, b = operand(expr.lhs), operand(expr.rhs)
        if expr.op in ("add", "sub"):
            return binary(expr.op, da, db)
        if expr.op == "mul":
            return binary("add", binary("mul", da, b), binary("mul", a, db))
        num = binary("sub", binary("mul", da, b), binary("mul", a, db))
        return binary("div", num, power(b, 2))
    if isinstance(expr, Power):
        if expr.exponent == 0:
            return Const(0.0)
        db, b = d(expr.base, index), operand(expr.base)
        return binary("mul", binary("mul", Const(float(expr.exponent)),
                                    power(b, expr.exponent - 1)), db)
    raise TypeError(f"not an expression node: {expr!r}")


@lru_cache(maxsize=_MEMO_SIZE)
def differentiate(expr: Expression, index: int) -> Expression:
    """Symbolic partial derivative with respect to ``x{index}``.

    Exact chain/product/quotient rules; tanh'(u) = 1 - tanh(u)^2.  The result
    is not simplified: :func:`derivative` is the simplified one.  Memoised,
    as :func:`simplify` is: the trees are immutable, so a cached result is
    shared by every caller.
    """
    return _derive(expr, index, differentiate, _itself, Unary, Binary, Power)


def _itself(expr: Expression) -> Expression:
    return expr


@lru_cache(maxsize=_MEMO_SIZE)
def derivative(expr: Expression, index: int) -> Expression:
    """``simplify(differentiate(expr, index))``, the same node, built simplified.

    :func:`differentiate`'s rules, each node they make folded at once by the
    step :func:`simplify` would apply to it, and each operand taken
    simplified, so no unsimplified tree is built.  Memoised.
    """
    return _derive(expr, index, derivative, simplify, _simp_unary, _simp_binary, _simp_power)


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


_ZEROS, _ONE = (Const(0.0), Const(-0.0)), Const(1.0)  # interned: compared by identity


def _simp_binary(op: str, a: Expression, b: Expression) -> Expression:
    if isinstance(a, Const) and isinstance(b, Const):
        if not (op == "div" and b.value == 0.0):
            v = _BINARY_FN[op](a.value, b.value)
            if math.isfinite(v):
                return Const(v)
    if op == "add":
        if a in _ZEROS:
            return b
        if b in _ZEROS:
            return a
    elif op == "sub":
        if b in _ZEROS:
            return a
        if a in _ZEROS:
            return _simp_unary("neg", b)
    elif op == "mul":
        if a in _ZEROS or b in _ZEROS:
            return Const(0.0)
        if a is _ONE:
            return b
        if b is _ONE:
            return a
    elif op == "div":
        if a in _ZEROS:
            return Const(0.0)
        if b is _ONE:
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


@lru_cache(maxsize=_MEMO_SIZE)
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
# (..., d), or (d, ...) with ``var="X[{}]"``; ``fields`` assembles its
# assignments and texts into generated functions.  With ``c=True`` the same
# text is C on doubles: C parses ``+ - * /`` and parentheses as Python does,
# so each operation, and its order, is the numpy text's.

_NP_UNARY = {"neg": "(-{a})", "sin": "np.sin({a})", "cos": "np.cos({a})",
             "exp": "np.exp({a})", "tanh": "np.tanh({a})"}
_NP_BINARY = {"add": "({a} + {b})", "sub": "({a} - {b})",
              "mul": "({a} * {b})", "div": "({a} / {b})"}


def _literal(v: float, c: bool = False) -> str:
    """A float constant in source text: ``(0.5)``, or with ``c`` a C double
    literal with the exact bits, ``(0x1.0000000000000p-1)``."""
    return f"({float.hex(v)})" if c else f"({v!r})"


def _lower(e: Expression) -> Expression:
    """``e``, or for a power its ``_power_chain`` of interned products (x^0 is 1.0),
    so equal chains are one node; x^1 is x, itself maybe a power."""
    while isinstance(e, Power):
        n = e.exponent
        e = _power_chain(e.base, n, partial(Binary, "mul")) if n else Const(1.0)
    return e


def _dag(exprs: Sequence[Expression]):
    """The lowered DAG of ``exprs``, in one walk: ``(roots, kids, refs, order)``.

    ``roots[i]`` is ``exprs[i]`` lowered; ``kids`` and ``refs`` are keyed by
    ``id(node)`` (nodes are interned for the life of the process, and a dict
    keyed by ids never calls a node's ``__hash__``): ``kids`` holds a non-leaf
    node's lowered operands, ``refs`` the references to a node over all
    ``exprs``, a node's operands counted at its first reference only.
    ``order`` lists the non-leaf nodes in post-order of first reference, left
    operand first: the order in which ``_np_lines`` writes them.
    """
    kids, refs, order = {}, {}, []

    def count(e):
        if type(e) is Power:
            e = _lower(e)
        key = id(e)
        seen = refs.get(key, 0)
        refs[key] = seen + 1
        if not seen and type(e) in (Unary, Binary):
            kids[key] = (count(e.arg),) if type(e) is Unary else (count(e.lhs), count(e.rhs))
            order.append(e)
        return e

    return [count(e) for e in exprs], kids, refs, order


def _np_lines(exprs: Sequence[Expression], var: str = "X[..., {}]", local: str = "t",
              c: bool = False):
    """numpy source of ``exprs``: ``(lines, texts)``, ``texts[i]`` computing ``exprs[i]``
    after the assignments ``lines``, each a pair ``(name, text)``.  A power is its
    ``_power_chain`` (x^0 is 1.0); a product whose left factor is a product is
    written flat, left-associative.  Each non-leaf node referenced twice or more
    over all ``exprs`` (a chain's squares, a non-leaf base) is computed once, as a
    local ``{local}N``, in post-order: the same bits.  With ``c``, C texts:
    constants are exact hexadecimal literals; ``exprs`` may then hold no ``sin``,
    ``cos``, ``exp`` or ``tanh``, whose numpy and libm results may differ in the
    last bit."""
    roots, kids, refs, order = _dag(exprs)
    lines, texts = [], {}

    def text(e):
        t = texts.get(id(e))
        return t if t is not None else (_literal(e.value, c) if isinstance(e, Const)
                                        else var.format(e.index - 1))

    for e in order:
        if isinstance(e, Unary):
            t = _NP_UNARY[e.op].format(a=text(kids[id(e)][0]))
        else:
            lhs, rhs = kids[id(e)]
            a = text(lhs)  # (a * b) * c as a * b * c, the same order: a chain nests no parentheses
            if e.op == "mul" == getattr(lhs, "op", "") and a[0] == "(":
                a = a[1:-1]
            t = _NP_BINARY[e.op].format(a=a, b=text(rhs))
        if refs[id(e)] > 1:
            lines.append((f"{local}{len(lines)}", t))
            t = lines[-1][0]
        texts[id(e)] = t
    return lines, [text(e) for e in roots]
