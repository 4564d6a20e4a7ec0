"""Recursive-descent parser for the coefficient DSL.

Grammar (whitespace between tokens is ignored)::

    expr    := unary (("+" | "-") unary)*
    unary   := "-" unary | term
    term    := factor (("*" | "/") factor)*
    factor  := "-" factor | power
    power   := atom ("^" INTEGER)*
    atom    := NUMBER | VARIABLE | FUNCTION "(" expr ")" | "(" expr ")"

``+ - * /`` associate to the left.  Powers bind tighter than negation
(``-x1^2`` reads ``-(x1^2)``), and a minus at the head of an additive operand
negates the whole multiplicative term (``-x1*x1*x1 + x1`` reads
``-(x1*x1*x1) + x1``).  Power exponents must be literal non-negative
integers: fractional or negative exponents are rejected so every parsed
field is smooth.  Identifiers are restricted to ``x1..xd`` and the function
names ``sin``, ``cos``, ``exp``, ``tanh``.  A number literal must be finite:
``1e400`` is rejected rather than read as infinity, and so is a division by
a divisor that simplifies to the constant 0 (``3/0``, ``x1/(2 - 2)``).
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from ..errors import ParseError
from .ast import Binary, Const, Expression, Power, Unary, Var, simplify

__all__ = ["parse_expression", "FUNCTIONS"]

FUNCTIONS = ("sin", "cos", "exp", "tanh")

_NUMBER = re.compile(r"\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_VAR = re.compile(r"x([1-9][0-9]*)$")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # num ident op end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            m = _NUMBER.match(text, i)
            if not m:
                raise ParseError(f"malformed number starting at {text[i:i+8]!r}", i)
            tokens.append(_Token("num", m.group(0), i))
            i = m.end()
            continue
        if ch.isalpha() or ch == "_":
            m = _IDENT.match(text, i)
            tokens.append(_Token("ident", m.group(0), i))
            i = m.end()
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], dim: int):
        self.tokens = tokens
        self.dim = dim
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept_op(self, *symbols: str) -> _Token | None:
        tok = self.peek()
        if tok.kind == "op" and tok.text in symbols:
            return self.advance()
        return None

    def expr(self) -> Expression:
        node = self.unary()
        while (tok := self.accept_op("+", "-")) is not None:
            rhs = self.unary()
            node = Binary("add" if tok.text == "+" else "sub", node, rhs)
        return node

    def unary(self) -> Expression:
        if self.accept_op("-"):
            return Unary("neg", self.unary())
        return self.term()

    def term(self) -> Expression:
        node = self.factor()
        while (tok := self.accept_op("*", "/")) is not None:
            rhs = self.factor()
            divisor = simplify(rhs) if tok.text == "/" else None  # alone: 0/0 folds to 0
            if isinstance(divisor, Const) and divisor.value == 0.0:
                raise ParseError("division by a constant zero", tok.pos)
            node = Binary("mul" if tok.text == "*" else "div", node, rhs)
        return node

    def factor(self) -> Expression:
        if self.accept_op("-"):
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> Expression:
        node = self.atom()
        while self.accept_op("^"):
            node = Power(node, self.integer_exponent())
        return node

    def integer_exponent(self) -> int:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            raise ParseError("power exponent must be a non-negative integer", tok.pos)
        if tok.kind != "num":
            raise ParseError("power exponent must be an integer literal", tok.pos)
        self.advance()
        if not tok.text.isdigit():
            raise ParseError(
                f"power exponent must be an integer, got {tok.text!r}", tok.pos
            )
        return int(tok.text)

    def atom(self) -> Expression:
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number literal {tok.text!r} is not finite", tok.pos)
            return Const(value)
        if tok.kind == "ident":
            m = _VAR.match(tok.text)
            if m:
                index = int(m.group(1))
                if index > self.dim:
                    raise ParseError(
                        f"variable x{index} out of range for dimension {self.dim}",
                        tok.pos,
                    )
                return Var(index)
            if tok.text in FUNCTIONS:
                if not self.accept_op("("):
                    raise ParseError(f"expected '(' after {tok.text}", self.peek().pos)
                inner = self.expr()
                if not self.accept_op(")"):
                    raise ParseError("expected ')'", self.peek().pos)
                return Unary(tok.text, inner)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            if not self.accept_op(")"):
                raise ParseError("expected ')'", self.peek().pos)
            return inner
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse_expression(text: str, dim: int) -> Expression:
    """Parse a DSL expression over variables ``x1..x{dim}``."""
    if dim < 1:
        raise ParseError("dimension must be at least 1", 0)
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(text), dim)
    try:
        node = parser.expr()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek().pos) from None
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ParseError(f"unexpected token {trailing.text!r}", trailing.pos)
    return node
