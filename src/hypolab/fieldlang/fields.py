"""Vector fields and coefficient sets built from DSL expressions."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError
from .ast import Const, Expression, _np_source, differentiate, evaluate, simplify, to_text
from .parser import parse_expression

__all__ = [
    "VectorField",
    "CoefficientSet",
    "jacobian",
    "compile_field",
    "compile_expression_stack",
    "compile_jacobian",
    "compile_diffusion",
    "compile_diffusion_jacobians",
]


@dataclass(frozen=True, slots=True)
class VectorField:
    """A length-``dim`` tuple of component expressions."""

    dim: int
    components: tuple[Expression, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"field dimension must be >= 1, got {self.dim}")
        if len(self.components) != self.dim:
            raise ConfigError(
                f"field has {len(self.components)} components, expected {self.dim}"
            )

    @classmethod
    def from_text(cls, text: str, dim: int) -> "VectorField":
        """Parse ``dim`` comma-separated component expressions."""
        parts = [p for p in text.split(",")]
        if len(parts) != dim:
            raise ConfigError(
                f"expected {dim} comma-separated components, got {len(parts)}: {text!r}"
            )
        return cls(dim, tuple(parse_expression(p, dim) for p in parts))

    def evaluate(self, point: Sequence[float]) -> np.ndarray:
        return np.array([evaluate(c, point) for c in self.components], dtype=float)

    def describe(self) -> str:
        return ", ".join(to_text(c) for c in self.components)


@dataclass(frozen=True, slots=True)
class CoefficientSet:
    """Drift and diffusion columns of an SDE in dimension ``d`` with ``m`` noises."""

    d: int
    m: int
    drift: VectorField
    diffusion: tuple[VectorField, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"need at least one diffusion column, got m={self.m}")
        if self.drift.dim != self.d:
            raise ConfigError("drift dimension does not match d")
        if len(self.diffusion) != self.m:
            raise ConfigError(
                f"expected {self.m} diffusion columns, got {len(self.diffusion)}"
            )
        for j, col in enumerate(self.diffusion, start=1):
            if col.dim != self.d:
                raise ConfigError(f"diffusion column {j} dimension does not match d")

    @classmethod
    def from_text(cls, d: int, m: int, drift: str, sigma_columns: Sequence[str]) -> "CoefficientSet":
        cols = tuple(VectorField.from_text(s, d) for s in sigma_columns)
        return cls(d, m, VectorField.from_text(drift, d), cols)

    @property
    def additive(self) -> bool:
        """True when every diffusion-Jacobian entry is the constant 0 of
        either sign (the derivative of a negated constant is ``-0.0``)."""
        return all(
            isinstance(e, Const) and e.value == 0.0
            for col in self.diffusion
            for row in jacobian(col)
            for e in row
        )

    def sigma_at(self, point: Sequence[float]) -> np.ndarray:
        """Diffusion matrix (d, m) at a point."""
        return np.column_stack([col.evaluate(point) for col in self.diffusion])


@lru_cache(maxsize=1024)
def jacobian(field: VectorField) -> tuple[tuple[Expression, ...], ...]:
    """Jacobian matrix of expressions; row j, column i holds d(field_j)/d(x_i).

    With this orientation ``jacobian(u) @ v`` is the directional derivative of
    ``u`` along ``v``, so the bracket [v, u] = Ju*v - Jv*u reads off directly.
    Memoised per field, like the ``differentiate`` and ``simplify`` calls
    it is made of.
    """
    return tuple(
        tuple(simplify(differentiate(comp, i)) for i in range(1, field.dim + 1))
        for comp in field.components
    )


# ---------------------------------------------------------------------------
# Vectorised compilation.  Every compiler returns a function that accepts X
# with shape (..., d) and returns float64 values with the documented trailing
# shape (with ``component_major``: X (d, ...), that shape leading).  Non-finite
# values are not raised here: simulation code masks and counts them instead.


@lru_cache(maxsize=1024)
def compile_expression_stack(
    exprs: tuple[Expression, ...], shape: tuple[int, ...], component_major: bool = False
) -> Callable:
    """Compile a flat tuple of k expressions into one generated function
    X (..., d) -> (..., *shape), or X (d, ...) -> (*shape, ...).

    The function reads X once as float64, assigns expression i to
    ``out[..., i]`` of one (..., k) array (``out[i]`` of a (k, ...) one from
    rows ``X[i]`` when component-major; a constant broadcasts), and reshapes
    to ``shape``.  This is the only cache of compiled field code.
    """
    k = len(exprs)
    if component_major:
        var, alloc, result = "X[{}]", f"({k},) + X.shape[1:]", f"{shape!r} + X.shape[1:]"
    else:
        var, alloc, result = "X[..., {}]", f"X.shape[:-1] + ({k},)", f"X.shape[:-1] + {shape!r}"
    lines = ["def stack(X):", "    X = np.asarray(X, np.float64)", f"    out = np.empty({alloc})"]
    slot = var.replace("X", "out")
    try:
        lines += [f"    {slot.format(i)} = {_np_source(e, var)}" for i, e in enumerate(exprs)]
        lines.append(f"    return out.reshape({result})")
        code = compile("\n".join(lines), "<fieldlang>", "exec")
    except (SyntaxError, RecursionError) as exc:
        reason = exc.msg if isinstance(exc, SyntaxError) else str(exc)
        raise ConfigError(f"expression nested too deeply to compile ({reason})") from None
    namespace = {"np": np}
    exec(code, namespace)
    return namespace["stack"]


def compile_field(field: VectorField, component_major: bool = False) -> Callable:
    """X (..., d) -> field values (..., d)."""
    return compile_expression_stack(field.components, (field.dim,), component_major)


def compile_jacobian(field: VectorField, component_major: bool = False) -> Callable:
    """X (..., d) -> Jacobian values (..., d, d), row j col i = d f_j / d x_i."""
    flat = tuple(entry for row in jacobian(field) for entry in row)
    return compile_expression_stack(flat, (field.dim, field.dim), component_major)


def compile_diffusion(coeffs: CoefficientSet, component_major: bool = False) -> Callable:
    """X (..., d) -> diffusion matrix (..., d, m)."""
    exprs = tuple(col.components[i] for i in range(coeffs.d) for col in coeffs.diffusion)
    return compile_expression_stack(exprs, (coeffs.d, coeffs.m), component_major)


def compile_diffusion_jacobians(coeffs: CoefficientSet, component_major: bool = False) -> Callable:
    """X (..., d) -> stacked diffusion-column Jacobians (..., m, d, d)."""
    exprs = tuple(e for col in coeffs.diffusion for row in jacobian(col) for e in row)
    return compile_expression_stack(exprs, (coeffs.m, coeffs.d, coeffs.d), component_major)
