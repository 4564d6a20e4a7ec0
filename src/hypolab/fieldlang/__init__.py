"""Parsing, symbolic differentiation, and evaluation of coefficient fields."""
from .ast import (
    Binary,
    Const,
    Expression,
    Power,
    Unary,
    Var,
    differentiate,
    evaluate,
    node_count,
    simplify,
    to_text,
)
from .fields import (
    CoefficientSet,
    VectorField,
    compile_diffusion,
    compile_expression_stack,
    compile_field,
    compile_jacobian,
    compile_step_kernel,
    jacobian,
)
from .parser import FUNCTIONS, parse_expression

__all__ = [
    "Expression",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Power",
    "parse_expression",
    "FUNCTIONS",
    "evaluate",
    "differentiate",
    "simplify",
    "to_text",
    "node_count",
    "jacobian",
    "VectorField",
    "CoefficientSet",
    "compile_expression_stack",
    "compile_field",
    "compile_jacobian",
    "compile_diffusion",
    "compile_step_kernel",
]
