"""Iterated Stratonovich integrals and truncated flow-expansion remainders.

The midpoint (trapezoidal-in-integrand) rule discretises every Stratonovich
integral: integral of f against dW adds (f_k + f_{k+1})/2 * dW_k per step,
and integrals against the time direction (index 0) use the step itself as
the weight, i.e. the trapezoid rule.  Midpoint telescopes exactly for
integral of W dW, and nested integrals reuse the same grid: quadrature
error is absorbed into the convergence tests rather than substep
refinement.
"""
from __future__ import annotations

import numpy as np

from ..brackets import BracketTable, MultiIndex, enumerate_indices
from ..errors import ConfigError
from ..fieldlang import VectorField, compile_field
from .brownian import BrownianGrid
from .simulate import FlowTrajectory, Trajectory

__all__ = [
    "iterated_integral",
    "pullback_process",
    "chaos_remainder_path",
    "chaos_remainder",
    "chaos_remainder_ensemble",
    "expansion_coefficients",
]


def _direction_weights(increments: np.ndarray, h: float, direction: int, m: int) -> np.ndarray:
    """Step weights for one noise direction; 0 is the time direction."""
    if direction == 0:
        shape = increments.shape[:-1]
        return np.full(shape, h)
    if not 1 <= direction <= m:
        raise ConfigError(f"direction {direction} outside 0..{m}")
    return increments[..., direction - 1]


def _iterate(
    alpha: MultiIndex, f: np.ndarray, increments: np.ndarray, h: float, m: int
) -> np.ndarray:
    """Iterated integrals of the paths ``f`` (paths, n+1, ...) along ``alpha``.

    Each entry of ``alpha``, left to right, replaces f by its cumulative
    midpoint integral out[:, j] = sum_{k<j} (f_k + f_{k+1})/2 * w_k, the
    weights w coming from ``increments`` (paths, n, m).
    """
    for direction in alpha.entries:
        w = _direction_weights(increments, h, direction, m)
        w = w.reshape(w.shape + (1,) * (f.ndim - 2))
        out = np.zeros_like(f)
        out[:, 1:] = np.cumsum(0.5 * (f[:, :-1] + f[:, 1:]) * w, axis=1)
        f = out
    return f


def iterated_integral(
    alpha: MultiIndex, grid: BrownianGrid, z: np.ndarray | None = None
) -> np.ndarray:
    """Path of the iterated Stratonovich integral of ``z`` along ``alpha``.

    ``z`` is a process on the grid of shape (n+1,) or (n+1, d); ``None``
    means the unit process, recovering the plain iterated integrals.  The
    entries of ``alpha`` are consumed left to right, the last one being the
    outermost integrator.
    """
    alpha.validate_directions(grid.m)
    n = grid.n_steps
    if z is None:
        f = np.ones(n + 1)
    else:
        f = np.asarray(z, dtype=float)
        if f.shape[0] != n + 1:
            raise ConfigError(f"process has {f.shape[0]} samples, grid wants {n + 1}")
    return _iterate(alpha, f[None], grid.increments[None], grid.h, grid.m)[0]


def pullback_process(
    target: VectorField, flow: FlowTrajectory, trajectory: Trajectory
) -> np.ndarray:
    """Path of K(t) target(X(t)), the field pulled back through the flow."""
    vals = compile_field(target)(trajectory.states)
    return np.einsum("tij,tj->ti", flow.inverses, vals)


def expansion_coefficients(
    L: int, target: VectorField, table: BracketTable, x0: np.ndarray
) -> list[tuple[MultiIndex, np.ndarray]]:
    """Frozen bracket values T_alpha(target)(x0) for all weights <= L - 1."""
    if L < 1:
        raise ConfigError("L must be >= 1")
    x0 = np.asarray(x0, dtype=float)
    return [
        (alpha, table.bracket(target, alpha).evaluate(x0))
        for alpha in enumerate_indices(L - 1, table.m)
    ]


def chaos_remainder_path(
    L: int,
    target: VectorField,
    flow: FlowTrajectory,
    trajectory: Trajectory,
    table: BracketTable,
    grid: BrownianGrid,
) -> np.ndarray:
    """Pullback of ``target`` minus its truncated expansion, on the whole grid.

    The truncation keeps the frozen bracket values at x0 times the iterated
    integrals of every multi-index with weight <= L - 1.
    """
    return chaos_remainder_ensemble(
        L,
        target,
        table,
        grid.h,
        trajectory.states[None],
        flow.inverses[None],
        grid.increments[None],
    )[0]


def chaos_remainder(
    L: int,
    target: VectorField,
    t_index: int,
    flow: FlowTrajectory,
    trajectory: Trajectory,
    table: BracketTable,
    grid: BrownianGrid,
) -> np.ndarray:
    """Remainder vector at one grid index."""
    path = chaos_remainder_path(L, target, flow, trajectory, table, grid)
    if not 0 <= t_index <= trajectory.n_steps:
        raise ConfigError("t_index out of range")
    return path[t_index]


def chaos_remainder_ensemble(
    L: int,
    target: VectorField,
    table: BracketTable,
    h: float,
    states: np.ndarray,
    inverses: np.ndarray,
    increments: np.ndarray,
) -> np.ndarray:
    """Remainder paths for a whole ensemble, shape (paths, n+1, d).

    ``states`` is (paths, n+1, d), ``inverses`` (paths, n+1, d, d), and
    ``increments`` (paths, n, m) as stored by the ensemble engine.
    """
    m = table.m
    vals = compile_field(target)(states)
    pullback = np.einsum("btij,btj->bti", inverses, vals)
    truncation = np.zeros_like(pullback)
    x0 = states[0, 0]
    for alpha, coeff in expansion_coefficients(L, target, table, x0):
        if not np.any(coeff):
            continue
        f = _iterate(alpha, np.ones(states.shape[:2]), increments, h, m)
        truncation += f[:, :, None] * coeff[None, None, :]
    return pullback - truncation
