"""Iterated Stratonovich integrals and truncated flow-expansion remainders.

The midpoint (trapezoidal-in-integrand) rule discretises every Stratonovich
integral: integral of f against dW adds (f_k + f_{k+1})/2 * dW_k per step,
and integrals against the time direction (index 0) use the step itself as
the weight, i.e. the trapezoid rule.  Midpoint telescopes exactly for
integral of W dW, and nested integrals reuse the same grid: quadrature
error is absorbed into the convergence tests rather than substep
refinement.

``RemainderEnergy`` computes the cumulative remainder energy of an ensemble
inside the engine's step loop with the same rule, step by step, instead of
over stored paths; its results are bit-identical to the stored-path route.
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
    "RemainderEnergy",
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


class RemainderEnergy:
    """Per-step accumulator of the trapezoid remainder energy of an ensemble.

    A factory for ``RecordSpec.accumulator``: calling it with a block size B
    returns the block's accumulator.  At grid index k that accumulator forms
    R_k = K_k target(X_k) - sum_alpha T_alpha I_alpha(k), adds
    (|R_{k-1}|^2 + |R_k|^2) h / 2 to a running integral, keeps that integral
    at the ``read`` indices, and advances the unit-process iterated integrals
    by the midpoint update I_{alpha j}(k+1) = I_{alpha j}(k)
    + (I_alpha(k) + I_alpha(k+1))/2 * dW^j_k (dW^0 = h).  Only multi-indices
    with a nonzero coefficient are kept, each prefix of them is advanced once
    in length order, and the float operations are those of
    ``chaos_remainder_ensemble`` followed by a trapezoid ``cumsum``.
    """

    def __init__(self, L, target, table, x0, h, read):
        self.terms = [
            (alpha.entries, coeff)
            for alpha, coeff in expansion_coefficients(L, target, table, x0)
            if np.any(coeff)
        ]
        prefixes = {e[:r] for e, _ in self.terms for r in range(1, len(e) + 1)}
        self.prefixes = sorted(prefixes, key=lambda e: (len(e), e))
        self.field = compile_field(target)
        self.h = h
        self.columns = {idx: col for col, idx in enumerate(read)}

    def __call__(self, B: int) -> "_EnergyBlock":
        return _EnergyBlock(self, B)


class _EnergyBlock:
    """The running integrals of one block of paths."""

    def __init__(self, spec: RemainderEnergy, B: int):
        self.spec = spec
        self.integrals = {e: np.zeros(B) for e in spec.prefixes}
        self.integrals[()] = np.ones(B)  # the unit process
        self.cum = np.zeros(B)
        self.prev = None
        self.out = np.zeros((B, len(spec.columns)))

    def step(self, k, x, k_inv, dw) -> None:
        spec, ints = self.spec, self.integrals
        pullback = np.einsum("bij,bj->bi", k_inv, spec.field(x))
        truncation = np.zeros_like(pullback)
        for e, coeff in spec.terms:
            truncation += ints[e][:, None] * coeff[None, :]
        rem = pullback - truncation
        energy = np.sum(rem * rem, axis=1)
        if self.prev is not None:
            self.cum = self.cum + 0.5 * (self.prev + energy) * spec.h
        self.prev = energy
        if k in spec.columns:
            self.out[:, spec.columns[k]] = self.cum
        if dw is not None:
            new = {(): ints[()]}
            for e in spec.prefixes:
                w = spec.h if e[-1] == 0 else dw[:, e[-1] - 1]
                new[e] = ints[e] + 0.5 * (ints[e[:-1]] + new[e[:-1]]) * w
            self.integrals = new

    def result(self) -> np.ndarray:
        """The running integral at each read index, shape (B, len(read))."""
        return self.out
