"""Iterated Stratonovich integrals and truncated flow-expansion remainders.

The midpoint (trapezoidal-in-integrand) rule discretises every Stratonovich
integral: integral of f against dW adds (f_k + f_{k+1})/2 * dW_k per step,
and integrals against the time direction (index 0) use the step itself as
the weight, i.e. the trapezoid rule.  Midpoint telescopes exactly for
integral of W dW, and nested integrals reuse the same grid: quadrature
error is absorbed into the convergence tests rather than substep
refinement.

The rule has two forms with the same float operations: ``RemainderEnergy``
advances its prefix integrals one grid step at a time inside the engine's
step loop, and ``iterated_integral`` and ``chaos_remainder_path`` form them
along the whole given path at once, by one ``cumsum`` each.
``RemainderEnergy.remainder`` forms R = K target(X) - sum T_alpha I_alpha
on (d, B) rows for both: the engine's B paths at one grid index, or one
path with time as the B axis.  The stored-path oracle in
``tests/test_integrals.py`` agrees with both bit for bit.
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
    "expansion_coefficients",
    "RemainderEnergy",
]


def _midpoint_step(integrals: dict, prefixes, base, dw, h: float) -> dict:
    """The prefix integrals one grid step on, by the midpoint rule
    I_{e j}(k+1) = I_{e j}(k) + (I_e(k) + I_e(k+1))/2 * dW^j_k, dW^0 = h.

    ``integrals`` maps each prefix e to I_e(k), and the empty prefix to the
    integrand z_k; ``base`` is z_{k+1} and ``dw[j - 1]`` is dW^j_k.  Every
    prefix comes after its own prefix in ``prefixes``.
    """
    new = {(): base}
    for e in prefixes:
        w = h if e[-1] == 0 else dw[e[-1] - 1]
        new[e] = integrals[e] + 0.5 * (integrals[e[:-1]] + new[e[:-1]]) * w
    return new


def _midpoint_paths(prefixes, z, dw, h: float) -> dict:
    """``_midpoint_step`` along a whole grid: the path of each prefix integral
    of ``z`` (n+1, ...) against the increments ``dw`` (n, m), its midpoint
    terms summed in sequence by one in-place ``cumsum`` from 0, and so with
    the float operations of ``_midpoint_step``."""
    paths = {(): z}
    for e in prefixes:
        f = paths[e[:-1]]
        w = h if e[-1] == 0 else dw[:, e[-1] - 1].reshape((-1,) + (1,) * (f.ndim - 1))
        out = np.zeros_like(f)
        out[1:] = 0.5 * (f[:-1] + f[1:]) * w
        paths[e] = np.cumsum(out, axis=0, out=out)
    return paths


def iterated_integral(
    alpha: MultiIndex, grid: BrownianGrid, z: np.ndarray | None = None
) -> np.ndarray:
    """Path of the iterated Stratonovich integral of ``z`` along ``alpha``.

    ``z`` is a process on the grid of shape (n+1,) or (n+1, d); ``None``
    means the unit process, recovering the plain iterated integrals.  The
    entries of ``alpha`` are consumed left to right, the last one being the
    outermost integrator.  The result is a new array.
    """
    alpha.validate_directions(grid.m)
    n = grid.n_steps
    f = np.ones(n + 1) if z is None else np.array(z, dtype=float)
    if f.shape[0] != n + 1:
        raise ConfigError(f"process has {f.shape[0]} samples, grid wants {n + 1}")
    prefixes = [alpha.entries[:r] for r in range(1, len(alpha.entries) + 1)]
    return _midpoint_paths(prefixes, f, grid.increments, grid.h)[alpha.entries]


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
    integrals of every multi-index with weight <= L - 1.  The unit-process
    integrals are formed over the whole grid at once, and
    ``RemainderEnergy.remainder`` forms R on the stored path with time as
    its B axis.
    """
    states = trajectory.states
    spec = RemainderEnergy(L, target, table, states[0], grid.h, ())
    integrals = _midpoint_paths(spec.prefixes, np.ones(len(states)), grid.increments, grid.h)
    return spec.remainder(states.T, np.moveaxis(flow.inverses, 0, -1), integrals).T


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
    if not 0 <= t_index <= trajectory.n_steps:
        raise ConfigError("t_index out of range")
    return chaos_remainder_path(L, target, flow, trajectory, table, grid)[t_index]


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
    in length order, and the float operations are those of the stored-path
    oracle in the tests followed by a trapezoid ``cumsum``.
    """

    def __init__(self, L, target, table, x0, h, read):
        self.terms = [
            (alpha.entries, coeff)
            for alpha, coeff in expansion_coefficients(L, target, table, x0)
            if np.any(coeff)
        ]
        prefixes = {e[:r] for e, _ in self.terms for r in range(1, len(e) + 1)}
        self.prefixes = sorted(prefixes, key=lambda e: (len(e), e))
        self.field = compile_field(target, component_major=True)
        self.h = h
        self.columns = {idx: col for col, idx in enumerate(read)}

    def remainder(self, x, k_inv, integrals) -> np.ndarray:
        """R = K target(X) - sum_alpha T_alpha I_alpha on rows x (d, B) and
        k_inv (d, d, B), from the kept unit-process integrals, each (B,)."""
        pullback = (k_inv * self.field(x)).sum(axis=1)
        truncation = np.zeros_like(pullback)
        for e, coeff in self.terms:
            truncation += coeff[:, None] * integrals[e]
        return pullback - truncation

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

    def step(self, k, x, j, k_inv, c, dw) -> None:
        """The engine's hook; reads x (d, B), k_inv (d, d, B) and dw (m, B)
        or None."""
        spec, ints = self.spec, self.integrals
        rem = spec.remainder(x, k_inv, ints)
        energy = np.sum(rem * rem, axis=0)
        if self.prev is not None:
            self.cum = self.cum + 0.5 * (self.prev + energy) * spec.h
        self.prev = energy
        if k in spec.columns:
            self.out[:, spec.columns[k]] = self.cum
        if dw is not None:
            self.integrals = _midpoint_step(ints, spec.prefixes, ints[()], dw, spec.h)

    def result(self) -> np.ndarray:
        """The running integral at each read index, shape (B, len(read))."""
        return self.out
