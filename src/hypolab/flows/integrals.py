"""Iterated Stratonovich integrals and truncated flow-expansion remainders.

The midpoint (trapezoidal-in-integrand) rule discretises every Stratonovich
integral: integral of f against dW adds (f_k + f_{k+1})/2 * dW_k per step,
and integrals against the time direction (index 0) use the step itself as
the weight, i.e. the trapezoid rule.  Midpoint telescopes exactly for
integral of W dW, and nested integrals reuse the same grid: quadrature
error is absorbed into the convergence tests rather than substep
refinement.

The rule has two forms with the same float operations.  In an ensemble,
``RemainderEnergy`` is a record of the engine: its prefix integrals, the
remainder R = K target(X) - sum T_alpha I_alpha and the trapezoid energy
are rows of the generated step (``fieldlang.compile_step_kernel``), one
grid step at a time.  ``iterated_integral`` and ``chaos_remainder_path``
form the integrals along the whole given path at once, by one ``cumsum``
each, and ``RemainderEnergy.remainder`` forms R on that path with time as
its B axis.  The stored-path oracle in ``tests/test_integrals.py`` agrees
with both bit for bit: with R itself on a path, and with the energy in an
ensemble, where only the sign of a zero R may differ.
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


def _midpoint_paths(prefixes, z, dw, h: float) -> dict:
    """The path of each prefix integral of ``z`` (n+1, ...) against the
    increments ``dw`` (n, m) by the midpoint rule I_{e j}(k+1) = I_{e j}(k)
    + (I_e(k) + I_e(k+1))/2 * dW^j_k, dW^0 = h, with I_() = z; each prefix
    comes after its own prefix in ``prefixes``.  The midpoint terms are
    summed in sequence by one in-place ``cumsum`` from 0, so with the float
    operations of the engine's step-by-step update."""
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
    spec = RemainderEnergy(L, target, table, states[0], ())
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
    """The trapezoid remainder energy of an ensemble, as ``RecordSpec.remainder``.

    The engine's step then forms R_k = K_k target(X_k) - sum_alpha T_alpha
    I_alpha(k) over the multi-indices alpha of weight <= L - 1 with a nonzero
    T_alpha = T_alpha(target)(x0), adds (|R_{k-1}|^2 + |R_k|^2) h / 2 to a
    running integral, and keeps it at the grid indices ``read``: column
    ``columns[k]`` of ``EnsembleResult.accumulated``.  The step takes the
    coefficients as an argument, so runs at another x0 share it.
    """

    def __init__(self, L, target, table, x0, read):
        terms = [(alpha.entries, coeff) for alpha, coeff in
                 expansion_coefficients(L, target, table, x0) if np.any(coeff)]
        self.target = target
        self.indices = tuple(e for e, _ in terms)
        self.coefficients = np.array([c for _, c in terms], dtype=float).reshape(-1, target.dim)
        prefixes = {e[:r] for e in self.indices for r in range(1, len(e) + 1)}
        self.prefixes = tuple(sorted(prefixes, key=lambda e: (len(e), e)))
        self.read = tuple(dict.fromkeys(read))  # each index once, in the given order
        self.columns = {idx: col for col, idx in enumerate(self.read)}

    def remainder(self, x, k_inv, integrals) -> np.ndarray:
        """R = K target(X) - sum_alpha T_alpha I_alpha on rows x (d, B) and
        k_inv (d, d, B), from the unit-process integrals by prefix, each (B,)
        or a scalar, and the unit process itself by ``()``."""
        pullback = (k_inv * compile_field(self.target)(x.T).T).sum(axis=1)
        truncation = np.zeros_like(pullback)
        for e, coeff in zip(self.indices, self.coefficients):
            truncation += coeff[:, None] * integrals[e]
        return pullback - truncation
