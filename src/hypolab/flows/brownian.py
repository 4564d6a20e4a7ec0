"""Brownian paths on uniform grids with counter-based, per-stream keying.

Randomness comes from Philox (counter-based) generators keyed by
``(seed, stream_id)`` with the counter block selecting the purpose: block 0
holds the base increments, block ``level`` the bridge midpoints used to
refine a level ``level - 1`` grid.  Every draw is therefore a pure function
of ``(seed, stream_id, purpose)``: regenerating a grid, refining it, or
coarsening it back is bit-reproducible, whatever else was drawn before.

The stored object is the path W(t_k); increments are its differences.  A
bridge refinement copies the coarse path values onto the even fine indices,
so coarsening (taking every second path value) undoes it bit-exactly and
the coarse increments are preserved exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

__all__ = [
    "BrownianGrid",
    "sample_brownian",
    "standard_normal_stream",
]

_BITGEN = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
_GEN = np.random.Generator(_BITGEN)
_STATE = _BITGEN.state


def standard_normal_stream(seed: int, stream_id: int, purpose: int, shape=None, out=None):
    """Standard normals from the Philox stream keyed by (seed, stream, purpose).

    One module-level generator is rekeyed in place: constructing a fresh
    Philox per stream costs an order of magnitude more and produces the
    same bits.  With ``out`` (a C-contiguous float64 array) the draws are
    written into it, the same bits as a fresh array of its shape.
    """
    state = _STATE
    inner = state["state"]
    inner["counter"][:] = 0
    inner["counter"][2] = purpose
    inner["key"][0] = seed
    inner["key"][1] = stream_id
    state["buffer_pos"] = 4  # mark the output buffer exhausted
    state["has_uint32"] = 0
    state["uinteger"] = 0
    _BITGEN.state = state
    return _GEN.standard_normal(shape, out=out)


def _brownian_paths(seed: int, stream_ids, scale: float, path: np.ndarray) -> None:
    """Write the streams' Brownian paths into ``path`` (len(ids), n + 1, m).

    Row 0 of each path must be zero and stays so.  The draws of each stream
    fill rows 1..n, are scaled by ``scale`` (sqrt h) and summed by one
    ``cumsum``: the single-path grids and the engine's blocks share these
    float operations, and so their bits.
    """
    for row, sid in zip(path, stream_ids):
        standard_normal_stream(seed, int(sid), 0, out=row[1:])
    path *= scale  # contiguous, so unbuffered; row 0 stays zero
    np.cumsum(path[:, 1:], axis=1, out=path[:, 1:])


@dataclass(frozen=True, slots=True)
class BrownianGrid:
    """An m-dimensional Brownian path sampled on a uniform grid.

    ``path[k, j]`` is W^{j+1}(t_k) with W(0) = 0; increments have variance h
    per component.  ``level`` counts bridge refinements applied on top of
    the base sampling.
    """

    m: int
    horizon: float
    path: np.ndarray  # (n_steps + 1, m)
    seed: int
    stream_id: int
    level: int = 0

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.path.ndim != 2 or self.path.shape[1] != self.m:
            raise ConfigError("path must have shape (n_steps + 1, m)")
        if self.path.shape[0] < 2:
            raise ConfigError("need at least one step")
        if np.any(self.path[0] != 0.0):
            raise ConfigError("path must start at zero")
        self.path.setflags(write=False)

    @property
    def n_steps(self) -> int:
        return self.path.shape[0] - 1

    @property
    def h(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.path, axis=0)

    def refine(self) -> "BrownianGrid":
        """Halve the step by inserting bridge midpoints.

        Coarse path values are copied onto the even fine indices, so the
        coarse increments are preserved exactly and :meth:`coarsen` is a
        bitwise inverse.
        """
        n = self.n_steps
        noise = standard_normal_stream(
            self.seed, self.stream_id, self.level + 1, (n, self.m)
        )
        mid = 0.5 * (self.path[:-1] + self.path[1:]) + (0.5 * math.sqrt(self.h)) * noise
        fine = np.empty((2 * n + 1, self.m))
        fine[0::2] = self.path
        fine[1::2] = mid
        return BrownianGrid(
            self.m, self.horizon, fine, self.seed, self.stream_id, self.level + 1
        )

    def coarsen(self) -> "BrownianGrid":
        """Drop the odd grid points; inverse of :meth:`refine`."""
        if self.n_steps % 2 != 0:
            raise ConfigError("cannot coarsen a grid with an odd number of steps")
        coarse = self.path[0::2].copy()
        return BrownianGrid(
            self.m, self.horizon, coarse, self.seed, self.stream_id, max(self.level - 1, 0)
        )


def sample_brownian(config, m: int, stream_id: int = 0) -> BrownianGrid:
    """Draw the grid for one stream of the configured simulation.

    Deterministic given ``(config.seed, stream_id)``; increments are
    N(0, h I_m) per step.
    """
    if m < 1:
        raise ConfigError("m must be >= 1")
    path = np.zeros((1, config.n_steps + 1, m))
    _brownian_paths(config.seed, (stream_id,), math.sqrt(config.h), path)
    return BrownianGrid(m, config.horizon, path[0], config.seed, stream_id)
