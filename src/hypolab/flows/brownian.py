"""Brownian paths on uniform grids with counter-based, per-stream keying.

Randomness comes from one Philox (counter-based) generator, rekeyed per stream
to ``(seed, stream_id)`` by assigning its ``state`` dict, with the counter
block selecting the purpose: block 0 holds the base increments.  Every draw
is therefore a pure function of ``(seed, stream_id, purpose)``: regenerating
a grid is bit-reproducible, whatever else was drawn before.

The stored object is the path W(t_k); increments are its differences.

The engine's native loop (``fieldlang.step_kernel_c``) draws the base
increments of its blocks itself, the normals of ``_GEN.standard_normal``:
numpy's ziggurat on the stream's Philox words, which it computes itself,
with its fast path inline and its other draws by numpy's sampler on those
same words.  It never reads or writes this module's generator.
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


def _rekey(seed: int, stream_id: int, purpose: int) -> None:
    _STATE["state"]["counter"][:] = (0, 0, purpose, 0)
    _STATE["state"]["key"][:] = (seed, stream_id)
    _STATE.update(buffer_pos=4, has_uint32=0, uinteger=0)  # output buffer exhausted
    _BITGEN.state = _STATE


def standard_normal_stream(seed: int, stream_id: int, purpose: int, shape=None, out=None):
    """Standard normals from the Philox stream keyed by (seed, stream, purpose).

    With ``out`` (a C-contiguous float64 array) the draws are written into
    it, the same bits as a fresh array of its shape.
    """
    _rekey(seed, stream_id, purpose)
    return _GEN.standard_normal(shape, out=out)


def _brownian_paths(seed: int, stream_ids, scale: float, path: np.ndarray) -> None:
    """Write the streams' Brownian paths into ``path`` (len(ids), n + 1, m).

    Row 0 of each path must be zero and stays so.  The draws of each stream
    fill rows 1..n, are scaled by ``scale`` (sqrt h) and summed by one
    ``cumsum``: the single-path grids and the engine's blocks share these
    float operations, and so their bits.
    """
    rekey, draw = _rekey, _GEN.standard_normal
    for row, sid in zip(path[:, 1:], np.asarray(stream_ids).tolist()):
        rekey(seed, sid, 0)
        draw(out=row)
    path *= scale  # contiguous, so unbuffered; row 0 stays zero
    np.cumsum(path[:, 1:], axis=1, out=path[:, 1:])


@dataclass(frozen=True, slots=True)
class BrownianGrid:
    """An m-dimensional Brownian path sampled on a uniform grid.

    ``path[k, j]`` is W^{j+1}(t_k) with W(0) = 0; increments have variance h
    per component.
    """

    m: int
    horizon: float
    path: np.ndarray  # (n_steps + 1, m)
    seed: int
    stream_id: int

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
