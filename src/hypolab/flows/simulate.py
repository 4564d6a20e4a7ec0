"""Schemes for the state, the first-variation flow, and its inverse.

The state X follows the Ito SDE dX = b(X) dt + sigma(X) dW.  Along a frozen
state path, the first-variation flow J and its inverse K are stepped as

    J_{k+1} = J_k + A_k J_k,   A_k = h grad_b(X_k) + sum_i grad_sigma_i(X_k) dW^i_k
    K_{k+1} = K_k - K_k G_k,   G_k = A_k - h sum_i grad_sigma_i(X_k)^2,

the correction in G being the unique reading under which the Ito product
rule gives d(KJ) = 0 (K J = I is a test surface, not a runtime assertion).
The Malliavin covariance is accumulated by left-endpoint quadrature,
C_{k+1} = C_k + h S_k S_k^T with S_k = K_k sigma(X_k).

The step is generated per model, scheme and record: unrolled arithmetic
that leaves out every product with a constant-0 factor and keeps the sum
order of the dense matrix products, and so their bits.  A block's state is
one (rows, B) buffer.  For a model built from ``+ - * /``, powers and
constants, the block runs natively, in one call: the same lines rendered
as C (``fieldlang.step_kernel_c``), whose loop takes a tile of paths at a
time, draws the tile's increments from each path's Philox stream with
the bits of numpy's ziggurat sampler, and steps it through the whole grid.
It is used only if its sampler draws numpy's normals of a fixed stream
and it gives the numpy route's bytes on probe blocks, drawn ones
included.  Otherwise, and for models or remainder targets with sin, cos,
exp or tanh, the block's increments are drawn by ``_block_increments``
and each step is one call of ``fieldlang.compile_step_kernel`` on rows of
B paths, which writes to a second buffer.  ``NATIVE = False`` forces that
route, the native loop's oracle; ``STEP_ROUTES`` and ``INCREMENT_ROUTES``
collect the routes that ran.

State schemes: ``tamed-euler`` divides the drift increment by 1 + h|b| so
superlinear monotone drifts cannot blow the explicit step up;
``split-step-backward-euler`` solves z = X_k + h b(z) in the kernel, by
damped Newton row by row, then applies the noise at z; plain ``euler`` is
for comparison runs only.  A non-finite update of X, J, K or C, or a failed
solve, freezes the path at its last finite state; such paths are counted,
never silently dropped, so scheme blow-up is observable data.

Ensembles draw one Philox stream per path keyed by (seed, stream_id), as
step-major (n, m, B) increment blocks on the numpy route and a tile at a
time natively, and merge per-path records in stream order, so no output
bit depends on the block size or the route.  ``simulate_x`` and
``simulate_flow`` run the same engine on a batch of one given grid, whose
increments the loop takes instead of drawing, and store its X, J and K.

A block records per path in two ways, both set by ``RecordSpec``.  Running
records are rows of the generated step, after the state rows: sup_k
|K_k J_k - I| (``track_flow_identity``), the remainder energy of an
``integrals.RemainderEnergy`` with the unit-process integrals it needs
(``remainder``), and sup_k |X_k|^2 (``track_square_norm``).  Only the X,
J, K and C rows decide whether a path is lost; a lost path's record rows
freeze with its state, and no caller reads them.  Kept views read parts of
the state at some grid indices: stored paths, C and J at checkpoints, and
the remainder energy at its read indices.  Both routes copy every row
into one (S, rows, B) snapshot at the S indices some view keeps and at n;
each view reads its part, paths last, and moves it to the per-path layout
once, at the end of the block.  Those per-path arrays, or dicts of them by
grid index, are merged in stream order into the fields of
``EnsembleResult``.
"""
from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import (
    ConfigError,
    DegenerateSamplesError,
    DivergenceError,
    InternalInvariantError,
    SimulationDiverged,
)
from ..fieldlang import CoefficientSet, compile_step_kernel, step_kernel_c
from . import brownian
from .brownian import BrownianGrid, _brownian_paths

if TYPE_CHECKING:
    from .integrals import RemainderEnergy

__all__ = [
    "SCHEMES",
    "SimConfig",
    "Trajectory",
    "FlowTrajectory",
    "RecordSpec",
    "EnsembleResult",
    "simulate_x",
    "simulate_flow",
    "run_ensemble",
    "malliavin_derivative",
    "malliavin_checkpoint_ensemble",
    "nearest_index",
]

SCHEMES = ("tamed-euler", "split-step-backward-euler", "euler")

# False runs every block on the numpy route, the oracle of the native loop.
NATIVE = True
# The routes blocks ran on since they were cleared, "native" or "numpy": the
# step loop, and where the increments were drawn; and the vector extensions
# the native loops ran with ("avx512f", "avx2" or "default").
STEP_ROUTES: set[str] = set()
INCREMENT_ROUTES: set[str] = set()
NATIVE_ISAS: set[str] = set()


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Grid, scheme, and stream parameters shared by one simulation run.

    ``max_divergence`` is the largest fraction of lost paths ``run_ensemble``
    accepts; 1.0 accepts any number.
    """

    horizon: float
    n_steps: int
    x0: tuple[float, ...]
    scheme: str = "tamed-euler"
    seed: int = 0
    monotone_bound: float | None = None
    max_divergence: float = 1.0

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon}")
        n = self.n_steps
        if n < 1 or (n & (n - 1)) != 0:
            raise ConfigError(f"n_steps must be a positive power of two, got {n}")
        if not 0 <= self.seed < 2**64:  # a Philox key word
            raise ConfigError(f"seed must be in [0, 2^64), got {self.seed}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if not self.x0:
            raise ConfigError("x0 must have at least one component")
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        for v in self.x0:
            if not math.isfinite(v):
                raise ConfigError("x0 must be finite")
        if not 0.0 <= self.max_divergence <= 1.0:  # NaN included
            raise ConfigError(f"max_divergence must lie in [0, 1], got {self.max_divergence}")
        bound = self.monotone_bound
        if bound is not None and not math.isfinite(bound):
            raise ConfigError(f"monotone_bound must be finite, got {bound}")
        if self.scheme == "split-step-backward-euler" and self.h * (bound or 0.0) >= 1.0:
            raise ConfigError(f"h * L = {self.h * bound:.3g} >= 1: the implicit step is not "
                              "guaranteed a unique root; reduce h")

    @property
    def h(self) -> float:
        return self.horizon / self.n_steps

    @property
    def d(self) -> int:
        return len(self.x0)

    @property
    def comparison_only(self) -> bool:
        """Plain Euler is shipped for blow-up comparisons, not production runs."""
        return self.scheme == "euler"

    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h


def nearest_index(config: SimConfig, t: float) -> int:
    """Grid index closest to time t, clipped to [0, n_steps]."""
    idx = int(round(t / config.h))
    return min(max(idx, 0), config.n_steps)


@dataclass(slots=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (n_steps + 1, d)

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1


@dataclass(slots=True)
class FlowTrajectory:
    times: np.ndarray
    jacobians: np.ndarray  # (n_steps + 1, d, d)
    inverses: np.ndarray  # (n_steps + 1, d, d)


@dataclass(frozen=True, slots=True)
class RecordSpec:
    """What the ensemble engine records beyond terminal states.

    ``store_paths`` keeps every view the run has at every grid index: X,
    J and K when the run has flows, and C when it accumulates C;
    ``c_checkpoints`` accumulates C and keeps C and J at the given indices,
    each in [0, n_steps];
    ``track_flow_identity`` keeps sup_k |K_k J_k - I|; ``remainder``, an
    ``integrals.RemainderEnergy``, keeps the running remainder energy at its
    ``read`` indices in ``EnsembleResult.accumulated``;
    ``track_square_norm`` keeps sup_k |X_k|^2.
    """

    flows: bool = True
    store_paths: bool = False
    remainder: RemainderEnergy | None = None
    c_checkpoints: tuple[int, ...] = ()
    track_flow_identity: bool = False
    track_square_norm: bool = False

    @property
    def needs_flows(self) -> bool:
        return (self.flows or bool(self.c_checkpoints) or self.track_flow_identity
                or self.remainder is not None)


@dataclass(slots=True)
class EnsembleResult:
    """Per-path records assembled in ascending stream order."""

    config: SimConfig
    stream_ids: np.ndarray
    final_states: np.ndarray
    diverged_step: np.ndarray  # -1 where the path stayed finite
    final_jacobians: np.ndarray | None = None
    flow_identity_sup: np.ndarray | None = None
    square_norm_sup: np.ndarray | None = None  # sup_k |X_k|^2
    c_at: dict[int, np.ndarray] = field(default_factory=dict)
    j_at: dict[int, np.ndarray] = field(default_factory=dict)
    states: np.ndarray | None = None
    jacobians: np.ndarray | None = None
    inverses: np.ndarray | None = None
    covariances: np.ndarray | None = None
    accumulated: np.ndarray | None = None  # the remainder energy at its read indices

    @property
    def n_paths(self) -> int:
        return len(self.stream_ids)

    @property
    def alive(self) -> np.ndarray:
        return self.diverged_step < 0

    @property
    def diverged_count(self) -> int:
        return int((~self.alive).sum())

    @property
    def divergence_fraction(self) -> float:
        return self.diverged_count / self.n_paths

    def survivors(self) -> np.ndarray:
        """The alive mask; raises when no path survived."""
        if not self.alive.any():
            raise DegenerateSamplesError(self.n_paths, self.n_paths, diverged=True)
        return self.alive


class _Kept:
    """One part of a block's state kept at some grid indices.

    ``result`` reads the block's snapshot at those indices: ``read`` takes
    the parts ``_views`` gives of it, each with the (indices, B) axes last,
    and the part it returns is moved to the (B, len(indices), ...) layout,
    or, ``by_index``, to {k: (B, ...)}.
    """

    def __init__(self, read, indices, by_index=False):
        self.read, self.indices, self.by_index = read, list(indices), by_index

    def result(self, snap, stops, layout):
        """The kept part of ``snap``, a block's (len(stops), rows, B) rows at the
        ascending grid indices ``stops``; ``layout`` is ``_views``' d, flows
        and covariance."""
        at = np.searchsorted(stops, self.indices)
        part = snap if np.array_equal(at, np.arange(len(stops))) else snap[at]
        kept = np.moveaxis(self.read(*_views(part, *layout)), (-1, -2), (0, 1))
        return {k: kept[:, r] for r, k in enumerate(self.indices)} if self.by_index else kept


def _recorders(record: RecordSpec, n: int, d: int) -> dict:
    """A block's kept views, keyed by the ``EnsembleResult`` field each fills."""
    reads = {"states": lambda x, *_: x}  # each view the run has, (..., indices, B)
    if record.needs_flows:
        reads["jacobians"] = lambda x, j, *_: j
        reads["inverses"] = lambda x, j, k_inv, *_: k_inv
    if record.c_checkpoints:
        tri = np.zeros((d, d), dtype=np.intp)  # C[p, r] is C's triangle row tri[p, r]
        tri[np.triu_indices(d)] = tri.T[np.triu_indices(d)] = np.arange(d * (d + 1) // 2)
        reads["covariances"] = lambda x, j, k_inv, c, rec: c[tri]
    recs = {}
    if record.store_paths:
        recs = {name: _Kept(read, range(n + 1)) for name, read in reads.items()}
    at = sorted(set(record.c_checkpoints))
    for i in at:
        if not 0 <= i <= n:
            raise ConfigError(f"checkpoint index {i} outside the grid")
    if at:
        recs["c_at"] = _Kept(reads["covariances"], at, by_index=True)
        recs["j_at"] = _Kept(reads["jacobians"], at, by_index=True)
    if record.remainder is not None:
        if not all(0 <= k <= n for k in record.remainder.read):
            raise ConfigError(f"remainder read indices must lie in [0, {n}]")
        cum = int(record.track_flow_identity)  # the row after the sup, if any
        recs["accumulated"] = _Kept(lambda *views: views[-1][cum], record.remainder.read)
    return recs


def _views(buf: np.ndarray, d: int, flows: bool, covariance: bool) -> tuple:
    """X (d, ..., B), J and K (d, d, ..., B) or None, C's triangle rows and the
    record rows of a block's (rows, B) state ``buf``, or of its (S, rows, B)
    snapshot, whose S axis each view keeps before B."""
    rows = np.moveaxis(buf, -2, 0)
    f = 2 * d * d if flows else 0
    e = d + f + (d * (d + 1) // 2 if covariance else 0)
    flow = rows[d : d + f].reshape((2, d, d) + rows.shape[1:]) if flows else (None, None)
    return rows[:d], flow[0], flow[1], rows[d + f : e], rows[e:]


def _initial_state(x: np.ndarray, flows: bool, covariance: bool, identity: bool,
                   remainder: tuple | None, square_norm: bool) -> np.ndarray:
    """A block's rows with X = ``x`` (d, B), J = K = I, C = 0, and 0 in the
    record rows: the flow-identity sup, the remainder's cum, E and one
    integral per prefix, then the sup of |X|^2."""
    d, B = x.shape
    records = identity + (len(remainder[1]) + 2 if remainder else 0) + square_norm
    s = np.zeros((d + (2 * d * d if flows else 0) + (d * (d + 1) // 2 if covariance else 0)
                  + records, B))
    views = _views(s, d, flows, covariance)
    views[0][:] = x
    if flows:
        views[1][:] = views[2][:] = np.eye(d)[:, :, None]
    return s


def _numpy_steps(step, s, out, dw, h, k0, k1, diverged, coefficients):
    """Steps k0..k1 of the numpy kernel ``step`` from the state ``s`` through the
    spare buffer ``out``; returns both, the state first.  A path whose new X,
    J, K or C is non-finite, or whose solve failed, gets the step in
    ``diverged`` and keeps all its rows.  Lost paths start the split-step
    solve as failed, so they never keep it iterating."""
    for k in range(k0, k1):
        lost = diverged >= 0
        ok = step(s, out, dw[k], h, coefficients, lost)
        if not ok.all() or lost.any():
            diverged[~lost & ~ok] = k
            np.copyto(out, s, where=diverged >= 0)
        s, out = out, s
    return s, out


def _numpy_block(step, s, dw, h, stops, diverged, coefficients) -> np.ndarray:
    """The (len(stops), rows, B) snapshot of the numpy kernel ``step``'s block
    from the state ``s``, which it steps, at the ascending grid indices
    ``stops``."""
    snap, out, k = np.empty((len(stops),) + s.shape), np.empty_like(s), 0
    for i, stop in enumerate(stops):
        s, out = _numpy_steps(step, s, out, dw, h, k, stop, diverged, coefficients)
        snap[i], k = s, stop
    return snap


# The probe blocks of _native_loop: step size, the first stream ids, with
# extreme key words (a tile and part of another take the ids 9, 10, ... after
# them), and each block's steps and seed, None for given increments.  A drawn
# stream's n m normals end in part of a Philox block, with 1, 2 or 3 of its 4
# words used (2 for an even m).
_PROBE_H, _PROBE_IDS = 2.0**-4, (0, 2**64 - 1, 1, 2**63, 2**32 + 7)
_PROBE_BLOCKS = ((7, None), (5, 0), (6, 2**64 - 1), (7, 0))
# The stream (seed, id) and the count of the normals that the native loop's
# sampler must draw as numpy's does before the probe runs: about 64 draws
# per ziggurat layer, of which about 250 go to numpy's slow path.
_SAMPLER_CHECK = (2**64 - 1, 2**64 - 2, 2**14)
# Held around each library's ``setup``, which writes its static ziggurat
# tables, and ``run``, which reads them: a library is mapped once per process,
# and a loop built again (after ``_native_loop``'s cache let it go) sets up the
# tables that another thread's loop may be reading.
_TABLES_LOCK = threading.Lock()


@lru_cache(maxsize=256)
def _native_loop(coeffs: CoefficientSet, scheme: str, flows: bool, covariance: bool,
                 identity: bool, remainder: tuple | None, square_norm: bool):
    """``step_kernel_c``'s loop, built and loaded, as ``loop(s, stops, h,
    diverged, coefficients, dw, seed, ids)``, which returns a block's
    snapshot as ``_numpy_block`` does and draws the streams ``ids`` when
    ``dw`` is None, with the vector extensions its build runs with as
    ``loop.isa``; or None unless the library's ``setup`` reads numpy's
    ziggurat tables and then draws ``_SAMPLER_CHECK``'s normals as numpy
    does, and the loop leaves the numpy route's bytes on fixed probe
    blocks.  The probe starts from random X and record rows, with random
    remainder coefficients, and keeps the rows at 0, 3 and n.  On a block
    of given increments, two paths draw an infinite increment: the fourth,
    a lane of the first tile beside live ones, at step 1, and the last, in
    the partial tile, at step 2.  So each is lost there on any model whose
    noise reaches X, and would be finite again if it were stepped on.  On
    three drawn blocks of 5, 6 and 7 steps, at seeds 0 and 2^64 - 1, the
    loop must match ``_block_increments``."""
    from .. import native  # on the first block that can use it, never at import

    kernel = (coeffs, scheme, flows, covariance, identity, remainder, square_norm)
    source = step_kernel_c(*kernel)
    ptr, i64, f64, u64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_uint64
    fns = source and native.load(source, {
        "setup": (ctypes.c_int, (u64, u64, i64, ptr)),
        "run": (None, (ptr, ptr, ptr, i64, ptr, u64, ptr, f64, f64, i64, i64, ptr, ptr, ptr)),
        "isa": (ctypes.c_char_p, ()),
        "tile": (i64, ()),
    })
    if not fns:
        return None
    setup, fn, isa, tile = fns
    m, width = coeffs.m, tile()  # the width the library was rendered with
    seed, sid, count = _SAMPLER_CHECK
    want = brownian.standard_normal_stream(seed, sid, 0, count)
    with _TABLES_LOCK:  # reads the sampler's tables, then draws the check's stream
        if not setup(seed, sid, count, want.ctypes.data):
            return None

    def loop(s, stops, h, diverged, coefficients, dw, seed, ids):
        n, B = int(stops[-1]), s.shape[1]
        # a tile reads its paths' rows of s before it writes their snapshot, so
        # s itself takes the snapshot when n is the only stop
        snap = s[None] if len(stops) == 1 else np.empty((len(stops),) + s.shape)
        work = np.empty(width * n * m + 4 * -(-n * m // 4))  # the tile's increments, then words
        ids = np.ascontiguousarray(ids, dtype=np.uint64)  # Philox key words
        if dw is not None:
            dw = np.ascontiguousarray(dw, dtype=np.float64)
        with _TABLES_LOCK:
            fn(s.ctypes.data, snap.ctypes.data, stops.ctypes.data, len(stops),
               None if dw is None else dw.ctypes.data, seed, ids.ctypes.data, math.sqrt(h), h,
               B, n, diverged.ctypes.data, coefficients.ctypes.data, work.ctypes.data)
        return snap

    rng = np.random.default_rng(2024)
    d, B = coeffs.d, width + 3
    start = _initial_state(rng.uniform(-1.5, 1.5, (d, B)), *kernel[2:])
    records = _views(start, d, flows, covariance)[-1]
    records[:] = rng.uniform(-1.5, 1.5, records.shape)
    coefficients = rng.uniform(-1.5, 1.5, (len(remainder[2]) if remainder else 0, d))
    ids = np.array((*_PROBE_IDS, *range(9, B + 4)), dtype=np.uint64)
    step = compile_step_kernel(*kernel)
    with np.errstate(all="ignore"):
        for n, seed in _PROBE_BLOCKS:
            dw = None
            if seed is None:  # given increments, two of them infinite
                seed, dw = 0, rng.standard_normal((n, m, B)) * math.sqrt(_PROBE_H)
                dw[2, :, -1] = dw[1, :, 3] = np.inf
            increments = _block_increments(seed, n, _PROBE_H, m, ids) if dw is None else dw
            stops = np.array((0, 3, n), dtype=np.int64)
            want_lost, got_lost = (np.full(B, -1, dtype=np.int64) for _ in range(2))
            want = _numpy_block(step, start.copy(), increments, _PROBE_H, stops, want_lost,
                                coefficients)
            got = loop(start, stops, _PROBE_H, got_lost, coefficients, dw, seed, ids)
            if got.tobytes() != want.tobytes() or got_lost.tobytes() != want_lost.tobytes():
                return None
    loop.isa = isa().decode()  # the clone of run the loader picked
    return loop


def _simulate_block(coeffs: CoefficientSet, config: SimConfig, record: RecordSpec,
                    stream_ids: np.ndarray, dw: np.ndarray | None = None) -> dict:
    """The records of one block of paths, driven by the given (n, m, B)
    increments ``dw`` or, without them, by the streams ``stream_ids``."""
    d, m = coeffs.d, coeffs.m
    n, h, B = config.n_steps, config.h, len(stream_ids)
    if dw is not None and dw.shape != (n, m, B):
        raise InternalInvariantError(f"increment block has shape {dw.shape}")
    flows, covariance = record.needs_flows, bool(record.c_checkpoints)
    identity, spec, square_norm = (record.track_flow_identity, record.remainder,
                                   record.track_square_norm)
    remainder = spec and (spec.target, spec.prefixes, spec.indices)
    kernel = (coeffs, config.scheme, flows, covariance, identity, remainder, square_norm)
    kept = _recorders(record, n, d)  # checks the kept indices before any build
    loop = _native_loop(*kernel) if NATIVE else None
    STEP_ROUTES.add("native" if loop else "numpy")
    INCREMENT_ROUTES.add("native" if loop and dw is None else "numpy")
    if loop:
        NATIVE_ISAS.add(loop.isa)

    # the kernel's rows: the native loop reads them, the numpy kernel steps them
    s = _initial_state(np.broadcast_to(np.asarray(config.x0)[:, None], (d, B)), *kernel[2:])
    layout = (d, flows, covariance)
    x, _, k_inv, _, records = _views(s, *layout)
    coefficients = np.zeros((0, d))
    stops = np.array(sorted({n}.union(*(acc.indices for acc in kept.values()))), dtype=np.int64)
    diverged = np.full(B, -1, dtype=np.int64)
    with np.errstate(all="ignore"):
        if spec:  # E_0 = |R_0|^2, at integrals 0 and the unit process 1
            rem = spec.remainder(x, k_inv, dict.fromkeys(spec.prefixes, 0.0) | {(): 1.0})
            records[identity + 1] = np.sum(rem * rem, axis=0)
            coefficients = spec.coefficients
        if square_norm:  # |X_0|^2, summed as the kernel sums
            records[-1] = np.add.reduce(x * x, axis=0)
        if loop:
            snap = loop(s, stops, h, diverged, coefficients, dw, config.seed, stream_ids)
        else:
            if dw is None:
                dw = _block_increments(config.seed, n, h, m, stream_ids)
            snap = _numpy_block(compile_step_kernel(*kernel), s, dw, h, stops, diverged,
                                coefficients)

    x, j, _, _, records = _views(snap[-1], *layout)
    return {
        "final_states": x.T.copy(),
        "diverged_step": diverged,
        "final_jacobians": None if j is None else np.moveaxis(j, -1, 0).copy(),
        "flow_identity_sup": records[0].copy() if identity else None,
        "square_norm_sup": records[-1].copy() if square_norm else None,
        **{name: acc.result(snap, stops, layout) for name, acc in kept.items()},
    }


# Paths per chunk of _block_increments: its (chunk, n + 1, m) path buffer (about
# 1 MiB at n = 1024, m = 2) and 64 KiB slab of differences add nothing visible.
_CHUNK = 64


def _block_increments(seed: int, n: int, h: float, m: int, stream_ids: np.ndarray) -> np.ndarray:
    """The streams' step-major (n, m, B) increments of n steps of size h:
    ``sample_brownian``'s paths a chunk at a time, differenced a slab of
    steps at a time, copied transposed."""
    scale, B = math.sqrt(h), len(stream_ids)
    dw = np.empty((n, m, B))
    buf = np.zeros((min(B, _CHUNK), n + 1, m))  # row 0 stays W(0) = 0
    steps = max(1, 8192 // (_CHUNK * m))
    slab = np.empty((len(buf), min(steps, n), m))
    for start in range(0, B, _CHUNK):
        ids = stream_ids[start : start + _CHUNK]
        path = buf[: len(ids)]
        _brownian_paths(seed, ids, scale, path)
        for k in range(0, n, steps):
            end = min(k + steps, n)
            diff = slab[: len(ids), : end - k]
            np.subtract(path[:, k + 1 : end + 1], path[:, k:end], out=diff)
            dw[k:end, :, start : start + len(ids)] = diff.transpose(1, 2, 0)
    return dw


def _default_block_size(config: SimConfig, coeffs: CoefficientSet, record: RecordSpec) -> int:
    n, d, m = config.n_steps, coeffs.d, coeffs.m
    per_path = n * m  # increments, on the numpy route
    if record.store_paths:
        flows = 2 * d * d if record.needs_flows else 0
        per_path += (n + 1) * (d + flows + (d * d if record.c_checkpoints else 0))
    budget = 64 * 1024 * 1024 // 8  # floats per block
    return max(32, min(budget // per_path, 16384))


def run_ensemble(
    coeffs: CoefficientSet,
    config: SimConfig,
    n_paths: int,
    record: RecordSpec = RecordSpec(),
    block_size: int | None = None,
) -> EnsembleResult:
    """Simulate ``n_paths`` independent streams and merge per-path records.

    Blocks are fixed-size slices of the stream range, run one after another;
    merging happens in ascending stream order.  Raises ``DivergenceError``
    when the fraction of lost paths exceeds ``config.max_divergence``.
    """
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    if coeffs.d != config.d:
        raise ConfigError("config.x0 dimension does not match the coefficient set")
    if block_size is not None and block_size < 1:
        raise ConfigError("block_size must be >= 1")
    size = block_size or _default_block_size(config, coeffs, record)
    starts = list(range(0, n_paths, size))
    id_blocks = [
        np.arange(s, min(s + size, n_paths), dtype=np.int64) for s in starts
    ]

    results = [_simulate_block(coeffs, config, record, ids) for ids in id_blocks]

    def cat(parts):
        if isinstance(parts[0], dict):  # records by grid index
            return {k: cat([p[k] for p in parts]) for k in parts[0]}
        return None if parts[0] is None else np.concatenate(parts)

    per_path = {key: cat([r[key] for r in results]) for key in results[0]}
    res = EnsembleResult(config, np.concatenate(id_blocks), **per_path)
    fraction, budget = res.divergence_fraction, config.max_divergence
    if fraction > budget:
        raise DivergenceError(
            f"{res.diverged_count} of {res.n_paths} paths diverged (fraction {fraction:.4g} "
            f"exceeds the budget {budget:.4g})"
        )
    return res


def _check_grid(coeffs: CoefficientSet, config: SimConfig, grid: BrownianGrid) -> None:
    if grid.m != coeffs.m:
        raise ConfigError(f"grid has m={grid.m}, coefficients have m={coeffs.m}")
    if grid.n_steps != config.n_steps:
        raise ConfigError("grid step count does not match the configuration")
    if not math.isclose(grid.horizon, config.horizon, rel_tol=1e-12):
        raise ConfigError("grid horizon does not match the configuration")


def _single_path(
    coeffs: CoefficientSet, config: SimConfig, grid: BrownianGrid, record: RecordSpec
) -> dict:
    """Run the ensemble engine on the one given grid; raises on divergence."""
    _check_grid(coeffs, config, grid)
    # one path, driven by the grid's increments
    out = _simulate_block(coeffs, config, record, np.arange(1), grid.increments[:, :, None])
    step = int(out["diverged_step"][0])
    if step >= 0:
        # max-abs: a Euclidean norm of a barely-finite state can overflow
        magnitude = float(np.max(np.abs(out["final_states"][0])))
        raise SimulationDiverged(config.scheme, step, magnitude)
    return out


def simulate_x(coeffs: CoefficientSet, config: SimConfig, grid: BrownianGrid) -> Trajectory:
    """Simulate one state path on the given grid; raises on divergence."""
    out = _single_path(coeffs, config, grid, RecordSpec(flows=False, store_paths=True))
    return Trajectory(config.times(), out["states"][0])


def simulate_flow(
    coeffs: CoefficientSet,
    config: SimConfig,
    grid: BrownianGrid,
    trajectory: Trajectory,
) -> FlowTrajectory:
    """The J and K flows along ``trajectory``, which must be the output of
    ``simulate_x`` on the same grid; raises ConfigError for any other path."""
    out = _single_path(coeffs, config, grid, RecordSpec(store_paths=True))
    if not np.array_equal(trajectory.states, out["states"][0]):
        raise ConfigError("trajectory is not simulate_x's state path on this grid")
    return FlowTrajectory(config.times(), out["jacobians"][0], out["inverses"][0])


def malliavin_derivative(
    s_index: int,
    t_index: int,
    flow: FlowTrajectory,
    trajectory: Trajectory,
    coeffs: CoefficientSet,
) -> np.ndarray:
    """Sensitivity of X(t) to the noise at time s: J(t) K(s) sigma(X(s))."""
    n = trajectory.n_steps
    if not 0 <= s_index <= t_index <= n:
        raise ConfigError(f"need 0 <= s_index <= t_index <= {n}, got {s_index} and {t_index}")
    sig = coeffs.sigma_at(trajectory.states[s_index])
    if s_index == t_index:
        # the relative flow at equal times is the identity exactly
        return sig
    return flow.jacobians[t_index] @ flow.inverses[s_index] @ sig


def malliavin_checkpoint_ensemble(
    coeffs: CoefficientSet,
    config: SimConfig,
    n_paths: int,
    indices: Sequence[int],
) -> tuple[EnsembleResult, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Per-path C and Q matrices at the requested grid indices.

    Returns the raw ensemble result plus ``{index: (C, Q)}`` with per-path
    matrices symmetrised after assembly.
    """
    idx = tuple(sorted(set(int(i) for i in indices)))
    res = run_ensemble(coeffs, config, n_paths, RecordSpec(flows=True, c_checkpoints=idx))
    mats = {}
    for i in idx:
        c, j = res.c_at[i], res.j_at[i]
        c = 0.5 * (c + np.swapaxes(c, 1, 2))
        q = np.einsum("bij,bjk,blk->bil", j, c, j)
        mats[i] = c, 0.5 * (q + np.swapaxes(q, 1, 2))
    return res, mats
