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
included, which one numpy pass over all of them checks.  Otherwise, and
for models or remainder targets with sin, cos, exp or tanh, the block's
increments are drawn by ``_block_increments`` and each step is one call
of ``fieldlang.compile_step_kernel`` on rows of B paths, which writes to
a second buffer; that kernel's code object is cached beside the native
libraries (``native.compiled``), so a new process does not compile it.
``NATIVE = False`` forces that route, the native loop's oracle;
``STEP_ROUTES`` and ``INCREMENT_ROUTES`` collect the routes that ran.

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
records are rows of the generated step, after the state rows, as
``fieldlang.Kernel`` lays them out.  Kept parts read rows of the state,
by name, at some grid indices: stored paths, C and J at checkpoints, and
the remainder energy at its read indices.  Both routes copy every row
into one (S, rows, B) snapshot at the S indices some part keeps and at n;
at the end of the block each part copies its rows out to the per-path
layout, so the snapshot goes with the block.  Those per-path arrays, or
dicts of them by grid index, are merged in stream order into the fields
of ``EnsembleResult``.
"""
from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import (
    ConfigError,
    DegenerateSamplesError,
    DivergenceError,
    EvaluationError,
    InternalInvariantError,
    SimulationDiverged,
)
from ..fieldlang import CoefficientSet, Kernel, compile_step_kernel, step_kernel_c
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

    def kernel(self, coeffs: CoefficientSet, scheme: str) -> Kernel:
        """The step that keeps these records, with J and K if any record reads them."""
        spec = self.remainder
        flows = self.flows or bool(self.c_checkpoints) or self.track_flow_identity or bool(spec)
        return Kernel(coeffs, scheme, flows=flows, covariance=bool(self.c_checkpoints),
                      identity=self.track_flow_identity, square_norm=self.track_square_norm,
                      remainder=spec and (spec.target, spec.prefixes, spec.indices))


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


def _take(kernel: Kernel, snap: np.ndarray, stops: np.ndarray, part: str, at,
          by_index: bool = False):
    """``kernel.part(part)`` at the grid index or indices ``at`` of ``snap``,
    a block's (len(stops), rows, B) rows at the ascending grid indices
    ``stops``: a (B, ...) or (B, len(at), ...) array, or, ``by_index``, {k:
    (B, ...)}.  Each is a view of a buffer of its own, paths last as in
    ``snap``, so that no result keeps ``snap``."""
    if by_index:
        return {k: _take(kernel, snap, stops, part, k) for k in at}
    rows, shape = kernel.part(part)
    i = np.searchsorted(stops, at)
    if np.array_equal(i, np.arange(len(stops))):
        i = slice(None)  # every stop: each row is read as a view
    buf = np.empty(np.shape(at) + (len(rows),) + snap.shape[-1:])
    for j, row in enumerate(rows):
        buf[..., j, :] = snap[i, row]
    return np.moveaxis(buf.reshape(np.shape(at) + shape + snap.shape[-1:]), -1, 0)


def _recorders(kernel: Kernel, record: RecordSpec, n: int) -> dict:
    """A block's kept parts, keyed by the ``EnsembleResult`` field each
    fills, as ``_take``'s (part, grid indices, by_index)."""
    parts = {"states": "x"} | ({"jacobians": "J", "inverses": "K"} if kernel.flows else {})
    parts |= {"covariances": "C"} if kernel.covariance else {}  # each part the run has
    recs = ({name: (part, range(n + 1), False) for name, part in parts.items()}
            if record.store_paths else {})
    at = sorted(set(record.c_checkpoints))
    for i in at:
        if not 0 <= i <= n:
            raise ConfigError(f"checkpoint index {i} outside the grid")
    if at:
        recs["c_at"], recs["j_at"] = ("C", at, True), ("J", at, True)
    if record.remainder is not None:
        if not all(0 <= k <= n for k in record.remainder.read):
            raise ConfigError(f"remainder read indices must lie in [0, {n}]")
        recs["accumulated"] = ("cum", record.remainder.read, False)
    return recs


def _initial_state(kernel: Kernel, x: np.ndarray, spec: RemainderEnergy | None = None):
    """A block's rows, ``kernel.rows``, with X = ``x`` (d, B), J = K = I, C =
    0 and the records at step 0: ``xsup`` = |X|^2, summed as the kernel sums,
    ``E`` = |R|^2 of the remainder ``spec`` at integrals 0 and the unit
    process 1 (or 0 without ``spec``), and 0 elsewhere."""
    d, B = x.shape
    s = np.zeros((len(kernel.rows), B))
    s[kernel.part("x")[0]] = x
    for name in "JK" if kernel.flows else "":
        s[kernel.part(name)[0]] = np.eye(d).reshape(-1, 1)
    x = s[kernel.part("x")[0]]
    with np.errstate(all="ignore"):
        if spec:
            k_inv = s[kernel.part("K")[0]].reshape(d, d, B)
            rem = spec.remainder(x, k_inv, dict.fromkeys(spec.prefixes, 0.0) | {(): 1.0})
            s[kernel.rows.index("E")] = np.sum(rem * rem, axis=0)
        if kernel.square_norm:
            s[kernel.rows.index("xsup")] = np.add.reduce(x * x, axis=0)
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


def _probe_blocks(kernel: Kernel, B: int) -> tuple:
    """The native loop's probe of ``kernel`` on B paths: the start rows,
    random but for J, K and C, random remainder coefficients, the stream
    ids, and ``_PROBE_BLOCKS`` as (n, seed, given increments or None, the
    block's (n, m, B) increments).  On the block of given increments, two
    paths draw an infinite increment: the fourth, a lane of the first tile
    beside live ones, at step 1, and the last, in the partial tile, at step
    2.  So each is lost there on any model whose noise reaches X, and would
    be finite again if it were stepped on.  The drawn blocks check the
    loop's draws against ``_block_increments``; each seed's streams are
    drawn once, at its longest block: a stream's first n steps are its
    n-step draw."""
    d, m, remainder = kernel.coeffs.d, kernel.coeffs.m, kernel.remainder
    rng = np.random.default_rng(2024)
    start = _initial_state(kernel, rng.uniform(-1.5, 1.5, (d, B)))
    records = start[kernel.state :]
    records[:] = rng.uniform(-1.5, 1.5, records.shape)
    coefficients = rng.uniform(-1.5, 1.5, (len(remainder[2]) if remainder else 0, d))
    ids = np.array((*_PROBE_IDS, *range(9, B + 4)), dtype=np.uint64)
    longest = {}
    for n, seed in _PROBE_BLOCKS:
        if seed is not None:
            longest[seed] = max(n, longest.get(seed, 0))
    drawn = {seed: _block_increments(seed, n, _PROBE_H, m, ids) for seed, n in longest.items()}
    blocks = []
    for n, seed in _PROBE_BLOCKS:
        if seed is None:  # given increments, two of them infinite
            dw = rng.standard_normal((n, m, B)) * math.sqrt(_PROBE_H)
            dw[2, :, -1] = dw[1, :, 3] = np.inf
            blocks.append((n, 0, dw, dw))
        else:
            blocks.append((n, seed, None, drawn[seed][:n]))
    return start, coefficients, ids, blocks


def _probe_oracle(step, start: np.ndarray, blocks: list, coefficients: np.ndarray) -> list:
    """Each of ``_probe_blocks``' ``blocks``' snapshot at 0, 3 and n and lost
    steps under the numpy kernel ``step``, from the (rows, B) ``start``, as
    ``_numpy_block`` gives them block by block.  They come from one numpy
    pass over the blocks side by side, each with zero increments past its
    own n: the kernel steps each column on its own, and a column's lost
    step counts only if it is less than n."""
    B = start.shape[1]
    stops = np.array(sorted({0, 3}.union(n for n, *_ in blocks)), dtype=np.int64)
    increments = np.zeros((stops[-1], blocks[0][3].shape[1], len(blocks) * B))
    for i, (n, *_, block) in enumerate(blocks):
        increments[:n, :, i * B : (i + 1) * B] = block
    lost = np.full(len(blocks) * B, -1, dtype=np.int64)
    snap = _numpy_block(step, np.tile(start, len(blocks)), increments, _PROBE_H, stops, lost,
                        coefficients)
    oracle = []
    for i, (n, *_) in enumerate(blocks):
        cols = slice(i * B, (i + 1) * B)
        oracle.append((snap[np.searchsorted(stops, (0, 3, n)), :, cols],
                       np.where(lost[cols] < n, lost[cols], -1)))
    return oracle


@lru_cache(maxsize=256)
def _native_loop(kernel: Kernel):
    """``step_kernel_c``'s loop, built and loaded, as ``loop(s, stops, h,
    diverged, coefficients, dw, seed, ids)``, which returns a block's
    snapshot as ``_numpy_block`` does and draws the streams ``ids`` when
    ``dw`` is None, with the vector extensions its build runs with as
    ``loop.isa``; or None unless the library's ``setup`` reads numpy's
    ziggurat tables and then draws ``_SAMPLER_CHECK``'s normals as numpy
    does, and the loop leaves the numpy route's rows at 0, 3 and n on the
    blocks of ``_probe_blocks``.  The loop runs each block on its own; the
    numpy route checks all four in one pass (``_probe_oracle``)."""
    from .. import native  # on the first block that can use it, never at import

    source = step_kernel_c(kernel)
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
    m, width = kernel.coeffs.m, tile()  # the width the library was rendered with
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

    start, coefficients, ids, blocks = _probe_blocks(kernel, width + 3)
    with np.errstate(all="ignore"):
        oracle = _probe_oracle(compile_step_kernel(kernel), start, blocks, coefficients)
        for (n, seed, dw, _), (want, want_lost) in zip(blocks, oracle):
            got_lost = np.full(len(ids), -1, dtype=np.int64)
            got = loop(start, np.array((0, 3, n), dtype=np.int64), _PROBE_H, got_lost,
                       coefficients, dw, seed, ids)
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
    kernel, spec = record.kernel(coeffs, config.scheme), record.remainder
    kept = _recorders(kernel, record, n)  # checks the kept indices before any build
    loop = _native_loop(kernel) if NATIVE else None
    STEP_ROUTES.add("native" if loop else "numpy")
    INCREMENT_ROUTES.add("native" if loop and dw is None else "numpy")
    if loop:
        NATIVE_ISAS.add(loop.isa)

    # the kernel's rows: the native loop reads them, the numpy kernel steps them
    s = _initial_state(kernel, np.broadcast_to(np.asarray(config.x0)[:, None], (d, B)), spec)
    coefficients = spec.coefficients if spec else np.zeros((0, d))
    stops = np.array(sorted({n}.union(*(at for _, at, _ in kept.values()))), dtype=np.int64)
    diverged = np.full(B, -1, dtype=np.int64)
    with np.errstate(all="ignore"):
        if loop:
            snap = loop(s, stops, h, diverged, coefficients, dw, config.seed, stream_ids)
        else:
            if dw is None:
                dw = _block_increments(config.seed, n, h, m, stream_ids)
            snap = _numpy_block(compile_step_kernel(kernel), s, dw, h, stops, diverged,
                                coefficients)
    del s, dw  # the results read the snapshot alone: let the rest go before they are copied

    take = partial(_take, kernel, snap, stops)
    return {  # the final values in C order, paths first
        "final_states": take("x", n).copy(),
        "diverged_step": diverged,
        "final_jacobians": take("J", n).copy() if kernel.flows else None,
        "flow_identity_sup": take("sup", n).copy() if kernel.identity else None,
        "square_norm_sup": take("xsup", n).copy() if kernel.square_norm else None,
        **{name: take(*args) for name, args in kept.items()},
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
    n = config.n_steps
    per_path = n * coeffs.m  # increments, on the numpy route
    if record.store_paths:  # the snapshot's rows at every grid index
        per_path += (n + 1) * len(record.kernel(coeffs, config.scheme).rows)
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
        return parts[0] if parts[0] is None or len(parts) == 1 else np.concatenate(parts)

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
    matrices symmetrised after assembly.  Raises ``EvaluationError`` when a
    surviving path's C or Q is not finite, its assembly included.
    """
    idx = tuple(sorted(set(int(i) for i in indices)))
    res = run_ensemble(coeffs, config, n_paths, RecordSpec(flows=True, c_checkpoints=idx))
    mats = {}
    for i in idx:
        c, j = res.c_at[i], res.j_at[i]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            c = 0.5 * (c + np.swapaxes(c, 1, 2))
            q = np.einsum("bij,bjk,blk->bil", j, c, j)
            q = 0.5 * (q + np.swapaxes(q, 1, 2))
        if not (np.isfinite(c[res.alive]).all() and np.isfinite(q[res.alive]).all()):
            raise EvaluationError(f"the Malliavin covariance C or Q at t = {i * config.h:g} "
                                  "overflows on a surviving path")
        mats[i] = c, q
    return res, mats
