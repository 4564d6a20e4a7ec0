"""Schemes for the state, the first-variation flow, and its inverse.

The state X follows the Ito SDE dX = b(X) dt + sigma(X) dW.  Along a frozen
state path, the first-variation flow J and its inverse K are stepped as

    J_{k+1} = J_k + A_k J_k,   A_k = h grad_b(X_k) + sum_i grad_sigma_i(X_k) dW^i_k
    K_{k+1} = K_k - K_k G_k,   G_k = A_k - h sum_i grad_sigma_i(X_k)^2,

the correction in G being the unique reading under which the Ito product
rule gives d(KJ) = 0 (K J = I is a test surface, not a runtime assertion).
The Malliavin covariance is accumulated by left-endpoint quadrature,
C_{k+1} = C_k + h S_k S_k^T with S_k = K_k sigma(X_k).

Each step runs one kernel generated per model, scheme and record
(``fieldlang.compile_step_kernel``): unrolled arithmetic on rows of B paths
that leaves out every product with a constant-0 factor and keeps the sum
order of the dense matrix products, and so their bits.  A block's state is
one (rows, B) buffer, read by a step and written to the other buffer.

State schemes: ``tamed-euler`` divides the drift increment by 1 + h|b| so
superlinear monotone drifts cannot blow the explicit step up;
``split-step-backward-euler`` solves z = X_k + h b(z) by damped Newton and
then applies the noise at z; plain ``euler`` is kept for comparison runs
only.  A non-finite update of X, J, K or the accumulated Malliavin
covariance C freezes the path at its last finite state; such paths are
counted, never silently dropped, so scheme blow-up is observable data.

Ensembles assign one Philox stream per path keyed by (seed, stream_id) and
aggregate per-path records in ascending stream order, making every output
bit independent of the block size.  The single-path helpers run the same
engine on a batch of one given grid.

Everything a block records per path goes through one hook: an accumulator
``acc`` with ``acc.step(k, x, j, k_inv, c, dw)`` and ``acc.result()``.
Each block builds its own accumulators and calls ``step`` once per grid
index k = 0..n, before the step that leaves k, with views of the state at
k: x (d, B), J and K (d, d, B), or ``None`` without flows, and the rows of
C's upper triangle, (d(d+1)/2, B), empty unless C is accumulated.  ``dw``
is the (m, B) increment rows that leave k, ``None`` at k = n.  Lost paths
show their frozen columns.  The views are valid during the call only: the
next step overwrites them, so an accumulator copies what it keeps.  Stored
paths, C/J checkpoints and sup_k |K_k J_k - I| are such accumulators, and
``RecordSpec.accumulator`` adds one more, a factory ``B -> acc``.  Each
``result()`` is a per-path array, or a dict of them by grid index, merged
in stream order into its field of ``EnsembleResult``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError, InternalInvariantError, SimulationDiverged
from ..fieldlang import CoefficientSet, compile_field, compile_jacobian, compile_step_kernel
from .brownian import BrownianGrid, _brownian_paths

__all__ = [
    "SCHEMES",
    "SimConfig",
    "Trajectory",
    "FlowTrajectory",
    "MalliavinPair",
    "RecordSpec",
    "EnsembleResult",
    "simulate_x",
    "simulate_flow",
    "run_ensemble",
    "malliavin_derivative",
    "malliavin_matrices",
    "malliavin_checkpoint_ensemble",
    "nearest_index",
]

SCHEMES = ("tamed-euler", "split-step-backward-euler", "euler")

_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50

# Matrices assembled from outer products may pick up this much asymmetric
# rounding relative to their trace before we call it an internal error.
_PSD_TRACE_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Grid, scheme, and stream parameters shared by one simulation run."""

    horizon: float
    n_steps: int
    x0: tuple[float, ...]
    scheme: str = "tamed-euler"
    seed: int = 0
    monotone_bound: float | None = None

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ConfigError(f"horizon must be positive and finite, got {self.horizon}")
        n = self.n_steps
        if n < 1 or (n & (n - 1)) != 0:
            raise ConfigError(f"n_steps must be a positive power of two, got {n}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; choose from {SCHEMES}")
        if not self.x0:
            raise ConfigError("x0 must have at least one component")
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        for v in self.x0:
            if not math.isfinite(v):
                raise ConfigError("x0 must be finite")
        if (
            self.scheme == "split-step-backward-euler"
            and self.monotone_bound is not None
            and self.h * self.monotone_bound >= 1.0
        ):
            raise ConfigError(
                f"h * L = {self.h * self.monotone_bound:.3g} >= 1: the implicit "
                "step is not guaranteed a unique root; reduce h"
            )

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
    covariances: np.ndarray  # (n_steps + 1, d, d), C by the engine's quadrature

    def identity_defect(self) -> np.ndarray:
        """Frobenius norm of K_k J_k - I along the path."""
        return _identity_defect(*(np.moveaxis(a, 0, -1) for a in (self.jacobians, self.inverses)))


@dataclass(slots=True)
class MalliavinPair:
    """Covariance matrices C(t) and Q(t) = J C J^T for one path."""

    t: float
    c_matrix: np.ndarray
    q_matrix: np.ndarray

    def validate(self) -> None:
        for name, mat in (("C", self.c_matrix), ("Q", self.q_matrix)):
            if not np.allclose(mat, mat.T, atol=1e-12, rtol=0.0):
                raise InternalInvariantError(f"{name} matrix is not symmetric")
            lam = np.linalg.eigvalsh(mat)[0]
            if lam < -_PSD_TRACE_TOL * max(1.0, abs(np.trace(mat))):
                raise InternalInvariantError(
                    f"{name} matrix has eigenvalue {lam} below the PSD tolerance"
                )


@dataclass(frozen=True, slots=True)
class RecordSpec:
    """What the ensemble engine records beyond terminal states.

    ``store_paths`` keeps X at every grid index, and J and K too when the run
    has flows; ``c_checkpoints`` keeps C and J at the given indices;
    ``track_flow_identity`` keeps sup_k |K_k J_k - I|; ``accumulator`` is a
    factory ``B -> acc`` whose results fill ``EnsembleResult.accumulated``.
    """

    flows: bool = True
    store_paths: bool = False
    accumulator: Callable | None = None
    c_checkpoints: tuple[int, ...] = ()
    track_flow_identity: bool = False

    @property
    def needs_flows(self) -> bool:
        return self.flows or bool(self.c_checkpoints) or self.track_flow_identity


@dataclass(slots=True)
class EnsembleResult:
    """Per-path records assembled in ascending stream order."""

    config: SimConfig
    stream_ids: np.ndarray
    final_states: np.ndarray
    diverged_step: np.ndarray  # -1 where the path stayed finite
    final_jacobians: np.ndarray | None = None
    flow_identity_sup: np.ndarray | None = None
    c_at: dict[int, np.ndarray] = field(default_factory=dict)
    j_at: dict[int, np.ndarray] = field(default_factory=dict)
    states: np.ndarray | None = None
    jacobians: np.ndarray | None = None
    inverses: np.ndarray | None = None
    accumulated: np.ndarray | None = None

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


def _implicit_state(cb, cgb, x, h):
    """Solve z = x + h b(z) by damped Newton with step halving.

    Vectorised over rows; every row's iteration depends only on its own
    values.  Returns (z, converged mask).
    """
    B, d = x.shape
    eye = np.eye(d)
    z = x.copy()

    def residual(candidate):
        return candidate - x - h * cb(candidate)

    fz = residual(z)
    fnorm = np.linalg.norm(fz, axis=1)
    scale = 1.0 + np.linalg.norm(z, axis=1)
    converged = fnorm <= _NEWTON_TOL * scale
    failed = ~np.isfinite(fnorm)
    for _ in range(_NEWTON_MAX_ITER):
        active = ~(converged | failed)
        if not active.any():
            break
        gb = cgb(z)
        A = eye - h * gb
        try:
            delta = np.linalg.solve(A, -fz[..., None])[..., 0]
        except np.linalg.LinAlgError:
            failed |= active
            break
        lam = np.ones(B)
        improved = np.zeros(B, dtype=bool)
        trial_z = z.copy()
        trial_f = fz.copy()
        trial_norm = fnorm.copy()
        for _ in range(20):
            pending = active & ~improved
            if not pending.any():
                break
            cand = z + lam[:, None] * delta
            fcand = residual(cand)
            cnorm = np.linalg.norm(fcand, axis=1)
            accept = pending & np.isfinite(cnorm) & (cnorm <= (1.0 - 1e-4 * lam) * fnorm)
            trial_z = np.where(accept[:, None], cand, trial_z)
            trial_f = np.where(accept[:, None], fcand, trial_f)
            trial_norm = np.where(accept, cnorm, trial_norm)
            improved |= accept
            lam = np.where(improved, lam, lam * 0.5)
        failed |= active & ~improved
        z, fz, fnorm = trial_z, trial_f, trial_norm
        scale = 1.0 + np.linalg.norm(z, axis=1)
        converged |= (~failed) & (fnorm <= _NEWTON_TOL * scale)
    return z, converged & ~failed


def _identity_defect(j: np.ndarray, k_inv: np.ndarray) -> np.ndarray:
    """Per-path Frobenius norm of K J - I for (d, d, B) stacks of J and K."""
    defect = (k_inv[:, :, None] * j[None]).sum(axis=1) - np.eye(len(j))[:, :, None]
    return np.sqrt(np.add.reduce(defect * defect, axis=(0, 1)))


class _Path:
    """One state view at every grid index, kept as a (B, n + 1, ...) array."""

    def __init__(self, read, shape):
        self.read, self.kept = read, np.empty(shape)

    def step(self, k, *views):
        self.kept[:, k] = np.moveaxis(self.read(*views), -1, 0)

    def result(self):
        return self.kept


class _Checkpoints:
    """One state view at the given grid indices, kept as {k: (B, ...)}."""

    def __init__(self, read, indices):
        self.read, self.indices, self.at = read, set(indices), {}

    def step(self, k, *views):
        if k in self.indices:
            self.at[k] = np.moveaxis(self.read(*views), -1, 0).copy()

    def result(self):
        return self.at


class _RunningMax:
    """Per-path max over the grid of a norm of the state views, from 0."""

    def __init__(self, norm, B):
        self.norm, self.sup = norm, np.zeros(B)

    def step(self, k, *views):
        self.sup = np.maximum(self.sup, self.norm(*views))

    def result(self):
        return self.sup


def _recorders(record: RecordSpec, B: int, n: int, d: int) -> dict:
    """A block's accumulators, keyed by the ``EnsembleResult`` field each fills."""
    recs = {}
    if record.store_paths:
        recs["states"] = _Path(lambda x, *_: x, (B, n + 1, d))
        if record.needs_flows:
            recs["jacobians"] = _Path(lambda x, j, *_: j, (B, n + 1, d, d))
            recs["inverses"] = _Path(lambda x, j, k_inv, *_: k_inv, (B, n + 1, d, d))
    if record.c_checkpoints:
        tri = np.zeros((d, d), dtype=np.intp)  # C[p, r] is C's triangle row tri[p, r]
        tri[np.triu_indices(d)] = tri.T[np.triu_indices(d)] = np.arange(d * (d + 1) // 2)
        recs["c_at"] = _Checkpoints(lambda x, j, k_inv, c, dw: c[tri], record.c_checkpoints)
        recs["j_at"] = _Checkpoints(lambda x, j, *_: j, record.c_checkpoints)
    if record.track_flow_identity:
        recs["flow_identity_sup"] = _RunningMax(
            lambda x, j, k_inv, *_: _identity_defect(j, k_inv), B
        )
    if record.accumulator is not None:
        recs["accumulated"] = record.accumulator(B)
    return recs


def _simulate_block(
    coeffs: CoefficientSet, config: SimConfig, dw: np.ndarray, record: RecordSpec
) -> dict:
    d, m = coeffs.d, coeffs.m
    n, h = config.n_steps, config.h
    B = dw.shape[0]
    if dw.shape != (B, n, m):
        raise InternalInvariantError(f"increment block has shape {dw.shape}")
    needs_flows = record.needs_flows
    accumulate_c = bool(record.c_checkpoints)
    step = compile_step_kernel(coeffs, config.scheme, needs_flows, accumulate_c)
    implicit = config.scheme == "split-step-backward-euler"
    # Newton runs on (B, d) rows, with the row-major field functions
    newton = (compile_field(coeffs.drift), compile_jacobian(coeffs.drift)) if implicit else None

    # the kernel's state rows, read from one buffer and written to the other
    flow_rows = 2 * d * d if needs_flows else 0
    s = np.zeros((d + flow_rows + (d * (d + 1) // 2 if accumulate_c else 0), B))
    out = np.empty_like(s)

    def views(buf):  # X (d, B), J and K (d, d, B), C's triangle rows
        flow = buf[d : d + flow_rows].reshape(2, d, d, B) if needs_flows else (None, None)
        return buf[:d], flow[0], flow[1], buf[d + flow_rows :]

    x, j, k_inv, c = views(s)
    x[:] = np.asarray(config.x0)[:, None]
    if needs_flows:
        j[:] = k_inv[:] = np.eye(d)[:, :, None]
    alive = np.ones(B, dtype=bool)
    diverged = np.full(B, -1, dtype=np.int64)
    accs = _recorders(record, B, n, d)

    with np.errstate(all="ignore"):
        for k in range(n):
            dwk = np.ascontiguousarray(dw[:, k, :].T)  # (m, B)
            for acc in accs.values():
                acc.step(k, x, j, k_inv, c, dwk)
            z = newton_ok = None
            if implicit:
                z, newton_ok = _implicit_state(*newton, x.T, h)
                z = z.T
            step(s, out, dwk, h, z)
            ok = np.isfinite(out).all(axis=0)
            if newton_ok is not None:
                ok &= newton_ok
            if not (ok.all() and alive.all()):
                diverged[alive & ~ok] = k
                alive &= ok
                np.copyto(out, s, where=~alive)
            s, out = out, s
            x, j, k_inv, c = views(s)
        for acc in accs.values():
            acc.step(n, x, j, k_inv, c, None)

    return {
        "final_states": x.T.copy(),
        "diverged_step": diverged,
        "final_jacobians": None if j is None else np.moveaxis(j, -1, 0).copy(),
        **{name: acc.result() for name, acc in accs.items()},
    }


# Paths per chunk of _block_increments: its (chunk, n + 1, m) buffer is at
# most about 1 MiB at n = 1024, m = 2, so it adds nothing visible to a block.
_CHUNK = 64


def _block_increments(config: SimConfig, m: int, stream_ids: np.ndarray) -> np.ndarray:
    """The streams' (B, n, m) increments: ``sample_brownian``'s paths, one
    chunk of paths at a time, each chunk differenced by one subtraction."""
    n, scale = config.n_steps, math.sqrt(config.h)
    dw = np.empty((len(stream_ids), n, m))
    buf = np.zeros((min(len(stream_ids), _CHUNK), n + 1, m))  # row 0 stays W(0) = 0
    for start in range(0, len(stream_ids), _CHUNK):
        ids = stream_ids[start : start + _CHUNK]
        path = buf[: len(ids)]
        _brownian_paths(config.seed, ids, scale, path)
        np.subtract(path[:, 1:], path[:, :-1], out=dw[start : start + len(ids)])
    return dw


def _default_block_size(config: SimConfig, coeffs: CoefficientSet, record: RecordSpec) -> int:
    n, d, m = config.n_steps, coeffs.d, coeffs.m
    per_path = n * m  # increments
    if record.store_paths:
        per_path += (n + 1) * (d + (2 * d * d if record.needs_flows else 0))
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
    merging happens in ascending stream order.
    """
    if n_paths < 1:
        raise ConfigError("n_paths must be >= 1")
    if coeffs.d != config.d:
        raise ConfigError("config.x0 dimension does not match the coefficient set")
    size = block_size or _default_block_size(config, coeffs, record)
    starts = list(range(0, n_paths, size))
    id_blocks = [
        np.arange(s, min(s + size, n_paths), dtype=np.int64) for s in starts
    ]

    results = [
        _simulate_block(coeffs, config, _block_increments(config, coeffs.m, ids), record)
        for ids in id_blocks
    ]

    def cat(parts):
        if isinstance(parts[0], dict):  # records by grid index
            return {k: cat([p[k] for p in parts]) for k in parts[0]}
        return None if parts[0] is None else np.concatenate(parts)

    per_path = {key: cat([r[key] for r in results]) for key in results[0]}
    return EnsembleResult(config, np.concatenate(id_blocks), **per_path)


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
    out = _simulate_block(coeffs, config, grid.increments[None], record)
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
    """The J and K flows and the covariance C along ``trajectory``, which must
    be the output of ``simulate_x`` on the same grid; raises ConfigError for
    any other path."""
    every = range(config.n_steps + 1)
    out = _single_path(
        coeffs, config, grid, RecordSpec(store_paths=True, c_checkpoints=tuple(every))
    )
    if not np.array_equal(trajectory.states, out["states"][0]):
        raise ConfigError("trajectory is not simulate_x's state path on this grid")
    c = np.stack([out["c_at"][k][0] for k in every])
    return FlowTrajectory(config.times(), out["jacobians"][0], out["inverses"][0], c)


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


def _covariance_pair(c: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrised C and Q = J C J^T for (B, d, d) stacks of C and J."""
    c = 0.5 * (c + np.swapaxes(c, 1, 2))
    q = np.einsum("bij,bjk,blk->bil", j, c, j)
    return c, 0.5 * (q + np.swapaxes(q, 1, 2))


def malliavin_matrices(
    flow: FlowTrajectory,
    trajectory: Trajectory,
    coeffs: CoefficientSet,
    t_index: int,
) -> MalliavinPair:
    """C and Q = J C J^T at ``t_index``, C being the left-endpoint quadrature
    that ``simulate_flow`` recorded: the engine's C, step by step, with the
    bits of ``malliavin_checkpoint_ensemble``.  ``coeffs`` is not read."""
    if not 0 <= t_index <= trajectory.n_steps:
        raise ConfigError("t_index out of range")
    c, q = _covariance_pair(flow.covariances[t_index][None], flow.jacobians[t_index][None])
    return MalliavinPair(float(trajectory.times[t_index]), c[0], q[0])


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
    for i in idx:
        if not 0 <= i <= config.n_steps:
            raise ConfigError(f"checkpoint index {i} outside the grid")
    res = run_ensemble(coeffs, config, n_paths, RecordSpec(flows=True, c_checkpoints=idx))
    return res, {i: _covariance_pair(res.c_at[i], res.j_at[i]) for i in idx}
