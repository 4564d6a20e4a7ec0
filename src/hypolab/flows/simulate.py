"""Schemes for the state, the first-variation flow, and its inverse.

The state X follows the Ito SDE dX = b(X) dt + sigma(X) dW.  Along a frozen
state path, the first-variation flow J and its inverse K satisfy linear
matrix SDEs, stepped as

    J_{k+1} = J_k + A_k J_k
    K_{k+1} = K_k - K_k G_k

with one generator matrix per step and path,

    A_k = h grad_b(X_k) + sum_i grad_sigma_i(X_k) dW^i_k
    G_k = A_k - h sum_i grad_sigma_i(X_k)^2.

The matrix-squared correction in G is the unique reading under which the
Ito product rule gives d(KJ) = 0, and the K J = I identity is enforced as a
test surface rather than a runtime assertion.  With additive noise (every
grad sigma_i the constant 0) G = A = h grad_b.  The Malliavin covariance is
accumulated by left-endpoint quadrature, C_{k+1} = C_k + h S_k S_k^T with
S_k = K_k sigma(X_k).

A block's state is component-major, paths last: X (d, B); J, K, C (d, d, B).
Each product above is one broadcast sum over such stacks, elementwise where
the summed axis has length 1 (d = 1, or m = 1 in S S^T), which keeps the
scalar bits.  Each step copies its (m, B) increments out of the block's
(B, n, m) array; outputs are transposed back to (B, ...) as they are stored.

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

A reduction that needs the whole path but only a few numbers per path rides
along as a per-step accumulator instead of storing paths.  ``RecordSpec``
carries a factory ``B -> acc``; each block builds its own accumulator and
calls ``acc.step(k, x, k_inv, dw_k)`` at k = 0..n with the component-major
state x (d, B) and inverse flow k_inv (d, d, B) the engine would store at
index k (frozen columns for lost paths) and the (m, B) increment rows that
leave it (``None`` at n).  ``acc.result()`` is a per-path array, merged in
stream order into ``EnsembleResult.accumulated``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError, InternalInvariantError, SimulationDiverged
from ..fieldlang import (
    CoefficientSet,
    compile_diffusion,
    compile_diffusion_jacobians,
    compile_field,
    compile_jacobian,
)
from .brownian import BrownianGrid, standard_normal_stream

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
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
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

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(slots=True)
class FlowTrajectory:
    times: np.ndarray
    jacobians: np.ndarray  # (n_steps + 1, d, d)
    inverses: np.ndarray  # (n_steps + 1, d, d)

    def identity_defect(self) -> np.ndarray:
        """Frobenius norm of K_k J_k - I along the path."""
        d = self.jacobians.shape[-1]
        prod = np.einsum("tij,tjk->tik", self.inverses, self.jacobians)
        return np.linalg.norm(prod - np.eye(d), axis=(1, 2))


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
    """What the ensemble engine stores beyond terminal states."""

    flows: bool = True
    store_states: bool = False
    store_jacobians: bool = False
    store_inverses: bool = False
    accumulator: Callable | None = None  # block size B -> per-step accumulator
    c_checkpoints: tuple[int, ...] = ()
    track_sup: bool = False
    track_flow_identity: bool = False

    @property
    def needs_flows(self) -> bool:
        return (
            self.flows
            or bool(self.c_checkpoints)
            or self.store_jacobians
            or self.store_inverses
            or self.track_flow_identity
        )


@dataclass(slots=True)
class EnsembleResult:
    """Per-path records assembled in ascending stream order."""

    config: SimConfig
    stream_ids: np.ndarray
    final_states: np.ndarray
    diverged_step: np.ndarray  # -1 where the path stayed finite
    final_jacobians: np.ndarray | None = None
    sup_abs: np.ndarray | None = None
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


def _compiled_bundle(coeffs: CoefficientSet, needs_flows: bool):
    """Component-major b, sigma, grad b and stacked grad sigma_i; the last is
    None without flows or for additive noise, whose grad sigma_i are all 0."""
    cb = compile_field(coeffs.drift, component_major=True)
    csig = compile_diffusion(coeffs, component_major=True)
    cgb = compile_jacobian(coeffs.drift, component_major=True)
    needs_gs = needs_flows and not coeffs.additive
    cgs = compile_diffusion_jacobians(coeffs, component_major=True) if needs_gs else None
    return cb, csig, cgb, cgs


def _bmm(a, b):
    """Matrix products of (..., p, q, B) and (..., q, r, B) stacks whose last
    axis runs over paths: one broadcast sum over q, elementwise when q = 1."""
    if a.shape[-2] == 1:
        return a * b
    return (a[..., None, :] * b[..., None, :, :, :]).sum(axis=-3)


def _flow_step(j, k_inv, gb, gs, dwk, h):
    """One Euler step of the J and K matrix SDEs through the generators A, G
    on (d, d, B) stacks; ``gs`` is None for additive noise, where G = A."""
    a = g = h * gb
    if gs is not None:
        for i in range(gs.shape[0]):
            a += gs[i] * dwk[i]
        sq = _bmm(gs, gs)
        # one term: + 0.0 turns -0.0 into 0.0 as the sum over the axis does
        g = a - h * (sq[0] + 0.0 if sq.shape[0] == 1 else sq.sum(axis=0))
    return j + _bmm(a, j), k_inv - _bmm(k_inv, g)


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


def _simulate_block(
    coeffs: CoefficientSet, config: SimConfig, dw: np.ndarray, record: RecordSpec
) -> dict:
    d, m = coeffs.d, coeffs.m
    n, h = config.n_steps, config.h
    B = dw.shape[0]
    if dw.shape != (B, n, m):
        raise InternalInvariantError(f"increment block has shape {dw.shape}")
    needs_flows = record.needs_flows
    cb, csig, cgb, cgs = _compiled_bundle(coeffs, needs_flows)
    tamed = config.scheme == "tamed-euler"
    implicit = config.scheme == "split-step-backward-euler"
    # Newton runs on (B, d) rows, with the row-major field functions
    newton = (compile_field(coeffs.drift), compile_jacobian(coeffs.drift)) if implicit else None

    x = np.tile(np.asarray(config.x0)[:, None], (1, B))
    alive = np.ones(B, dtype=bool)
    diverged = np.full(B, -1, dtype=np.int64)
    eye = np.eye(d)[:, :, None]
    j = np.tile(eye, (1, 1, B)) if needs_flows else None
    k_inv = None if j is None else j.copy()
    cpset = set(record.c_checkpoints)
    accumulate_c = bool(cpset)
    c = np.zeros((d, d, B)) if accumulate_c else None
    c_snapshots: dict[int, np.ndarray] = {}
    j_snapshots: dict[int, np.ndarray] = {}
    sup_abs = np.sqrt(np.add.reduce(x * x, axis=0)) if record.track_sup else None
    kj_sup = np.zeros(B) if record.track_flow_identity else None
    states = np.empty((B, n + 1, d)) if record.store_states else None
    jacobians = np.empty((B, n + 1, d, d)) if record.store_jacobians else None
    inverses = np.empty((B, n + 1, d, d)) if record.store_inverses else None
    acc = record.accumulator(B) if record.accumulator is not None else None

    def store(k):
        if accumulate_c and k in cpset:
            c_snapshots[k] = np.moveaxis(c, -1, 0).copy()
            j_snapshots[k] = np.moveaxis(j, -1, 0).copy()
        if states is not None:
            states[:, k] = x.T
        if jacobians is not None:
            jacobians[:, k] = np.moveaxis(j, -1, 0)
        if inverses is not None:
            inverses[:, k] = np.moveaxis(k_inv, -1, 0)

    with np.errstate(all="ignore"):
        for k in range(n):
            store(k)
            dwk = np.ascontiguousarray(dw[:, k, :].T)  # (m, B)
            if acc is not None:
                acc.step(k, x, k_inv, dwk)
            bx = cb(x)
            newton_ok = None
            if tamed:
                # np.linalg.norm's own expression, without its Python overhead
                taming = 1.0 + h * np.sqrt(np.add.reduce(bx * bx, axis=0))
                drift_inc = (h * bx) / taming
                noise_point = x
            elif implicit:
                z, newton_ok = _implicit_state(*newton, x.T, h)
                noise_point = z.T
                drift_inc = noise_point - x
            else:
                drift_inc = h * bx
                noise_point = x
            sig_state = csig(noise_point)
            if m == 1:
                # the einsum's one term, added to zero as the einsum does (-0.0 -> 0.0)
                noise = sig_state[:, 0] * dwk[0] + 0.0
            else:
                noise = (sig_state * dwk).sum(axis=1)
            xn = x + drift_inc + noise
            ok = np.isfinite(xn).all(axis=0)
            if newton_ok is not None:
                ok &= newton_ok

            c_next = jn = kn = None
            if needs_flows:
                if accumulate_c:
                    ks = _bmm(k_inv, sig_state if not implicit else csig(x))
                    c_next = c + h * _bmm(ks, ks.transpose(1, 0, 2))
                    ok &= np.isfinite(c_next).all(axis=(0, 1))
                jn, kn = _flow_step(j, k_inv, cgb(x), None if cgs is None else cgs(x), dwk, h)
                ok &= np.isfinite(jn).all(axis=(0, 1))
                ok &= np.isfinite(kn).all(axis=(0, 1))

            if ok.all() and alive.all():
                x, j, k_inv, c = xn, jn, kn, c_next
            else:
                diverged[alive & ~ok] = k
                alive &= ok
                x = np.where(alive, xn, x)
                if needs_flows:
                    j = np.where(alive, jn, j)
                    k_inv = np.where(alive, kn, k_inv)
                    if accumulate_c:
                        c = np.where(alive, c_next, c)
            if sup_abs is not None:
                sup_abs = np.maximum(sup_abs, np.sqrt(np.add.reduce(x * x, axis=0)))
            if kj_sup is not None:
                defect = _bmm(k_inv, j) - eye
                val = np.sqrt(np.add.reduce(defect * defect, axis=(0, 1)))
                kj_sup = np.where(alive, np.maximum(kj_sup, val), kj_sup)

        store(n)
        if acc is not None:
            acc.step(n, x, k_inv, None)

    return {
        "final_states": x.T.copy(),
        "diverged_step": diverged,
        "final_jacobians": None if j is None else np.moveaxis(j, -1, 0).copy(),
        "sup_abs": sup_abs,
        "flow_identity_sup": kj_sup,
        "c_at": c_snapshots,
        "j_at": j_snapshots,
        "states": states,
        "jacobians": jacobians,
        "inverses": inverses,
        "accumulated": acc.result() if acc is not None else None,
    }


# Paths per chunk of _block_increments: its (chunk, n + 1, m) buffer is at
# most about 1 MiB at n = 1024, m = 2, so it adds nothing visible to a block.
_CHUNK = 64


def _block_increments(config: SimConfig, m: int, stream_ids: np.ndarray) -> np.ndarray:
    """The streams' (B, n, m) increments: ``stream_increments``' float
    operations, with one ``cumsum`` and one subtraction per chunk of paths."""
    n, scale = config.n_steps, math.sqrt(config.h)
    dw = np.empty((len(stream_ids), n, m))
    buf = np.zeros((min(len(stream_ids), _CHUNK), n + 1, m))  # row 0 stays W(0) = 0
    for start in range(0, len(stream_ids), _CHUNK):
        ids = stream_ids[start : start + _CHUNK]
        path = buf[: len(ids)]
        for row, sid in zip(path, ids):
            standard_normal_stream(config.seed, int(sid), 0, out=row[1:])
        path *= scale  # contiguous, so unbuffered; row 0 stays zero
        np.cumsum(path[:, 1:], axis=1, out=path[:, 1:])
        np.subtract(path[:, 1:], path[:, :-1], out=dw[start : start + len(ids)])
    return dw


def _default_block_size(config: SimConfig, coeffs: CoefficientSet, record: RecordSpec) -> int:
    n, d, m = config.n_steps, coeffs.d, coeffs.m
    per_path = n * m  # increments
    per_path += (n + 1) * d if record.store_states else 0
    per_path += 2 * (n + 1) * d * d if (record.store_jacobians or record.store_inverses) else 0
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

    def cat(arrays):
        return None if arrays[0] is None else np.concatenate(arrays)

    keys = [key for key in results[0] if key not in ("c_at", "j_at")]
    per_path = {key: cat([r[key] for r in results]) for key in keys}
    merged = EnsembleResult(config, np.concatenate(id_blocks), **per_path)
    for idx in record.c_checkpoints:
        merged.c_at[idx] = cat([r["c_at"][idx] for r in results])
        merged.j_at[idx] = cat([r["j_at"][idx] for r in results])
    return merged


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
    out = _single_path(coeffs, config, grid, RecordSpec(flows=False, store_states=True))
    return Trajectory(config.times(), out["states"][0])


def simulate_flow(
    coeffs: CoefficientSet,
    config: SimConfig,
    grid: BrownianGrid,
    trajectory: Trajectory,
) -> FlowTrajectory:
    """The J and K flows along ``trajectory``, which must be the output of
    ``simulate_x`` on the same grid; raises ConfigError for any other path."""
    out = _single_path(
        coeffs,
        config,
        grid,
        RecordSpec(store_states=True, store_jacobians=True, store_inverses=True),
    )
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
    if s_index > t_index:
        raise ConfigError("need s_index <= t_index")
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
    """Left-endpoint quadrature of the covariance flow up to ``t_index``."""
    if not 0 <= t_index <= trajectory.n_steps:
        raise ConfigError("t_index out of range")
    h = trajectory.times[1] - trajectory.times[0] if trajectory.n_steps else 0.0
    d = trajectory.dim
    if t_index == 0:
        c = np.zeros((d, d))
    else:
        sig_path = compile_diffusion(coeffs)(trajectory.states[:t_index])
        ks = np.einsum("tij,tjm->tim", flow.inverses[:t_index], sig_path)
        c = h * np.einsum("tim,tjm->ij", ks, ks)
    c, q = _covariance_pair(c[None], flow.jacobians[t_index][None])
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
