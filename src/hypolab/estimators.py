"""Monte Carlo estimators: eigenvalue and remainder tails, inverse-determinant
moments, kernel density estimates, and quadratic-exponential envelope fits.

Tail curves share one ensemble across the whole K grid (common random
numbers), so monotonicity in K is a pathwise property testable at desk-scale
trial counts.  Theoretical constants in the bounds being nonconstructive,
every comparison here is either a shape/decay property or a fitted-constant
report; fitted values are exposed but never asserted against the theory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .brackets import BracketTable, bracket_local_bound, expansion_local_bound, spanning_value
from .errors import ConfigError, DegenerateSamplesError, EvaluationError
from .fieldlang import CoefficientSet, VectorField
from .flows import (
    RecordSpec,
    RemainderEnergy,
    SimConfig,
    malliavin_checkpoint_ensemble,
    nearest_index,
    run_ensemble,
)

__all__ = [
    "Z_95",
    "wilson_interval",
    "EnsembleSpec",
    "TailCurve",
    "eigenvalue_tails",
    "remainder_tails",
    "MomentEstimate",
    "inverse_det_moments",
    "DetScaling",
    "inverse_det_scaling",
    "DensityEstimate",
    "silverman_bandwidth",
    "kde_density",
    "terminal_samples",
    "EnvelopeReport",
    "density_envelope_check",
]

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

DEFAULT_T_GRID = tuple(2.0**-i for i in range(1, 8))


def wilson_interval(events: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ConfigError("trials must be positive")
    if not 0 <= events <= trials:
        raise ConfigError("events outside [0, trials]")
    p = events / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if events == 0 else max(center - half, 0.0)
    hi = 1.0 if events == trials else min(center + half, 1.0)
    return lo, hi


@dataclass(frozen=True, slots=True)
class EnsembleSpec:
    """Everything needed to reproduce one Monte Carlo ensemble."""

    coeffs: CoefficientSet
    config: SimConfig
    n_paths: int

    def __post_init__(self):
        if self.n_paths < 1:
            raise ConfigError("n_paths must be >= 1")


@dataclass(slots=True)
class TailCurve:
    """Empirical tail probabilities over a K grid with Wilson intervals."""

    k_values: np.ndarray
    events: np.ndarray
    trials: int
    p_hat: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    meta: dict = field(default_factory=dict)
    envelope_fit: dict | None = None

    def half_widths(self) -> np.ndarray:
        return 0.5 * (self.ci_hi - self.ci_lo)

    def non_increasing_within_half_width(self) -> bool:
        """Monotone decay check, slack of one Wilson half-width per step."""
        hw = self.half_widths()
        return bool(
            np.all(self.p_hat[1:] <= self.p_hat[:-1] + np.maximum(hw[1:], hw[:-1]))
        )

    def to_json_dict(self) -> dict:
        return {
            "K": [float(v) for v in self.k_values],
            "events": [int(v) for v in self.events],
            "trials": self.trials,
            "p_hat": [float(v) for v in self.p_hat],
            "ci_lo": [float(v) for v in self.ci_lo],
            "ci_hi": [float(v) for v in self.ci_hi],
            "meta": self.meta,
            "envelope_fit": self.envelope_fit,
        }


def _k_values(L: int, k_grid) -> np.ndarray:
    """The sorted K grid of a tail curve, after checking it and L."""
    if L < 1:
        raise ConfigError("L must be >= 1")
    k_values = np.asarray(sorted(float(k) for k in k_grid))
    if k_values.size == 0 or k_values[0] < 1.0:
        raise ConfigError("K grid must be non-empty with K >= 1")
    return k_values


def _tail_curve(k_values: np.ndarray, events, trials: int, meta: dict) -> TailCurve:
    """The tail curve of ``events`` per K out of ``trials``, with Wilson bounds."""
    events = np.asarray(events, dtype=np.int64)
    bounds = np.array([wilson_interval(int(e), trials) for e in events])
    return TailCurve(k_values, events, trials, events / trials, bounds[:, 0], bounds[:, 1], meta)


def _fit_tail_envelope(
    k_values: np.ndarray, p_hat: np.ndarray, v_l: float, m_x: float, L: int
) -> dict | None:
    """Least-squares fit of p ~ C exp(-a K^mu) in log(-log p) coordinates.

    The theoretical shape has a = lambda (V^(L+2))^mu / (1 + M)^2; the fitted
    lambda is reported by inverting that relation.  Informational only.
    """
    usable = (p_hat > 0.0) & (p_hat < 1.0)
    if usable.sum() < 2:
        return None
    k = np.asarray(k_values, dtype=float)[usable]
    g = -np.log(p_hat[usable])
    # the model log g = log a + mu log K is linear, so this is the optimum
    coef = np.polyfit(np.log(k), np.log(g), 1)
    mu = float(coef[0])
    a = float(np.exp(coef[1]))
    c_fit = float(np.exp(np.mean(np.log(p_hat[usable]) + a * k**mu)))
    lam = a * (1.0 + m_x) ** 2 / max(v_l, 1e-300) ** ((L + 2) * mu)
    return {
        "C": c_fit,
        "lambda": lam,
        "mu": mu,
        "raw_rate": a,
        "V_L_x0": v_l,
        "M_x0": m_x,
        "n_points": int(usable.sum()),
        "note": "fitted constants; the theoretical constants are not constructive",
    }


def eigenvalue_tails(
    L: int,
    k_grid,
    t: float,
    matrix: str,
    ensemble: EnsembleSpec,
    fit_envelope: bool = True,
) -> TailCurve:
    """Tail curve for the smallest eigenvalue of C or Q at shrinking horizons.

    For each K the eigenvalue is read at the grid time nearest
    t / K^(1/(L+1)) from a single simulation to horizon t (common random
    numbers across the K grid), and the event {lambda / t^L <= 1/K} is
    counted over paths.
    """
    k_values = _k_values(L, k_grid)
    if not 0 < t <= 1:
        raise ConfigError("t must lie in (0, 1]")
    if matrix not in ("C", "Q"):
        raise ConfigError("matrix must be 'C' or 'Q'")
    config = replace(ensemble.config, horizon=t)
    horizons = t / k_values ** (1.0 / (L + 1))
    indices = [nearest_index(config, s) for s in horizons]
    if min(indices) < 1:
        raise ConfigError(
            "grid too coarse: the smallest tail horizon rounds to index 0"
        )
    res, mats = malliavin_checkpoint_ensemble(
        ensemble.coeffs, config, ensemble.n_paths, indices
    )
    alive = res.survivors()
    trials = int(alive.sum())
    which = 0 if matrix == "C" else 1
    events = []
    for k, idx in zip(k_values, indices):
        lam = np.linalg.eigvalsh(mats[idx][which][alive])[:, 0]
        events.append(np.count_nonzero(lam / t**L <= 1.0 / k))
    curve = _tail_curve(k_values, events, trials, {
        "L": L,
        "t": t,
        "matrix": matrix,
        "x0": list(ensemble.config.x0),
        "horizons": [float(s) for s in horizons],
        "snapped_times": [float(i * config.h) for i in indices],
        "diverged": res.diverged_count,
        "bound": "smallest-eigenvalue tail of the Malliavin covariance",
        "common_random_numbers": True,
    })
    if fit_envelope:
        table = BracketTable(ensemble.coeffs)
        x0 = np.asarray(ensemble.config.x0)
        v_l = spanning_value(x0, L, table)
        m_x = bracket_local_bound(table, x0, L)
        curve.envelope_fit = _fit_tail_envelope(k_values, curve.p_hat, v_l, m_x, L)
    return curve


def remainder_tails(
    L: int,
    epsilon: float,
    k_grid,
    target: VectorField,
    ensemble: EnsembleSpec,
    t_grid=DEFAULT_T_GRID,
    fit_envelope: bool = True,
) -> TailCurve:
    """Tail curve for the truncated-expansion remainder energy.

    Per path and per (t, K) the event is
    (1/t^L) * integral_0^{t/K} |R_L|^2 ds >= K^-(L+1-eps); the probability is
    estimated per t on a dyadic grid and the supremum over t reported per K,
    with common random numbers across both grids.

    The energy integral is accumulated inside the engine's generated step, a
    ``RemainderEnergy`` record whose value is kept only at the (t/K) indices
    read here; no state, flow or increment path is stored.  Memory still
    grows with the path count, by those kept values: on the heis config the
    tracemalloc peak is 35 MiB at 16384 paths and 97 MiB at 262144.
    """
    k_values = _k_values(L, k_grid)
    if not 0 < epsilon <= 1:
        raise ConfigError("epsilon must lie in (0, 1]")
    t_values = sorted(float(t) for t in t_grid)
    if not t_values or t_values[0] <= 0 or t_values[-1] > 1:
        raise ConfigError("t grid must lie in (0, 1]")
    horizon = t_values[-1]
    config = replace(ensemble.config, horizon=horizon)
    x0 = np.asarray(ensemble.config.x0)
    read = sorted({nearest_index(config, t / k) for k in k_values for t in t_values})
    table = BracketTable(ensemble.coeffs)
    energy = RemainderEnergy(L, target, table, x0, read)
    res = run_ensemble(ensemble.coeffs, config, ensemble.n_paths, RecordSpec(remainder=energy))
    alive = res.survivors()
    trials = int(alive.sum())
    cum = res.accumulated[alive]  # (trials, len(read))
    events, argmax_t = [], []
    for k in k_values:
        threshold = k ** -(L + 1 - epsilon)
        counts = []
        for t in t_values:
            at = energy.columns[nearest_index(config, t / k)]
            counts.append(np.count_nonzero(cum[:, at] / t**L >= threshold))
        best = int(np.argmax(counts))  # the first t with the most events
        events.append(counts[best])
        argmax_t.append(t_values[best])
    curve = _tail_curve(k_values, events, trials, {
        "L": L,
        "epsilon": epsilon,
        "x0": list(ensemble.config.x0),
        "t_grid": t_values,
        "argmax_t": argmax_t,
        "field": target.describe(),
        "diverged": res.diverged_count,
        "bound": "energy tail of the truncated flow-expansion remainder",
        "common_random_numbers": True,
    })
    if fit_envelope:
        m_x = expansion_local_bound(table, target, x0, L)
        curve.envelope_fit = _fit_tail_envelope(k_values, curve.p_hat, 1.0, m_x, L)
    return curve


@dataclass(slots=True)
class MomentEstimate:
    """Sample moment of the inverse covariance determinant."""

    p: float
    t: float
    value: float
    std_error: float
    trials: int
    heavy_tail: bool

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "t": self.t,
            "estimate": self.value,
            "std_error": self.std_error,
            "trials": self.trials,
            "heavy_tail": self.heavy_tail,
        }


def _inverse_det_samples(p: float, t: float, ensemble: EnsembleSpec) -> np.ndarray:
    config = replace(ensemble.config, horizon=t)
    idx = config.n_steps
    res, mats = malliavin_checkpoint_ensemble(
        ensemble.coeffs, config, ensemble.n_paths, [idx]
    )
    _, q = mats[idx]
    return _inverse_det_powers(q[res.survivors()], p)


def _inverse_det_powers(q: np.ndarray, p: float) -> np.ndarray:
    """(det Q)^-p for a (B, d, d) stack; det Q <= 0 or an overflow aborts."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked here
        dets = np.linalg.det(q)
    if nonfinite := int((~np.isfinite(dets)).sum()):
        raise EvaluationError(f"det Q is not finite on {nonfinite} of {dets.size} surviving paths")
    bad = int((dets <= 0).sum())
    if bad:
        raise DegenerateSamplesError(bad, dets.size)
    with np.errstate(over="ignore"):
        samples = dets ** (-p)
        # a finite sum of squares bounds the sample mean and standard error
        finite = np.isfinite(np.dot(samples, samples))
    if not finite:
        raise EvaluationError(
            f"(det Q)^-p overflows for p = {p!r}; smallest det Q = {dets.min():.6g}"
        )
    return samples


def _heavy_tail_flag(samples: np.ndarray) -> bool:
    """Top 1% of samples carrying over half the sum marks a fragile mean."""
    if samples.size < 2:
        return False
    k = max(1, int(math.ceil(0.01 * samples.size)))
    top = np.sort(samples)[-k:]
    total = samples.sum()
    return bool(total > 0 and top.sum() > 0.5 * total)


def inverse_det_moments(p: float, t: float, ensemble: EnsembleSpec) -> MomentEstimate:
    """Sample mean of (det Q(t))^-p with a heavy-tail diagnostic.

    Samples with det Q <= 0 abort the estimate (positive semidefiniteness
    should prevent them beyond round-off) and are reported in the error, as
    is a run in which no path survived.  A power too large for a float raises
    ``EvaluationError``.
    """
    if p < 0:
        raise ConfigError("p must be >= 0")
    samples = _inverse_det_samples(p, t, ensemble)
    value = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(samples.size)) if samples.size > 1 else 0.0
    return MomentEstimate(
        p=p,
        t=t,
        value=value,
        std_error=se,
        trials=int(samples.size),
        heavy_tail=_heavy_tail_flag(samples),
    )


@dataclass(slots=True)
class DetScaling:
    """Log-log scaling of the inverse-determinant moment against time."""

    p: float
    t_values: np.ndarray
    estimates: np.ndarray
    slope: float
    reference_exponent: float | None
    within_margin: bool | None
    trials: int  # surviving paths

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "t": [float(v) for v in self.t_values],
            "estimates": [float(v) for v in self.estimates],
            "log_log_slope": self.slope,
            "reference_exponent": self.reference_exponent,
            "slope_at_least_reference": self.within_margin,
            "trials": self.trials,
        }


def inverse_det_scaling(
    p: float,
    t_grid,
    ensemble: EnsembleSpec,
    L: int | None = None,
    margin: float = 0.25,
) -> DetScaling:
    """Estimates over a t grid and the fitted log-log slope.

    When L is given the slope is compared against the bound's blow-up
    exponent -p*d*L (the measured slope should not fall below it by more
    than the margin).  Reported, not asserted.
    """
    t_values = np.asarray(sorted(float(t) for t in t_grid))
    if t_values.size < 2:
        raise ConfigError("need at least two t values for a scaling study")
    # one simulation to the largest horizon, checkpoints at every t
    config = replace(ensemble.config, horizon=float(t_values[-1]))
    indices = [nearest_index(config, t) for t in t_values]
    if min(indices) < 1:
        raise ConfigError("grid too coarse for the smallest t in the study")
    res, mats = malliavin_checkpoint_ensemble(
        ensemble.coeffs, config, ensemble.n_paths, indices
    )
    alive = res.survivors()
    estimates = np.array(
        [np.mean(_inverse_det_powers(mats[idx][1][alive], p)) for idx in indices]
    )
    slope = float(np.polyfit(np.log(t_values), np.log(estimates), 1)[0])
    reference = None if L is None else -p * ensemble.coeffs.d * L
    within = None if reference is None else bool(slope >= reference - margin)
    return DetScaling(p, t_values, estimates, slope, reference, within, int(alive.sum()))


# ---------------------------------------------------------------------------
# density estimation


@dataclass(slots=True)
class DensityEstimate:
    """Product-Gaussian kernel density estimate on an evaluation grid."""

    points: np.ndarray  # (g, d)
    values: np.ndarray  # (g,)
    bandwidth: np.ndarray  # (d,)
    n_samples: int

    def riemann_mass(self, cell_volume: float) -> float:
        return float(self.values.sum() * cell_volume)


def silverman_bandwidth(samples: np.ndarray) -> np.ndarray:
    """Rule-of-thumb bandwidth per coordinate with the IQR robustification."""
    n, d = samples.shape
    std = samples.std(axis=0, ddof=1) if n > 1 else np.zeros(d)
    q75, q25 = np.percentile(samples, [75, 25], axis=0)
    spread = np.minimum(std, (q75 - q25) / 1.34)
    spread = np.where(spread > 0, spread, np.maximum(std, 1e-12))
    factor = (4.0 / (d + 2.0)) ** (1.0 / (d + 4.0)) * n ** (-1.0 / (d + 4.0))
    return np.maximum(spread * factor, 1e-12)


def kde_density(
    samples: np.ndarray, grid: np.ndarray, bandwidth=None
) -> DensityEstimate:
    """Evaluate the product-Gaussian KDE of ``samples`` on ``grid``.

    ``bandwidth`` may be a scalar, a length-d vector, or None for the
    Silverman rule per coordinate.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.ndim != 2 or samples.size == 0:
        raise ConfigError("empty ensemble: no samples for the density estimate")
    n, d = samples.shape
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[1] != d:
        raise ConfigError(f"grid dimension {grid.shape[1]} does not match samples ({d})")
    if bandwidth is None:
        bw = silverman_bandwidth(samples)
    else:
        bw = np.broadcast_to(np.asarray(bandwidth, dtype=float), (d,)).copy()
        if np.any(bw <= 0):
            raise ConfigError("bandwidth must be positive")
    norm = n * np.prod(np.sqrt(2 * np.pi) * bw)
    values = np.empty(len(grid))
    chunk = max(1, int(2e7 // max(n, 1)))
    for start in range(0, len(grid), chunk):
        block = grid[start : start + chunk]
        z = (block[:, None, :] - samples[None, :, :]) / bw
        kernel = np.exp(-0.5 * np.sum(z * z, axis=2))
        values[start : start + chunk] = kernel.sum(axis=1) / norm
    return DensityEstimate(grid, values, bw, n)


def terminal_samples(ensemble: EnsembleSpec, t: float | None = None) -> np.ndarray:
    """Terminal states of an ensemble run to horizon t (default: config horizon)."""
    config = ensemble.config if t is None else replace(ensemble.config, horizon=t)
    res = run_ensemble(ensemble.coeffs, config, ensemble.n_paths, RecordSpec(flows=False))
    return res.final_states[res.alive]


@dataclass(slots=True)
class EnvelopeReport:
    """Fit of log p_hat <= log K - C (|y-x0| ^ 1)^2 / (t (1+|x0|)^(2N)).

    The slope is least-squares fitted on the validity region and the
    intercept shifted to the 90th percentile of the residuals, so the fitted
    envelope is an upper line for most points; the reported max violation
    measures how far the worst point still pokes above it.
    """

    region_empty: bool
    n_region_points: int = 0
    n_used: int = 0
    dropped_zero_density: int = 0
    fitted_c: float | None = None
    fitted_log_k: float | None = None
    max_violation: float | None = None
    quantile: float = 0.9
    local_bound: float | None = None
    t: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "region_empty": self.region_empty,
            "n_region_points": self.n_region_points,
            "n_used": self.n_used,
            "dropped_zero_density": self.dropped_zero_density,
            "fitted_C": self.fitted_c,
            "fitted_log_K": self.fitted_log_k,
            "max_log_violation": self.max_violation,
            "residual_quantile": self.quantile,
            "M_x0": self.local_bound,
            "t": self.t,
            "note": "fitted constants; the theoretical constants are not constructive",
        }


def density_envelope_check(
    density: DensityEstimate,
    x0,
    t: float,
    growth_exponent: float,
    local_bound: float,
    quantile: float = 0.9,
) -> EnvelopeReport:
    """Check the quadratic-exponential upper envelope on its validity region.

    The region keeps grid points with t <= (|y - x0| ^ 1) / (4 M(x0)); an
    empty region is a report-only outcome, not an error.  ``growth_exponent``
    is the drift's polynomial-growth order N and ``local_bound`` the
    zeroth-order coefficient bound M(x0) on the unit ball.
    """
    x0 = np.asarray(x0, dtype=float)
    if t <= 0:
        raise ConfigError("t must be positive")
    if local_bound <= 0:
        raise ConfigError("local bound must be positive")
    delta = np.linalg.norm(density.points - x0[None, :], axis=1)
    capped = np.minimum(delta, 1.0)
    region = capped >= 4.0 * local_bound * t
    n_region = int(region.sum())
    if n_region == 0:
        return EnvelopeReport(region_empty=True, local_bound=local_bound, t=t)
    vals = density.values[region]
    positive = vals > 0
    dropped = int((~positive).sum())
    if positive.sum() < 3:
        return EnvelopeReport(
            region_empty=False,
            n_region_points=n_region,
            n_used=int(positive.sum()),
            dropped_zero_density=dropped,
            local_bound=local_bound,
            t=t,
        )
    u = capped[region][positive] ** 2 / (t * (1.0 + np.linalg.norm(x0)) ** (2 * growth_exponent))
    logp = np.log(vals[positive])
    slope, intercept = np.polyfit(u, logp, 1)
    fitted_c = max(-float(slope), 0.0)
    if fitted_c != -slope:
        intercept = float(np.mean(logp + fitted_c * u))
    resid = logp - (intercept - fitted_c * u)
    shift = float(np.quantile(resid, quantile))
    log_k = float(intercept + shift)
    violation = float(np.max(resid - shift))
    return EnvelopeReport(
        region_empty=False,
        n_region_points=n_region,
        n_used=int(positive.sum()),
        dropped_zero_density=dropped,
        fitted_c=fitted_c,
        fitted_log_k=log_k,
        max_violation=violation,
        quantile=quantile,
        local_bound=local_bound,
        t=t,
    )
