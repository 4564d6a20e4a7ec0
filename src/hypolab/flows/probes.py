"""Empirical probes of the drift/diffusion assumptions and moment growth.

These report fitted constants from finite samples: one-sided Lipschitz
(monotonicity) constants, polynomial-growth exponents, the worst quadratic
form of the drift Jacobian, and derivative sup-norms.  A probe can flag a
violation on the sampled box but can never certify an assumption on the
whole space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..brackets import derivative_stack, sampled_norms
from ..errors import ConfigError
from ..fieldlang import CoefficientSet, compile_field, compile_jacobian
from .simulate import RecordSpec, SimConfig, run_ensemble

__all__ = ["AssumptionProbe", "assumption_probe", "MomentProbe", "moment_probe"]


@dataclass(slots=True)
class AssumptionProbe:
    box_lows: tuple[float, ...]
    box_highs: tuple[float, ...]
    n_pairs: int
    monotone_by_scale: dict[float, float]
    monotone_constant: float
    non_uniform_monotonicity: bool
    growth_slope: float
    growth_exponent: float  # fitted N
    growth_constant: float  # fitted L1 at the rounded exponent
    jacobian_form_min: float
    drift_second_max: float
    diffusion_first_max: float
    diffusion_second_max: float
    declared: dict | None = None
    passes: dict | None = None

    def to_json_dict(self) -> dict:
        out = {
            "box": {"lows": list(self.box_lows), "highs": list(self.box_highs)},
            "pairs": self.n_pairs,
            "monotonicity": {
                "fitted_L": _finite(self.monotone_constant),
                "by_scale": {str(k): _finite(v) for k, v in self.monotone_by_scale.items()},
                "non_uniform": self.non_uniform_monotonicity,
            },
            "polynomial_growth": {
                "log_log_slope": _finite(self.growth_slope),
                "fitted_N": _finite(self.growth_exponent),
                "fitted_L1": _finite(self.growth_constant),
            },
            "jacobian_lower_form": {"min_quadratic_form": _finite(self.jacobian_form_min)},
            "smoothness": {
                "drift_second_derivative_max": _finite(self.drift_second_max),
                "diffusion_first_derivative_max": _finite(self.diffusion_first_max),
                "diffusion_second_derivative_max": _finite(self.diffusion_second_max),
            },
        }
        if self.declared is not None:
            out["declared"] = self.declared
            out["passes"] = self.passes
        return out


def assumption_probe(
    coeffs: CoefficientSet,
    box_lows,
    box_highs,
    n_pairs: int = 256,
    seed: int = 0,
    scales=(0.5, 1.0, 2.0),
    declared: dict | None = None,
) -> AssumptionProbe:
    """Fit assumption constants from sampled pairs and directions in a box.

    The monotonicity constant is refit on rescaled copies of the box; growth
    of the fitted constant by more than 1.0 across scales flags non-uniform
    monotonicity (the sampled sup keeps growing with the domain).  The growth
    exponent N is fitted on the log-log slope of the pairs in the upper half
    of |x|; with fewer than 4 of them, or too little spread in |x|, no fit is
    made: the slope and N are NaN, no declared N passes, and L1 is fitted at
    N = 1.  Floating point errors are ignored: a constant that overflows, or
    that no sampled pair defines, is NaN or infinite, and ``to_json_dict``
    writes it as null.
    """
    lows = np.asarray(box_lows, dtype=float)
    highs = np.asarray(box_highs, dtype=float)
    if lows.shape != (coeffs.d,) or highs.shape != (coeffs.d,):
        raise ConfigError("box bounds must have length d")
    if np.any(highs <= lows):
        raise ConfigError("box highs must exceed lows")
    if n_pairs < 8:
        raise ConfigError("need at least 8 sample pairs")
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        center, half = 0.5 * (lows + highs), 0.5 * (highs - lows)
    bfn = compile_field(coeffs.drift)

    def pairs(scale):  # x, y, b(x) - b(y), |x - y|^2 in the scaled box, |x - y| > 1e-8
        x, y = (center + rng.uniform(-1, 1, size=(n_pairs, coeffs.d)) * half * scale
                for _ in range(2))
        nx2 = np.sum(np.square(x - y), axis=1)
        keep = nx2 > 1e-16
        return x[keep], y[keep], (bfn(x) - bfn(y))[keep], nx2[keep]

    with np.errstate(all="ignore"):
        monotone_by_scale = {}
        for s in sorted(scales):
            x, y, db, nx2 = pairs(s)
            monotone_by_scale[float(s)] = _largest(np.sum((x - y) * db, axis=1) / nx2)
        scale_vals = list(monotone_by_scale.values())
        monotone_constant = monotone_by_scale.get(1.0, scale_vals[-1])
        increasing = all(b >= a - 1e-12 for a, b in zip(scale_vals, scale_vals[1:]))
        non_uniform = increasing and (scale_vals[-1] - scale_vals[0]) > 1.0

        # polynomial growth: |b(x)-b(y)|^2 <= L1 (1 + |x|^{2N-2} + |y|^{2N-2}) |x-y|^2
        x, y, db, nx2 = pairs(1.0)
        ratio = np.sum(db * db, axis=1) / nx2
        nx, ny = np.linalg.norm(x, axis=1), np.linalg.norm(y, axis=1)
        u = np.maximum(nx, ny)
        big = (u >= (np.median(u) if u.size else 0.0)) & (ratio > 1e-300) & (u > 1e-12)
        slope = fitted_n = growth_constant = math.nan  # unless the fitted pairs are finite
        if np.isfinite(ratio[big]).all() and np.isfinite(u[big]).all():
            n_round = 1  # no fit, and N is left NaN, with under 4 pairs or too little spread
            if big.sum() >= 4 and u[big].max() / u[big].min() > 1.05:
                slope = max(float(np.polyfit(np.log(u[big]), np.log(ratio[big]), 1)[0]), 0.0)
                fitted_n = 1.0 + slope / 2.0
                n_round = max(1, int(round(fitted_n)))
            weight = 1.0 + u ** (2 * n_round - 2) + np.minimum(nx, ny) ** (2 * n_round - 2)
            growth_constant = _largest(ratio / weight)

        # worst quadratic form of the drift Jacobian over sampled states
        xs = center + rng.uniform(-1, 1, size=(n_pairs, coeffs.d)) * half
        gb = compile_jacobian(coeffs.drift)(xs)
        sym = 0.5 * (gb + np.swapaxes(gb, 1, 2))
        jac_min = (float(np.linalg.eigvalsh(sym)[:, 0].min()) if np.isfinite(sym).all()
                   else math.nan)

    drift, *cols = (derivative_stack(f, 2) for f in (coeffs.drift, *coeffs.diffusion))
    groups = [drift[2], [e for c in cols for e in c[1]], [e for c in cols for e in c[2]]]
    drift_second, diffusion_first, diffusion_second = map(_largest, sampled_norms(groups, xs))

    passes = None
    if declared is not None:
        passes = {}
        if "L" in declared:
            passes["L"] = monotone_constant <= declared["L"] + 1e-9
        if "N" in declared:
            passes["N"] = fitted_n <= declared["N"] + 0.25
        if "L1" in declared:
            passes["L1"] = growth_constant <= declared["L1"] + 1e-9
        if "L3" in declared:
            passes["L3"] = jac_min > -declared["L3"] - 1e-9

    return AssumptionProbe(
        box_lows=tuple(lows),
        box_highs=tuple(highs),
        n_pairs=n_pairs,
        monotone_by_scale=monotone_by_scale,
        monotone_constant=monotone_constant,
        non_uniform_monotonicity=non_uniform,
        growth_slope=slope,
        growth_exponent=fitted_n,
        growth_constant=growth_constant,
        jacobian_form_min=jac_min,
        drift_second_max=drift_second,
        diffusion_first_max=diffusion_first,
        diffusion_second_max=diffusion_second,
        declared=declared,
        passes=passes,
    )


@dataclass(slots=True)
class MomentProbe:
    p_values: tuple[float, ...]
    x0_values: tuple[tuple[float, ...], ...]
    estimates: dict[float, np.ndarray]  # p -> per-x0 estimates of E[sup |X|^p]
    std_errors: dict[float, np.ndarray]
    diverged: np.ndarray  # per-x0 divergent path counts
    trials: int
    fitted_constant: dict[float, float] = field(default_factory=dict)
    ratio_band: dict[float, float] = field(default_factory=dict)

    def ratios(self, p: float) -> np.ndarray:
        g = np.array([1.0 + np.linalg.norm(x) ** p for x in self.x0_values])
        return self.estimates[p] / g

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "p_values": list(self.p_values),
            "x0_values": [list(x) for x in self.x0_values],
            "diverged": [int(v) for v in self.diverged],
            "per_p": {
                str(p): {
                    "estimates": [_finite(v) for v in self.estimates[p]],
                    "std_errors": [_finite(v) for v in self.std_errors[p]],
                    "fitted_C": _finite(self.fitted_constant[p]),
                    "ratio_band": _finite(self.ratio_band[p]),
                }
                for p in self.p_values
            },
        }


def _largest(values: np.ndarray) -> float:
    """The largest of the sampled values, NaN for none or for a NaN among them."""
    return float(values.max()) if values.size else math.nan


def _finite(value) -> float | None:
    """The value as a float, or None (JSON null) when it is NaN or infinite."""
    value = float(value)
    return value if math.isfinite(value) else None


def moment_probe(
    coeffs: CoefficientSet,
    config: SimConfig,
    p_values,
    x0_values,
    n_paths: int = 1000,
) -> MomentProbe:
    """Monte Carlo estimates of E[sup_k |X_k|^p] against 1 + |x0|^p.

    The fitted constant is the least-squares slope through the origin of the
    estimates against 1 + |x0|^p; the ratio band is max/min of the per-x0
    ratios, a self-consistency measure for the moment bound's shape.  Each
    x0's ensemble is held to ``config.max_divergence`` and must keep a path.
    """
    p_values = tuple(float(p) for p in p_values)
    x0_values = tuple(tuple(float(v) for v in x) for x in x0_values)
    if not p_values or not x0_values:
        raise ConfigError("need at least one p and one x0")
    sups = []
    diverged = []
    for x0 in x0_values:
        record = RecordSpec(flows=False, track_square_norm=True)
        res = run_ensemble(coeffs, replace(config, x0=x0), n_paths, record)
        diverged.append(res.diverged_count)
        # sqrt is monotone: sup_k |X_k| bit for bit, inf where a square overflowed
        sups.append(np.sqrt(res.square_norm_sup[res.survivors()]))
    estimates = {}
    std_errors = {}
    fitted = {}
    band = {}
    for p in p_values:
        est = np.array([np.mean(s**p) for s in sups])
        se = np.array(
            [np.std(s**p, ddof=1) / np.sqrt(len(s)) if len(s) > 1 else np.nan for s in sups]
        )
        estimates[p] = est
        std_errors[p] = se
        g = np.array([1.0 + np.linalg.norm(x) ** p for x in x0_values])
        fitted[p] = float(np.sum(est * g) / np.sum(g**2))
        ratios = est / g
        band[p] = float(ratios.max() / ratios.min()) if ratios.min() > 0 else np.inf
    return MomentProbe(
        p_values=p_values,
        x0_values=x0_values,
        estimates=estimates,
        std_errors=std_errors,
        diverged=np.array(diverged),
        trials=n_paths,
        fitted_constant=fitted,
        ratio_band=band,
    )
