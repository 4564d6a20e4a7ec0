"""Empirical probes of the drift/diffusion assumptions and moment growth.

These report fitted constants from finite samples: one-sided Lipschitz
(monotonicity) constants, polynomial-growth exponents, the worst quadratic
form of the drift Jacobian, and derivative sup-norms.  A probe can flag a
violation on the sampled box but can never certify an assumption on the
whole space.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..brackets import derivative_stack
from ..errors import ConfigError
from ..fieldlang import (
    CoefficientSet,
    compile_expression_stack,
    compile_field,
    compile_jacobian,
)
from .simulate import RecordSpec, SimConfig, _RunningMax, run_ensemble

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
                "fitted_L": self.monotone_constant,
                "by_scale": {str(k): v for k, v in self.monotone_by_scale.items()},
                "non_uniform": self.non_uniform_monotonicity,
            },
            "polynomial_growth": {
                "log_log_slope": self.growth_slope,
                "fitted_N": self.growth_exponent,
                "fitted_L1": self.growth_constant,
            },
            "jacobian_lower_form": {"min_quadratic_form": self.jacobian_form_min},
            "smoothness": {
                "drift_second_derivative_max": self.drift_second_max,
                "diffusion_first_derivative_max": self.diffusion_first_max,
                "diffusion_second_derivative_max": self.diffusion_second_max,
            },
        }
        if self.declared is not None:
            out["declared"] = self.declared
            out["passes"] = self.passes
        return out


def _tensor_norms(exprs, points):
    fn = compile_expression_stack(tuple(exprs), (len(exprs),))
    vals = fn(points)
    return np.sqrt(np.sum(vals * vals, axis=-1))


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
    monotonicity (the sampled sup keeps growing with the domain).
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
    center = 0.5 * (lows + highs)
    half = 0.5 * (highs - lows)

    bfn = compile_field(coeffs.drift)

    def monotone_fit(scale):
        a = center + rng.uniform(-1, 1, size=(n_pairs, coeffs.d)) * half * scale
        b = center + rng.uniform(-1, 1, size=(n_pairs, coeffs.d)) * half * scale
        dx = a - b
        db = bfn(a) - bfn(b)
        nx2 = np.sum(dx * dx, axis=1)
        keep = nx2 > 1e-16
        return float(np.max(np.sum(dx * db, axis=1)[keep] / nx2[keep]))

    monotone_by_scale = {float(s): monotone_fit(s) for s in sorted(scales)}
    scale_vals = list(monotone_by_scale.values())
    monotone_constant = monotone_by_scale.get(1.0, scale_vals[-1])
    increasing = all(b >= a - 1e-12 for a, b in zip(scale_vals, scale_vals[1:]))
    non_uniform = increasing and (scale_vals[-1] - scale_vals[0]) > 1.0

    # polynomial growth: |b(x)-b(y)|^2 <= L1 (1 + |x|^{2N-2} + |y|^{2N-2}) |x-y|^2
    x1 = center + rng.uniform(-1, 1, size=(n_pairs, coeffs.d)) * half
    x2 = center + rng.uniform(-1, 1, size=(n_pairs, coeffs.d)) * half
    dx = x1 - x2
    db = bfn(x1) - bfn(x2)
    nx2 = np.sum(dx * dx, axis=1)
    keep = nx2 > 1e-16
    ratio = np.sum(db * db, axis=1)[keep] / nx2[keep]
    u = np.maximum(np.linalg.norm(x1, axis=1), np.linalg.norm(x2, axis=1))[keep]
    big = (u >= np.median(u)) & (ratio > 1e-300) & (u > 1e-12)
    if big.sum() >= 4 and u[big].max() / u[big].min() > 1.05:
        slope = float(np.polyfit(np.log(u[big]), np.log(ratio[big]), 1)[0])
    else:
        slope = 0.0
    slope = max(slope, 0.0)
    fitted_n = 1.0 + slope / 2.0
    n_round = max(1, int(round(fitted_n)))
    weight = 1.0 + u ** (2 * n_round - 2) + np.minimum(
        np.linalg.norm(x1, axis=1), np.linalg.norm(x2, axis=1)
    )[keep] ** (2 * n_round - 2)
    growth_constant = float(np.max(ratio / weight))

    # worst quadratic form of the drift Jacobian over sampled states
    xs = center + rng.uniform(-1, 1, size=(n_pairs, coeffs.d)) * half
    gb = compile_jacobian(coeffs.drift)(xs)
    sym = 0.5 * (gb + np.swapaxes(gb, 1, 2))
    jac_min = float(np.linalg.eigvalsh(sym)[:, 0].min())

    drift_second = float(np.max(_tensor_norms(derivative_stack(coeffs.drift, 2)[2], xs)))
    first = []
    second = []
    for col in coeffs.diffusion:
        _, jac, hess = derivative_stack(col, 2)
        first.extend(jac)
        second.extend(hess)
    diffusion_first = float(np.max(_tensor_norms(first, xs)))
    diffusion_second = float(np.max(_tensor_norms(second, xs)))

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
                    "estimates": [float(v) for v in self.estimates[p]],
                    "std_errors": [float(v) for v in self.std_errors[p]],
                    "fitted_C": self.fitted_constant[p],
                    "ratio_band": self.ratio_band[p],
                }
                for p in self.p_values
            },
        }


def _sup_norm(B: int) -> _RunningMax:
    """Accumulator of the per-path sup over the grid of |X_k|."""
    return _RunningMax(lambda x, *_: np.sqrt(np.add.reduce(x * x, axis=0)), B)


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
    ratios, a self-consistency measure for the moment bound's shape.
    """
    p_values = tuple(float(p) for p in p_values)
    x0_values = tuple(tuple(float(v) for v in x) for x in x0_values)
    if not p_values or not x0_values:
        raise ConfigError("need at least one p and one x0")
    sups = []
    diverged = []
    for x0 in x0_values:
        res = run_ensemble(
            coeffs, replace(config, x0=x0), n_paths, RecordSpec(flows=False, accumulator=_sup_norm)
        )
        alive = res.alive
        diverged.append(res.diverged_count)
        sups.append(res.accumulated[alive] if alive.any() else np.array([np.nan]))
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
        finite = np.isfinite(est)
        if finite.any():
            fitted[p] = float(np.sum(est[finite] * g[finite]) / np.sum(g[finite] ** 2))
            ratios = est[finite] / g[finite]
            band[p] = float(ratios.max() / ratios.min()) if ratios.min() > 0 else np.inf
        else:
            fitted[p] = float("nan")
            band[p] = float("nan")
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
