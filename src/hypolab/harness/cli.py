"""Command-line entry point wiring the analysis modules to config files.

Subcommands: check-hormander, simulate, malliavin, tails, remainder-tails,
det-moments, density, probe-assumptions.  Every run writes its resolved
configuration and a manifest with content digests next to the outputs; with
a fixed (config, seed) the output digests are fixed too.  ``--workers`` (or
``HYPO_LAB_WORKERS``) is validated and recorded in the manifest, but runs are
single-threaded whatever its value.

Exit codes: 0 success, 1 numerical evaluation or linear-algebra error, 2
configuration error, 3 numerical divergence beyond the configured budget, 4
violated internal invariant, 5 out of memory (an array too large to allocate).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .. import __version__
from ..brackets import (
    BracketTable,
    GridSpec,
    check_hormander,
    coefficient_local_bound,
)
from ..errors import ConfigError, DegenerateSamplesError, DivergenceError, HypolabError
from ..estimators import (
    EnsembleSpec,
    density_envelope_check,
    eigenvalue_tails,
    inverse_det_moments,
    inverse_det_scaling,
    kde_density,
    remainder_tails,
)
from ..fieldlang import VectorField
from ..flows import (
    RecordSpec,
    malliavin_checkpoint_ensemble,
    nearest_index,
    run_ensemble,
)
from ..flows.probes import assumption_probe, moment_probe
from .config import ExperimentConfig, load_config, resolved_text
from .manifest import RunManifest, sha256_file, sha256_text
from .svg import line_chart

_ENV_WORKERS = "HYPO_LAB_WORKERS"
_EXIT_OUT_OF_MEMORY = 5


def _json_dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _json_dump_compact(path: str, payload: dict) -> None:
    """``json.dumps(payload, sort_keys=True)`` and a newline, by the C encoder
    (``json.dump`` never uses it), top-level lists 64 items at a time so
    that the whole document is never held in memory."""
    enc = json.JSONEncoder(sort_keys=True).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(sorted(payload.items())):
            fh.write((", " if i else "") + enc(key) + ": ")
            if isinstance(value, list) and value:
                for start in range(0, len(value), 64):
                    fh.write(("[" if start == 0 else ", ") + enc(value[start : start + 64])[1:-1])
                fh.write("]")
            else:
                fh.write(enc(value))
        fh.write("}\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_divergence(count: int, total: int, budget: float) -> float:
    fraction = count / total if total else 0.0
    if fraction > budget:
        raise DivergenceError(
            f"{count} of {total} paths diverged (fraction {fraction:.4g} "
            f"exceeds the budget {budget:.4g})"
        )
    return fraction


def _estimate(budget: float, estimator, *args, **kwargs):
    """Run an ensemble estimator; when every path diverged, the divergence
    budget is checked before the estimator's want of samples is reported."""
    try:
        return estimator(*args, **kwargs)
    except DegenerateSamplesError as exc:
        if exc.diverged:
            _check_divergence(exc.count, exc.trials, budget)
        raise


def _resolve_field(cfg: ExperimentConfig, text: str) -> VectorField:
    coeffs = cfg.coefficient_set()
    name = text.strip()
    if name.startswith("sigma"):
        idx = name[5:]
        # isdigit() alone accepts digits such as '²' that int() rejects
        if idx.isascii() and idx.isdigit() and 1 <= int(idx) <= coeffs.m:
            return coeffs.diffusion[int(idx) - 1]
        raise ConfigError(f"field {name!r} is not one of sigma1..sigma{coeffs.m}")
    if name == "drift":
        return coeffs.drift
    return VectorField.from_text(name, coeffs.d)


def _grid_spec(a: dict, d: int) -> GridSpec:
    for key in ("grid_min", "grid_max", "grid_points"):
        if len(a[key]) != d:
            raise ConfigError(f"'{key}' must have d = {d} entries")
    return GridSpec(tuple(a["grid_min"]), tuple(a["grid_max"]), tuple(a["grid_points"]))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns a list of (filename, claim) it wrote


def _cmd_check_hormander(cfg: ExperimentConfig, out_dir: str):
    a = cfg.analysis
    coeffs = cfg.coefficient_set()
    d = coeffs.d
    spec = _grid_spec(a, d)
    table = BracketTable(coeffs)
    report = check_hormander(spec, a["L"], table, membership_tol=a["membership_tol"])
    claim = (
        "bracket-spanning diagnostic: capped smallest eigenvalue of the "
        "bracket Gram matrix over a point grid"
    )
    files = []
    # one compact line: the report holds a record per grid point
    _json_dump_compact(os.path.join(out_dir, "hormander.json"), report.to_json_dict())
    files.append(("hormander.json", claim))

    header = ",".join(f"x_{i+1}" for i in range(d)) + ",V_L,in_U_L"
    lines = [header]
    for pt, val, member in zip(report.points, report.values, report.in_span_set):
        lines.append(
            ",".join(repr(float(v)) for v in pt) + f",{float(val)!r},{int(member)}"
        )
    _write_text(os.path.join(out_dir, "hormander.csv"), "\n".join(lines) + "\n")
    files.append(("hormander.csv", claim))

    # one polyline per axis: the slice through the grid centre
    axes = spec.axes()
    shape = tuple(len(ax) for ax in axes)
    values = report.values.reshape(shape)
    for axis in range(d):
        index = [n // 2 for n in shape]
        slicer = tuple(
            slice(None) if i == axis else index[i] for i in range(d)
        )
        name = f"hormander_axis{axis + 1}.svg"
        line_chart(
            os.path.join(out_dir, name),
            axes[axis],
            [(f"V_{a['L']}", values[slicer])],
            title=f"spanning value along x{axis + 1} (centre slice)",
            x_label=f"x{axis + 1}",
            y_label="V_L",
        )
        files.append((name, claim))
    return files


def _trajectory_csv(path, times, states, jacobians, inverses):
    d = states.shape[1]
    cols = ["t"]
    cols += [f"X_{i+1}" for i in range(d)]
    cols += [f"J_{i+1}{j+1}" for i in range(d) for j in range(d)]
    cols += [f"K_{i+1}{j+1}" for i in range(d) for j in range(d)]
    lines = [",".join(cols)]
    for k in range(len(times)):
        row = [repr(float(times[k]))]
        row += [repr(float(v)) for v in states[k]]
        row += [repr(float(v)) for v in jacobians[k].reshape(-1)]
        row += [repr(float(v)) for v in inverses[k].reshape(-1)]
        lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")


def _cmd_simulate(cfg: ExperimentConfig, out_dir: str):
    coeffs = cfg.coefficient_set()
    config = cfg.sim_config()
    sim = cfg.simulation
    res = run_ensemble(coeffs, config, sim["paths"], RecordSpec(flows=True))
    fraction = _check_divergence(res.diverged_count, res.n_paths, sim["max_divergence"])
    claim = "pathwise simulation of the state and its first-variation flows"
    files = []

    alive = res.alive
    summary = {
        "scheme": config.scheme,
        "comparison_only": config.comparison_only,
        "paths": res.n_paths,
        "diverged": res.diverged_count,
        "divergence_fraction": fraction,
        "mean_X_T": [float(v) for v in res.final_states[alive].mean(axis=0)]
        if alive.any()
        else None,
        "std_X_T": [float(v) for v in res.final_states[alive].std(axis=0, ddof=1)]
        if int(alive.sum()) > 1
        else None,
    }
    _json_dump(os.path.join(out_dir, "ensemble.json"), summary)
    files.append(("ensemble.json", claim))

    dump = min(sim["dump_paths"], res.n_paths)
    if dump:
        paths = run_ensemble(coeffs, config, dump, RecordSpec(store_paths=True))
        # divergent dump paths are already counted above
        for i in np.flatnonzero(paths.alive):
            name = f"trajectory_{int(paths.stream_ids[i]):06d}.csv"
            _trajectory_csv(
                os.path.join(out_dir, name),
                config.times(),
                paths.states[i],
                paths.jacobians[i],
                paths.inverses[i],
            )
            files.append((name, claim))
    return files


def _cmd_malliavin(cfg: ExperimentConfig, out_dir: str):
    coeffs = cfg.coefficient_set()
    sim = cfg.simulation
    t = cfg.analysis.get("t", sim["T"])
    config = cfg.sim_config(horizon=sim["T"])
    idx = nearest_index(config, t)
    if idx < 1:
        raise ConfigError("analysis time t rounds to grid index 0")
    res, mats = malliavin_checkpoint_ensemble(coeffs, config, sim["paths"], [idx])
    fraction = _check_divergence(res.diverged_count, res.n_paths, sim["max_divergence"])
    c_mats, q_mats = mats[idx]
    alive = res.alive
    if not alive.any():
        raise DegenerateSamplesError(res.n_paths, res.n_paths, diverged=True)
    lam_c = np.linalg.eigvalsh(c_mats[alive])[:, 0]
    lam_q = np.linalg.eigvalsh(q_mats[alive])[:, 0]
    det_q = np.linalg.det(q_mats[alive])
    claim = "Malliavin covariance matrices from the inverse-flow quadrature"

    lines = ["lambda_min_C,lambda_min_Q,det_Q"]
    for row in zip(lam_c, lam_q, det_q):
        lines.append(",".join(repr(float(v)) for v in row))
    _write_text(os.path.join(out_dir, "malliavin.csv"), "\n".join(lines) + "\n")

    summary = {
        "t": float(idx * config.h),
        "paths": res.n_paths,
        "diverged": res.diverged_count,
        "divergence_fraction": fraction,
        "quadrature": "left-endpoint",
        "mean_C": [[float(v) for v in row] for row in c_mats[alive].mean(axis=0)],
        "mean_Q": [[float(v) for v in row] for row in q_mats[alive].mean(axis=0)],
        "lambda_min_C": {
            "mean": float(lam_c.mean()),
            "min": float(lam_c.min()),
            "max": float(lam_c.max()),
        },
        "lambda_min_Q": {
            "mean": float(lam_q.mean()),
            "min": float(lam_q.min()),
            "max": float(lam_q.max()),
        },
        "det_Q": {"mean": float(det_q.mean()), "min": float(det_q.min())},
    }
    _json_dump(os.path.join(out_dir, "malliavin.json"), summary)
    return [("malliavin.json", claim), ("malliavin.csv", claim)]


def _tail_outputs(curve, out_dir: str, stem: str, claim: str):
    _write_text(os.path.join(out_dir, f"{stem}.csv"), curve.to_csv_text())
    _json_dump(os.path.join(out_dir, f"{stem}.json"), curve.to_json_dict())
    line_chart(
        os.path.join(out_dir, f"{stem}.svg"),
        curve.k_values,
        [("p_hat", curve.p_hat), ("ci_hi", curve.ci_hi), ("ci_lo", curve.ci_lo)],
        title=stem.replace("_", " "),
        x_label="K",
        y_label="probability",
        log_x=True,
    )
    return [(f"{stem}.csv", claim), (f"{stem}.json", claim), (f"{stem}.svg", claim)]


def _cmd_tails(cfg: ExperimentConfig, out_dir: str):
    a = cfg.analysis
    spec = EnsembleSpec(cfg.coefficient_set(), cfg.sim_config(), cfg.simulation["paths"])
    budget = cfg.simulation["max_divergence"]
    curve = _estimate(
        budget, eigenvalue_tails,
        a["L"], a["K_grid"], a["t"], a["matrix"], spec, fit_envelope=a["fit_envelope"]
    )
    _check_divergence(curve.meta["diverged"], spec.n_paths, budget)
    claim = (
        "tail probabilities of the smallest Malliavin-covariance eigenvalue "
        "at shrinking horizons"
    )
    return _tail_outputs(curve, out_dir, "tails", claim)


def _cmd_remainder_tails(cfg: ExperimentConfig, out_dir: str):
    a = cfg.analysis
    spec = EnsembleSpec(cfg.coefficient_set(), cfg.sim_config(), cfg.simulation["paths"])
    target = _resolve_field(cfg, a["field"])
    kwargs = {}
    if a.get("t_grid") is not None:
        kwargs["t_grid"] = a["t_grid"]
    budget = cfg.simulation["max_divergence"]
    curve = _estimate(
        budget, remainder_tails,
        a["L"], a["epsilon"], a["K_grid"], target, spec,
        fit_envelope=a["fit_envelope"], **kwargs
    )
    _check_divergence(curve.meta["diverged"], spec.n_paths, budget)
    claim = "tail probabilities of the truncated flow-expansion remainder energy"
    return _tail_outputs(curve, out_dir, "remainder_tails", claim)


def _cmd_det_moments(cfg: ExperimentConfig, out_dir: str):
    a = cfg.analysis
    spec = EnsembleSpec(cfg.coefficient_set(), cfg.sim_config(), cfg.simulation["paths"])
    budget = cfg.simulation["max_divergence"]
    estimate = _estimate(budget, inverse_det_moments, a["p"], a["t"], spec)
    _check_divergence(spec.n_paths - estimate.trials, spec.n_paths, budget)
    claim = "moments of the inverse determinant of the Malliavin covariance"
    payload = estimate.to_json_dict()
    files = []
    if a.get("t_grid") is not None:
        study = _estimate(
            budget, inverse_det_scaling,
            a["p"], a["t_grid"], spec, L=a.get("L"), margin=a["margin"]
        )
        _check_divergence(spec.n_paths - study.trials, spec.n_paths, budget)
        payload["scaling"] = study.to_json_dict()
        line_chart(
            os.path.join(out_dir, "det_moments.svg"),
            study.t_values,
            [("estimate", study.estimates)],
            title="inverse-determinant moment vs t",
            x_label="t",
            y_label="estimate",
            log_x=True,
            log_y=True,
        )
        files.append(("det_moments.svg", claim))
    _json_dump(os.path.join(out_dir, "det_moments.json"), payload)
    _write_text(os.path.join(out_dir, "det_moments.csv"), estimate.to_csv_text())
    return [("det_moments.json", claim), ("det_moments.csv", claim)] + files


def _cmd_density(cfg: ExperimentConfig, out_dir: str):
    a = cfg.analysis
    coeffs = cfg.coefficient_set()
    sim = cfg.simulation
    d = coeffs.d
    spec = _grid_spec(a, d)
    t = a.get("t", sim["T"])
    config = cfg.sim_config(horizon=t)
    res = run_ensemble(coeffs, config, sim["paths"], RecordSpec(flows=False))
    fraction = _check_divergence(res.diverged_count, res.n_paths, sim["max_divergence"])
    samples = res.final_states[res.alive]
    dens = kde_density(samples, spec.points(), bandwidth=a.get("bandwidth"))
    claim = "kernel density estimate of the state law"
    files = []
    _write_text(os.path.join(out_dir, "density.csv"), dens.to_csv_text())
    files.append(("density.csv", claim))
    if d == 1:
        line_chart(
            os.path.join(out_dir, "density.svg"),
            dens.points[:, 0],
            [("p_hat", dens.values)],
            title=f"density at t = {t}",
            x_label="y",
            y_label="p_hat",
        )
        files.append(("density.svg", claim))
    payload = {
        "t": t,
        "paths": res.n_paths,
        "diverged": res.diverged_count,
        "divergence_fraction": fraction,
        "bandwidth": [float(v) for v in dens.bandwidth],
        "n_samples": dens.n_samples,
    }
    if a["envelope"]:
        m_x = a.get("envelope_M")
        if m_x is None:
            m_x = coefficient_local_bound(coeffs, config.x0)
        report = density_envelope_check(dens, config.x0, t, a["envelope_N"], m_x)
        payload["envelope"] = report.to_json_dict()
    _json_dump(os.path.join(out_dir, "density.json"), payload)
    files.append(
        ("density.json", claim + " with quadratic-exponential envelope fit")
    )
    return files


def _cmd_probe(cfg: ExperimentConfig, out_dir: str):
    a = cfg.analysis
    coeffs = cfg.coefficient_set()
    declared = {}
    for key, name in (
        ("declared_L", "L"),
        ("declared_L1", "L1"),
        ("declared_N", "N"),
        ("declared_L3", "L3"),
    ):
        if a.get(key) is not None:
            declared[name] = a[key]
    probe = assumption_probe(
        coeffs,
        a["box_min"],
        a["box_max"],
        n_pairs=a["pairs"],
        seed=cfg.simulation["seed"],
        scales=a["scales"],
        declared=declared or None,
    )
    payload = {"assumptions": probe.to_json_dict()}
    if a.get("p_list") is not None:
        x0_list = a.get("x0_list") or (tuple(cfg.model["x0"]),)
        moments = moment_probe(
            coeffs,
            cfg.sim_config(),
            a["p_list"],
            x0_list,
            n_paths=a["probe_paths"],
        )
        payload["moments"] = moments.to_json_dict()
    _json_dump(os.path.join(out_dir, "probe.json"), payload)
    claim = "empirical probes of the monotonicity, growth, and smoothness assumptions"
    return [("probe.json", claim)]


_HANDLERS = {
    "check-hormander": _cmd_check_hormander,
    "simulate": _cmd_simulate,
    "malliavin": _cmd_malliavin,
    "tails": _cmd_tails,
    "remainder-tails": _cmd_remainder_tails,
    "det-moments": _cmd_det_moments,
    "density": _cmd_density,
    "probe-assumptions": _cmd_probe,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypolab",
        description=(
            "bracket analysis, flow simulation, and Monte Carlo diagnostics "
            "for SDEs with monotone drift"
        ),
    )
    parser.add_argument("--version", action="version", version=f"hypolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help=f"recorded in the manifest; no effect on speed (default: ${_ENV_WORKERS} or 1)",
        )
    return parser


def _resolve_workers(value) -> int:
    if value is None:
        env = os.environ.get(_ENV_WORKERS, "").strip() or "1"
        if not env.isdecimal():
            raise ConfigError(f"{_ENV_WORKERS} must be a non-negative integer, got {env!r}")
        value = int(env)
    elif value < 0:
        raise ConfigError(f"--workers must be a non-negative integer, got {value}")
    return max(value, 1)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be non-negative")
            cfg.simulation["seed"] = args.seed
        out_dir = args.out or cfg.output.get("out_dir")
        if not out_dir:
            raise ConfigError("no output directory: set [output] out_dir or pass --out")
        cfg.output["out_dir"] = out_dir
        workers = _resolve_workers(args.workers)
        os.makedirs(out_dir, exist_ok=True)

        resolved = resolved_text(cfg)
        _write_text(os.path.join(out_dir, "config.resolved.txt"), resolved)

        start = time.perf_counter()
        files = _HANDLERS[args.command](cfg, out_dir)
        wall = time.perf_counter() - start

        outputs = [
            {
                "file": name,
                "sha256": sha256_file(os.path.join(out_dir, name)),
                "claim": claim,
            }
            for name, claim in files
        ]
        outputs.append(
            {
                "file": "config.resolved.txt",
                "sha256": sha256_text(resolved),
                "claim": "resolved run configuration",
            }
        )
        manifest = RunManifest(
            tool="hypolab",
            version=__version__,
            command=args.command,
            config_hash=sha256_text(resolved),
            seed=cfg.simulation.get("seed", 0),
            workers=workers,
            wall_time_s=wall,
            outputs=outputs,
        )
        manifest.write(out_dir)
    except HypolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return _EXIT_OUT_OF_MEMORY
    except np.linalg.LinAlgError as exc:
        print(f"error: linear algebra failed: {exc}", file=sys.stderr)
        return 1
    return 0


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
