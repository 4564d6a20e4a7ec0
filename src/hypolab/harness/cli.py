"""Command-line entry point wiring the analysis modules to config files.

Subcommands: check-hormander, simulate, malliavin, tails, remainder-tails,
det-moments, density, probe-assumptions.  Each handler writes every output
through ``out(name, claim)``, which lists the file and returns its path.
``main`` writes the resolved configuration before the handler runs and a
manifest after it, with the SHA-256 digest of every listed file read back
from disk and the run's ``environment``.  With a fixed (config, seed) the
output digests are fixed too.
``--workers`` is accepted and checked to be non-negative, but runs are
single-threaded whatever its value.

Exit codes: 0 success, 1 numerical evaluation or linear-algebra error, 2
configuration error, 3 numerical divergence beyond the configured budget, 4
violated internal invariant, 5 out of memory (an array too large to allocate).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import replace

import numpy as np

from .. import __version__
from ..brackets import (
    BracketTable,
    GridSpec,
    check_hormander,
    coefficient_local_bound,
)
from ..errors import ConfigError, HypolabError
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
from ..flows import simulate
from ..flows.probes import assumption_probe, moment_probe
from .config import ExperimentConfig, load_config, resolved_text
from .svg import line_chart

_EXIT_OUT_OF_MEMORY = 5


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_dump(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


_ROWS = 4096  # rows formatted at a time, so a writer's memory does not grow with the table
_json_text = json.dumps


def _cells(column, json=False) -> list[str]:
    """Each value's text in a 1-D numeric column: ``repr``, or ``json.dumps`` with ``json``.
    Each distinct value is formatted once, keyed by its bits: 0.0 == -0.0 and NaN !=
    NaN, so keying by value would change the text."""
    a = np.asarray(column)
    keys, inverse = np.unique(a.view(f"u{a.itemsize}"), return_inverse=True)
    texts = list(map(_json_text if json else repr, keys.view(a.dtype).tolist()))
    return np.array(texts, dtype=object)[inverse].tolist()


def _write_csv(path: str, header, columns) -> None:
    """One row per entry of the columns (``np.asarray`` of each), ``_ROWS`` rows at a
    time; each cell is the ``repr`` of its value by ``_cells`` (pass bools as ints)."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, min(map(len, columns), default=0), _ROWS):
            rows = map(",".join, zip(*(_cells(c[s : s + _ROWS]) for c in columns)))
            fh.write("\n".join(rows) + "\n")


def _write_hormander(report, json_path: str, csv_path: str) -> None:
    """``hormander.json``, the records and ``summary()`` as ``json.dumps(sort_keys=True)``
    writes them, by a record template ``_ROWS`` points at a time; and ``hormander.csv``."""
    x = ", ".join(["%s"] * report.points.shape[1])
    record = '{"L": %s, "V_L": %%s, "in_U_L": %%s, "x": [%s]}' % (_json_text(report.L), x)
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write('{"points": [')
        for s in range(0, len(report.values), _ROWS):
            cut = slice(s, s + _ROWS)
            columns = [report.values[cut], report.in_span_set[cut], *report.points[cut].T]
            rows = zip(*(_cells(c, json=True) for c in columns))
            fh.write((", " if s else "") + ", ".join(map(record.__mod__, rows)))
        fh.write('], "summary": ' + json.dumps(report.summary(), sort_keys=True) + "}\n")
    header = [f"x_{i + 1}" for i in range(report.points.shape[1])] + ["V_L", "in_U_L"]
    flags = report.in_span_set.view(np.uint8)  # 0 and 1, without a copy
    _write_csv(csv_path, header, [*report.points.T, report.values, flags])


def _finite_list(values: np.ndarray):
    """The values as a list, or None (JSON null) unless every one is finite."""
    return values.tolist() if np.isfinite(values).all() else None


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
# subcommand handlers: each writes through ``out(name, claim)``, which lists
# the file in the manifest and returns its path in the output directory


def _divergence(res) -> dict:
    return {
        "paths": res.n_paths,
        "diverged": res.diverged_count,
        "divergence_fraction": res.divergence_fraction,
    }


def _stats(values: np.ndarray) -> dict:
    return {"mean": float(values.mean()), "min": float(values.min()), "max": float(values.max())}


def _cmd_check_hormander(cfg: ExperimentConfig, out) -> None:
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
    _write_hormander(report, out("hormander.json", claim), out("hormander.csv", claim))

    # one polyline per axis: the slice through the grid centre
    axes = spec.axes()
    shape = tuple(len(ax) for ax in axes)
    values = report.values.reshape(shape)
    for axis in range(d):
        index = [n // 2 for n in shape]
        slicer = tuple(
            slice(None) if i == axis else index[i] for i in range(d)
        )
        line_chart(
            out(f"hormander_axis{axis + 1}.svg", claim),
            axes[axis],
            [(f"V_{a['L']}", values[slicer])],
            title=f"spanning value along x{axis + 1} (centre slice)",
            x_label=f"x{axis + 1}",
            y_label="V_L",
        )


def _cmd_simulate(cfg: ExperimentConfig, out) -> None:
    coeffs = cfg.coefficient_set()
    config = cfg.sim_config()
    sim = cfg.simulation
    res = run_ensemble(coeffs, config, sim["paths"], RecordSpec(flows=True))
    claim = "pathwise simulation of the state and its first-variation flows"

    final = res.final_states[res.alive]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is written as null
        mean = _finite_list(final.mean(axis=0)) if len(final) else None
        std = _finite_list(final.std(axis=0, ddof=1)) if len(final) > 1 else None
    summary = {
        "scheme": config.scheme,
        "comparison_only": config.comparison_only,
        **_divergence(res),
        "mean_X_T": mean,
        "std_X_T": std,
    }
    _json_dump(out("ensemble.json", claim), summary)

    dump = min(sim["dump_paths"], res.n_paths)
    if dump:
        # divergent dump paths are already counted above
        paths = run_ensemble(
            coeffs, replace(config, max_divergence=1.0), dump, RecordSpec(store_paths=True)
        )
        d = coeffs.d
        header = ["t", *(f"X_{i+1}" for i in range(d))]
        header += [f"{f}_{i+1}{j+1}" for f in "JK" for i in range(d) for j in range(d)]
        for i in np.flatnonzero(paths.alive):
            j, k_inv = (a[i].reshape(len(a[i]), -1) for a in (paths.jacobians, paths.inverses))
            _write_csv(
                out(f"trajectory_{int(paths.stream_ids[i]):06d}.csv", claim),
                header,
                [config.times(), *paths.states[i].T, *j.T, *k_inv.T],
            )


def _cmd_malliavin(cfg: ExperimentConfig, out) -> None:
    coeffs = cfg.coefficient_set()
    sim = cfg.simulation
    t = cfg.analysis.get("t", sim["T"])
    if t > sim["T"]:
        raise ConfigError(f"analysis time t = {t} lies beyond the horizon T = {sim['T']}")
    config = cfg.sim_config(horizon=sim["T"])
    idx = nearest_index(config, t)
    if idx < 1:
        raise ConfigError("analysis time t rounds to grid index 0")
    res, mats = malliavin_checkpoint_ensemble(coeffs, config, sim["paths"], [idx])
    c_mats, q_mats = mats[idx]
    alive = res.survivors()
    lam_c = np.linalg.eigvalsh(c_mats[alive])[:, 0]
    lam_q = np.linalg.eigvalsh(q_mats[alive])[:, 0]
    det_q = np.linalg.det(q_mats[alive])
    claim = "Malliavin covariance matrices from the inverse-flow quadrature"

    summary = {
        "t": float(idx * config.h),
        **_divergence(res),
        "quadrature": "left-endpoint",
        "mean_C": [[float(v) for v in row] for row in c_mats[alive].mean(axis=0)],
        "mean_Q": [[float(v) for v in row] for row in q_mats[alive].mean(axis=0)],
        "lambda_min_C": _stats(lam_c),
        "lambda_min_Q": _stats(lam_q),
        "det_Q": {"mean": float(det_q.mean()), "min": float(det_q.min())},
    }
    _json_dump(out("malliavin.json", claim), summary)
    _write_csv(
        out("malliavin.csv", claim),
        ["lambda_min_C", "lambda_min_Q", "det_Q"],
        [lam_c, lam_q, det_q],
    )


def _tail_outputs(curve, out, stem: str, claim: str) -> None:
    _write_csv(
        out(f"{stem}.csv", claim),
        ["K", "events", "trials", "p_hat", "ci_lo", "ci_hi"],
        [curve.k_values, curve.events, [curve.trials] * len(curve.events),
         curve.p_hat, curve.ci_lo, curve.ci_hi],
    )
    _json_dump(out(f"{stem}.json", claim), curve.to_json_dict())
    line_chart(
        out(f"{stem}.svg", claim),
        curve.k_values,
        [("p_hat", curve.p_hat), ("ci_hi", curve.ci_hi), ("ci_lo", curve.ci_lo)],
        title=stem.replace("_", " "),
        x_label="K",
        y_label="probability",
        log_x=True,
    )


def _cmd_tails(cfg: ExperimentConfig, out) -> None:
    a = cfg.analysis
    spec = EnsembleSpec(cfg.coefficient_set(), cfg.sim_config(), cfg.simulation["paths"])
    curve = eigenvalue_tails(
        a["L"], a["K_grid"], a["t"], a["matrix"], spec, fit_envelope=a["fit_envelope"]
    )
    claim = (
        "tail probabilities of the smallest Malliavin-covariance eigenvalue "
        "at shrinking horizons"
    )
    _tail_outputs(curve, out, "tails", claim)


def _cmd_remainder_tails(cfg: ExperimentConfig, out) -> None:
    a = cfg.analysis
    spec = EnsembleSpec(cfg.coefficient_set(), cfg.sim_config(), cfg.simulation["paths"])
    target = _resolve_field(cfg, a["field"])
    kwargs = {}
    if a.get("t_grid") is not None:
        kwargs["t_grid"] = a["t_grid"]
    curve = remainder_tails(
        a["L"], a["epsilon"], a["K_grid"], target, spec, fit_envelope=a["fit_envelope"], **kwargs
    )
    claim = "tail probabilities of the truncated flow-expansion remainder energy"
    _tail_outputs(curve, out, "remainder_tails", claim)


def _cmd_det_moments(cfg: ExperimentConfig, out) -> None:
    a = cfg.analysis
    spec = EnsembleSpec(cfg.coefficient_set(), cfg.sim_config(), cfg.simulation["paths"])
    estimate = inverse_det_moments(a["p"], a["t"], spec)
    claim = "moments of the inverse determinant of the Malliavin covariance"
    payload = estimate.to_json_dict()
    study = None
    if a.get("t_grid") is not None:
        study = inverse_det_scaling(a["p"], a["t_grid"], spec, L=a.get("L"), margin=a["margin"])
        payload["scaling"] = study.to_json_dict()
    _json_dump(out("det_moments.json", claim), payload)
    row = (estimate.p, estimate.t, estimate.value, estimate.std_error, estimate.trials)
    _write_csv(
        out("det_moments.csv", claim),
        ["p", "t", "estimate", "std_error", "trials", "heavy_tail"],
        [[v] for v in (*row, int(estimate.heavy_tail))],
    )
    if study is not None:
        line_chart(
            out("det_moments.svg", claim),
            study.t_values,
            [("estimate", study.estimates)],
            title="inverse-determinant moment vs t",
            x_label="t",
            y_label="estimate",
            log_x=True,
            log_y=True,
        )


def _cmd_density(cfg: ExperimentConfig, out) -> None:
    a = cfg.analysis
    coeffs = cfg.coefficient_set()
    sim = cfg.simulation
    d = coeffs.d
    spec = _grid_spec(a, d)
    t = a.get("t", sim["T"])
    config = cfg.sim_config(horizon=t)
    res = run_ensemble(coeffs, config, sim["paths"], RecordSpec(flows=False))
    samples = res.final_states[res.survivors()]
    dens = kde_density(samples, spec.points(), bandwidth=a.get("bandwidth"))
    claim = "kernel density estimate of the state law"
    _write_csv(
        out("density.csv", claim),
        [f"y_{i+1}" for i in range(d)] + ["p_hat"],
        [*dens.points.T, dens.values],
    )
    if d == 1:
        line_chart(
            out("density.svg", claim),
            dens.points[:, 0],
            [("p_hat", dens.values)],
            title=f"density at t = {t}",
            x_label="y",
            y_label="p_hat",
        )
    payload = {
        "t": t,
        **_divergence(res),
        "bandwidth": [float(v) for v in dens.bandwidth],
        "n_samples": dens.n_samples,
    }
    if a["envelope"]:
        m_x = a.get("envelope_M")
        if m_x is None:
            m_x = coefficient_local_bound(coeffs, config.x0)
        report = density_envelope_check(dens, config.x0, t, a["envelope_N"], m_x)
        payload["envelope"] = report.to_json_dict()
    _json_dump(out("density.json", claim + " with quadratic-exponential envelope fit"), payload)


def _cmd_probe(cfg: ExperimentConfig, out) -> None:
    a, config = cfg.analysis, cfg.sim_config()  # checks the seed for both probes
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
        seed=config.seed,
        scales=a["scales"],
        declared=declared or None,
    )
    payload = {"assumptions": probe.to_json_dict()}
    if a.get("p_list") is not None:
        x0_list = a.get("x0_list") or (tuple(cfg.model["x0"]),)
        moments = moment_probe(
            coeffs,
            config,
            a["p_list"],
            x0_list,
            n_paths=a["probe_paths"],
        )
        payload["moments"] = moments.to_json_dict()
    claim = "empirical probes of the monotonicity, growth, and smoothness assumptions"
    _json_dump(out("probe.json", claim), payload)


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
    parser.add_argument("command", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--workers", type=int, default=1, help="no effect: runs are one thread")
    return parser


def _environment() -> dict:
    """Where the run ran: the interpreter, numpy, the platform, the routes of
    its blocks' steps and increments, each a list when both ran and null when
    none did, and the vector extensions of its native loops ("avx512f",
    "avx2" or "default"), null when no native loop ran."""
    def route(ran):
        ran = sorted(ran)
        return ran[0] if len(ran) == 1 else ran or None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
        "step_route": route(simulate.STEP_ROUTES),
        "increments": route(simulate.INCREMENT_ROUTES),
        "native_isa": route(simulate.NATIVE_ISAS),
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be non-negative")
            cfg.simulation["seed"] = args.seed
        if args.workers < 0:
            raise ConfigError(f"--workers must be a non-negative integer, got {args.workers}")
        out_dir = args.out or cfg.output.get("out_dir")
        if not out_dir:
            raise ConfigError("no output directory: set [output] out_dir or pass --out")
        cfg.output["out_dir"] = out_dir
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.resolved.txt"), "w", encoding="utf-8") as fh:
            fh.write(resolved_text(cfg))
        files = []  # (name, claim, path) in the manifest's order

        def out(name: str, claim: str) -> str:
            path = os.path.join(out_dir, name)
            files.append((name, claim, path))
            return path

        start = time.perf_counter()
        simulate.STEP_ROUTES.clear()
        simulate.INCREMENT_ROUTES.clear()
        simulate.NATIVE_ISAS.clear()
        _HANDLERS[args.command](cfg, out)
        wall = time.perf_counter() - start
        out("config.resolved.txt", "resolved run configuration")  # last: its digest is config_hash
        outputs = [
            {"file": name, "sha256": _sha256_file(path), "claim": claim}
            for name, claim, path in files
        ]
        manifest = {
            "tool": "hypolab",
            "version": __version__,
            "command": args.command,
            "config_hash": outputs[-1]["sha256"],
            "seed": cfg.simulation.get("seed", 0),
            "wall_time_s": wall,
            "environment": _environment(),
            "outputs": outputs,
        }
        _json_dump(os.path.join(out_dir, "manifest.json"), manifest)
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
