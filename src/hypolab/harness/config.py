"""Experiment configuration: a flat sectioned key-value text format.

The format is deliberately language-neutral::

    # comment lines start with '#'
    [model]
    d = 1
    m = 1
    x0 = 1.0
    drift = -x1
    sigma1 = 1

    [simulation]
    T = 1.0
    n_steps = 4096
    scheme = tamed-euler
    paths = 10000
    seed = 42

    [analysis]
    L = 1
    K_grid = 1, 2, 4, 8, 16
    t = 0.5
    matrix = Q

    [output]
    out_dir = runs/demo

Sections are fixed, keys are validated per subcommand, and unknown keys are
rejected by name.  Every run writes the fully resolved configuration (after
command-line overrides) next to its outputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ConfigError
from ..fieldlang import CoefficientSet, compile_field
from ..flows import SCHEMES, SimConfig

__all__ = ["ExperimentConfig", "parse_config_text", "load_config", "resolved_text", "SCHEMAS"]

_SECTIONS = ("model", "simulation", "analysis", "output")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _finite(value: float) -> float:
    # a ValueError, not a ConfigError, so that _apply_schema names the key
    if not math.isfinite(value):
        raise ValueError(f"{value} is not a finite number")
    return value


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc
    return tuple(map(_finite, values))


def _parse_ints(text: str) -> tuple[int, ...]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part.lstrip("+-").isdigit():
            raise ConfigError(f"expected comma-separated integers, got {text!r}")
        out.append(int(part))
    return tuple(out)


def _parse_vectors(text: str) -> tuple[tuple[float, ...], ...]:
    return tuple(_parse_floats(chunk) for chunk in text.split(";") if chunk.strip())


_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": lambda s: int(s.strip()),
    "float": lambda s: _finite(float(s.strip())),
    "str": lambda s: s.strip(),
    "bool": _parse_bool,
    "floats": _parse_floats,
    "ints": _parse_ints,
    "vectors": _parse_vectors,
    "expr": lambda s: s.strip(),
}


# (type, required, default); defaults of None mean "absent unless given"
_MODEL_SCHEMA = {
    "d": ("int", True, None),
    "m": ("int", True, None),
    "x0": ("floats", True, None),
    "drift": ("expr", True, None),
    # sigma1..sigmaM are validated dynamically against m
}

_SIMULATION_SCHEMA = {
    "T": ("float", True, None),
    "n_steps": ("int", True, None),
    "scheme": ("str", False, "tamed-euler"),
    "paths": ("int", True, None),
    "seed": ("int", False, 0),
    "max_divergence": ("float", False, 0.0),
    "monotone_bound": ("float", False, None),
    "dump_paths": ("int", False, 1),
}

_OUTPUT_SCHEMA = {"out_dir": ("str", False, None)}

SCHEMAS: dict[str, dict] = {
    "check-hormander": {
        "needs_simulation": False,
        "analysis": {
            "L": ("int", True, None),
            "grid_min": ("floats", True, None),
            "grid_max": ("floats", True, None),
            "grid_points": ("ints", True, None),
            "membership_tol": ("float", False, 1e-12),
        },
    },
    "simulate": {"needs_simulation": True, "analysis": {}},
    "malliavin": {
        "needs_simulation": True,
        "analysis": {"t": ("float", False, None)},
    },
    "tails": {
        "needs_simulation": True,
        "analysis": {
            "L": ("int", True, None),
            "K_grid": ("floats", True, None),
            "t": ("float", True, None),
            "matrix": ("str", False, "Q"),
            "fit_envelope": ("bool", False, True),
        },
    },
    "remainder-tails": {
        "needs_simulation": True,
        "analysis": {
            "L": ("int", True, None),
            "epsilon": ("float", True, None),
            "K_grid": ("floats", True, None),
            "field": ("str", False, "sigma1"),
            "t_grid": ("floats", False, None),
            "fit_envelope": ("bool", False, True),
        },
    },
    "det-moments": {
        "needs_simulation": True,
        "analysis": {
            "p": ("float", True, None),
            "t": ("float", True, None),
            "t_grid": ("floats", False, None),
            "L": ("int", False, None),
            "margin": ("float", False, 0.25),
        },
    },
    "density": {
        "needs_simulation": True,
        "analysis": {
            "t": ("float", False, None),
            "grid_min": ("floats", True, None),
            "grid_max": ("floats", True, None),
            "grid_points": ("ints", True, None),
            "bandwidth": ("float", False, None),
            "envelope": ("bool", False, False),
            "envelope_N": ("float", False, 1.0),
            "envelope_M": ("float", False, None),
        },
    },
    "probe-assumptions": {
        "needs_simulation": True,
        "analysis": {
            "box_min": ("floats", True, None),
            "box_max": ("floats", True, None),
            "pairs": ("int", False, 256),
            "scales": ("floats", False, (0.5, 1.0, 2.0)),
            "declared_L": ("float", False, None),
            "declared_L1": ("float", False, None),
            "declared_N": ("float", False, None),
            "declared_L3": ("float", False, None),
            "p_list": ("floats", False, None),
            "x0_list": ("vectors", False, None),
            "probe_paths": ("int", False, 1000),
        },
    },
}


@dataclass(slots=True)
class ExperimentConfig:
    command: str
    model: dict = field(default_factory=dict)
    simulation: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def coefficient_set(self) -> CoefficientSet:
        m = self.model["m"]
        sigmas = [self.model[f"sigma{j}"] for j in range(1, m + 1)]
        return CoefficientSet.from_text(self.model["d"], m, self.model["drift"], sigmas)

    def sim_config(self, horizon: float | None = None) -> SimConfig:
        sim = self.simulation
        return SimConfig(
            horizon=horizon if horizon is not None else sim["T"],
            n_steps=sim["n_steps"],
            x0=tuple(self.model["x0"]),
            scheme=sim["scheme"],
            seed=sim["seed"],
            monotone_bound=sim.get("monotone_bound"),
        )


def _split_sections(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = sections[name]
            current_name = name
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key '{key}' in [{current_name}]")
        current[key] = value.strip()
    return sections


def _apply_schema(raw: dict[str, str], schema: dict, section: str) -> dict:
    out = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in [{section}]")
        kind = schema[key][0]
        try:
            out[key] = _PARSERS[kind](value)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"bad value for '{key}' in [{section}]: {exc}") from exc
    for key, (kind, required, default) in schema.items():
        if key not in out:
            if required:
                raise ConfigError(f"missing key '{key}' in [{section}]")
            if default is not None:
                out[key] = default
    return out


def parse_config_text(text: str, command: str) -> ExperimentConfig:
    if command not in SCHEMAS:
        raise ConfigError(f"unknown command {command!r}")
    spec = SCHEMAS[command]
    sections = _split_sections(text)
    if "model" not in sections:
        raise ConfigError("missing [model] section")

    model_raw = dict(sections["model"])
    try:
        m = int(model_raw.get("m", "0"))
    except ValueError as exc:
        raise ConfigError("bad value for 'm' in [model]") from exc
    model_schema = dict(_MODEL_SCHEMA)
    for j in range(1, max(m, 0) + 1):
        model_schema[f"sigma{j}"] = ("expr", True, None)
    model = _apply_schema(model_raw, model_schema, "model")
    if model["d"] < 1 or model["m"] < 1:
        raise ConfigError("d and m must be at least 1")
    if len(model["x0"]) != model["d"]:
        raise ConfigError(f"x0 must have d = {model['d']} components")

    if spec["needs_simulation"] and "simulation" not in sections:
        raise ConfigError("missing [simulation] section")
    if "simulation" in sections or spec["needs_simulation"]:
        simulation = _apply_schema(sections["simulation"], _SIMULATION_SCHEMA, "simulation")
    else:
        simulation = {}
    if simulation:
        if simulation.get("scheme") not in SCHEMES:
            raise ConfigError(
                f"unknown scheme {simulation.get('scheme')!r} in [simulation]"
            )
        if simulation.get("paths", 1) < 1:
            raise ConfigError("paths must be >= 1 in [simulation]")
        if not 0.0 <= simulation.get("max_divergence", 0.0) <= 1.0:
            raise ConfigError("max_divergence must lie in [0, 1]")

    analysis = _apply_schema(sections.get("analysis", {}), spec["analysis"], "analysis")
    output = _apply_schema(sections.get("output", {}), _OUTPUT_SCHEMA, "output")

    cfg = ExperimentConfig(
        command=command,
        model=model,
        simulation=simulation,
        analysis=analysis,
        output=output,
    )
    # fail fast, naming the field, on unparsable fields and on fields too
    # deep to compile
    coeffs = cfg.coefficient_set()
    names = ["drift"] + [f"sigma{j}" for j in range(1, coeffs.m + 1)]
    for name, fld in zip(names, (coeffs.drift, *coeffs.diffusion)):
        try:
            compile_field(fld, component_major=True)
        except ConfigError as exc:
            raise ConfigError(f"bad value for '{name}' in [model]: {exc}") from None
    return cfg


def load_config(path: str, command: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, command)


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        if value and isinstance(value[0], tuple):
            return "; ".join(", ".join(repr(float(v)) for v in vec) for vec in value)
        return ", ".join(
            str(v) if isinstance(v, int) else repr(float(v)) for v in value
        )
    if isinstance(value, float):
        return repr(value)
    return str(value)


def resolved_text(cfg: ExperimentConfig) -> str:
    """Canonical dump of the fully resolved configuration.

    The output location is omitted: it is where the file itself lives and
    would otherwise make the config hash depend on the run directory.
    """
    lines = [f"# resolved configuration for command: {cfg.command}"]
    for section, data in (
        ("model", cfg.model),
        ("simulation", cfg.simulation),
        ("analysis", cfg.analysis),
    ):
        if not data:
            continue
        lines.append(f"[{section}]")
        for key in sorted(data):
            if data[key] is None:
                continue
            lines.append(f"{key} = {_fmt_value(data[key])}")
        lines.append("")
    return "\n".join(lines)
