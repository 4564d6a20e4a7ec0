"""One benchmark run in a fresh process: set up, run ``cli.main`` once, report.

Started by ``run.py`` from the checkout root with ``src`` on PYTHONPATH.
Set-up covers interpreter start, the imports, ``load_config`` and
``coefficient_set``.  ``setup_s`` and ``run_s`` are this process's CPU time
(user + sys) for set-up and for ``cli.main``: the run is single-threaded, so
on an idle machine they equal wall time, and unlike wall time they leave out
the time a shared host deschedules the machine.  The wall-clock figures are
reported beside them; set-up wall time starts at ``--spawn-t``, the driver's
``time.monotonic()`` just before it started this process.

The host's speed drifts by up to half over minutes, and CPU time drifts with
it.  So the child also times a fixed reference kernel (``reference_s``) right
before and right after ``cli.main``; ``run_rel`` is ``run_s`` over the mean of
the two, the run's length in reference-kernel units.  With
``--trace 1`` the public entry points of each layer are wrapped from outside
before ``cli.main`` runs, spans are timed on the same CPU clock, and spans
and counters go into the result file once the run has ended.

Exit code: that of ``cli.main``, or 90 when hypolab is not importable from
this checkout's ``src``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time
from dataclasses import fields, is_dataclass

from spans import Tracer

NO_PROGRAM = 90  # distinct from the CLI exit codes 0-4
REFERENCE_ROUNDS = 60_000  # interpreter half of the reference kernel
REFERENCE_BLOCKS = 600  # array half of the reference kernel


def _nbytes(obj) -> int:
    """Bytes held by the arrays in a result object, dict or tuple."""
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name)) for f in fields(obj))
    return 0


def install(tracer: Tracer) -> list[str]:
    """Wrap each layer's entry points where the calling modules look them up.

    Returns the names that were not found, so a refactor that moves one
    shows up in the output instead of as a silent zero.
    """
    from hypolab import brackets, estimators
    from hypolab.fieldlang import fields as fieldlang_fields
    from hypolab.flows import integrals, simulate
    from hypolab.harness import cli

    counts = tracer.counts
    missing: list[str] = []

    def patch(owner, name, make):
        fn = getattr(owner, name, None)
        if fn is None:
            missing.append(f"{owner.__name__}.{name}")
        else:
            setattr(owner, name, make(fn))

    def span(layer, count=None):
        return lambda fn: tracer.wrap(layer, fn, count)

    def count_normals(args, kwargs, result):
        counts["brownian.calls"] += 1
        counts["brownian.normals"] += int(result.size)

    def count_grid(args, kwargs, grid):
        counts["brownian.calls"] += 1
        counts["brownian.normals"] += grid.n_steps * grid.m

    def count_ensemble(args, kwargs, res):
        counts["simulate.path_steps"] += res.n_paths * res.config.n_steps
        counts["simulate.diverged_paths"] += res.diverged_count
        counts["simulate.result_bytes"] += _nbytes(res)

    def count_single(args, kwargs, traj):
        counts["simulate.path_steps"] += len(traj.times) - 1

    def count_block(args, kwargs, result):
        counts["simulate.blocks"] += 1

    def count_rows(args, kwargs, result):
        counts["fieldlang.eval_calls"] += 1
        counts["fieldlang.rows"] += math.prod(getattr(args[0], "shape", (1,))[:-1])

    def traced_compiler(compile_fn):
        def compiled(*args, **kwargs):
            return tracer.wrap("fieldlang", compile_fn(*args, **kwargs), count_rows)

        return compiled

    def count_report(args, kwargs, report):
        counts["brackets.points"] += len(report.points)

    def count_point(args, kwargs, result):
        counts["brackets.points"] += 1

    def count_input(args, kwargs, result):
        counts["integrals.input_bytes"] += _nbytes(args) + _nbytes(kwargs)

    def counted(key):
        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # the block loop around stream_increments only draws, so it is RNG time
    patch(simulate, "_block_increments", span("brownian"))
    patch(simulate, "stream_increments", span("brownian", count_normals))
    patch(cli, "sample_brownian", span("brownian", count_grid))

    for owner in (cli, estimators, simulate):
        patch(owner, "run_ensemble", span("simulate", count_ensemble))
    for owner in (cli, estimators):
        patch(owner, "malliavin_checkpoint_ensemble", span("simulate"))
    patch(cli, "simulate_x", span("simulate", count_single))
    patch(cli, "simulate_flow", span("simulate", count_single))
    patch(simulate, "_simulate_block", span("simulate", count_block))

    for name in ("compile_field", "compile_jacobian", "compile_diffusion",
                 "compile_diffusion_jacobians"):
        patch(simulate, name, traced_compiler)
    patch(integrals, "compile_field", traced_compiler)
    patch(brackets, "compile_expression_stack", traced_compiler)

    patch(cli, "check_hormander", span("brackets", count_report))
    patch(cli, "coefficient_local_bound", span("brackets"))
    patch(estimators, "spanning_value", span("brackets", count_point))
    patch(estimators, "bracket_local_bound", span("brackets"))
    patch(estimators, "expansion_local_bound", span("brackets"))
    patch(brackets.BracketTable, "__init__", span("brackets"))
    patch(brackets.BracketTable, "bracket", span("brackets"))
    patch(fieldlang_fields.VectorField, "evaluate", counted("brackets.field_evals"))

    patch(estimators, "chaos_remainder_ensemble", span("integrals", count_input))

    for name in ("eigenvalue_tails", "remainder_tails", "inverse_det_moments",
                 "inverse_det_scaling", "kde_density", "density_envelope_check"):
        patch(cli, name, span("estimators"))
    return missing


def reference_s() -> float:
    """CPU time of a fixed kernel that stands for the machine's speed now.

    It has two halves of about 0.2 s each on the 2-core VM: interpreter work
    (3x3 numpy arithmetic and a small dict) and array work (Philox normals
    and in-place updates on 16384-element arrays).  The program's runs mix
    the two, and the host slows them by different amounts.  The kernel does
    the same work in every run and version of the program.  The collector
    is off while it runs, so the size of the program's heap does not reach it.
    """
    import numpy as np

    enabled = gc.isenabled()
    gc.disable()
    start = time.process_time()
    a = np.arange(9.0).reshape(3, 3)
    acc = 0.0
    table = {}
    for i in range(REFERENCE_ROUNDS):
        b = a * float(i % 7) + 1.0
        acc += float(b[i % 3].sum())
        table[i % 97] = (acc, i)
    rng = np.random.Generator(np.random.Philox(12345))
    y = np.zeros(16384)
    for _ in range(REFERENCE_BLOCKS):
        y += 0.01 * rng.standard_normal(16384)
        y *= 0.999
    elapsed = time.process_time() - start
    if enabled:
        gc.enable()
    return elapsed


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-t", type=float, required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    try:
        import hypolab
        from hypolab.harness import cli
        from hypolab.harness.config import load_config
    except ImportError as exc:
        print(f"hypolab is not importable: {exc}", file=sys.stderr)
        return NO_PROGRAM
    src = os.path.realpath("src")
    if not os.path.realpath(hypolab.__file__).startswith(src + os.sep):
        print(f"hypolab comes from {hypolab.__file__}, not {src}", file=sys.stderr)
        return NO_PROGRAM
    cpu_imported = time.process_time()
    load_config(args.config, args.command).coefficient_set()
    cpu_ready, wall_ready = time.process_time(), time.monotonic()

    tracer = Tracer(clock=time.process_time) if args.trace else None
    missing = install(tracer) if tracer else []
    argv = [args.command, "--config", args.config, "--out", args.out,
            "--seed", str(args.seed), "--workers", "1"]
    ref_before = reference_s()
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    if tracer:
        code = tracer.call("harness", cli.main, argv)
    else:
        code = cli.main(argv)
    run_s = time.process_time() - cpu_start
    run_wall_s = time.perf_counter() - wall_start
    ref_s = (ref_before + reference_s()) / 2
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "exit_code": code,
        "import_s": cpu_imported,
        "config_s": cpu_ready - cpu_imported,
        "setup_s": cpu_ready,
        "setup_wall_s": wall_ready - args.spawn_t,
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "ref_s": ref_s,
        "run_rel": run_s / ref_s,
        "peak_rss_mb": rss_kib / 1024.0,
        "env": _environment(),
    }
    if tracer:
        result.update(spans=tracer.spans, counts=dict(tracer.counts), missing=missing)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
