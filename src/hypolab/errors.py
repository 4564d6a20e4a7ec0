"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: numerical evaluation errors and numpy's
LinAlgError exit with 1, configuration problems with 2, numerical divergence
beyond the configured budget with 3, violated internal invariants with 4;
the CLI maps a MemoryError (an array too large to allocate) to 5.
"""


class HypolabError(Exception):
    exit_code = 1


class ConfigError(HypolabError):
    """Invalid user input: config files, malformed arguments, bad dimensions."""

    exit_code = 2


class ParseError(ConfigError):
    """DSL syntax or identifier error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at position {position}: {message}")
        self.position = position


class EvaluationError(HypolabError):
    """Expression evaluation produced a non-finite value."""


class SimulationDiverged(HypolabError):
    """A simulated path left the finite range.

    Carries the scheme name, the step index at which the update failed and
    the last finite state magnitude.
    """

    def __init__(self, scheme: str, step: int, magnitude: float):
        super().__init__(
            f"non-finite state under scheme '{scheme}' at step {step} "
            f"(last finite |X| = {magnitude:.6g})"
        )
        self.scheme = scheme
        self.step = step
        self.magnitude = magnitude


class DivergenceError(HypolabError):
    """Ensemble divergence fraction exceeded ``SimConfig.max_divergence``;
    raised by ``run_ensemble``."""

    exit_code = 3


class InternalInvariantError(HypolabError):
    """A computation violated an invariant that should hold by construction."""

    exit_code = 4


class EigenSolverError(InternalInvariantError):
    """The symmetric eigenvalue solver failed to converge."""


class BracketSizeError(HypolabError):
    """A bracket expression exceeded the configured AST-size cap."""


class DegenerateSamplesError(HypolabError):
    """An estimator has no usable samples: every path diverged (``diverged``),
    or some samples had a non-positive determinant."""

    def __init__(self, count: int, trials: int, diverged: bool = False):
        what = "paths diverged" if diverged else "samples had det Q <= 0"
        super().__init__(f"{count} of {trials} {what}; estimate aborted")
