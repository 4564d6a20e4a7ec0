"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: numerical evaluation errors exit with 1,
configuration problems with 2, numerical divergence beyond the configured
budget with 3, violated internal invariants with 4.
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
    """Ensemble divergence fraction exceeded the configured budget."""

    exit_code = 3


class InternalInvariantError(HypolabError):
    """A computation violated an invariant that should hold by construction."""

    exit_code = 4


class EigenSolverError(InternalInvariantError):
    """The symmetric eigenvalue solver failed to converge."""


class BracketSizeError(HypolabError):
    """A bracket expression exceeded the configured AST-size cap."""


class DegenerateSamplesError(HypolabError):
    """Samples with non-positive determinant reached a moment estimator."""

    def __init__(self, count: int, trials: int):
        super().__init__(
            f"{count} of {trials} samples had det Q <= 0; estimate aborted"
        )
        self.count = count
        self.trials = trials
