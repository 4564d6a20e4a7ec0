import numpy as np
import pytest

from hypolab.fieldlang import CoefficientSet
from hypolab.flows import simulate


@pytest.fixture
def ou():
    """Scalar mean-reverting system with additive noise: b = -x, sigma = 1."""
    return CoefficientSet.from_text(1, 1, "-x1", ["1"])


@pytest.fixture
def ginzburg_landau():
    """Double-well drift with additive noise: b = x - x^3, sigma = 0.5."""
    return CoefficientSet.from_text(1, 1, "x1 - x1^3", ["0.5"])


@pytest.fixture
def heisenberg():
    """d=2 system spanned only through one bracket: b = (0, x1), sigma = (1, 0)."""
    return CoefficientSet.from_text(2, 1, "0, x1", ["1, 0"])


@pytest.fixture
def elliptic2():
    """b = 0 with identity diffusion columns in d = 2."""
    return CoefficientSet.from_text(2, 2, "0, 0", ["1, 0", "0, 1"])


@pytest.fixture
def degenerate():
    """Vanishing diffusion: every bracket is zero."""
    return CoefficientSet.from_text(1, 1, "-x1", ["0"])


def assert_close(a, b, rtol=0.0, atol=0.0):
    np.testing.assert_allclose(a, b, rtol=rtol, atol=atol)


@pytest.fixture
def force_route(monkeypatch):
    """``force_route(route)`` runs the test's blocks natively where the model
    allows ("native") or on the numpy kernel ("numpy"), and returns the set
    that collects the routes the blocks then took."""

    def force(route):
        monkeypatch.setattr(simulate, "NATIVE", route == "native")
        ran = set()
        monkeypatch.setattr(simulate, "STEP_ROUTES", ran)
        monkeypatch.setattr(simulate, "INCREMENT_ROUTES", set())
        monkeypatch.setattr(simulate, "NATIVE_ISAS", set())
        return ran

    return force
