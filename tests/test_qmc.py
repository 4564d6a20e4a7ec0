import warnings

import numpy as np
import pytest
from scipy.special import ndtri as scipy_ndtri
from scipy.stats import qmc

from hypolab.errors import ConfigError
from hypolab.qmc import ndtri, sobol


def _scipy_sobol(dim, n):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # balance for n not 2^k
        return qmc.Sobol(dim, scramble=False).random(n)


@pytest.mark.parametrize("dim", range(1, 33))
def test_sobol_is_byte_identical_to_scipy(dim):
    for n in (1, 2, 3, 5, 64, 512, 4096):
        ours, ref = sobol(dim, n), _scipy_sobol(dim, n)
        assert ours.dtype == ref.dtype and ours.shape == ref.shape == (n, dim)
        assert ours.tobytes() == ref.tobytes()


def test_sobol_starts_at_the_origin_without_a_balance_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = sobol(4, 5)
    assert not pts[0].any()
    assert sobol(3, 0).shape == (0, 3)


def test_sobol_beyond_the_embedded_table_is_a_config_error():
    with pytest.raises(ConfigError, match="at most 32 dimensions, 33"):
        sobol(33, 100)
    assert sobol(32, 100).tobytes() == _scipy_sobol(32, 100).tobytes()


def _assert_ndtri_bytes(y):
    assert ndtri(y).tobytes() == scipy_ndtri(y).tobytes()


def test_ndtri_is_byte_identical_on_uniforms():
    _assert_ndtri_bytes(np.random.default_rng(7).random(1_000_000))


def test_ndtri_is_byte_identical_on_the_deep_tails_and_branch_edges():
    rng = np.random.default_rng(8)
    low = np.concatenate([2.0 ** -np.arange(1.0, 1075.0), np.exp(-700.0 * rng.random(100_000))])
    high = np.concatenate([1.0 - 2.0 ** -np.arange(1.0, 54.0), 1.0 - np.exp(-36.0 * rng.random(100_000))])
    e2 = np.exp(-2.0)
    edges = np.array([
        2.0**-20, 1.0 - 2.0**-20, 0.5, e2, 1.0 - e2, np.exp(-32.0), 5e-324, 0.0, 1.0,
        np.nextafter(e2, 0.0), np.nextafter(e2, 1.0),
        np.nextafter(1.0 - e2, 0.0), np.nextafter(1.0 - e2, 1.0),
    ])
    for y in (low, high, edges):
        _assert_ndtri_bytes(y)
    assert ndtri(edges[-6:-4]).tolist() == [-np.inf, np.inf]
    assert np.isnan(ndtri(np.array([-0.5, 1.5, np.nan]))).all()


def test_ndtri_keeps_the_input_shape():
    y = np.random.default_rng(9).random((4, 3, 2))
    assert ndtri(y).shape == y.shape
    _assert_ndtri_bytes(y)
