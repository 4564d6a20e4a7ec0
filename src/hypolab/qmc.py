"""Unscrambled Sobol' points and the standard normal quantile, in numpy.

Both reproduce scipy's bits, and scipy is no runtime dependency:
``sobol(dim, n)`` equals ``scipy.stats.qmc.Sobol(dim, scramble=False).random(n)``
and ``ndtri(y)`` equals ``scipy.special.ndtri(y)``, byte for byte.

The Sobol' sequence uses 30-bit direction numbers built from the Joe-Kuo
(2008) primitive polynomials and initial numbers (the ``new-joe-kuo-6.21201``
set that scipy ships), in Antonov-Saleev Gray-code order, so the first point
is the origin.  Only the first 32 dimensions are embedded; a wider sample
is a ``ConfigError``.

``ndtri`` is a port of the Cephes routine: a rational approximation in
y - 1/2 on the centre, |y - 1/2| <= 1/2 - exp(-2), and rational corrections
in 1/sqrt(-2 log y) on the tails.  The tail logarithms go through
``math.log`` (the C library's ``log``, which Cephes calls) because numpy's
vectorised ``np.log`` differs from it in the last bit on rare inputs.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

__all__ = ["sobol", "ndtri"]

_BITS = 30

# (primitive polynomial with its leading and constant terms, m_1..m_s) for
# dimensions 1..32; the first dimension (the van der Corput sequence) has
# every direction number 1.
_JOE_KUO = (
    (1, ()), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
)


def _direction_numbers(poly: int, m: tuple[int, ...]) -> list[int]:
    """The 30 direction numbers v_j = m_j 2^(30 - j) of one dimension, with
    m_j for j > s from the Bratley-Fox recurrence of the polynomial."""
    if not m:
        return [1 << (_BITS - 1 - j) for j in range(_BITS)]
    s = len(m)
    v = list(m)
    for j in range(s, _BITS):
        new = v[j - s]
        for k in range(s):
            if (poly >> (s - 1 - k)) & 1:
                new ^= v[j - k - 1] << (k + 1)
        v.append(new)
    return [vj << (_BITS - 1 - j) for j, vj in enumerate(v)]


# (dimension, bit) -> direction number
_V = np.array([_direction_numbers(p, m) for p, m in _JOE_KUO], dtype=np.uint32)


def sobol(dim: int, n: int) -> np.ndarray:
    """The first ``n`` points of the unscrambled ``dim``-dimensional Sobol'
    sequence, (n, dim) float64 in [0, 1); any ``n`` is a prefix of the same
    sequence, so no power of two is needed."""
    if dim > len(_JOE_KUO):
        raise ConfigError(
            f"Sobol' points have at most {len(_JOE_KUO)} dimensions, {dim} were asked for"
        )
    gray = np.arange(n, dtype=np.uint32)
    gray ^= gray >> 1
    quasi = np.zeros((n, dim), dtype=np.uint32)
    for bit in range(max(n - 1, 0).bit_length()):
        quasi[(gray >> bit) & 1 == 1] ^= _V[:dim, bit]
    return quasi * 2.0**-_BITS


_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi)
# centre, 0 <= |y - 1/2| <= 1/2 - exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
# tails with 2 <= sqrt(-2 log y) < 8
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
# tails with sqrt(-2 log y) >= 8
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule, highest power first (Cephes ``polevl``)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule with an implicit leading coefficient 1 (Cephes ``p1evl``)."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.tolist()), dtype=np.float64, count=x.size)


def ndtri(y0) -> np.ndarray:
    """Standard normal quantile, elementwise: -inf at 0, inf at 1, nan
    outside [0, 1]."""
    y0 = np.asarray(y0, dtype=np.float64)
    out = np.full(y0.shape, np.nan)
    out[y0 == 0.0] = -np.inf
    out[y0 == 1.0] = np.inf
    upper = y0 > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - y0, y0)
    centre = y > _EXP_M2
    yc = y[centre] - 0.5
    y2 = yc * yc
    out[centre] = (yc + yc * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    tail = ~centre & (y0 > 0.0) & (y0 < 1.0)
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    near = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    far = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - np.where(x < 8.0, near, far)
    out[tail] = np.where(upper[tail], x, -x)
    return out
