"""k-of-n block availability — Eq. (1) of the paper.

The paper's fundamental primitive is the availability of an ``m``-of-``n``
block of identical, independent elements each with availability ``alpha``::

    A_{m/n}(alpha) = sum_{i=0}^{n-m} C(n, i) alpha^{n-i} (1-alpha)^i ,  m <= n
    A_{m/n}(alpha) = 0                                               ,  m > n

Conventions carried through the paper and preserved here:

* ``m = 0`` — the block is never required, so its availability is 1 (the
  paper's "0 of 3" processes such as *supervisor* and *nodemgr*).
* ``m > n`` — the requirement cannot be met (e.g. a "2 of 3" quorum with a
  single surviving host), so availability is 0.

Two implementations are provided: a scalar one in exact float arithmetic via
the complementary (unavailability) sum, which is numerically stable for the
high-availability regime ``alpha -> 1`` where the direct sum loses precision,
and a vectorized one over numpy arrays for the sweep harnesses.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.errors import ParameterError
from repro.units import check_probability


def a_m_of_n(m: int, n: int, alpha: float) -> float:
    """Availability of an ``m``-of-``n`` block of elements with availability ``alpha``.

    Implements Eq. (1).  Computed as ``1 - sum_{i=n-m+1}^{n} C(n,i) (1-a)^i a^(n-i)``
    (the probability of *more* than ``n - m`` failures) which keeps full float
    precision when ``alpha`` is close to 1, the regime of every result in the
    paper.

    Args:
        m: Minimum number of elements that must be up.  ``m <= 0`` yields 1.
        n: Number of elements in the block.  Must be >= 0.
        alpha: Per-element availability in ``[0, 1]``.

    Raises:
        ParameterError: if ``n < 0`` or ``alpha`` is outside ``[0, 1]``.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    check_probability(alpha, "alpha")
    if m <= 0:
        return 1.0
    if m > n:
        return 0.0
    q = 1.0 - alpha
    # P(number of failures >= n - m + 1)
    unavailability = 0.0
    for i in range(n - m + 1, n + 1):
        unavailability += math.comb(n, i) * q**i * alpha ** (n - i)
    return max(0.0, 1.0 - unavailability)


def kofn_unavailability(m: int, n: int, alpha: float) -> float:
    """Unavailability ``1 - A_{m/n}(alpha)``, computed without cancellation.

    For the deep-high-availability regime the unavailability itself (order
    ``(1-alpha)**(n-m+1)``) is the quantity of interest; computing it directly
    avoids the ``1 - (1 - tiny)`` round trip.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    check_probability(alpha, "alpha")
    if m <= 0:
        return 0.0
    if m > n:
        return 1.0
    q = 1.0 - alpha
    total = 0.0
    for i in range(n - m + 1, n + 1):
        total += math.comb(n, i) * q**i * alpha ** (n - i)
    return min(1.0, total)


def a_m_of_n_array(m: int, n: int, alpha: np.ndarray | float) -> np.ndarray:
    """Vectorized :func:`a_m_of_n` over an array of per-element availabilities.

    Used by the figure sweep harnesses, where ``alpha`` is a grid of a few
    hundred points.  Returns a float array with the same shape as ``alpha``.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    a = np.asarray(alpha, dtype=float)
    if np.any((a < 0.0) | (a > 1.0)) or np.any(np.isnan(a)):
        raise ParameterError("alpha values must be in [0, 1]")
    return _a_m_of_n_unchecked(m, n, a)


def _a_m_of_n_unchecked(
    m: int, n: int, alpha: np.ndarray | float
) -> np.ndarray:
    """:func:`a_m_of_n_array` without its checks: ``n >= 0``, alpha in [0, 1].

    For kernels that validate their inputs once per call
    (:mod:`repro.perf.vectorized`) rather than once per block.
    """
    a = np.asarray(alpha, dtype=float)
    if m <= 0:
        return np.ones_like(a)
    if m > n:
        return np.zeros_like(a)
    q = 1.0 - a
    unavailability = np.zeros_like(a)
    for i in range(n - m + 1, n + 1):
        unavailability += math.comb(n, i) * q**i * a ** (n - i)
    return np.clip(1.0 - unavailability, 0.0, 1.0)


def a_m_of_n_exact(m: int, n: int, alpha: Fraction) -> Fraction:
    """Eq. (1) in exact rational arithmetic.

    Used by tests as an oracle against the float implementations: evaluating
    with :class:`fractions.Fraction` inputs removes all rounding error, so
    the float routines can be checked to a few ULPs.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if not 0 <= alpha <= 1:
        raise ParameterError(f"alpha must be in [0, 1], got {alpha}")
    if m <= 0:
        return Fraction(1)
    if m > n:
        return Fraction(0)
    total = Fraction(0)
    for i in range(0, n - m + 1):
        total += math.comb(n, i) * alpha ** (n - i) * (1 - alpha) ** i
    return total


def binomial_pmf_array(k: int, n: int, p: np.ndarray | float) -> np.ndarray:
    """Vectorized :func:`binomial_pmf` over an array of success probabilities.

    ``k`` and ``n`` stay scalar — the sweep and Monte-Carlo harnesses
    condition on fixed counts while the probability varies across the grid.
    Returns a float array with the same shape as ``p``.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    q = np.asarray(p, dtype=float)
    if not 0 <= k <= n:
        return np.zeros_like(q)
    if np.any((q < 0.0) | (q > 1.0)) or np.any(np.isnan(q)):
        raise ParameterError("p values must be in [0, 1]")
    return _binomial_pmf_unchecked(k, n, q)


def _binomial_pmf_unchecked(
    k: int, n: int, p: np.ndarray | float
) -> np.ndarray:
    """:func:`binomial_pmf_array` without its checks: ``0 <= k <= n``, p in [0, 1]."""
    q = np.asarray(p, dtype=float)
    return math.comb(n, k) * q**k * (1.0 - q) ** (n - k)


def binomial_pmf(k: int, n: int, p: float) -> float:
    """Probability of exactly ``k`` successes in ``n`` Bernoulli(p) trials.

    The weights ``P(g, c, a, d | x)`` of the paper's Eq. (14) are products of
    these terms; see :func:`repro.core.states.enumerate_up_down`.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if not 0 <= k <= n:
        return 0.0
    check_probability(p, "p")
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
