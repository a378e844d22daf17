"""Special functions used by the analytic rate formulas.

Nothing here depends on the protocol; both functions are kept
dependency-free (numpy only) and accurate well beyond the needs of the
key-rate formulas so that they never dominate an error budget.  The
entropy and I0 accept scalars or arrays, and an element's value never
depends on the array around it, so a batch of rate evaluations gives
each row bit for bit the value it gets alone.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["binary_entropy", "bessel_i0"]


def _sum_along(terms: np.ndarray, axis: int) -> np.ndarray:
    """The sum of ``terms`` over ``axis``, added in the order numpy adds a contiguous last axis.

    numpy adds a contiguous last axis pairwise from 8 terms on, and any
    other axis in sequence.  A batch laid out with its rows last, for
    speed, keeps the sums of its row-major form bit for bit this way.
    """
    last = [*range(axis), *range(axis + 1, terms.ndim), axis]
    return np.add.reduce(terms.transpose(last).copy(), axis=-1)


def binary_entropy(x):
    """Binary Shannon entropy H2(x) = -x log2 x - (1-x) log2 (1-x).

    The limits at x = 0 and x = 1 are defined as 0 by continuity; error
    rates in noiseless test configurations hit these endpoints exactly.
    Accepts a scalar or an ndarray; any argument outside [0, 1] (nan
    included) is rejected.
    """
    arr = np.asarray(x, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x!r}")
    h = _entropy(arr)
    return float(h) if np.ndim(x) == 0 else h


def _entropy(x: np.ndarray) -> np.ndarray:
    """H2 of an array in [0, 1] (nan stays nan), without the range check.

    At an endpoint the logarithm is taken of the smallest positive double
    (5e-324) instead of 0, which gives the 0 log 0 = 0 convention; adding
    0.0 turns the -0.0 there into 0.0.  Every other x in [0, 1] is at
    least that large, so its logarithm is its own.
    """
    y = 1.0 - x
    return -x * np.log2(np.maximum(x, 5e-324)) - y * np.log2(np.maximum(y, 5e-324)) + 0.0


# Midpoint (periodic trapezoid) rule for I0(x) = (1/pi) * integral_0^pi exp(x cos t) dt:
# I0(x) ~ (1/n) sum_j exp(x cos((j + 1/2) pi / n)).  The integrand is smooth and
# periodic, so the error falls geometrically with n (like I_2n(x) / I0(x)); at
# 40 nodes only round-off is left, at most 3.8e-15 relative over [0, 50], the
# whole range the rate formulas reach (x = eta_t * sqrt(ka*kb) <= 50).
I0_NODES = 40
_I0_COS = np.cos((np.arange(I0_NODES) + 0.5) * (math.pi / I0_NODES))


def bessel_i0(x):
    """Modified Bessel function of the first kind, order zero.

    Evaluates the integral representation (1/pi) * int_0^pi e^{x cos t} dt
    with a fixed midpoint rule of ``I0_NODES`` nodes, which keeps the implementation
    independent of the power-series route used as the test oracle.
    Accepts a scalar or an ndarray; negative arguments are rejected.  The
    rule is summed along the contiguous last axis rather than by a BLAS
    product, whose blocking can depend on the number of rows.
    """
    arr = np.asarray(x, dtype=float)
    if (arr < 0.0).any():
        raise ValueError("bessel_i0 requires nonnegative arguments")
    vals = _i0_rule(arr)
    if np.ndim(x) == 0:
        return float(vals)
    return vals


def _i0_rule(x: np.ndarray) -> np.ndarray:
    """The quadrature of ``bessel_i0`` without the sign check (nan stays nan).

    The trailing columns of a 2-D ``x`` that are 0 in every row take the
    rule's value at 0 without evaluating it; ``matching`` puts the setting
    pairs with the vacuum, whose argument is 0, last.
    """
    if x.ndim == 2:
        nonzero = np.logical_or.reduce(x != 0.0, axis=0).tolist()
        width = len(nonzero)
        while width and not nonzero[width - 1]:
            width -= 1
        if width < len(nonzero):
            out = np.empty(x.shape)
            out[:, :width] = _midpoint_sum(x[:, :width])
            out[:, width:] = _i0_at_zero()
            return out
    return _midpoint_sum(x)


def _midpoint_sum(x: np.ndarray) -> np.ndarray:
    terms = x[..., None] * _I0_COS
    np.exp(terms, out=terms)
    terms *= 1.0 / I0_NODES
    return np.add.reduce(terms, axis=-1)


@lru_cache(maxsize=None)
def _i0_at_zero() -> float:
    return float(_midpoint_sum(np.zeros(1))[0])

