"""Special functions used by the analytic rate formulas.

Nothing here depends on the protocol; the binary entropy (``_entropy``)
and the Bessel function I0 (``_i0_rule``, and I0 - 1 by
``_i0_minus_one_rule``) are kept dependency-free (numpy only) and
accurate well beyond the needs of the key-rate formulas so that they
never dominate an error budget.  All take arrays, and an element's
value never depends on the array around it, so a batch of rate
evaluations gives each row bit for bit the value it gets alone.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["I0_NODES"]


def _sum_along(terms: np.ndarray, axis: int) -> np.ndarray:
    """The sum of ``terms`` over ``axis``, added in the order numpy adds a contiguous last axis.

    numpy adds a contiguous last axis pairwise from 8 terms on, and any
    other axis in sequence.  A batch laid out with its rows last, for
    speed, keeps the sums of its row-major form bit for bit this way.
    Fewer than 8 terms are added in sequence along any axis, so they are
    summed in place.
    """
    if terms.shape[axis] < 8:
        return np.add.reduce(terms, axis=axis)
    last = [*range(axis), *range(axis + 1, terms.ndim), axis]
    return np.add.reduce(np.ascontiguousarray(terms.transpose(last)), axis=-1)


def _entropy(x: np.ndarray) -> np.ndarray:
    """Binary entropy H2(x) = -x log2 x - (1-x) log2 (1-x) of an array in [0, 1] (nan stays nan).

    No range is checked.  At an endpoint the logarithm is taken of the
    smallest positive double (5e-324) instead of 0, which gives the
    0 log 0 = 0 convention; adding 0.0 turns the -0.0 there into 0.0.
    Every other x in [0, 1] is at least that large, so its logarithm is
    its own.
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


def _i0_rule(x: np.ndarray) -> np.ndarray:
    """Modified Bessel function I0 of a nonnegative array (nan stays nan), by the midpoint rule.

    The ``I0_NODES`` nodes of the integral representation
    (1/pi) * int_0^pi e^{x cos t} dt keep the implementation independent
    of the power series that the tests use as its oracle.  The rule is
    summed along the contiguous last axis rather than by a BLAS product,
    whose blocking can depend on the number of rows.  The columns of a
    2-D ``x`` that are 0 in every row, wherever they sit (the gain
    table's setting pairs with the vacuum), take the rule's value at 0,
    which is exactly 1.0, without evaluating it.
    """
    if x.ndim == 2:
        live = np.logical_or.reduce(x != 0.0, axis=0)
        out = np.ones(x.shape)
        out[:, live] = _midpoint_sum(x.compress(live, axis=1))
        return out
    return _midpoint_sum(x)


def _midpoint_sum(x: np.ndarray) -> np.ndarray:
    terms = x[..., None] * _I0_COS
    np.exp(terms, out=terms)
    terms *= 1.0 / I0_NODES
    return np.add.reduce(terms, axis=-1)


def _i0_minus_one_rule(x: np.ndarray) -> np.ndarray:
    """I0(x) - 1 of an array, by the midpoint rule of ``_i0_rule`` with its symmetric nodes paired.

    The nodes come in pairs +-cos t_j, and e^y + e^-y - 2 = 4 sinh^2(y/2),
    so the rule is (1/n) sum_{j < n/2} 4 sinh^2(x cos t_j / 2): a sum of
    nonnegative terms, accurate to round-off also where I0(x) - 1 is far
    below 1.
    """
    terms = np.sinh(x[..., None] * (0.5 * _I0_COS[: I0_NODES // 2]))
    terms *= terms
    terms *= 4.0 / I0_NODES
    return np.add.reduce(terms, axis=-1)
