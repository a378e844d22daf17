"""Analytic detection layer: efficiencies, interference gains, error rates.

A measuring port interferes the pulses of two adjacent users on a balanced
splitter followed by two threshold detectors.  With arm intensities
``k_a, k_b``, total efficiency ``eta_t`` and phase difference ``dtheta``,
the detector input means are

    I_{L/R} = eta_t (k_a + k_b) / 2 +- eta_t sqrt(k_a k_b) cos(dtheta),

and a "successful click" means exactly one of the two detectors fires.
Every formula below follows from independent Poissonian no-click
probabilities ``(1 - p_d) exp(-I)`` per detector.

The adjacent bit error is the share of wrong-detector clicks among the
successful clicks of two neighbours sending matched intensity mu at zero
phase difference.  With b = eta_t mu and y = (1 - p_d) exp(-b) it is
(exp(-b) - y) / (exp(b) + exp(-b) - 2y), which simplifies exactly to
p_d / (expm1(2b) + 2 p_d); this form has no cancellation.  It is
undefined only where no click is possible, 2b = 0 and p_d = 0.  That row
alone is degenerate: ``error_rows`` flags it (with error 0) and
``error_terms`` raises DegenerateChannelError.  Any positive 2b or p_d,
however small, has an error, exactly 0 when p_d = 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import ChannelParams, DegenerateChannelError
from .special_math import _i0_minus_one_rule

__all__ = [
    "arm_transmittance",
    "total_efficiency",
    "pair_gains",
    "ErrorRows",
    "error_rows",
    "error_terms",
    "marginal_errors",
]


def arm_transmittance(channel: ChannelParams) -> float:
    """Bare fiber transmittance of one user-to-relay arm, 10^(-alpha L / 10)."""
    return 10.0 ** (-channel.fiber_alpha * channel.distance_km / 10.0)


def total_efficiency(channel: ChannelParams) -> float:
    """Total efficiency eta_t = (eta_d / 2) * 10^(-alpha L / 10).

    The factor 1/2 is the relay's input splitter, which routes half of each
    user's pulse to each of their two neighbouring ports.
    """
    return 0.5 * channel.detector_efficiency * arm_transmittance(channel)


def pair_gains(k_a: np.ndarray, k_b: np.ndarray, eta_t, p_d) -> tuple[np.ndarray, np.ndarray]:
    """Successful-click probabilities of a port at zero phase difference and averaged over the phase.

    With y = (1 - p_d) exp(-eta_t (k_a + k_b) / 2) and x = eta_t
    sqrt(k_a k_b), the gain at phase difference dtheta is
    q = y [exp(b) + exp(-b) - 2y] with b = x cos(dtheta); the first value
    returned is q at dtheta = 0.  Integrating q over a uniform dtheta in
    [0, 2pi) turns the cosh into a zero-order modified Bessel function,
    q_avg = 2 y I0(x) - 2 y^2, the second value, evaluated as
    2 y [(I0(x) - 1) + (1 - y)].  I0 - 1 comes from its own rule, which
    gives exactly 0 at x = 0 (a pair with the vacuum) without evaluating it.  These are the only two
    gains the model evaluates.  Every argument broadcasts: ``eta_t`` and
    ``p_d`` may be scalars or hold one channel per row of the intensities.
    """
    y = (1.0 - p_d) * np.exp(-0.5 * eta_t * (k_a + k_b))
    x = eta_t * np.sqrt(k_a * k_b)
    two_y = 2.0 * y
    return y * (np.exp(x) + np.exp(-x) - two_y), two_y * (_i0_minus_one_rule(x) + (1.0 - y))


def marginal_errors(adjacent: np.ndarray, num_users: int) -> np.ndarray:
    """Bit-flip rates E_1j for j = 2..N along the last axis, one row per adjacent error in [0, 1/2].

    The piling-up lemma gives E_1j = [1 - (1 - 2E)^(j-1)] / 2, evaluated as
    -expm1((j-1) log1p(-2E)) / 2 so that small E loses nothing to
    cancellation.  At E = 1/2 the logarithm is -inf and every E_1j is
    exactly 1/2.  E_1j grows with j, so E_1N is the largest.
    """
    links = np.arange(1, num_users)
    with np.errstate(divide="ignore"):
        return -0.5 * np.expm1(links * np.log1p(-2.0 * adjacent[..., None]))


class ErrorRows(NamedTuple):
    """Bit error terms per signal intensity; ``degenerate`` rows (no click possible) get 0."""

    adjacent: np.ndarray
    marginals: np.ndarray  # [row, j - 2] for users j = 2..N
    degenerate: np.ndarray


def error_rows(mu: np.ndarray, num_users: int, eta_t, p_d) -> ErrorRows:
    """Adjacent and marginal bit errors of ``num_users`` users, one row per signal intensity.

    ``eta_t`` and ``p_d`` are scalars or one channel per row.  The
    adjacent error and the degenerate rows are those of the module
    docstring.
    """
    denom = np.expm1(2.0 * eta_t * mu) + 2.0 * p_d
    degenerate = denom == 0.0
    adjacent = p_d / np.where(degenerate, 1.0, denom)
    return ErrorRows(adjacent, marginal_errors(adjacent, num_users), degenerate)


def error_terms(mu: float, num_users: int, eta_t: float, p_d: float) -> ErrorRows:
    """The one row of ``error_rows`` at signal intensity ``mu``.

    Raises DegenerateChannelError where that row is degenerate.
    """
    rows = error_rows(np.array([mu], dtype=float), num_users, eta_t, p_d)
    if rows.degenerate[0]:
        raise DegenerateChannelError(
            "no click is possible: 2 eta_t mu rounds to 0 and p_d = 0 "
            f"(eta_t={eta_t!r}, mu={mu!r}, p_d={p_d!r})"
        )
    return rows
