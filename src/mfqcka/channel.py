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

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import ChannelParams, DegenerateChannelError
from .special_math import _i0_rule, binomial

__all__ = [
    "arm_transmittance",
    "total_efficiency",
    "gain_fixed_phase",
    "gain_phase_averaged",
    "pair_gains",
    "ErrorRows",
    "error_rows",
    "error_terms",
    "adjacent_bit_error",
    "marginal_error",
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


def _vacuum_yield(k_a, k_b, eta_t: float, p_d: float):
    return (1.0 - p_d) * np.exp(-0.5 * eta_t * (k_a + k_b))


def _like_input(value, *inputs):
    """``value`` as a float when every input was a scalar, else the array."""
    if any(np.ndim(x) for x in inputs):
        return value
    return float(value)


def _fixed_phase(y, b):
    return y * (np.exp(b) + np.exp(-b) - 2.0 * y)


def _phase_averaged(y, x):
    return 2.0 * y * _i0_rule(x) - 2.0 * y * y


def gain_fixed_phase(k_a, k_b, delta_theta, eta_t: float, p_d: float):
    """Probability of a successful click at phase difference ``delta_theta``.

    q = y [exp(b) + exp(-b) - 2y] with b = eta_t sqrt(k_a k_b) cos(dtheta)
    and y = (1 - p_d) exp(-eta_t (k_a + k_b) / 2).  The arguments broadcast.
    """
    y = _vacuum_yield(k_a, k_b, eta_t, p_d)
    b = eta_t * np.sqrt(k_a * k_b) * np.cos(delta_theta)
    return _like_input(_fixed_phase(y, b), k_a, k_b, delta_theta)


def gain_phase_averaged(k_a, k_b, eta_t: float, p_d: float):
    """Successful-click probability averaged over a uniform phase difference.

    Integrating the fixed-phase gain over dtheta in [0, 2pi) turns the
    cosh into a zero-order modified Bessel function:
    q = 2 y I0(eta_t sqrt(k_a k_b)) - 2 y^2.  The intensities broadcast.
    """
    y = _vacuum_yield(k_a, k_b, eta_t, p_d)
    x = eta_t * np.sqrt(np.asarray(k_a * k_b, dtype=float))
    return _like_input(_phase_averaged(y, x), k_a, k_b)


def pair_gains(k_a: np.ndarray, k_b: np.ndarray, eta_t, p_d) -> tuple[np.ndarray, np.ndarray]:
    """``gain_fixed_phase`` at zero phase difference and ``gain_phase_averaged``, sharing y and b.

    Every argument broadcasts: ``eta_t`` and ``p_d`` may be scalars or
    hold one channel per row of the intensities.
    """
    y = _vacuum_yield(k_a, k_b, eta_t, p_d)
    x = eta_t * np.sqrt(k_a * k_b)
    return _fixed_phase(y, x), _phase_averaged(y, x)


@lru_cache(maxsize=None)
def _flip_terms(num_users: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Terms C(j-1, 2i+1) E^(2i+1) (1-E)^(j-2i-2) of the odd-flip sums, indexed [j-2, i].

    Returns the coefficients and the two exponents for j = 2..N; a term
    with 2i+1 > j-1 gets coefficient 0 (and exponent 0 on 1-E).
    """
    js = np.arange(2, num_users + 1)[:, None]
    odd = 2 * np.arange((num_users - 2) // 2 + 1)[None, :] + 1
    coef = np.array([[binomial(j - 1, o) for o in odd[0]] for j in js[:, 0]], dtype=float)
    terms = coef, np.broadcast_to(odd, coef.shape).astype(float), np.maximum(js - odd - 1, 0.0)
    for table in terms:
        table.flags.writeable = False
    return terms


def marginal_errors(adjacent: np.ndarray, num_users: int) -> np.ndarray:
    """Bit-flip rates E_1j for j = 2..N along the last axis, one row per adjacent error."""
    coef, odd, rest = _flip_terms(num_users)
    e = adjacent[..., None, None]
    return (coef * e**odd * (1.0 - e) ** rest).sum(axis=-1)


def marginal_error(adjacent, j: int):
    """Bit-flip rate between user 1 and user j along the port chain.

    Equals the probability that an odd number of the j-1 independent
    adjacent links flipped: sum over i of C(j-1, 2i+1) E^(2i+1) (1-E)^(j-2i-2).
    ``adjacent`` may be an array of error rates.
    """
    arr = np.asarray(adjacent, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise ValueError("adjacent error rate must lie in [0, 1]")
    if j < 2:
        raise ValueError("marginal_error is defined for user index j >= 2")
    return _like_input(marginal_errors(arr, j)[..., -1], adjacent)


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


def adjacent_bit_error(mu: float, eta_t: float, p_d: float) -> float:
    """Bit error rate between neighbouring users sending matched intensity mu.

    With this detection model errors come from dark counts only, so the
    rate vanishes at p_d = 0 and tends to 1/2 when dark counts dominate.
    One row of ``error_rows``; raises DegenerateChannelError where that
    row is degenerate.
    """
    if mu <= 0.0:
        raise ValueError("adjacent_bit_error requires a positive intensity")
    return float(error_terms(mu, 2, eta_t, p_d).adjacent[0])
