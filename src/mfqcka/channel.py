"""Analytic detection layer: efficiencies, interference gains, error rates.

A measuring port interferes the pulses of two adjacent users on a balanced
splitter followed by two threshold detectors.  With arm intensities
``k_a, k_b``, total efficiency ``eta_t`` and phase difference ``dtheta``,
the detector input means are

    I_{L/R} = eta_t (k_a + k_b) / 2 +- eta_t sqrt(k_a k_b) cos(dtheta),

and a "successful click" means exactly one of the two detectors fires.
Every formula below follows from independent Poissonian no-click
probabilities ``(1 - p_d) exp(-I)`` per detector.
"""

from __future__ import annotations

import math

from .model import ChannelParams, DegenerateChannelError
from .special_math import bessel_i0, binomial

__all__ = [
    "arm_transmittance",
    "total_efficiency",
    "gain_fixed_phase",
    "gain_phase_averaged",
    "adjacent_bit_error",
    "marginal_error",
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


def _vacuum_yield(k_a: float, k_b: float, eta_t: float, p_d: float) -> float:
    return (1.0 - p_d) * math.exp(-0.5 * eta_t * (k_a + k_b))


def gain_fixed_phase(k_a: float, k_b: float, delta_theta: float, eta_t: float, p_d: float) -> float:
    """Probability of a successful click at phase difference ``delta_theta``.

    q = y [exp(b) + exp(-b) - 2y] with b = eta_t sqrt(k_a k_b) cos(dtheta)
    and y = (1 - p_d) exp(-eta_t (k_a + k_b) / 2).
    """
    y = _vacuum_yield(k_a, k_b, eta_t, p_d)
    b = eta_t * math.sqrt(k_a * k_b) * math.cos(delta_theta)
    return y * (math.exp(b) + math.exp(-b) - 2.0 * y)


def gain_phase_averaged(k_a: float, k_b: float, eta_t: float, p_d: float) -> float:
    """Successful-click probability averaged over a uniform phase difference.

    Integrating the fixed-phase gain over dtheta in [0, 2pi) turns the
    cosh into a zero-order modified Bessel function:
    q = 2 y I0(eta_t sqrt(k_a k_b)) - 2 y^2.
    """
    y = _vacuum_yield(k_a, k_b, eta_t, p_d)
    return 2.0 * y * bessel_i0(eta_t * math.sqrt(k_a * k_b)) - 2.0 * y * y


def adjacent_bit_error(mu: float, eta_t: float, p_d: float) -> float:
    """Bit error rate between neighbouring users sending matched intensity mu.

    Ratio of wrong-detector clicks to all successful clicks at zero phase
    difference; with this detection model errors come from dark counts
    only, so the rate vanishes at p_d = 0 and tends to 1/2 when dark
    counts dominate.
    """
    if mu <= 0.0:
        raise ValueError("adjacent_bit_error requires a positive intensity")
    y = _vacuum_yield(mu, mu, eta_t, p_d)
    b = eta_t * mu
    denom = math.exp(b) + math.exp(-b) - 2.0 * y
    if denom <= 0.0 or not math.isfinite(denom):
        raise DegenerateChannelError(
            "successful-click probability underflowed; no-click regime "
            f"(eta_t={eta_t!r}, mu={mu!r}, p_d={p_d!r})"
        )
    return (math.exp(-b) - y) / denom


def marginal_error(adjacent: float, j: int) -> float:
    """Bit-flip rate between user 1 and user j along the port chain.

    Equals the probability that an odd number of the j-1 independent
    adjacent links flipped: sum over i of C(j-1, 2i+1) E^(2i+1) (1-E)^(j-2i-2).
    """
    if not 0.0 <= adjacent <= 1.0:
        raise ValueError("adjacent error rate must lie in [0, 1]")
    if j < 2:
        raise ValueError("marginal_error is defined for user index j >= 2")
    total = 0.0
    for i in range((j - 2) // 2 + 1):
        total += (
            binomial(j - 1, 2 * i + 1)
            * adjacent ** (2 * i + 1)
            * (1.0 - adjacent) ** (j - 2 * i - 2)
        )
    return total
