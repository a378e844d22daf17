"""Photon-number-resolved statistics of the coincidence process.

This module is the infinite-decoy oracle: it decomposes the expected
signal coincidences into contributions by total emitted photon number,
which yields the exact phase error rate that the finite decoy-state
bounds are tested against.

The per-port yield treats the relay input splitter plus fiber plus
detector as a single per-photon survival probability ``eta_t``, then
interferes the surviving photons on the port splitter and applies
threshold detectors with dark counts.  Cross-port correlations (one
user's photons reaching both neighbouring ports) are dropped, following
the first-order treatment that is tight in high-loss regimes; results
below roughly 10 km of fiber are approximation-limited.

The per-port photon-number weights w[m] (``_port_weight_sequence``) are
the Taylor coefficients of a generating function, which
sum_n C(2n, n) z^n / n! = e^(2z) I0(2z) puts in closed form:

    W(x) = sum_m w[m] x^m = 2 (1-p_d) e^(2 (1-eta) x) [p_d + e^(eta x) I0(eta x) - 1].

With P = N-1 ports, the signal coincidences fed by n emitted photons are
s_n = c mu^n [x^n] (g_M W(x))^P, g_M = 4 N_bins / M^2, for a prefactor c
of the row.  So the sum of s_n over every n is c F(mu) and the
alternating sum is c F(-mu), F(x) = (g_M W(x))^P, and the phase error,
which needs only the sum over one parity, [c F(mu) +- c F(-mu)] / 2,
takes no photon-number cutoff.

``_phase_error_rows`` evaluates the exact phase error for a batch of
ladders (one row each) from their count matrices, over one channel or
one channel per row.  ``phase_error_exact(config, channel, sec)`` is a
one-row call of it on the cached count matrix of ``config``
(``matching._count_matrix``) and its sifted signal count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .matching import _count_matrix, _port_totals, sifted_coincidences
from .model import INFEASIBLE, ChannelParams, EstimationError, SecurityParams, SourceConfig
from .channel import total_efficiency
from .special_math import _i0_minus_one_rule

__all__ = ["phase_error_exact"]

_ESTIMATION = INFEASIBLE.index(EstimationError)


@lru_cache(maxsize=32)
def _port_weight_sequence(eta_t: float, p_d: float, m_max: int) -> tuple[float, ...]:
    """w[m] = sum_l Y(l, m-l) / (l! (m-l)!), the per-port photon-number weight, for m = 0..m_max.

    The package sums these weights in closed form (``_parity_sums``) and
    never calls this function.  It stays, with its cache, because the test
    oracles build their per-n terms from it and ``perfbench/child.py``
    reads its ``cache_info()`` in every traced process.

    Y(l, r) is the probability of exactly one click when the two users of
    the port emit l and r photons: each photon survives with probability
    eta_t, the f and g survivors interfere on the balanced splitter, which
    sends all f+g of them out of one side with probability
    C(f+g, f) / 2^(f+g) per side, and the threshold detectors add dark
    counts.  The click probability is T(0, 0) = 2 p_d (1-p_d) and
    T(f, g) = 2 (1-p_d) C(f+g, f) / 2^(f+g) otherwise.

    In the generating function W(x) = sum_m w[m] x^m the binomial
    thinning of each user's Poisson weight x^l / l! gives

        sum_l C(l, f) eta^f (1-eta)^(l-f) x^l / l! = (eta x)^f / f! e^((1-eta) x),

    and sum_f C(n, f)^2 = C(2n, n) collects the survivors by their total n:

        W(x) = e^(2 (1-eta) x) sum_n h[n] (eta x)^n,
        h[0] = 2 p_d (1-p_d),  h[n] = 2 (1-p_d) C(2n, n) / (2^n n!).

    So w is the convolution of h[n] eta^n with (2 (1-eta))^k / k!, which
    costs O(m_max^2) per channel.  h and (2 (1-eta))^k / k! are built by
    their term ratios (h[n+1] / h[n] = (2n+1) / (n+1)^2 for n >= 1), so no
    factorial is converted to a float.
    """
    survivors = [2.0 * p_d * (1.0 - p_d)]
    spread = [1.0]
    h = 2.0 * (1.0 - p_d)
    loss = 2.0 * (1.0 - eta_t)
    for n in range(1, m_max + 1):
        survivors.append(h * eta_t**n)
        h *= (2 * n + 1) / (n + 1) ** 2
        spread.append(spread[-1] * loss / n)
    return tuple(np.convolve(survivors, spread)[: m_max + 1].tolist())


def _parity_sums(
    counts: np.ndarray,
    mu: np.ndarray,
    p_mu: np.ndarray,
    phase_slices: int,
    eta_t,
    p_d,
    data_size: float,
) -> tuple[np.ndarray, np.ndarray]:
    """sum_n s_n and sum_n (-1)^n s_n per row; both zero in a row whose count matrix has an empty port.

    Row r has the count matrix ``counts[r]``, signal intensity ``mu[r]``
    and signal probability ``p_mu[r]``; ``eta_t`` and ``p_d`` are the
    channel's total efficiency and dark-count rate, scalars or one per row.
    The photon-number terms are

        s_n = M n_min / 2 * mu^n [x^n] prod_j (e^(-2 mu) p_mu^2 g_M W(x) / total_j),

    so the sums are the product at x = mu and x = -mu.  With u = eta_t mu,

        e^(-2 mu) W(mu) = 2 (1-p_d) e^(-2u) A,        A = p_d + expm1(u) + e^u (I0(u) - 1),
        e^(-2 mu) W(-mu) = 2 (1-p_d) e^(2u - 4 mu) B,  B = p_d + expm1(-u) + e^-u (I0(u) - 1),

    which keep the digits that e^(+-u) I0(u) - 1, written as it reads,
    loses where u is small.  Each port's factor is divided by its slice-set
    total before the product over ports, so neither N_bins^P nor the
    product of the totals overflows.
    """
    totals, n_min = _port_totals(counts)
    filled = n_min > 0.0
    u = eta_t * mu
    i0_minus_one = _i0_minus_one_rule(u)
    port = (8.0 * data_size / phase_slices**2) * (1.0 - p_d) * p_mu * p_mu
    plus = port * np.exp(-2.0 * u) * (p_d + np.expm1(u) + np.exp(u) * i0_minus_one)
    minus = port * np.exp(2.0 * u - 4.0 * mu) * (p_d + np.expm1(-u) + np.exp(-u) * i0_minus_one)
    per_port = 1.0 / np.where(filled[:, None], totals, 1.0)
    lead = np.where(filled, 0.5 * phase_slices * n_min, 0.0)
    return (
        lead * np.multiply.reduce(plus[:, None] * per_port, axis=-1),
        lead * np.multiply.reduce(minus[:, None] * per_port, axis=-1),
    )


def _phase_error_rows(
    counts: np.ndarray,
    mu: np.ndarray,
    p_mu: np.ndarray,
    s_mu: np.ndarray,
    num_users: int,
    phase_slices: int,
    eta_t,
    p_d,
    data_size: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact phase error per row, and its cause code (``model.INFEASIBLE``).

    The complement of the "good parity" share of the signal coincidences
    (even total photon number for odd N, odd for even N),
    [sum_n s_n +- sum_n (-1)^n s_n] / 2.  ``s_mu`` is each row's sifted
    signal count; a row without one gets an EstimationError cause and a
    meaningless phase error.  ``eta_t`` and ``p_d`` are scalars or one
    channel per row.
    """
    no_signal = s_mu <= 0.0
    total, alternating = _parity_sums(counts, mu, p_mu, phase_slices, eta_t, p_d, data_size)
    good = 0.5 * (total - alternating if num_users % 2 == 0 else total + alternating)
    phi = 1.0 - good / np.where(no_signal, 1.0, s_mu)
    return np.minimum(np.maximum(phi, 0.0), 1.0), no_signal * np.int8(_ESTIMATION)


def phase_error_exact(config: SourceConfig, channel: ChannelParams, sec: SecurityParams) -> float:
    """Exact phase error rate from the photon-number decomposition; one row of ``_phase_error_rows``."""
    s_mu = sifted_coincidences(config.signal_intensity, config, channel, sec)
    if s_mu <= 0.0:
        raise EstimationError("no sifted signal coincidences; phase error undefined")
    phi, _ = _phase_error_rows(
        _count_matrix(config, channel, sec.data_size)[None], np.array([config.signal_intensity]),
        np.array([config.send_probabilities[0]]), np.array([s_mu]), config.num_users, config.phase_slices,
        total_efficiency(channel), channel.dark_count_rate, sec.data_size,
    )
    return float(phi[0])
