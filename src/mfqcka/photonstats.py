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
takes no photon-number cutoff.  The sifted signal count s_mu shares c,
so ``_parity_sums`` returns both sums as ratios to s_mu, the product
over ports of each port's factor divided by its signal count.

Those ratios are not 1 at the parity-free sum: sum_n s_n / s_mu =
(q_avg(mu, mu) / q_zero(mu, mu))^P / prod_j c_j(mu).  The per-port
weights use the phase-averaged gain q_avg where sifting keeps matched
phases (the count matrix's zero-phase gain q_zero), and they leave out
the port-selection factor c_j of the count matrix
(``matching._correction_factors``).

``_phase_error_rows`` evaluates the exact phase error for a batch of
ladders (one row each) from their count matrices, over one channel or
one channel per row, and owns its input rule: a row that breaks the
ladder rule (``model._ladder_rows``) has a ConfigError cause, and one
without a sifted signal count an EstimationError cause.
``phase_error_exact(config, channel, sec)`` is a one-row call of it on
the cached count matrix of ``config`` (``matching._count_matrix``) and
its sifted signal count, and raises what its row's cause names.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .matching import _count_matrix, sifted_coincidences
from .model import ChannelParams, ConfigError, EstimationError, SecurityParams, SourceConfig
from .model import _CONFIG, _ESTIMATION, _LADDER_ERROR, _NO_SIGNAL_ERROR, _ladder_rows
from .channel import total_efficiency
from .special_math import _i0_minus_one_rule

__all__ = ["phase_error_exact"]


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
    """sum_n s_n / s_mu and sum_n (-1)^n s_n / s_mu per row, s_mu the row's sifted signal count.

    Row r has the count matrix ``counts[r]``, signal intensity ``mu[r]``
    and signal probability ``p_mu[r]``; ``eta_t`` and ``p_d`` are the
    channel's total efficiency and dark-count rate, scalars or one per row.
    The photon-number terms are

        s_n = M n_min / 2 * mu^n [x^n] prod_j (e^(-2 mu) p_mu^2 g_M W(x) / n_j),

    with n_j port j's slice-set total, and s_mu = M n_min / 2 * prod_j
    n_mu_j / n_j (``matching._sifted_rows``), n_mu_j = ``counts[r, j, 0]``
    port j's signal count.  The two share M n_min / 2 and the n_j, so the
    ratios are the product over ports of each port's factor at x = mu and
    x = -mu divided by n_mu_j; a row with an empty signal count has no
    s_mu, and meaningless ratios.  With u = eta_t mu,

        e^(-2 mu) W(mu) = 2 (1-p_d) e^(-2u) A,        A = p_d + expm1(u) + e^u (I0(u) - 1),
        e^(-2 mu) W(-mu) = 2 (1-p_d) e^(2u - 4 mu) B,  B = p_d + expm1(-u) + e^-u (I0(u) - 1),

    which keep the digits that e^(+-u) I0(u) - 1, written as it reads,
    loses where u is small.  Each port's factor is divided by its signal
    count before the product over ports, so N_bins^P does not overflow.
    The all-parity ratio is not 1 (see the module docstring).
    """
    u = eta_t * mu
    i0_minus_one = _i0_minus_one_rule(u)
    port = (8.0 * data_size / phase_slices**2) * (1.0 - p_d) * p_mu * p_mu
    plus = port * np.exp(-2.0 * u) * (p_d + np.expm1(u) + np.exp(u) * i0_minus_one)
    minus = port * np.exp(2.0 * u - 4.0 * mu) * (p_d + np.expm1(-u) + np.exp(-u) * i0_minus_one)
    per_port = 1.0 / np.where(counts[..., 0] > 0.0, counts[..., 0], 1.0)  # each port's signal count
    return tuple(np.multiply.reduce(side[:, None] * per_port, axis=-1) for side in (plus, minus))


def _phase_error_rows(
    counts: np.ndarray,
    ks: np.ndarray,
    probs: np.ndarray,
    s_mu: np.ndarray,
    num_users: int,
    phase_slices: int,
    eta_t,
    p_d,
    data_size: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact phase error per row, and its cause code (``model.INFEASIBLE``).

    Row r is the ladder ``ks[r]`` (signal first) sent with probabilities
    ``probs[r]``, with the count matrix ``counts[r]`` and the sifted
    signal count ``s_mu[r]``.  The phase error is the complement of the
    "good parity" share of the signal coincidences (even total photon
    number for odd N, odd for even N), [sum_n s_n +- sum_n (-1)^n s_n] /
    (2 s_mu).  A row that fails the ladder rule (``model._ladder_rows``)
    gets a ConfigError cause, and another without a signal count an
    EstimationError cause; the phase error of such a row is meaningless.
    ``eta_t`` and ``p_d`` are scalars or one channel per row.
    """
    cause = np.where(_ladder_rows(ks, probs), (s_mu <= 0.0) * np.int8(_ESTIMATION), np.int8(_CONFIG))
    total, alternating = _parity_sums(counts, ks[:, 0], probs[:, 0], phase_slices, eta_t, p_d, data_size)
    good = 0.5 * (total - alternating if num_users % 2 == 0 else total + alternating)
    return np.minimum(np.maximum(1.0 - good, 0.0), 1.0), cause


def phase_error_exact(config: SourceConfig, channel: ChannelParams, sec: SecurityParams) -> float:
    """Exact phase error rate from the photon-number decomposition; one row of ``_phase_error_rows``.

    Raises where that row has a cause: ConfigError for a ladder that fails
    the ladder rule, before EstimationError for one without a signal count.
    """
    s_mu = sifted_coincidences(config.signal_intensity, config, channel, sec)
    phi, cause = _phase_error_rows(
        _count_matrix(config, channel, sec.data_size)[None], np.array([config.intensities]),
        np.array([config.send_probabilities]), np.array([s_mu]), config.num_users, config.phase_slices,
        total_efficiency(channel), channel.dark_count_rate, sec.data_size,
    )
    if cause[0] == _CONFIG:
        raise ConfigError(_LADDER_ERROR)
    if cause[0]:
        raise EstimationError(_NO_SIGNAL_ERROR)
    return float(phi[0])
