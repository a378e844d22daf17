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

The per-port photon-number weights are the Taylor coefficients of a
generating function.  Binomial thinning of the Poisson-weighted photon
numbers,

    sum_l C(l, f) eta^f (1-eta)^(l-f) x^l / l! = (eta x)^f / f! e^((1-eta) x),

and sum_f C(n, f)^2 = C(2n, n) reduce the sums over emitted and
surviving photons of both users to one convolution,

    w[m] = sum_{n+k=m} h[n] eta^n (2 (1-eta))^k / k!,
    h[0] = 2 p_d (1-p_d),  h[n] = 2 (1-p_d) C(2n, n) / (2^n n!)  (n >= 1),

which costs O(n_max^2) per channel instead of the O(n_max^5) of the
nested loops (see ``_port_weight_sequence``).

``_phase_error_rows`` evaluates the exact phase error for a batch of
ladders (one row each) from their count matrices; the scalar entry
points are one-row calls of it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .matching import _count_matrix, _port_totals, sifted_coincidences
from .model import INFEASIBLE, ChannelParams, EstimationError, SecurityParams, SourceConfig
from .channel import total_efficiency

__all__ = ["signal_coincidences_nphoton", "phase_error_exact"]

_ESTIMATION = INFEASIBLE.index(EstimationError)


@lru_cache(maxsize=32)
def _port_weight_sequence(eta_t: float, p_d: float, n_max: int) -> tuple[float, ...]:
    """w[m] = sum_l Y(l, m-l) / (l! (m-l)!), the per-port photon-number weight.

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
    costs O(n_max^2) per channel.  h and (2 (1-eta))^k / k! are built by
    their term ratios (h[n+1] / h[n] = (2n+1) / (n+1)^2 for n >= 1), so no
    factorial is converted to a float.
    """
    survivors = [2.0 * p_d * (1.0 - p_d)]
    spread = [1.0]
    h = 2.0 * (1.0 - p_d)
    loss = 2.0 * (1.0 - eta_t)
    for n in range(1, n_max + 1):
        survivors.append(h * eta_t**n)
        h *= (2 * n + 1) / (n + 1) ** 2
        spread.append(spread[-1] * loss / n)
    return tuple(np.convolve(survivors, spread)[: n_max + 1].tolist())


@lru_cache(maxsize=32)
def _composition_sums(
    num_ports: int, phase_slices: int, channel: ChannelParams, data_size: float, n_max: int
) -> np.ndarray:
    """(N-1)-fold convolution of the per-port factor (4 N_bins / M^2) w[m].

    It does not depend on the intensity ladder, so one read-only array
    serves every row of a batch.
    """
    eta_t = total_efficiency(channel)
    scale = 4.0 * data_size / phase_slices**2
    g = scale * np.asarray(_port_weight_sequence(eta_t, channel.dark_count_rate, n_max))
    conv = g.copy()
    for _ in range(num_ports - 1):
        conv = np.convolve(conv, g)
    conv = conv[: n_max + 1].copy()
    conv.flags.writeable = False
    return conv


@lru_cache(maxsize=None)
def _powers(n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1, dtype=float)
    n.flags.writeable = False
    return n


def _nphoton_rows(
    counts: np.ndarray,
    mu: np.ndarray,
    p_mu: np.ndarray,
    num_users: int,
    phase_slices: int,
    channel: ChannelParams,
    data_size: float,
    n_max: int,
) -> np.ndarray:
    """s_n for n = 0..n_max, indexed [row, n]; all zero in a row whose count matrix has an empty port.

    Row r has the count matrix ``counts[r]``, signal intensity ``mu[r]``
    and signal probability ``p_mu[r]``:
    s_n = M n_min e^(-2 P mu) p_mu^(2P) / (2 prod totals) mu^n w_P[n].
    """
    totals, n_min = _port_totals(counts)
    ports = num_users - 1
    filled = n_min > 0.0
    scale = (
        phase_slices * n_min * np.exp(-2.0 * ports * mu) * p_mu ** (2 * ports)
        / np.where(filled, 2.0 * totals.prod(axis=-1), 1.0)
    )
    comp = _composition_sums(ports, phase_slices, channel, data_size, n_max)
    return np.where(filled, scale, 0.0)[:, None] * mu[:, None] ** _powers(n_max) * comp


def _phase_error_rows(
    counts: np.ndarray,
    mu: np.ndarray,
    p_mu: np.ndarray,
    s_mu: np.ndarray,
    num_users: int,
    phase_slices: int,
    channel: ChannelParams,
    data_size: float,
    n_max: int = 20,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact phase error per row, and its cause code (``model.INFEASIBLE``).

    ``s_mu`` is each row's sifted signal count; a row without one gets an
    EstimationError cause and a meaningless phase error.
    """
    if n_max < num_users:
        raise ValueError("n_max must be at least the number of users")
    no_signal = s_mu <= 0.0
    good_parity = 1 if num_users % 2 == 0 else 0
    terms = _nphoton_rows(counts, mu, p_mu, num_users, phase_slices, channel, data_size, n_max)
    acc = np.ascontiguousarray(terms[:, good_parity::2]).sum(axis=-1)
    phi = 1.0 - acc / np.where(no_signal, 1.0, s_mu)
    return np.minimum(np.maximum(phi, 0.0), 1.0), no_signal * np.int8(_ESTIMATION)


def _one_row(config: SourceConfig, channel: ChannelParams, data_size: float) -> dict:
    """The arguments that describe one configuration to the row functions."""
    return dict(
        counts=np.array([_count_matrix(config, channel, data_size)]),
        mu=np.array([config.signal_intensity]),
        p_mu=np.array([config.send_probabilities[0]]),
        num_users=config.num_users,
        phase_slices=config.phase_slices,
        channel=channel,
        data_size=data_size,
    )


def signal_coincidences_nphoton(
    n: int, config: SourceConfig, channel: ChannelParams, sec: SecurityParams, n_max: int = 20
) -> float:
    """Expected signal coincidences fed by exactly n emitted photons in total.

    Sums over all ways of distributing the n photons across the N-1
    matched port pairs, each pair weighted by its Poissonian emission
    probability and first-order click yield, then rescales by the same
    matcher ratio as the sifted-count formula.
    """
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    row = _one_row(config, channel, sec.data_size)
    return float(_nphoton_rows(**row, n_max=max(n_max, n))[0, n])


def phase_error_exact(
    config: SourceConfig, channel: ChannelParams, sec: SecurityParams, n_max: int = 20
) -> float:
    """Exact phase error rate from the photon-number decomposition.

    Complements the partial sum of the "good parity" contributions (even
    total photon number for odd N, odd for even N), so truncating the sum
    at n_max can only increase the returned value and the upper-bound
    property survives truncation.  One row of ``_phase_error_rows``.
    """
    s_mu = sifted_coincidences(config.signal_intensity, config, channel, sec)
    if s_mu <= 0.0:
        raise EstimationError("no sifted signal coincidences; phase error undefined")
    row = _one_row(config, channel, sec.data_size)
    phi, _ = _phase_error_rows(**row, s_mu=np.array([s_mu]), n_max=n_max)
    return float(phi[0])
