"""Scalar photon-number statistics, kept as test oracles.

``port_weight_sequence`` and its helpers are the nested loops that
``mfqcka.photonstats`` once evaluated directly: for every split of m
photons between the two users of a port, the binomial survival of each
user's photons times the click probability of the survivors, roughly
O(n_max^5) per channel.  The package evaluates the same weights from
their generating-function closed form (``_port_weight_sequence``).
``nphoton_terms`` and ``phase_error_exact`` are the photon-number
decomposition that the package once summed term by term up to a
photon-number cutoff, on the scalar count matrix of ``matching_oracles``;
the package now sums each parity in closed form.  The tests compare the
two.
"""

import math
from functools import lru_cache

import numpy as np

from matching_oracles import sifted_from_matrix, transfer_count_matrix
from mfqcka.channel import total_efficiency
from mfqcka.model import ChannelParams, EstimationError, SecurityParams, SourceConfig
from mfqcka.photonstats import _port_weight_sequence

# The default photon-number cutoff.  On the standard and geometric ladders
# (signal 0.2 at most) at 0-350 km the terms past it are below 1e-17 of the
# sum for every N up to 20; a cutoff of 20 leaves 3e-9 of s_mu at N=4.
CUTOFF = 60


def threshold_click_prob(f: int, g: int, p_d: float) -> float:
    """Probability that exactly one detector clicks after interfering f and g photons.

    Photon bunching on the balanced splitter sends all f+g photons out of
    one side with probability (f+g)! / (2^(f+g) f! g!) per side; dark
    counts fill in the vacuum case.
    """
    if f < 0 or g < 0:
        raise ValueError("photon numbers must be nonnegative")
    n = f + g
    if n == 0:
        return 2.0 * p_d * (1.0 - p_d)
    return 2.0 * (1.0 - p_d) * math.comb(n, f) / float(2**n)


def pair_yield(l: int, r: int, eta_t: float, p_d: float) -> float:
    """Successful-click probability when the two users emit l and r photons.

    Binomial survival through the lossy arms followed by the interference
    click probability of the survivors.
    """
    if l < 0 or r < 0:
        raise ValueError("photon numbers must be nonnegative")
    total = 0.0
    for f in range(l + 1):
        wf = math.comb(l, f) * eta_t**f * (1.0 - eta_t) ** (l - f)
        for g in range(r + 1):
            wg = math.comb(r, g) * eta_t**g * (1.0 - eta_t) ** (r - g)
            total += wf * wg * threshold_click_prob(f, g, p_d)
    return total


def port_weight_sequence(eta_t: float, p_d: float, n_max: int) -> tuple[float, ...]:
    """w[m] = sum_l Y(l, m-l) / (l! (m-l)!), the per-port photon-number weight."""
    seq = []
    for m in range(n_max + 1):
        acc = 0.0
        for l in range(m + 1):
            acc += pair_yield(l, m - l, eta_t, p_d) / (
                float(math.factorial(l)) * float(math.factorial(m - l))
            )
        seq.append(acc)
    return tuple(seq)


@lru_cache(maxsize=256)
def composition_sums(
    num_ports: int, phase_slices: int, channel: ChannelParams, data_size: float, n_max: int
) -> tuple[float, ...]:
    """(N-1)-fold convolution of the per-port factor (4 N_bins / M^2) w[m]."""
    eta_t = total_efficiency(channel)
    scale = 4.0 * data_size / phase_slices**2
    g = scale * np.asarray(_port_weight_sequence(eta_t, channel.dark_count_rate, n_max))
    conv = g.copy()
    for _ in range(num_ports - 1):
        conv = np.convolve(conv, g)
    return tuple(conv[: n_max + 1])


def nphoton_terms(
    config: SourceConfig, channel: ChannelParams, sec: SecurityParams, n_max: int = CUTOFF, counts=None
) -> list[float]:
    """s_n for n = 0..n_max; all zero when a row of the count matrix is empty.

    ``counts`` is the count matrix [port][setting], by default the
    transfer chain's; a test passes the package's to compare the
    photon-number sums alone.
    """
    if counts is None:
        counts = transfer_count_matrix(config, channel, sec.data_size)
    totals = [math.fsum(row) for row in counts]
    if any(t <= 0.0 for t in totals):
        return [0.0] * (n_max + 1)
    mu = config.signal_intensity
    ports = config.num_users - 1
    lead = config.phase_slices * min(totals) * math.exp(-2.0 * ports * mu)
    senders = config.send_probabilities[0] ** (2 * ports)
    denom = 2.0 * math.prod(totals)
    comp = composition_sums(ports, config.phase_slices, channel, sec.data_size, n_max)
    return [lead * mu**n * senders / denom * comp[n] for n in range(n_max + 1)]


def phase_error_exact(
    config: SourceConfig, channel: ChannelParams, sec: SecurityParams, n_max: int = CUTOFF
) -> float:
    """Complement of the good-parity share of the signal coincidences."""
    if n_max < config.num_users:
        raise ValueError("n_max must be at least the number of users")
    counts = transfer_count_matrix(config, channel, sec.data_size)
    s_mu = sifted_from_matrix(counts, 0, config.phase_slices)
    if s_mu <= 0.0:
        raise EstimationError("no sifted signal coincidences; phase error undefined")
    good_parity = 1 if config.num_users % 2 == 0 else 0
    terms = nphoton_terms(config, channel, sec, n_max)
    acc = 0.0
    for n in range(good_parity, n_max + 1, 2):
        acc += terms[n]
    return min(max(1.0 - acc / s_mu, 0.0), 1.0)
