"""Scalar rate assembly, kept as a test oracle.

These are the one-configuration error terms and rate formulas that
``mfqcka.keyrate`` evaluated before the array kernel, written with the
math module on the scalar layers of ``matching_oracles``,
``decoy_oracles`` and ``photonstats_oracles``.  They raise where the
package's one-row entry points raise; the tests compare the kernel's
rows and causes against them.
"""

import math

import decoy_oracles
import photonstats_oracles
from matching_oracles import sifted_from_matrix, transfer_count_matrix
from mfqcka.channel import total_efficiency
from mfqcka.model import (
    ChannelParams,
    ConfigError,
    DegenerateChannelError,
    SecurityParams,
    SourceConfig,
)


def entropy(x: float) -> float:
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def privacy_entropy(phase_error: float) -> float:
    return 1.0 if phase_error >= 0.5 else entropy(phase_error)


def marginal(adjacent: float, j: int) -> float:
    return sum(
        math.comb(j - 1, 2 * i + 1) * adjacent ** (2 * i + 1) * (1.0 - adjacent) ** (j - 2 * i - 2)
        for i in range((j - 2) // 2 + 1)
    )


def error_terms(config: SourceConfig, channel: ChannelParams) -> tuple[float, tuple[float, ...], float, float]:
    """(adjacent error, marginals, worst marginal, its entropy)."""
    eta_t, p_d, mu = total_efficiency(channel), channel.dark_count_rate, config.signal_intensity
    denom = math.expm1(2.0 * eta_t * mu) + 2.0 * p_d
    if denom == 0.0:
        raise DegenerateChannelError("no click is possible")
    e_adj = p_d / denom
    marginals = tuple(marginal(e_adj, j) for j in range(2, config.num_users + 1))
    entropies = [entropy(min(e, 1.0)) for e in marginals]
    worst = max(range(len(entropies)), key=entropies.__getitem__)
    return e_adj, marginals, marginals[worst], entropies[worst]


def sifted_counts(config: SourceConfig, channel: ChannelParams, data_size: float) -> list[float]:
    """The sifted counts of every setting of ``config``, in ladder order."""
    counts = transfer_count_matrix(config, channel, data_size)
    return [sifted_from_matrix(counts, i, config.phase_slices) for i in range(len(config.intensities))]


def finite_rate_raw(config: SourceConfig, channel: ChannelParams, sec: SecurityParams) -> float:
    if config.num_users != 3:
        raise ConfigError("finite-size decoy bounds are available for 3 users only")
    sifted = sifted_counts(config, channel, sec.data_size)
    db = decoy_oracles.decoy_bounds(config, sifted, 3, sec.eps_chernoff)
    worst_h = error_terms(config, channel)[3]
    n_bins = sec.data_size
    correction = (
        math.log2(2.0 * (config.num_users - 1) / sec.eps_ec)
        + 2.0 * math.log2(1.0 / (2.0 * sec.eps_pa))
    ) / n_bins
    bracket = 1.0 - privacy_entropy(db.phase_error_upper) - sec.ec_efficiency * worst_h
    return sifted[0] / n_bins * bracket - correction


def asymptotic_rate_raw(
    config: SourceConfig, channel: ChannelParams, mode: str, ec_efficiency: float = 1.1
) -> float:
    sec = SecurityParams(data_size=1.0, ec_efficiency=ec_efficiency)
    sifted = sifted_counts(config, channel, 1.0)
    if mode == "exact":
        phase_error = photonstats_oracles.phase_error_exact(config, channel, sec)
    else:
        if config.num_users not in (3, 4, 5):
            raise ConfigError("decoy-state bounds are available for 3-5 users")
        phase_error = decoy_oracles.decoy_bounds(config, sifted, config.num_users).phase_error_upper
    worst_h = error_terms(config, channel)[3]
    bracket = 1.0 - privacy_entropy(phase_error) - ec_efficiency * worst_h
    return sifted[0] * bracket
