"""Conference key-rate assembly and the repeaterless multicast benchmark.

The finite-size rate per emitted time bin is

    R = (s_mu / N) [1 - H2(phi) - f max_j H2(E_1j)]
        - (1/N) log2(2 (N_users - 1) / eps_EC) - (2/N) log2(1 / (2 eps_PA)),

with the asymptotic rate keeping only the bracket times the coincidence
efficiency Q_mu = s_mu / N.  Because post-measurement matching has no
notion of a "total sent match number", Q_mu is an efficiency of producing
coincidences per time bin rather than a gain or yield.

Reported rates are clamped at zero but the raw value is retained so
optimizers keep a usable objective in the negative-rate region.
"""

from __future__ import annotations

import math

from . import decoy, matching, photonstats
from .channel import adjacent_bit_error, arm_transmittance, marginal_error, total_efficiency
from .model import (
    ChannelParams,
    ConfigError,
    RateReport,
    SecurityParams,
    SourceConfig,
)
from .special_math import binary_entropy

__all__ = ["asymptotic_rate", "finite_rate", "multicast_bound"]


def multicast_bound(channel: ChannelParams) -> float:
    """Single-message multicast capacity of the relayless star network.

    -log2(1 - eta^2) with eta the one-arm transmittance; independent of
    the number of users.  Unbounded (inf) at zero distance, or wherever
    the fiber loss rounds to nothing.
    """
    eta = arm_transmittance(channel)
    if eta >= 1.0:
        return math.inf
    return -math.log1p(-eta * eta) / math.log(2.0)


def _privacy_entropy(phase_error: float) -> float:
    """Entropy sacrificed to privacy amplification; saturates at phi >= 1/2.

    Beyond 1/2 the adversary's information is maximal, so the full bit is
    consumed; without saturation the symmetry of H2 would spuriously
    revive the rate as phi approaches 1.
    """
    if phase_error >= 0.5:
        return 1.0
    return binary_entropy(phase_error)


def _error_terms(config: SourceConfig, channel: ChannelParams) -> tuple[float, tuple[float, ...], float, float]:
    e_adj = adjacent_bit_error(
        config.signal_intensity, total_efficiency(channel), channel.dark_count_rate
    )
    marginals = tuple(marginal_error(e_adj, j) for j in range(2, config.num_users + 1))
    entropies = [binary_entropy(min(e, 1.0)) for e in marginals]
    worst_idx = max(range(len(entropies)), key=entropies.__getitem__)
    return e_adj, marginals, marginals[worst_idx], entropies[worst_idx]


def _observed_from_expected(
    config: SourceConfig, channel: ChannelParams, sec: SecurityParams
) -> decoy.ObservedCounts:
    sifted = {
        k: matching.sifted_coincidences(k, config, channel, sec) for k in config.intensities
    }
    probs = dict(zip(config.intensities, config.send_probabilities))
    return decoy.ObservedCounts(sifted=sifted, probabilities=probs, num_users=config.num_users)


_DECOY_ASYMPTOTIC = {
    3: decoy.bounds_3user_asymptotic,
    4: decoy.bounds_4user_asymptotic,
    5: decoy.bounds_5user_asymptotic,
}


def asymptotic_rate(
    config: SourceConfig,
    channel: ChannelParams,
    mode: str = "decoy",
    ec_efficiency: float = 1.1,
) -> RateReport:
    """Asymptotic key rate per time bin.

    ``mode="exact"`` takes the phase error from the photon-number
    decomposition (infinite decoy settings); ``mode="decoy"`` uses the
    finite decoy-state lower bounds for the configured number of users.
    """
    if mode not in ("exact", "decoy"):
        raise ValueError("mode must be 'exact' or 'decoy'")
    sec = SecurityParams(data_size=1.0, ec_efficiency=ec_efficiency)
    obs = _observed_from_expected(config, channel, sec)
    s_mu = obs.sifted[config.signal_intensity]
    if mode == "exact":
        phase_err = photonstats.phase_error_exact(config, channel, sec)
        bounds: dict[int, float] = {}
    else:
        estimator = _DECOY_ASYMPTOTIC.get(config.num_users)
        if estimator is None:
            raise ConfigError(
                f"decoy-state bounds are available for 3-5 users, not {config.num_users}"
            )
        db = estimator(obs)
        phase_err = db.phase_error_upper
        bounds = dict(db.s_mu_n_lower)
    e_adj, marginals, worst, worst_h = _error_terms(config, channel)
    raw = s_mu * (1.0 - _privacy_entropy(phase_err) - sec.ec_efficiency * worst_h)
    return RateReport(
        key_rate=max(raw, 0.0),
        key_rate_raw=raw,
        multicast_bound=multicast_bound(channel),
        phase_error_upper=phase_err,
        adjacent_error=e_adj,
        worst_marginal_error=worst,
        sifted_signal=s_mu,
        params_used=config,
        distance_km=channel.distance_km,
        data_size=sec.data_size,
        mode=f"asymptotic-{mode}",
        marginal_errors=marginals,
        sifted=dict(obs.sifted),
        s_mu_n_lower=bounds,
    )


def finite_rate(config: SourceConfig, channel: ChannelParams, sec: SecurityParams) -> RateReport:
    """Finite-size key rate per time bin with Chernoff-corrected decoy bounds.

    Only the three-user protocol has a finite-size decoy analysis; other
    user counts raise ConfigError.
    """
    if config.num_users != 3:
        raise ConfigError("finite-size decoy bounds are available for 3 users only")
    obs = _observed_from_expected(config, channel, sec)
    s_mu = obs.sifted[config.signal_intensity]
    db = decoy.bounds_3user_finite(obs, sec)
    e_adj, marginals, worst, worst_h = _error_terms(config, channel)
    n_bins = sec.data_size
    correction = (
        math.log2(2.0 * (config.num_users - 1) / sec.eps_ec)
        + 2.0 * math.log2(1.0 / (2.0 * sec.eps_pa))
    ) / n_bins
    raw = (
        s_mu
        / n_bins
        * (1.0 - _privacy_entropy(db.phase_error_upper) - sec.ec_efficiency * worst_h)
        - correction
    )
    return RateReport(
        key_rate=max(raw, 0.0),
        key_rate_raw=raw,
        multicast_bound=multicast_bound(channel),
        phase_error_upper=db.phase_error_upper,
        adjacent_error=e_adj,
        worst_marginal_error=worst,
        sifted_signal=s_mu,
        params_used=config,
        distance_km=channel.distance_km,
        data_size=n_bins,
        mode="finite",
        marginal_errors=marginals,
        sifted=dict(obs.sifted),
        s_mu_n_lower=dict(db.s_mu_n_lower),
        correction_bits=correction,
        chernoff_applications=db.chernoff_applications,
        failure_budget=db.chernoff_applications * sec.eps_chernoff,
    )
