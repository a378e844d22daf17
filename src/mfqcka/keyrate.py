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

``rate_rows`` is the array kernel: it takes a batch of source settings
(one ladder per row) and runs the matching, decoy or photon-number, error
and assembly layers on the whole batch, returning ``key_rate_raw`` and an
infeasibility cause per row.  ``finite_rate`` and ``asymptotic_rate``
compose the layers' one-row entry points instead, so their reports keep
every intermediate; a row's value is the same either way.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import decoy, matching, photonstats
from .channel import adjacent_error_rows, arm_transmittance, marginal_errors, total_efficiency
from .model import (
    INFEASIBLE,
    ChannelParams,
    ConfigError,
    DegenerateChannelError,
    RateReport,
    SecurityParams,
    SourceConfig,
)
from .special_math import _entropy

__all__ = ["asymptotic_rate", "finite_rate", "multicast_bound", "rate_rows", "MODES"]


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


def _privacy_entropy(phase_error: np.ndarray) -> np.ndarray:
    """Entropy sacrificed to privacy amplification; saturates at phi >= 1/2.

    Beyond 1/2 the adversary's information is maximal, so the full bit is
    consumed; without saturation the symmetry of H2 would spuriously
    revive the rate as phi approaches 1.  A nan phase error stays nan.
    """
    return np.where(phase_error >= 0.5, 1.0, _entropy(phase_error))


class ErrorRows(NamedTuple):
    """Bit error terms per row; rows flagged ``degenerate`` have no adjacent error."""

    adjacent: np.ndarray
    marginals: np.ndarray  # [row, j - 2] for users j = 2..N
    entropies: np.ndarray  # H2 of the marginals
    degenerate: np.ndarray


def _error_rows(mu: np.ndarray, num_users: int, channel: ChannelParams) -> ErrorRows:
    """Adjacent and marginal bit errors, and the marginals' entropies, per signal intensity."""
    adjacent, degenerate = adjacent_error_rows(
        mu, total_efficiency(channel), channel.dark_count_rate
    )
    adjacent = np.where(degenerate, 0.0, adjacent)
    marginals = marginal_errors(adjacent, num_users)
    return ErrorRows(adjacent, marginals, _entropy(marginals), degenerate)


def _error_terms(config: SourceConfig, channel: ChannelParams) -> tuple[float, tuple[float, ...], float, float]:
    """One row of ``_error_rows``: (adjacent, marginals, worst marginal, its entropy)."""
    rows = _error_rows(np.array([config.signal_intensity]), config.num_users, channel)
    if rows.degenerate[0]:
        raise DegenerateChannelError(
            "successful-click probability underflowed; no-click regime "
            f"(mu={config.signal_intensity!r}, distance_km={channel.distance_km!r})"
        )
    worst = int(rows.entropies[0].argmax())
    return (
        float(rows.adjacent[0]),
        tuple(rows.marginals[0].tolist()),
        float(rows.marginals[0, worst]),
        float(rows.entropies[0, worst]),
    )


def _finite_correction(num_users: int, sec: SecurityParams) -> float:
    """Error-correction and privacy-amplification cost per time bin."""
    return (
        math.log2(2.0 * (num_users - 1) / sec.eps_ec) + 2.0 * math.log2(1.0 / (2.0 * sec.eps_pa))
    ) / sec.data_size


def _assemble(
    s_mu: np.ndarray,
    phase_error: np.ndarray,
    worst_entropy: np.ndarray,
    ec_efficiency: float,
    n_bins: float,
    correction: float,
) -> np.ndarray:
    """(s_mu / n_bins) [1 - H(phi) - f H(E)] - correction; n_bins 1 and no correction asymptotically."""
    bracket = 1.0 - _privacy_entropy(phase_error) - ec_efficiency * worst_entropy
    return s_mu / n_bins * bracket - correction


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

MODES = ("finite", "asymptotic-decoy", "asymptotic-exact")

# Rows per kernel pass are chosen so that the (rows, S, S, 128) temporary of
# the Bessel quadrature in the count matrix stays near this size.
_CHUNK_BYTES = 1 << 18


def _chunk_rows(settings: int) -> int:
    return max(1, _CHUNK_BYTES // (settings * settings * 128 * 8))


def rate_rows(
    ints: np.ndarray,
    probs: np.ndarray,
    config: SourceConfig,
    channel: ChannelParams,
    sec: SecurityParams,
    mode: str,
) -> tuple[np.ndarray, np.ndarray]:
    """``key_rate_raw`` and an infeasibility cause for every row: the array rate kernel.

    Row r is the intensity ladder ``ints[r]`` (signal first, vacuum last)
    sent with probabilities ``probs[r]``; ``config`` gives the number of
    users and phase slices, and ``mode`` is one of MODES.  The asymptotic
    modes take only ``ec_efficiency`` from ``sec``.  ``cause[r]`` is the
    code (``model.INFEASIBLE``) of the error that ``finite_rate`` or
    ``asymptotic_rate`` raises for row r alone, 0 where they return; then
    ``key_rate_raw[r]`` is their value bit for bit, whatever the other
    rows are.  Rows are evaluated in chunks of ``_chunk_rows`` to bound
    the memory of the gain table.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    rows, settings = ints.shape
    raw = np.full(rows, np.nan)
    cause = np.zeros(rows, dtype=np.int8)
    n = config.num_users
    if (mode == "finite" and n != 3) or (mode == "asymptotic-decoy" and n not in _DECOY_ASYMPTOTIC):
        cause[:] = INFEASIBLE.index(ConfigError)
        return raw, cause
    step = _chunk_rows(settings)
    for lo in range(0, rows, step):
        part = slice(lo, lo + step)
        raw[part], cause[part] = _rate_chunk(ints[part], probs[part], config, channel, sec, mode)
    return raw, cause


def _rate_chunk(
    ks: np.ndarray,
    probs: np.ndarray,
    config: SourceConfig,
    channel: ChannelParams,
    sec: SecurityParams,
    mode: str,
) -> tuple[np.ndarray, np.ndarray]:
    n, m_slices = config.num_users, config.phase_slices
    finite = mode == "finite"
    data_size = sec.data_size if finite else 1.0
    mu, p_mu = ks[:, 0].copy(), probs[:, 0].copy()
    counts = matching._count_rows(ks, probs, n, m_slices, channel, data_size)
    sifted = matching._sifted_rows(counts, m_slices)
    s_mu = sifted[:, 0].copy()
    if mode == "asymptotic-exact":
        phase, cause = photonstats._phase_error_rows(
            counts, mu, p_mu, s_mu, n, m_slices, channel, data_size
        )
    else:
        bounds = decoy._decoy_rows(ks, probs, sifted, n, sec.eps_chernoff if finite else None)
        phase, cause = bounds.phase_error, bounds.cause
    errors = _error_rows(mu, n, channel)
    degenerate = (cause == 0) & errors.degenerate
    cause[degenerate] = INFEASIBLE.index(DegenerateChannelError)
    n_bins, correction = (sec.data_size, _finite_correction(n, sec)) if finite else (1.0, 0.0)
    worst_entropy = errors.entropies.max(axis=1)
    raw = _assemble(s_mu, phase, worst_entropy, sec.ec_efficiency, n_bins, correction)
    return raw, cause


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
    Each layer is a one-row call of the array kernel, so the result equals
    the matching row of ``rate_rows``.
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
    raw = float(_assemble(
        np.array([s_mu]), np.array([phase_err]), np.array([worst_h]), sec.ec_efficiency, 1.0, 0.0
    )[0])
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
    user counts raise ConfigError.  Each layer is a one-row call of the
    array kernel, so the result equals the matching row of ``rate_rows``.
    """
    if config.num_users != 3:
        raise ConfigError("finite-size decoy bounds are available for 3 users only")
    obs = _observed_from_expected(config, channel, sec)
    s_mu = obs.sifted[config.signal_intensity]
    db = decoy.bounds_3user_finite(obs, sec)
    e_adj, marginals, worst, worst_h = _error_terms(config, channel)
    n_bins = sec.data_size
    correction = _finite_correction(config.num_users, sec)
    raw = float(_assemble(
        np.array([s_mu]),
        np.array([db.phase_error_upper]),
        np.array([worst_h]),
        sec.ec_efficiency,
        n_bins,
        correction,
    )[0])
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
