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
infeasibility cause per row.  ``finite_rate`` and ``asymptotic_rate`` are
one report builder, ``_report``, that rates one configuration and keeps
every intermediate.  It reads each layer once: the cached count matrix
(``matching._count_matrix``), every setting's sifted count from one
``matching._sifted_rows`` call, the mode's phase-error estimate, and last
the bit errors (``channel.error_terms``, one row of the ``error_rows``
that the kernel uses), so that a configuration raises the error its
kernel cause names.  ``rate_report`` picks one of the two by mode.  Both
paths take the data size and the finite correction from ``_scale``, so a
row's value is the same either way.  ``_check_mode`` alone decides which
modes exist for how many users: the kernel and the builder call it, and
an unsupported pair raises before any layer runs.
"""

from __future__ import annotations

import math

import numpy as np

from . import decoy, matching, photonstats
from .channel import arm_transmittance, error_rows, error_terms, total_efficiency
from .model import (
    INFEASIBLE,
    ChannelParams,
    ConfigError,
    DegenerateChannelError,
    RateReport,
    SecurityParams,
    SourceConfig,
)
from .special_math import I0_NODES, _entropy

__all__ = ["asymptotic_rate", "finite_rate", "multicast_bound", "rate_report", "rate_rows", "MODES"]


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


def _scale(num_users: int, sec: SecurityParams, mode: str) -> tuple[float, float]:
    """(n_bins, correction) of ``_assemble``: the data size and the error-correction
    and privacy-amplification cost per time bin for ``finite``, (1, 0) asymptotically."""
    if mode != "finite":
        return 1.0, 0.0
    correction = (
        math.log2(2.0 * (num_users - 1) / sec.eps_ec) + 2.0 * math.log2(1.0 / (2.0 * sec.eps_pa))
    ) / sec.data_size
    return sec.data_size, correction


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


_DECOY_ASYMPTOTIC = {
    3: decoy.bounds_3user_asymptotic,
    4: decoy.bounds_4user_asymptotic,
    5: decoy.bounds_5user_asymptotic,
}

MODES = ("finite", "asymptotic-decoy", "asymptotic-exact")


def _check_mode(num_users: int, mode: str) -> None:
    """Raise unless ``mode`` has a phase-error estimate for ``num_users`` users.

    The one place that knows which (users, mode) pairs are rated: a mode
    outside MODES is a ValueError, a user count the mode has no estimate
    for a ConfigError.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "finite" and num_users != 3:
        raise ConfigError("finite-size decoy bounds are available for 3 users only")
    if mode == "asymptotic-decoy" and num_users not in _DECOY_ASYMPTOTIC:
        raise ConfigError(f"decoy-state bounds are available for 3-5 users, not {num_users}")


# Rows per kernel pass are chosen so that the (rows, pairs, I0_NODES) temporary
# of the Bessel quadrature in the gain table, one I0 argument per distinct
# setting pair, stays within this size.
_CHUNK_BYTES = 1 << 18


def _chunk_rows(settings: int) -> int:
    pairs = settings * (settings + 1) // 2
    return max(1, _CHUNK_BYTES // (pairs * I0_NODES * 8))


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
    users and phase slices, and ``mode`` is one of MODES; a mode without
    an estimate for that many users raises (``_check_mode``) before any
    row is rated.  The asymptotic modes take only ``ec_efficiency`` from
    ``sec``.  ``cause[r]`` is the
    code (``model.INFEASIBLE``) of the error that ``finite_rate`` or
    ``asymptotic_rate`` raises for row r alone, 0 where they return; then
    ``key_rate_raw[r]`` is their value bit for bit, whatever the other
    rows are.  Rows are evaluated in chunks of ``_chunk_rows`` to bound
    the memory of the gain table.
    """
    _check_mode(config.num_users, mode)
    rows, settings = ints.shape
    raw = np.full(rows, np.nan)
    cause = np.zeros(rows, dtype=np.int8)
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
    n_bins, correction = _scale(n, sec, mode)
    mu, p_mu = ks[:, 0].copy(), probs[:, 0].copy()
    counts = matching._count_rows(ks, probs, n, m_slices, channel, n_bins)
    sifted = matching._sifted_rows(counts, m_slices)
    s_mu = sifted[:, 0].copy()
    if mode == "asymptotic-exact":
        phase, cause = photonstats._phase_error_rows(
            counts, mu, p_mu, s_mu, n, m_slices, channel, n_bins
        )
    else:
        eps = sec.eps_chernoff if mode == "finite" else None
        bounds = decoy._decoy_rows(ks, probs, sifted, n, eps)
        phase, cause = bounds.phase_error, bounds.cause
    errors = error_rows(mu, n, total_efficiency(channel), channel.dark_count_rate)
    degenerate = (cause == 0) & errors.degenerate
    cause[degenerate] = INFEASIBLE.index(DegenerateChannelError)
    worst_entropy = _entropy(errors.marginals).max(axis=1)
    raw = _assemble(s_mu, phase, worst_entropy, sec.ec_efficiency, n_bins, correction)
    return raw, cause


def _report(config: SourceConfig, channel: ChannelParams, sec: SecurityParams, mode: str) -> RateReport:
    """The rate report of one configuration: the body of ``finite_rate`` and ``asymptotic_rate``."""
    _check_mode(config.num_users, mode)
    counts = np.array([matching._count_matrix(config, channel, sec.data_size)])
    sifted_row = matching._sifted_rows(counts, config.phase_slices)[0]
    sifted = dict(zip(config.intensities, sifted_row.tolist()))
    s_mu = sifted[config.signal_intensity]
    bounds: dict[int, float] = {}
    applications = 0
    if mode == "asymptotic-exact":
        phase_err = photonstats.phase_error_exact(config, channel, sec)
    else:
        probs = dict(zip(config.intensities, config.send_probabilities))
        obs = decoy.ObservedCounts(sifted=sifted, probabilities=probs, num_users=config.num_users)
        if mode == "finite":
            db = decoy.bounds_3user_finite(obs, sec)
        else:
            db = _DECOY_ASYMPTOTIC[config.num_users](obs)
        phase_err, bounds = db.phase_error_upper, dict(db.s_mu_n_lower)
        applications = db.chernoff_applications
    e_adj, marginals, worst, worst_h = error_terms(
        config.signal_intensity, config.num_users, total_efficiency(channel), channel.dark_count_rate
    )
    n_bins, correction = _scale(config.num_users, sec, mode)
    raw = float(_assemble(
        np.array([s_mu]), np.array([phase_err]), np.array([worst_h]), sec.ec_efficiency, n_bins, correction
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
        data_size=n_bins,
        mode=mode,
        marginal_errors=marginals,
        sifted=sifted,
        s_mu_n_lower=bounds,
        correction_bits=correction,
        chernoff_applications=applications,
        failure_budget=applications * sec.eps_chernoff,
    )


def asymptotic_rate(
    config: SourceConfig,
    channel: ChannelParams,
    mode: str = "decoy",
    ec_efficiency: float = SecurityParams.ec_efficiency,
) -> RateReport:
    """Asymptotic key rate per time bin.

    ``mode="exact"`` takes the phase error from the photon-number
    decomposition (infinite decoy settings); ``mode="decoy"`` uses the
    finite decoy-state lower bounds for the configured number of users.
    Each layer is a one-row call of the array kernel, so the result equals
    the matching row of ``rate_rows``.
    """
    sec = SecurityParams(data_size=1.0, ec_efficiency=ec_efficiency)
    return _report(config, channel, sec, f"asymptotic-{mode}")


def finite_rate(config: SourceConfig, channel: ChannelParams, sec: SecurityParams) -> RateReport:
    """Finite-size key rate per time bin with Chernoff-corrected decoy bounds.

    Only the three-user protocol has a finite-size decoy analysis; other
    user counts raise ConfigError.  Each layer is a one-row call of the
    array kernel, so the result equals the matching row of ``rate_rows``.
    """
    return _report(config, channel, sec, "finite")


def rate_report(
    config: SourceConfig, channel: ChannelParams, sec: SecurityParams, mode: str
) -> RateReport:
    """The full rate report of one configuration under ``mode``, one of MODES.

    ``finite`` is ``finite_rate``; the asymptotic modes are
    ``asymptotic_rate`` with their estimator and ``sec.ec_efficiency``.
    A mode outside MODES raises ValueError, and a user count that the
    mode has no phase-error estimate for raises ConfigError.
    """
    _check_mode(config.num_users, mode)
    if mode == "finite":
        return finite_rate(config, channel, sec)
    return asymptotic_rate(
        config, channel, mode=mode.removeprefix("asymptotic-"), ec_efficiency=sec.ec_efficiency
    )
