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

``_rate_chunk`` is the array kernel: it takes a batch of source settings
(one ladder per row) over one channel per row, runs the matching, decoy
or photon-number and error layers on the whole batch, and hands them to
``_rate_layers``, the one assembly of ``key_rate_raw``, which returns
every layer (``RateLayers``) with an infeasibility cause per row.
``_chunks``, the one loop over it, checks the mode once and rates the
rows in chunks of ``_chunk_rows``.  ``rate_rows``, the optimizer's entry
point, rates many ladders over one channel, repeated for every row, and
keeps ``key_rate_raw`` and the cause.  Every ``RateReport`` is built by
``_row_report`` from one row of a ``RateLayers``: ``rate_reports`` rates
one configuration over many channels (a distance scan) and builds each
report from its kernel row, and ``rate_report`` (``finite_rate`` and
``asymptotic_rate``, one body ``_report``) builds the report of one
configuration from a one-row ``RateLayers``.  ``_report`` reads each
layer through its one-row entry point, in the kernel's order: the cached
count matrix (``matching._count_matrix``), the mode's phase-error
estimate, then the bit errors (``channel.error_terms``), so a
configuration raises the error its kernel cause names.  The decoy entry
points read the kernel's ladder format: ``config`` and the sifted row of
that count matrix, as in ``decoy.bounds_3user_finite(config, sifted[0],
sec)``.  The benchmark's tracer (``perfbench/spans.py``) wraps those
entry points by name, which is why ``_report`` does not yet call the
kernel.  Each rule of a rate row has one owner, the layer that reads
what the rule is about.  ``_check_mode`` owns which modes exist for how
many users; ``_chunks`` and ``_report`` call it before any layer runs
(``rate_report`` leaves the check to ``_report``).  The count kernel
(``matching._count_rows``) owns the widths: it reads the ladder and its
send probabilities together, and raises unless both have N+1 entries,
in the first kernel chunk or in the count matrix of ``_report``.  The
phase-error estimators own the values: the ladder rule and the counts
are checked by ``decoy._decoy_rows`` and
``photonstats._phase_error_rows``, whose causes the kernel keeps and
whose one-row entry points raise them.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from . import decoy, matching, photonstats
from .channel import ErrorRows, arm_transmittance, error_rows, error_terms, total_efficiency
from .model import ChannelParams, ConfigError, RateReport, SecurityParams, SourceConfig
from .model import _DEGENERATE
from .special_math import I0_NODES, _entropy

__all__ = [
    "asymptotic_rate",
    "finite_rate",
    "multicast_bound",
    "rate_report",
    "rate_reports",
    "rate_rows",
    "MODES",
]


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


def _scale(num_users: int, sec: SecurityParams, mode: str) -> tuple[float, float]:
    """(n_bins, correction): the data size and the error-correction and
    privacy-amplification cost per time bin for ``finite``, (1, 0) asymptotically."""
    if mode != "finite":
        return 1.0, 0.0
    correction = (
        math.log2(2.0 * (num_users - 1) / sec.eps_ec) + 2.0 * math.log2(1.0 / (2.0 * sec.eps_pa))
    ) / sec.data_size
    return sec.data_size, correction


_DECOY_ASYMPTOTIC = {
    3: decoy.bounds_3user_asymptotic,
    4: decoy.bounds_4user_asymptotic,
    5: decoy.bounds_5user_asymptotic,
}

MODES = ("finite", "asymptotic-decoy", "asymptotic-exact")


def _check_mode(num_users: int, mode: str) -> None:
    """Raise unless ``mode`` rates ``num_users`` users.

    The one place that knows which (users, mode) pairs are rated: a mode
    outside MODES is a ValueError, a user count the mode has no estimate
    for a ConfigError.  The widths of a rate row are the count kernel's
    to check (``matching._count_rows``), and its values the phase-error
    estimator's.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "finite" and num_users != 3:
        raise ConfigError("finite-size decoy bounds are available for 3 users only")
    if mode == "asymptotic-decoy" and num_users not in _DECOY_ASYMPTOTIC:
        raise ConfigError(f"decoy-state bounds are available for 3-5 users, not {num_users}")
    if mode == "asymptotic-exact" and num_users > 20:
        raise ConfigError(f"exact phase errors are available for 3-20 users, not {num_users}")


# Rows per kernel pass are chosen so that a (rows, pairs, I0_NODES) array of
# doubles stays within this size.  The Bessel quadrature of the gain table
# evaluates one I0 - 1 argument per nonzero element, I0_NODES / 2 paired nodes
# each, so its temporary is at most half of it, 128 KB: it skips the S pairs
# with the vacuum, which every ladder of the package holds.  A chunk without a
# vacuum setting (rows that are ConfigErrors, which only tests pass) evaluates
# all S(S+1)/2 pairs, up to (S+1)/(S-1) times that.
_CHUNK_BYTES = 1 << 18


def _chunk_rows(settings: int) -> int:
    pairs = settings * (settings - 1) // 2
    return max(1, _CHUNK_BYTES // (pairs * I0_NODES * 8))


class RateLayers(NamedTuple):
    """Every layer of a batch of rate rows, indexed by row first (see ``_rate_chunk``).

    In a row with a ``cause`` the other fields are meaningless.  The
    exact mode has no decoy bounds: ``s_mu_n_lower`` has no columns
    there, and ``chernoff_applications`` is 0.
    """

    sifted: np.ndarray  # [row, setting], signal first
    phase_error: np.ndarray
    s_mu_n_lower: np.ndarray  # [row, i] for photon number decoy._photon_numbers(N)[i]
    chernoff_applications: np.ndarray
    adjacent_error: np.ndarray
    marginal_errors: np.ndarray  # [row, j - 2] for users j = 2..N
    key_rate_raw: np.ndarray
    cause: np.ndarray


def rate_rows(
    ints: np.ndarray,
    probs: np.ndarray,
    config: SourceConfig,
    channel: ChannelParams,
    sec: SecurityParams,
    mode: str,
) -> tuple[np.ndarray, np.ndarray]:
    """``key_rate_raw`` and an infeasibility cause for every ladder over one channel.

    Row r is the intensity ladder ``ints[r]`` (signal first, vacuum last)
    sent with probabilities ``probs[r]``; ``config`` gives the number of
    users and phase slices, and ``mode`` is one of MODES.  A mode without
    an estimate for that many users raises (``_check_mode``), and ladders
    or send probabilities of other than N+1 entries raise
    (``matching._count_rows``), before any row is rated; an empty batch
    reaches no count kernel, so it returns empty arrays whatever its
    width.  The asymptotic modes take only ``ec_efficiency`` from ``sec``.
    ``cause[r]`` is the code (``model.INFEASIBLE``) of the error that
    ``rate_report`` raises for row r alone, 0 where it returns; then
    ``key_rate_raw[r]`` is its value bit for bit, whatever the other
    rows are.  Each row is read in the order given, never re-sorted.
    """
    rows = len(ints)
    eta_t, p_d = np.full(rows, total_efficiency(channel)), np.full(rows, channel.dark_count_rate)
    raw, cause = np.empty(rows), np.empty(rows, dtype=np.int8)
    for part, layers in _chunks(ints, probs, config, eta_t, p_d, sec, mode):
        raw[part], cause[part] = layers.key_rate_raw, layers.cause
    return raw, cause


def rate_reports(
    config: SourceConfig, channels: Sequence[ChannelParams], sec: SecurityParams, mode: str
) -> Iterator[RateReport]:
    """The rate report of ``config`` over each of ``channels``, in order, from one kernel pass.

    Row r of the kernel is ``config`` over ``channels[r]``, so a distance
    scan is one batch (in chunks of ``_chunk_rows``).  Each report equals
    ``rate_report(config, channels[r], sec, mode)`` field for field, bit
    for bit.  A row with an infeasibility cause is handed to
    ``rate_report`` alone, so the first such row raises the error, and
    the message, that its channel raises alone; the reports before it
    have been yielded by then.  A ladder or send probabilities of other
    than N+1 entries raise in the first kernel chunk, before any report;
    with no channels no row reaches the count kernel, and nothing is
    yielded whatever the widths.
    """
    channels = list(channels)
    ks = np.tile(np.array(config.intensities), (len(channels), 1))
    probs = np.tile(np.array(config.send_probabilities), (len(channels), 1))
    eta_t = np.array([total_efficiency(channel) for channel in channels])
    p_d = np.array([channel.dark_count_rate for channel in channels])
    for part, layers in _chunks(ks, probs, config, eta_t, p_d, sec, mode):
        for r, channel in enumerate(channels[part]):
            if layers.cause[r]:
                yield rate_report(config, channel, sec, mode)
            else:
                yield _row_report(config, channel, sec, mode, layers, r)


def _chunks(
    ks: np.ndarray,
    probs: np.ndarray,
    config: SourceConfig,
    eta_t: np.ndarray,
    p_d: np.ndarray,
    sec: SecurityParams,
    mode: str,
) -> Iterator[tuple[slice, RateLayers]]:
    """Yield (rows, layers) for each ``_chunk_rows`` rows in turn, after ``_check_mode``.

    ``eta_t`` and ``p_d`` hold one channel per row.
    """
    rows, settings = ks.shape
    _check_mode(config.num_users, mode)
    step = _chunk_rows(settings)
    for lo in range(0, rows, step):
        part = slice(lo, lo + step)
        yield part, _rate_chunk(ks[part], probs[part], config, eta_t[part], p_d[part], sec, mode)


def _rate_chunk(
    ks: np.ndarray,
    probs: np.ndarray,
    config: SourceConfig,
    eta_t: np.ndarray,
    p_d: np.ndarray,
    sec: SecurityParams,
    mode: str,
) -> RateLayers:
    """Every layer of rows ``ks``/``probs`` over total efficiency ``eta_t`` and dark-count rate ``p_d``.

    ``eta_t`` and ``p_d`` hold one value per row.
    """
    n, m_slices = config.num_users, config.phase_slices
    n_bins, _ = _scale(n, sec, mode)
    mu = ks[:, 0].copy()  # contiguous: cheaper to operate on
    counts = matching._count_rows(ks, probs, n, m_slices, eta_t, p_d, n_bins)
    sifted = matching._sifted_rows(counts, m_slices)
    if mode == "asymptotic-exact":
        phase, cause = photonstats._phase_error_rows(counts, ks, probs, sifted[:, 0], n, m_slices, eta_t, p_d, n_bins)
        bounds, applications = np.empty((len(ks), 0)), np.zeros(len(ks), dtype=np.int64)
    else:
        eps = sec.eps_chernoff if mode == "finite" else None
        rows = decoy._decoy_rows(ks, probs, sifted, eps)
        phase, cause = rows.phase_error, rows.cause
        bounds, applications = rows.bounds, rows.chernoff_applications
    return _rate_layers(
        n, sec, mode, sifted=sifted, phase_error=phase, s_mu_n_lower=bounds,
        chernoff_applications=applications, errors=error_rows(mu, n, eta_t, p_d), cause=cause,
    )


def _rate_layers(
    num_users: int,
    sec: SecurityParams,
    mode: str,
    *,
    sifted: np.ndarray,
    phase_error: np.ndarray,
    s_mu_n_lower: np.ndarray,
    chernoff_applications: np.ndarray,
    errors: ErrorRows,
    cause: np.ndarray,
) -> RateLayers:
    """The layers of a batch with ``key_rate_raw`` assembled from them: the one rate formula.

    key_rate_raw = (s_mu / n_bins) [1 - H(phi) - f H(E_1N)] - correction, with
    n_bins and the correction from ``_scale``; E_1N is the largest E_1j.  The
    returned cause is ``cause`` with a DegenerateChannelError on every row
    that had none and whose bit errors are degenerate.
    """
    n_bins, correction = _scale(num_users, sec, mode)
    degenerate = (cause == 0) & errors.degenerate
    cause = np.where(degenerate, np.int8(_DEGENERATE), cause)
    # H(phi) and H(E_1N) in one pass.  The entropy sacrificed to privacy
    # amplification saturates at phi >= 1/2: beyond it the adversary's
    # information is maximal, so the full bit is consumed, and without
    # saturation the symmetry of H2 would spuriously revive the rate as phi
    # approaches 1.  A nan phase error stays nan.
    both = np.empty((2, len(phase_error)))
    both[0], both[1] = phase_error, errors.marginals[:, -1]
    privacy, worst = _entropy(both)
    bracket = 1.0 - np.where(phase_error >= 0.5, 1.0, privacy) - sec.ec_efficiency * worst
    raw = sifted[:, 0] / n_bins * bracket - correction
    return RateLayers(
        sifted, phase_error, s_mu_n_lower, chernoff_applications,
        errors.adjacent, errors.marginals, raw, cause,
    )


def _row_report(
    config: SourceConfig, channel: ChannelParams, sec: SecurityParams, mode: str, layers: RateLayers, r: int
) -> RateReport:
    """The ``RateReport`` of row ``r`` of ``layers``, ``config`` over ``channel``; the only builder.

    The worst marginal is E_1N, the last and largest one
    (``channel.marginal_errors``), whose entropy ``_rate_layers`` charged
    to error correction.
    """
    n_bins, correction = _scale(config.num_users, sec, mode)
    orders = decoy._photon_numbers(config.num_users)  # the exact mode has no bound columns
    sifted = layers.sifted[r].tolist()
    marginals = layers.marginal_errors[r]
    raw = float(layers.key_rate_raw[r])
    applications = int(layers.chernoff_applications[r])
    return RateReport(
        key_rate=max(raw, 0.0),
        key_rate_raw=raw,
        multicast_bound=multicast_bound(channel),
        phase_error_upper=float(layers.phase_error[r]),
        adjacent_error=float(layers.adjacent_error[r]),
        worst_marginal_error=float(marginals[-1]),
        sifted_signal=sifted[0],
        params_used=config,
        distance_km=channel.distance_km,
        data_size=n_bins,
        mode=mode,
        marginal_errors=tuple(marginals.tolist()),
        sifted=dict(zip(config.intensities, sifted)),
        s_mu_n_lower=dict(zip(orders, layers.s_mu_n_lower[r].tolist())),
        correction_bits=correction,
        chernoff_applications=applications,
        failure_budget=applications * sec.eps_chernoff,
    )


def _report(config: SourceConfig, channel: ChannelParams, sec: SecurityParams, mode: str) -> RateReport:
    """The rate report of one configuration: the body of ``finite_rate`` and ``asymptotic_rate``.

    Reads each layer once, through its one-row entry point, and builds
    the report from them as the one row of a ``RateLayers``.
    """
    n = config.num_users
    _check_mode(n, mode)
    counts = matching._count_matrix(config, channel, sec.data_size)[None]
    sifted = matching._sifted_rows(counts, config.phase_slices)
    if mode == "asymptotic-exact":
        phase, bounds, applications = photonstats.phase_error_exact(config, channel, sec), {}, 0
    else:
        row = sifted[0]
        db = decoy.bounds_3user_finite(config, row, sec) if mode == "finite" else _DECOY_ASYMPTOTIC[n](config, row)
        phase, bounds, applications = db.phase_error_upper, db.s_mu_n_lower, db.chernoff_applications
    errors = error_terms(config.signal_intensity, n, total_efficiency(channel), channel.dark_count_rate)
    layers = _rate_layers(
        n, sec, mode, sifted=sifted, phase_error=np.array([phase]),
        s_mu_n_lower=np.array([list(bounds.values())]), chernoff_applications=np.array([applications]),
        errors=errors, cause=np.zeros(1, dtype=np.int8),
    )
    return _row_report(config, channel, sec, mode, layers, 0)


def asymptotic_rate(
    config: SourceConfig,
    channel: ChannelParams,
    mode: str = "decoy",
    ec_efficiency: float = SecurityParams._field_defaults["ec_efficiency"],
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
    mode has no phase-error estimate for, or a ladder or a list of send
    probabilities of other than N+1 entries, raises ConfigError.
    """
    if mode == "finite":
        return finite_rate(config, channel, sec)
    if mode in MODES:
        return asymptotic_rate(
            config, channel, mode=mode.removeprefix("asymptotic-"), ec_efficiency=sec.ec_efficiency
        )
    return _report(config, channel, sec, mode)  # raises the ValueError of ``_check_mode``
