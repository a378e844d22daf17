"""Expected post-measurement coincidence-matching statistics.

These are the analytic means of the counting process: how many successful
time bins survive click filtering per (intensity, port, phase slice), and
how many full coincidences the slice-wise matcher produces per intensity.
Integer realizations of the same process live in the Monte Carlo module.

The retained-click formula averages over the intensity choices of the
users not attached to the announced port and corrects for the 1/(l+1)
chance that the relay picks the announced port when l other ports also
succeeded in the same time bin.  With 1/(l+1) = int_0^1 t^l dt the
inclusion-exclusion sum over subsets of the other ports becomes
int_0^1 prod_v (1 - t q_v) dt, and its mixture average factorizes along
the user chain: a product of (S x S) transfer matrices
A(t)[a, b] = 1 - t q_avg[a, b] weighted by the send probabilities, left
of the announced port and right of it.  The integrand is a polynomial of
degree N-2 in t, so an N//2-node Gauss-Legendre rule integrates it
exactly.  Cost is polynomial in the number of users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import adjacent_bit_error, gain_fixed_phase, marginal_error, total_efficiency
from .model import ChannelParams, CoincidenceStats, SecurityParams, SourceConfig
from .special_math import bessel_i0

__all__ = [
    "retained_clicks",
    "slice_total",
    "sifted_coincidences",
    "expected_stats",
]


@dataclass(frozen=True, eq=False)
class _GainTable:
    """Per-configuration cache of the gains entering the matching sums."""

    settings: tuple[float, ...]
    probs: np.ndarray
    q_avg: np.ndarray  # phase-averaged, indexed by setting pair
    q_zero: np.ndarray  # matched intensities, zero phase difference


@lru_cache(maxsize=256)
def _gain_table(config: SourceConfig, channel: ChannelParams) -> _GainTable:
    eta_t = total_efficiency(channel)
    p_d = channel.dark_count_rate
    ks = np.asarray(config.intensities, dtype=float)
    y = (1.0 - p_d) * np.exp(-0.5 * eta_t * (ks[:, None] + ks[None, :]))
    q_avg = 2.0 * y * bessel_i0(eta_t * np.sqrt(np.outer(ks, ks))) - 2.0 * y * y
    q_zero = np.array([gain_fixed_phase(k, k, 0.0, eta_t, p_d) for k in ks])
    return _GainTable(
        settings=config.intensities,
        probs=np.asarray(config.send_probabilities, dtype=float),
        q_avg=q_avg,
        q_zero=q_zero,
    )


def _setting_index(config: SourceConfig, k: float) -> int:
    try:
        return config.intensities.index(k)
    except ValueError:
        raise ValueError(f"intensity {k!r} is not one of the configured settings") from None


@lru_cache(maxsize=None)
def _unit_gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], exact to degree 2n-1."""
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _correction_factors(table: _GainTable, num_users: int) -> np.ndarray:
    """Mixture-averaged port-selection factor, indexed [port-1][setting].

    Port v interferes users v and v+1.  For port j, users j and j+1 are
    pinned to setting k and the others are averaged with their send
    probabilities.  ``chains[n]`` is the average of prod (1 - t q_v) over
    a chain of n ports ending at a pinned user, per node and end setting;
    the ports left of j form a chain of length j-1 and, since q_avg is
    symmetric, those right of j one of length N-1-j.
    """
    t, w = _unit_gauss_legendre(num_users // 2)
    transfer = table.probs[None, :, None] * (1.0 - t[:, None, None] * table.q_avg)
    chains = [np.ones((len(t), len(table.settings)))]
    for _ in range(num_users - 2):
        chains.append(np.einsum("na,nab->nb", chains[-1], transfer))
    chains = np.asarray(chains)
    return np.einsum("pnk,pnk,n->pk", chains, chains[::-1], w)


@lru_cache(maxsize=256)
def _count_matrix(
    config: SourceConfig, channel: ChannelParams, data_size: float
) -> tuple[tuple[float, ...], ...]:
    """Expected per-slice retained clicks, indexed [port-1][setting]."""
    table = _gain_table(config, channel)
    m_slices = config.phase_slices
    prefactor = 4.0 * data_size * table.probs * table.probs * table.q_zero / (m_slices * m_slices)
    counts = prefactor * _correction_factors(table, config.num_users)
    return tuple(tuple(row) for row in counts.tolist())


def retained_clicks(
    k: float, j: int, config: SourceConfig, channel: ChannelParams, sec: SecurityParams
) -> float:
    """Expected retained successful bins for click (k|k) at port j, per slice.

    The value is independent of the slice index m, so no m argument is
    taken; multiply by phase_slices/2 for the total over slices.
    """
    if not 1 <= j <= config.num_ports:
        raise ValueError(f"port index {j} outside 1..{config.num_ports}")
    return _count_matrix(config, channel, sec.data_size)[j - 1][_setting_index(config, k)]


def slice_total(j: int, config: SourceConfig, channel: ChannelParams, sec: SecurityParams) -> float:
    """Expected size of one slice set at port j: sum of retained clicks over k."""
    if not 1 <= j <= config.num_ports:
        raise ValueError(f"port index {j} outside 1..{config.num_ports}")
    return math.fsum(_count_matrix(config, channel, sec.data_size)[j - 1])


def _sifted_from_matrix(
    counts: tuple[tuple[float, ...], ...], k_idx: int, m_slices: int
) -> float:
    """Matcher mean: (M/2) * n_min * prod_j (n_k_j / n_j); counts[j][k]."""
    totals = [math.fsum(row) for row in counts]
    if any(t <= 0.0 for t in totals):
        return 0.0
    n_min = min(totals)
    product = 1.0
    for row, t in zip(counts, totals):
        product *= row[k_idx] / t
    return 0.5 * m_slices * n_min * product


def sifted_coincidences(
    k: float, config: SourceConfig, channel: ChannelParams, sec: SecurityParams
) -> float:
    """Expected matched coincidences with common intensity k, all slices.

    s_k = (M/2) * n_min * prod_j (n_(k|k)_j / n_j) over the per-slice counts;
    zero whenever some port's slice set is empty.
    """
    k_idx = _setting_index(config, k)
    counts = _count_matrix(config, channel, sec.data_size)
    return _sifted_from_matrix(counts, k_idx, config.phase_slices)


def expected_stats(
    config: SourceConfig, channel: ChannelParams, sec: SecurityParams
) -> CoincidenceStats:
    """Assemble the full analytic statistics bundle for one working point."""
    counts = _count_matrix(config, channel, sec.data_size)
    settings = config.intensities
    half = config.phase_slices // 2
    retained = {
        (settings[k_idx], j + 1, m): counts[j][k_idx]
        for j in range(config.num_ports)
        for k_idx in range(len(settings))
        for m in range(half)
    }
    slice_totals = {
        (j + 1, m): math.fsum(counts[j]) for j in range(config.num_ports) for m in range(half)
    }
    sifted = {
        settings[k_idx]: _sifted_from_matrix(counts, k_idx, config.phase_slices)
        for k_idx in range(len(settings))
    }
    e_adj = adjacent_bit_error(
        config.signal_intensity, total_efficiency(channel), channel.dark_count_rate
    )
    marginals = tuple(marginal_error(e_adj, j) for j in range(2, config.num_users + 1))
    return CoincidenceStats(
        retained_clicks=retained,
        slice_totals=slice_totals,
        sifted=sifted,
        adjacent_error=e_adj,
        marginal_errors=marginals,
    )
