"""Scalar forms of the matching sums, kept as test oracles.

``count_matrix`` is the inclusion-exclusion sum that ``mfqcka.matching``
once evaluated directly: every setting assignment of the spectator users
times every subset of their ports, exponential in the number of users.
It takes its gains from the package, so it checks the sums alone.
``transfer_count_matrix`` and ``sifted_from_matrix`` are the one-ladder
transfer-matrix chain and matcher mean that the package evaluated before
it took a batch axis, with their math-module gains and exactly rounded
sums.  The tests compare the package's array kernel with both.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from mfqcka.channel import total_efficiency
from mfqcka.matching import _gain_rows
from mfqcka.model import ChannelParams, SourceConfig
from mfqcka.special_math import bessel_i0


@dataclass(frozen=True, eq=False)
class GainTable:
    """The gains entering the matching sums for one ladder."""

    settings: tuple[float, ...]
    probs: np.ndarray
    q_avg: np.ndarray  # phase-averaged, indexed by setting pair
    q_zero: np.ndarray  # matched intensities, zero phase difference


def gain_table(config: SourceConfig, channel: ChannelParams) -> GainTable:
    eta_t = total_efficiency(channel)
    p_d = channel.dark_count_rate
    ks = config.intensities

    def vacuum(a: float, b: float) -> float:
        return (1.0 - p_d) * math.exp(-0.5 * eta_t * (a + b))

    q_avg = [
        [2.0 * vacuum(a, b) * bessel_i0(eta_t * math.sqrt(a * b)) - 2.0 * vacuum(a, b) ** 2 for b in ks]
        for a in ks
    ]
    q_zero = []
    for k in ks:
        y, b = vacuum(k, k), eta_t * math.sqrt(k * k)
        q_zero.append(y * (math.exp(b) + math.exp(-b) - 2.0 * y))
    return GainTable(
        settings=ks,
        probs=np.asarray(config.send_probabilities, dtype=float),
        q_avg=np.asarray(q_avg),
        q_zero=np.asarray(q_zero),
    )


def kernel_gain_table(config: SourceConfig, channel: ChannelParams) -> GainTable:
    """The package's own gains for one ladder, so that ``count_matrix`` tests only the sums."""
    q_avg, q_zero = _gain_rows(
        np.array([config.intensities]), total_efficiency(channel), channel.dark_count_rate
    )
    return GainTable(
        settings=config.intensities,
        probs=np.asarray(config.send_probabilities, dtype=float),
        q_avg=q_avg[0],
        q_zero=q_zero[0],
    )


def correction_factors(table: GainTable, num_users: int) -> np.ndarray:
    """Mixture-averaged port-selection factor by the transfer chain, indexed [port-1][setting]."""
    nodes, weights = np.polynomial.legendre.leggauss(num_users // 2)
    t, w = 0.5 * (nodes + 1.0), 0.5 * weights
    transfer = table.probs[None, :, None] * (1.0 - t[:, None, None] * table.q_avg)
    chains = [np.ones((len(t), len(table.settings)))]
    for _ in range(num_users - 2):
        chains.append(np.einsum("na,nab->nb", chains[-1], transfer))
    chains = np.asarray(chains)
    return np.einsum("pnk,pnk,n->pk", chains, chains[::-1], w)


@lru_cache(maxsize=1024)
def transfer_count_matrix(
    config: SourceConfig, channel: ChannelParams, data_size: float
) -> tuple[tuple[float, ...], ...]:
    """Expected per-slice retained clicks by the transfer chain, indexed [port-1][setting]."""
    table = gain_table(config, channel)
    m_slices = config.phase_slices
    prefactor = 4.0 * data_size * table.probs * table.probs * table.q_zero / (m_slices * m_slices)
    counts = prefactor * correction_factors(table, config.num_users)
    return tuple(tuple(row) for row in counts.tolist())


def sifted_from_matrix(counts: tuple[tuple[float, ...], ...], k_idx: int, m_slices: int) -> float:
    """Matcher mean: (M/2) * n_min * prod_j (n_k_j / n_j); counts[j][k]."""
    totals = [math.fsum(row) for row in counts]
    if any(t <= 0.0 for t in totals):
        return 0.0
    product = 1.0
    for row, t in zip(counts, totals):
        product *= row[k_idx] / t
    return 0.5 * m_slices * min(totals) * product


def correction_sum(table: GainTable, k_idx: int, j: int, num_users: int) -> float:
    """Mixture average of the port-selection inclusion-exclusion factor.

    Users j and j+1 are pinned to setting ``k_idx``; the remaining users'
    settings are averaged with their send probabilities.  Port v
    interferes users v and v+1.
    """
    other_users = [u for u in range(1, num_users + 1) if u not in (j, j + 1)]
    other_ports = [v for v in range(1, num_users) if v != j]
    n_settings = len(table.settings)
    grid = np.indices((n_settings,) * len(other_users)).reshape(len(other_users), -1)
    n_assign = grid.shape[1]
    setting = {u: grid[i] for i, u in enumerate(other_users)}
    pinned = np.full(n_assign, k_idx)
    setting[j] = pinned
    setting[j + 1] = pinned
    weights = np.prod(table.probs[grid], axis=0) if other_users else np.ones(1)
    factor = np.ones(n_assign)
    for size in range(1, len(other_ports) + 1):
        sign = (-1.0) ** size / (size + 1.0)
        for subset in itertools.combinations(other_ports, size):
            term = np.ones(n_assign)
            for v in subset:
                term = term * table.q_avg[setting[v], setting[v + 1]]
            factor += sign * term
    return float(weights @ factor)


def _retained(table: GainTable, k_idx: int, j: int, config: SourceConfig, data_size: float) -> float:
    m_slices = config.phase_slices
    p_k = float(table.probs[k_idx])
    if p_k == 0.0:
        return 0.0
    prefactor = 4.0 * data_size * p_k * p_k * table.q_zero[k_idx] / (m_slices * m_slices)
    return prefactor * correction_sum(table, k_idx, j, config.num_users)


def count_matrix(
    config: SourceConfig, channel: ChannelParams, data_size: float
) -> tuple[tuple[float, ...], ...]:
    """Expected per-slice retained clicks by enumeration, indexed [port-1][setting]."""
    table = kernel_gain_table(config, channel)
    return tuple(
        tuple(_retained(table, k_idx, j, config, data_size) for k_idx in range(len(table.settings)))
        for j in range(1, config.num_users)
    )
