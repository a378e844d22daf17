"""Subset enumeration of the matching sums, kept as a test oracle.

This is the inclusion-exclusion sum that ``mfqcka.matching`` once
evaluated directly: every setting assignment of the spectator users times
every subset of their ports, exponential in the number of users.  The
package now evaluates the same sum as a transfer-matrix chain integrated
over t; the tests compare the two.
"""

import itertools

import numpy as np

from mfqcka.matching import _GainTable, _gain_table
from mfqcka.model import ChannelParams, SourceConfig


def correction_sum(table: _GainTable, k_idx: int, j: int, num_users: int) -> float:
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


def _retained(table: _GainTable, k_idx: int, j: int, config: SourceConfig, data_size: float) -> float:
    m_slices = config.phase_slices
    p_k = float(table.probs[k_idx])
    if p_k == 0.0:
        return 0.0
    prefactor = 4.0 * data_size * p_k * p_k * table.q_zero[k_idx] / (m_slices * m_slices)
    return prefactor * correction_sum(table, k_idx, j, config.num_users)


def count_matrix(
    config: SourceConfig, channel: ChannelParams, data_size: float
) -> tuple[tuple[float, ...], ...]:
    """Expected per-slice retained clicks, indexed [port-1][setting]."""
    table = _gain_table(config, channel)
    return tuple(
        tuple(_retained(table, k_idx, j, config, data_size) for k_idx in range(len(table.settings)))
        for j in range(1, config.num_users)
    )
