"""Per-bin detection sampling of the simulator shard, kept as a test oracle.

This is the shard generator that ``mfqcka.montecarlo`` once ran: it
evaluates ``sqrt``, ``cos`` and ``exp`` for every port and bin and draws
the settings with ``searchsorted``.  The package now looks the click
probabilities up in a per-shard table and consumes the same random
stream; the tests require the two to return identical arrays.
"""

import numpy as np

from mfqcka.channel import total_efficiency
from mfqcka.model import ChannelParams, SourceConfig


def click_probabilities(
    k_a: np.ndarray,
    k_b: np.ndarray,
    delta: np.ndarray,
    xor: np.ndarray,
    eta_t: float,
    p_d: float,
    cos_table: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Left and right click probabilities, written as ``generate_shard`` computes them.

    ``k_a``/``k_b`` are intensities, ``delta`` the slice difference mod M
    and ``xor`` the XOR of the two raw bits, all 1-d arrays of one length.
    """
    sign = 1.0 - 2.0 * xor
    beat = eta_t * np.sqrt(k_a * k_b) * cos_table[delta] * sign
    mean = 0.5 * eta_t * (k_a + k_b)
    i_left = np.maximum(mean + beat, 0.0)
    i_right = np.maximum(mean - beat, 0.0)
    return 1.0 - (1.0 - p_d) * np.exp(-i_left), 1.0 - (1.0 - p_d) * np.exp(-i_right)


def generate_shard(
    config: SourceConfig,
    channel: ChannelParams,
    n_bins: int,
    rng: np.random.Generator,
    cos_table: np.ndarray,
) -> dict[str, np.ndarray]:
    """Simulate one block of bins; returns the retained-bin columns."""
    n_users = config.num_users
    ports = n_users - 1
    m_slices = config.phase_slices
    eta_t = total_efficiency(channel)
    p_d = channel.dark_count_rate
    settings = np.asarray(config.intensities)
    cum = np.cumsum(np.asarray(config.send_probabilities))
    cum[-1] = 1.0  # guard the top edge against rounding

    k_idx = np.searchsorted(cum, rng.random((n_users, n_bins)), side="right").astype(np.int8)
    slices = rng.integers(0, m_slices, size=(n_users, n_bins), dtype=np.int16)
    bits = rng.integers(0, 2, size=(n_users, n_bins), dtype=np.int8)

    success = np.empty((ports, n_bins), dtype=bool)
    d_val = np.empty((ports, n_bins), dtype=np.int8)
    intensities = settings[k_idx]
    for j in range(ports):
        k_a = intensities[j]
        k_b = intensities[j + 1]
        sign = 1.0 - 2.0 * np.bitwise_xor(bits[j], bits[j + 1])
        beat = eta_t * np.sqrt(k_a * k_b) * cos_table[(slices[j] - slices[j + 1]) % m_slices] * sign
        mean = 0.5 * eta_t * (k_a + k_b)
        i_left = np.maximum(mean + beat, 0.0)
        i_right = np.maximum(mean - beat, 0.0)
        click_left = rng.random(n_bins) < 1.0 - (1.0 - p_d) * np.exp(-i_left)
        click_right = rng.random(n_bins) < 1.0 - (1.0 - p_d) * np.exp(-i_right)
        success[j] = click_left ^ click_right
        d_val[j] = click_right

    counts = success.sum(axis=0)
    pick = (rng.random(n_bins) * counts).astype(np.int64)
    cum_success = np.cumsum(success, axis=0)
    chosen = (success & (cum_success == pick + 1)).argmax(axis=0)

    bin_ids = np.flatnonzero(counts > 0)
    port = chosen[bin_ids]
    left = (port, bin_ids)
    right = (port + 1, bin_ids)
    keep = (k_idx[left] == k_idx[right]) & ((slices[left] - slices[right]) % (m_slices // 2) == 0)
    port, bin_ids = port[keep], bin_ids[keep]
    left = (port, bin_ids)
    right = (port + 1, bin_ids)
    return {
        "port": port.astype(np.int8),
        "m": (slices[left] % (m_slices // 2)).astype(np.int16),
        "k_idx": k_idx[left],
        "m_left": (2 * slices[left] // m_slices).astype(np.int8),
        "m_right": (2 * slices[right] // m_slices).astype(np.int8),
        "r_left": bits[left],
        "r_right": bits[right],
        "d": d_val[left],
    }
