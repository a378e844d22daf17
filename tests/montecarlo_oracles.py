"""Scalar and per-bin copies of the simulator, kept as test oracles.

``generate_shard`` is the shard generator that ``mfqcka.montecarlo`` once
ran: it evaluates ``sqrt``, ``cos`` and ``exp`` for every port and bin
and draws the settings with ``searchsorted``.  The package now looks the
click probabilities up in a per-shard table and consumes the same random
stream; the tests require the two to return identical arrays.

``extract_bits`` is the per-record bit extraction the package once
exported next to its array kernel ``montecarlo._conference_bits``; the
tests require the two to agree on every coincidence they are given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


@dataclass(frozen=True)
class TimeBinRecord:
    """Everything one time bin produced, before filtering.

    ``outcomes[j]`` is the port-j result ("none", "left", "right" or
    "both"); ``selected_port`` (1-based) and ``announced_d`` are set when
    the relay saw at least one successful click and broadcast it.
    """

    intensities: tuple[float, ...]
    slice_indices: tuple[int, ...]
    bits: tuple[int, ...]
    outcomes: tuple[str, ...]
    selected_port: int | None
    announced_d: int | None
    phase_slices: int

    def phase_value(self, user: int) -> int:
        """Phase computational bit of ``user`` (1-based): floor(2 M_j / M)."""
        return 2 * self.slice_indices[user - 1] // self.phase_slices


def extract_bits(coincidence: Sequence[TimeBinRecord]) -> tuple[int, ...]:
    """Conference bits of all users from one matched coincidence.

    ``coincidence[i]`` must be the bin announced for port i+1.  User 1
    keeps their raw bit; every other user XORs their raw bit with the
    published phase bits and detector announcements accumulated along the
    port chain, which aligns all bits with user 1 under ideal detection.
    """
    ports = len(coincidence)
    for i, rec in enumerate(coincidence):
        if rec.selected_port != i + 1:
            raise ValueError(f"record {i} does not announce port {i + 1}")
        if rec.announced_d is None:
            raise ValueError(f"missing announcement for port {i + 1}")

    m_of = lambda i, user: coincidence[i].phase_value(user)
    r_of = lambda i, user: coincidence[i].bits[user - 1]

    bits = [r_of(0, 1)]
    m1 = m_of(0, 1)
    d_acc = 0
    m_acc = m1
    mt_acc = 0
    rp_acc = 0
    for j in range(2, ports + 2):  # users 2..N read ports j-1 at index j-2
        t = j - 2
        d_acc ^= coincidence[t].announced_d
        m_acc ^= m_of(t, j)
        if t >= 1:
            mt_acc ^= m_of(t, j - 1)  # user j-1's value in its second bin
            rp_acc ^= r_of(t - 1, j - 1) ^ r_of(t, j - 1)
        bits.append(r_of(t, j) ^ rp_acc ^ d_acc ^ m_acc ^ mt_acc)
    return tuple(bits)


def coincidence_bits(
    slice_left: np.ndarray,
    slice_right: np.ndarray,
    r_left: np.ndarray,
    r_right: np.ndarray,
    d: np.ndarray,
    m_slices: int,
) -> np.ndarray:
    """``extract_bits`` of every column, on records built from the arrays.

    Each argument has the shape (ports, n), port i+1's bin in row i, with
    the slices and raw bits of its left and right users and the
    announcement.  Returns the (N, n) conference bits.
    """
    ports, n = d.shape
    num_users = ports + 1
    out = np.empty((num_users, n), dtype=np.int8)
    for col in range(n):
        records = []
        for i in range(ports):
            intensities = [0.0] * num_users
            slices = [0] * num_users
            bits = [0] * num_users
            intensities[i] = intensities[i + 1] = 0.1
            slices[i], slices[i + 1] = int(slice_left[i, col]), int(slice_right[i, col])
            bits[i], bits[i + 1] = int(r_left[i, col]), int(r_right[i, col])
            outcomes = ["none"] * ports
            outcomes[i] = "right" if d[i, col] else "left"
            records.append(
                TimeBinRecord(
                    intensities=tuple(intensities),
                    slice_indices=tuple(slices),
                    bits=tuple(bits),
                    outcomes=tuple(outcomes),
                    selected_port=i + 1,
                    announced_d=int(d[i, col]),
                    phase_slices=m_slices,
                )
            )
        out[:, col] = extract_bits(records)
    return out
